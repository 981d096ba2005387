"""Dict serialization for plain dataclass records.

The configuration tree, the workload and benchmark specs, the sweep spec
(:class:`~repro.sweep.spec.SweepSpec` with its axes and workload set), the
energy breakdown (:class:`~repro.power.dram_power.EnergyBreakdown`) and the
result records (:class:`~repro.sim.results.SimulationResult`, the sweep
cells) are plain dataclasses whose fields are primitives, nested
dataclasses, lists or tuples of dataclasses, flat dicts and the
:class:`~repro.config.refresh_config.RefreshMechanism` enum.  These
helpers give every one of them a JSON-compatible ``to_dict``/``from_dict``
pair without hand-maintaining field lists: ``to_plain`` walks dataclasses
and enums down to primitives, ``from_plain`` rebuilds the tree from type
hints, re-running each dataclass's ``__post_init__`` validation on the way
up, and ``canonical`` is the one JSON form every emitted experiment
result is written in.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import typing


@functools.cache
def _field_names(cls: type) -> typing.Optional[tuple[str, ...]]:
    """Field names of a dataclass type, in declaration order; else None."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(field.name for field in dataclasses.fields(cls))


#: Leaf types returned as they are (checked first: most leaves are these).
_SCALARS = frozenset((int, float, str, bool, type(None)))


def to_plain(value: object) -> object:
    """Recursively convert a record to JSON-compatible primitives.

    Dataclasses become dicts, enums their values, tuples lists; dicts are
    copied, so the plain form never aliases the record's own state.
    """
    if type(value) in _SCALARS:
        return value
    if isinstance(value, enum.Enum):
        return value.value
    names = _field_names(type(value))
    if names is not None:
        return {name: to_plain(getattr(value, name)) for name in names}
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: to_plain(item) for key, item in value.items()}
    return value


def canonical(value: object) -> object:
    """:func:`to_plain` output as JSON hands it back: dict keys become
    strings and tuples lists, so it compares equal to a parsed document."""
    return json.loads(json.dumps(to_plain(value), sort_keys=True))


class _ShapeError(Exception):
    """A plain value does not have its field's shape; :func:`from_plain`
    re-raises it as the caller's error class."""


def _expect(value, kinds: tuple[type, ...], expected: str):
    if not isinstance(value, kinds):
        raise _ShapeError(f"expects {expected}, got {type(value).__name__}")
    return value


def _as_float(value):
    # JSON gives 64 where a preset says 64.0; a float field must not hold
    # an int, or equal configs would serialize (and key) differently.
    return float(value) if type(value) is int else value


def _decoder(target) -> typing.Optional[typing.Callable]:
    """How a plain value of annotated type ``target`` is rebuilt, or
    None when it is used as is."""
    if dataclasses.is_dataclass(target):
        return functools.partial(_decode, target)
    if target is float:
        return _as_float
    if isinstance(target, type) and issubclass(target, enum.Enum):
        return target
    origin = typing.get_origin(target) or target
    if origin is dict:
        return lambda value: dict(_expect(value, (dict,), "an object"))
    if origin in (list, tuple):
        args = typing.get_args(target)
        item = _decoder(args[0]) if args else None
        if item is None:
            return lambda items: origin(_expect(items, (list, tuple), "a list"))
        return lambda items: origin(
            item(x) for x in _expect(items, (list, tuple), "a list")
        )
    return None


@functools.cache
def _decoders(cls: type) -> dict[str, typing.Optional[typing.Callable]]:
    """Field name -> :func:`_decoder` of a dataclass type.

    Cached per class: ``typing.get_type_hints`` re-evaluates every string
    annotation on each call and would dominate decoding.
    """
    hints = typing.get_type_hints(cls)
    return {name: _decoder(hints[name]) for name in _field_names(cls)}


@functools.cache
def _required(cls: type) -> tuple[str, ...]:
    """Fields of a dataclass type that have no default."""
    return tuple(
        field.name
        for field in dataclasses.fields(cls)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    )


def store_floats(record) -> None:
    """Store each int given for a float-annotated field of a frozen
    dataclass as a float (call from ``__post_init__``), so presets, sweep
    axes, Python callers and :func:`from_plain` build one config, and one
    job key, from ``64`` and ``64.0``."""
    for name, decode in _decoders(type(record)).items():
        if decode is _as_float:
            object.__setattr__(record, name, _as_float(getattr(record, name)))


def _decode(cls: type, data):
    if not isinstance(data, dict):
        raise _ShapeError(
            f"{cls.__name__} expects an object, got {type(data).__name__}"
        )
    decoders = _decoders(cls)
    unknown = sorted(data.keys() - decoders.keys())
    if unknown:
        raise _ShapeError(
            f"unknown {cls.__name__} keys: {', '.join(unknown)}; "
            f"expected only: {', '.join(sorted(decoders))}"
        )
    missing = [name for name in _required(cls) if name not in data]
    if missing:
        raise _ShapeError(
            f"{cls.__name__} is missing required keys: {', '.join(missing)}"
        )
    kwargs = {}
    for name, value in data.items():
        decode = decoders[name]
        if decode is not None:
            try:
                value = decode(value)
            except _ShapeError as error:
                raise _ShapeError(f"{cls.__name__}.{name}: {error}") from None
        kwargs[name] = value
    return cls(**kwargs)


def from_plain(cls: type, data: dict, error: type[Exception] = ValueError):
    """Rebuild a dataclass from :func:`to_plain` output.

    Unknown keys are an error (a typo'd key would otherwise silently fall
    back to the field default and configure a different system than the
    author intended), as are missing required keys and a list, object or
    nested record given a value of another shape; each raises ``error``
    naming the key.  Missing optional keys keep their defaults.
    """
    try:
        return _decode(cls, data)
    except _ShapeError as problem:
        raise error(str(problem)) from None
