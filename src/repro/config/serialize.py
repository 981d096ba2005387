"""Dict serialization for plain dataclass records.

The configuration tree, the workload and benchmark specs and the result
records (:class:`~repro.sim.results.SimulationResult`, the sweep cells) are
plain dataclasses whose fields are primitives, nested dataclasses, lists
or tuples of dataclasses, flat dicts and the
:class:`~repro.config.refresh_config.RefreshMechanism` enum.  These two
helpers give every one of them a JSON-compatible ``to_dict``/``from_dict``
pair without hand-maintaining field lists: ``to_plain`` walks dataclasses
and enums down to primitives, and ``from_plain`` rebuilds the tree from
type hints, re-running each dataclass's ``__post_init__`` validation on
the way up.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
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


def _as_float(value):
    # JSON gives 64 where a preset says 64.0; a float field must not hold
    # an int, or equal configs would serialize (and key) differently.
    return float(value) if type(value) is int else value


def _decoder(target) -> typing.Optional[typing.Callable]:
    """How a plain value of annotated type ``target`` is rebuilt, or
    None when it is used as is."""
    if dataclasses.is_dataclass(target):
        return functools.partial(from_plain, target)
    if target is float:
        return _as_float
    if isinstance(target, type) and issubclass(target, enum.Enum):
        return target
    origin = typing.get_origin(target)
    if target is dict or origin is dict:
        return dict
    if origin in (list, tuple):
        item = _decoder(typing.get_args(target)[0])
        if item is not None:
            return lambda items: origin(item(x) for x in items)
    return None


@functools.cache
def _decoders(cls: type) -> dict[str, typing.Optional[typing.Callable]]:
    """Field name -> :func:`_decoder` of a dataclass type.

    Cached per class: ``typing.get_type_hints`` re-evaluates every string
    annotation on each call and would dominate decoding.
    """
    hints = typing.get_type_hints(cls)
    return {name: _decoder(hints[name]) for name in _field_names(cls)}


def store_floats(record) -> None:
    """Store each int given for a float-annotated field of a frozen
    dataclass as a float (call from ``__post_init__``), so presets, sweep
    axes, Python callers and :func:`from_plain` build one config, and one
    job key, from ``64`` and ``64.0``."""
    for name, decode in _decoders(type(record)).items():
        if decode is _as_float:
            object.__setattr__(record, name, _as_float(getattr(record, name)))


def from_plain(cls: type, data: dict):
    """Rebuild a dataclass from :func:`to_plain` output.

    Unknown keys are an error (a typo'd key would otherwise silently fall
    back to the field default and configure a different system than the
    author intended); missing keys keep their defaults.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"{cls.__name__} expects a mapping, got {type(data).__name__}"
        )
    decoders = _decoders(cls)
    unknown = sorted(data.keys() - decoders.keys())
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    kwargs = {}
    for name, value in data.items():
        decode = decoders[name]
        kwargs[name] = value if decode is None else decode(value)
    return cls(**kwargs)
