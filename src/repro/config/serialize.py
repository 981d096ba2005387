"""Dict serialization and the one field check for plain dataclass records.

The configuration tree, the workload and benchmark specs, the sweep spec
(:class:`~repro.sweep.spec.SweepSpec` with its axes and workload set), the
energy breakdown (:class:`~repro.power.dram_power.EnergyBreakdown`), the
jobs and the result records (:class:`~repro.sim.results.SimulationResult`,
the sweep cells) are plain dataclasses.  ``to_plain`` walks them (and
enums) down to JSON primitives without a hand-kept field list,
``canonical`` is the one JSON form every emitted experiment result is
written in, and ``from_plain`` rebuilds a record from such a dict.

:func:`check_fields` is the one type check: every config, spec, workload,
job and result record calls it first in ``__post_init__``, so presets,
``dataclasses.replace``, sweep points, ``from_plain`` and the remote wire
all pass through it.  Each field's annotation is its type and its
allowed values: an int given for a ``float`` becomes a float, an integral
float given for an ``int`` becomes an int (``8.0`` and ``8`` are one
config and one job key), an enum field's value becomes a member, a
``Literal[...]`` field must hold a listed value, a list given for a
``tuple[...]`` becomes a tuple of checked items, a ``dict[K, V]`` has its
keys and values checked and a dict given for a nested record becomes that
record.  Any other value of the wrong type
(a bool or str for a number, ``8.5`` for an int) is refused naming the
record and field: ``DRAMTimings.tCL: expects an int, got str '11'``.
Range checks stay in each record's ``__post_init__``, after this one.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import reprlib
import types
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


class _DecodeError(Exception):
    """A plain value cannot become its record; :func:`from_plain`
    re-raises it as the caller's error class."""


class _Refused(Exception):
    """A value does not have its field's declared type; ``args`` are
    where in the field it sits, the type expected there and the value."""


@functools.cache
def _required(cls: type) -> tuple[str, ...]:
    """Fields of a dataclass type that have no default."""
    return tuple(
        field.name
        for field in dataclasses.fields(cls)
        if field.default is dataclasses.MISSING
        and field.default_factory is dataclasses.MISSING
    )


def _decode(cls: type, data):
    if not isinstance(data, dict):
        raise _DecodeError(
            f"{cls.__name__} expects an object, got {type(data).__name__}"
        )
    names = _field_names(cls)
    unknown = sorted(data.keys() - set(names))
    if unknown:
        raise _DecodeError(
            f"unknown {cls.__name__} keys: {', '.join(unknown)}; "
            f"expected only: {', '.join(sorted(names))}"
        )
    missing = [name for name in _required(cls) if name not in data]
    if missing:
        raise _DecodeError(
            f"{cls.__name__} is missing required keys: {', '.join(missing)}"
        )
    try:
        return cls(**data)
    except ValueError as problem:  # the record's own checks
        raise _DecodeError(str(problem)) from None


#: How error messages name the JSON shape a container annotation expects.
_SHAPES = {list: "a list", tuple: "a list", dict: "an object", type(None): "None"}


def _describe(target) -> str:
    """What a field annotated ``target`` accepts, for an error message."""
    origin = typing.get_origin(target) or target
    if origin in (typing.Union, types.UnionType):
        return " or ".join(map(_describe, typing.get_args(target)))
    if origin is typing.Literal or issubclass(origin, enum.Enum):
        choices = typing.get_args(target) or [member.value for member in origin]
        return "one of " + ", ".join(map(repr, choices))
    if origin in _SHAPES:
        return _SHAPES[origin]
    name = origin.__name__
    return f"{'an' if name[0] in 'aeiouAEIOU' else 'a'} {name}"


def _canonical(target, value):
    """``value`` as a field annotated ``target`` stores it; raises
    :class:`_Refused` when it is not of that type."""
    origin = typing.get_origin(target) or target
    args = typing.get_args(target)
    if dataclasses.is_dataclass(origin) and not isinstance(value, origin):
        return _decode(origin, value)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        if not args:
            return origin(value)
        items = []
        for index, item in enumerate(value):
            try:
                items.append(_canonical(args[0], item))
            except _Refused as refused:
                where, *expected = refused.args
                raise _Refused(f"[{index}]{where}", *expected) from None
        return origin(items)
    if origin is dict and isinstance(value, dict) and args:
        entries = {}
        for key, item in value.items():
            try:
                entries[_canonical(args[0], key)] = _canonical(args[1], item)
            except _Refused as refused:
                where, *expected = refused.args
                raise _Refused(f"[{key!r}]{where}", *expected) from None
        return entries
    if origin in (typing.Union, types.UnionType):  # Optional[...]
        if value is None:
            return value
        try:
            return _canonical(next(a for a in args if a is not type(None)), value)
        except _Refused:
            raise _Refused("", target, value) from None
    if origin is typing.Literal:
        accepted = any(type(value) is type(arg) and value == arg for arg in args)
    elif issubclass(origin, enum.Enum):
        try:
            return origin(value)
        except (TypeError, ValueError):
            accepted = False
    elif origin is float:
        accepted = isinstance(value, (int, float)) and not isinstance(value, bool)
        value = float(value) if accepted else value
    elif origin is int:
        accepted = isinstance(value, float) and value.is_integer() or (
            isinstance(value, int) and not isinstance(value, bool)
        )
        value = int(value) if accepted else value
    else:  # str, bool, dict and nested records
        accepted = isinstance(value, origin)
    if not accepted:
        raise _Refused("", target, value)
    return value


@functools.cache
def _checks(cls: type) -> tuple[tuple[str, object, typing.Optional[type]], ...]:
    """``(name, annotation, exact)`` of each field of a dataclass: a value
    of type ``exact`` is canonical as it is, and needs no check.

    Cached per class: ``typing.get_type_hints`` re-evaluates every string
    annotation on each call and would dominate the check.
    """
    hints = typing.get_type_hints(cls)
    return tuple(
        (name, hints[name], None if typing.get_origin(hints[name]) else hints[name])
        for name in _field_names(cls)
    )


def check_fields(record, error: type[Exception] = ValueError) -> None:
    """Check each field of a dataclass record against its annotation (see
    the module docstring); call first in ``__post_init__``.  A canonical
    value is stored in place; a refused one raises ``error`` naming the
    record and field."""
    # getattr, not vars(): reading __dict__ turns the record's inline
    # attribute values into a dict, and every later attribute read (the
    # simulator's hot loop reads these records) gets slower.
    for name, target, exact in _checks(type(record)):
        value = getattr(record, name)
        if type(value) is exact:
            continue
        try:
            canonical = _canonical(target, value)
        except _Refused as refused:
            where, target, value = refused.args
            raise error(
                f"{type(record).__name__}.{name}{where}: expects "
                f"{_describe(target)}, got {type(value).__name__} "
                f"{reprlib.repr(value)}"
            ) from None
        except _DecodeError as problem:  # in a nested record
            raise error(f"{type(record).__name__}.{name}: {problem}") from None
        if canonical is not value:
            object.__setattr__(record, name, canonical)


def from_plain(cls: type, data: dict, error: type[Exception] = ValueError):
    """Rebuild a record that calls :func:`check_fields` from
    :func:`to_plain` output: its check turns nested dicts into records.

    Unknown keys are an error (a typo'd key would otherwise silently fall
    back to the field default and configure a different system than the
    author intended), as are missing required keys and every
    ``ValueError`` a record's ``__post_init__`` raises (its field check or
    its range checks).  Each raises ``error``, naming the path of nested
    fields down to the key.  Missing optional keys keep their defaults.
    """
    try:
        return _decode(cls, data)
    except _DecodeError as problem:
        raise error(str(problem)) from None
