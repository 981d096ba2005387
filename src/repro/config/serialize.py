"""Dict serialization for the (nested, frozen) configuration dataclasses.

The configuration tree is plain frozen dataclasses with primitive fields,
nested sub-configs and the :class:`~repro.config.refresh_config.RefreshMechanism`
enum.  These two helpers give every config class a JSON-compatible
``to_dict``/``from_dict`` pair without hand-maintaining field lists:
``to_plain`` walks dataclasses and enums down to primitives, and
``from_plain`` rebuilds the tree from type hints, re-running each
dataclass's ``__post_init__`` validation on the way up.
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


def to_plain(value: object) -> object:
    """Recursively convert a config value to JSON-compatible primitives."""
    if isinstance(value, enum.Enum):
        return value.value
    names = _field_names(type(value))
    if names is not None:
        return {name: to_plain(getattr(value, name)) for name in names}
    if isinstance(value, (list, tuple)):
        return [to_plain(item) for item in value]
    return value


def from_plain(cls: type, data: dict):
    """Rebuild a config dataclass from :func:`to_plain` output.

    Unknown keys are an error (a typo'd key would otherwise silently fall
    back to the field default and configure a different system than the
    author intended); missing keys keep their defaults.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"{cls.__name__} expects a mapping, got {type(data).__name__}"
        )
    field_types = typing.get_type_hints(cls)
    known = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    kwargs = {}
    for field in dataclasses.fields(cls):
        if field.name not in data:
            continue
        target = field_types[field.name]
        value = data[field.name]
        if dataclasses.is_dataclass(target) and isinstance(value, dict):
            value = from_plain(target, value)
        elif isinstance(target, type) and issubclass(target, enum.Enum):
            value = target(value)
        kwargs[field.name] = value
    return cls(**kwargs)
