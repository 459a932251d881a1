"""Exception types shared across the package.

``ValueError`` is reserved for programmer-level precondition violations
(bad argument shapes, out-of-range parameters).  The exceptions below mark
problems with user-supplied configuration or runtime data, which the CLI
maps onto distinct exit codes.  The file readers (mission log, world,
topic model checkpoint) parse through :func:`json_object` inside
:func:`data_errors`, so every malformed file becomes a :class:`DataError`.

Every config dataclass checks itself once, in ``__post_init__``, through
:func:`check_section`; code that receives a section need not check it again.
"""

import dataclasses
import functools
import json
import sys
import types
import typing
from contextlib import contextmanager


class ReefsimError(Exception):
    """Base class for package-specific errors."""


class ConfigError(ReefsimError):
    """Invalid or inconsistent run configuration (CLI exit code 2)."""


class DataError(ReefsimError):
    """Unusable input data at runtime (CLI exit code 3)."""


class SaturatedWindowError(DataError):
    """Audio window is thruster-saturated and carries no usable signal."""


class DegenerateDataError(DataError):
    """Statistical operation received degenerate input (constant series,
    rank-deficient design beyond ridge rescue, empty track)."""


field_types = functools.cache(typing.get_type_hints)  # a dataclass's resolved annotations, once per class


def check_section(section, *rules) -> None:
    """Check a config dataclass from its ``__post_init__``.  Each field must
    match its annotation: a ``float`` is a finite int or float, an ``int`` an
    int (a bool is neither), a tuple has the declared length, ``X | None``
    also takes ``None``, a nested section is an instance of its class.  Then
    each rule ``(field, ok, message)`` runs in order, and the first whose
    ``ok()`` is false raises.  A :class:`ConfigError` message starts with the
    field name; the config loader prefixes the section path."""
    hints = field_types(type(section))
    for f in dataclasses.fields(section):
        _check_value(hints[f.name], getattr(section, f.name), f.name)
    for name, ok, message in rules:
        if not ok():
            raise ConfigError(f"{name} {message}")


def _check_value(annotation, value, name: str) -> None:
    if isinstance(annotation, types.UnionType):  # ``X | None``
        if value is None:
            return
        (annotation,) = [a for a in typing.get_args(annotation) if a is not type(None)]
    if typing.get_origin(annotation) is tuple:
        if not isinstance(value, tuple):
            raise ConfigError(f"{name}: expected a tuple, got {value!r}")
        args = typing.get_args(annotation)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{name}: expected {len(args)} values, got {len(value)}")
        for i, (item_annotation, item) in enumerate(zip(args, value)):
            _check_value(item_annotation, item, f"{name}[{i}]")
        return
    if annotation is float:
        # A comparison, not math.isfinite: that overflows on a huge int.
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    else:
        ok = isinstance(value, annotation) and not (annotation is int and isinstance(value, bool))
    if not ok:
        kind = "a finite number" if annotation is float else annotation.__name__
        raise ConfigError(f"{name}: expected {kind}, got {value!r}")


@contextmanager
def data_errors(where: str):
    """Turn an unreadable file, a parse error, a missing key, a value of the
    wrong type or a config that fails its check inside the block into a
    :class:`DataError` naming ``where`` (a file, or a file and line)."""
    try:
        yield
    except (OSError, LookupError, TypeError, ValueError, ConfigError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"{where}: {reason}") from exc


def json_object(text: str) -> dict:
    """Parse one JSON object; any other JSON value raises ``TypeError``."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload
