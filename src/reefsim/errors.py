"""Exception types, and the one builder that reads config and files.

``ValueError`` is reserved for programmer-level precondition violations
(bad argument shapes, out-of-range parameters).  The exceptions below mark
problems with user-supplied configuration or runtime data, which the CLI
maps onto distinct exit codes.

Config and files are read the same way.  :func:`build` turns a parsed YAML
or JSON value into the dataclass its annotation names, and every field is
checked against its annotation by :func:`check_section`.  Every config
dataclass checks itself once, in ``__post_init__``; code that receives a
section need not check it again.  So do the mission log, the world and the
topic checkpoint, which are built once per file.  A mission-log record and
its audio reference have no ``__post_init__``: the vehicle loop builds them
unchecked, and :func:`build` checks them where a log is read.  These
dataclasses are the files' schema, on both sides: the readers build them
and the writers write their fields, so a field added to one is read and
written with no second edit.  The file readers parse through
:func:`json_object` inside :func:`data_errors`, so every malformed file
becomes a :class:`DataError`.  Every JSON file the package writes (the
world, the topic checkpoint and both logs) goes through the one JSON-lines
writer, :func:`write_json_lines`; a log's header and end line are the log
dataclass's fields on either side of its item list
(:func:`fields_around`).  Every CSV file goes through :func:`write_csv`.
"""

import csv
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
_FLOAT_MAX = sys.float_info.max


def check_section(section, *rules) -> None:
    """Check a dataclass, from its ``__post_init__`` or from :func:`build`.
    Each field must match its annotation: a ``float`` is a finite int or
    float, an ``int`` an int (a bool is neither), a tuple has the declared
    length, a ``list[X]`` is a list, ``X | None`` also takes ``None``, a
    nested dataclass is an instance of its class.  Then each rule
    ``(field, ok, message)`` runs in order, and the first whose ``ok()`` is
    false raises.  A :class:`ConfigError` message starts with the field
    name; :func:`build` prefixes the dotted path."""
    for name, annotation in field_types(type(section)).items():
        check_value(annotation, getattr(section, name), name)
    for name, ok, message in rules:
        if not ok():
            raise ConfigError(f"{name} {message}")


@functools.cache
def _parts(annotation) -> tuple:
    """Take an annotation apart, once: whether it takes ``None``, the rest
    of it, that rest's generic origin and arguments (a ``list[X]``'s written
    as ``(X, ...)``), and the one annotation all items of a sequence share,
    or None."""
    optional = isinstance(annotation, types.UnionType)
    if optional:
        (annotation,) = [a for a in typing.get_args(annotation) if a is not type(None)]
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is list:
        args = (*args, ...)
    shared = set(args) - {...}
    return optional, annotation, origin, args, shared.pop() if len(shared) == 1 else None


def check_value(annotation, value, name: str) -> None:
    """Check one value against its annotation, as :func:`check_section`
    checks a field; the message names ``name``."""
    optional, annotation, origin, args, item = _parts(annotation)
    if value is None and optional:
        return
    if origin in (tuple, list):
        if not isinstance(value, origin):
            raise ConfigError(f"{name}: expected a {origin.__name__}, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigError(f"{name}: expected {len(args)} values, got {len(value)}")
        # A flat pass over the items, without a call per item, passes them
        # all or falls through to the walk, which names the bad item.  A sum
        # of floats is finite only if every float is.
        kinds = set(map(type, value))
        if kinds <= {item} and (item is not float or abs(sum(value)) <= _FLOAT_MAX):
            return
        for i, item_value in enumerate(value):
            check_value(args[0] if args[-1] is Ellipsis else args[i], item_value, f"{name}[{i}]")
        return
    if annotation is float:
        # A comparison, not math.isfinite: that overflows on a huge int.
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= _FLOAT_MAX
    else:
        annotation = origin or annotation  # ``dict[K, V]`` is checked as a dict
        ok = isinstance(value, annotation) and not (annotation is int and isinstance(value, bool))
    if not ok:
        kind = "a finite number" if annotation is float else annotation.__name__
        raise ConfigError(f"{name}: expected {kind}, got {value!r}")


def build(annotation, value, where: str = ""):
    """Convert a parsed YAML or JSON value for a field annotated
    ``annotation``: a mapping becomes its dataclass (unknown keys rejected),
    a list a list for a ``list[X]`` field and a tuple otherwise.  A config
    dataclass checks itself in ``__post_init__``; one without it (a file
    record) is checked here.  A :class:`ConfigError` gets the dotted path
    ``where`` as a prefix."""
    if type(value) is list:
        return value if _parts(annotation)[2] is list else tuple(value)
    annotation = _parts(annotation)[1]
    if type(value) is not dict or not dataclasses.is_dataclass(annotation):
        return value
    hints = field_types(annotation)
    prefix = f"{where}: " if where else ""
    if not value.keys() <= hints.keys():
        raise ConfigError(f"{prefix}unknown keys {sorted(value.keys() - hints.keys(), key=str)}")
    kwargs = {key: build(hints[key], v, f"{where}.{key}" if where else key) for key, v in value.items()}
    try:
        built = annotation(**kwargs)
        if not hasattr(annotation, "__post_init__"):
            check_section(built)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}" if where else str(exc)) from exc
    except TypeError:
        missing = [f.name for f in dataclasses.fields(annotation) if f.name not in value and f.default is f.default_factory is dataclasses.MISSING]
        if not missing:
            raise
        raise ConfigError(f"{prefix}missing keys {missing}") from None
    return built


@contextmanager
def data_errors(where: str):
    """Turn an unreadable file, a parse error, a missing key, a value of the
    wrong type, a config that fails its check or a :class:`DataError` raised
    inside the block into a :class:`DataError` naming ``where`` (a file, or
    a file and line)."""
    try:
        yield
    except (OSError, LookupError, TypeError, ValueError, ReefsimError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"{where}: {reason}") from exc


def json_object(text: str) -> dict:
    """Parse one JSON object; any other JSON value raises ``TypeError``."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def json_line(payload) -> str:
    """``payload`` as one compact JSON line with sorted keys, the form of
    every file the package writes; a dataclass in it is written as its
    fields (``vars``)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=vars)


def write_json_lines(path, payloads) -> None:
    """Write each payload as its :func:`json_line` followed by ``\\n``."""
    with open(path, "w") as f:
        for payload in payloads:
            f.write(json_line(payload) + "\n")


def fields_around(instance, name: str) -> tuple[dict, dict]:
    """A dataclass instance's fields declared before and after its field
    ``name``, as two dicts: a log's header and end line, around its list of
    records or frames."""
    items = [(f.name, getattr(instance, f.name)) for f in dataclasses.fields(instance)]
    split = [key for key, _ in items].index(name)
    return dict(items[:split]), dict(items[split + 1:])


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV lines ending in ``\\n``.  A
    cell is written as ``str(value)`` and ``None`` as an empty cell, so pass
    Python scalars (``.tolist()``, ``float(...)``); a numpy scalar may print
    otherwise."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
