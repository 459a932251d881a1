"""Exception types shared across the package.

``ValueError`` is reserved for programmer-level precondition violations
(bad argument shapes, out-of-range parameters).  The exceptions below mark
problems with user-supplied configuration or runtime data, which the CLI
maps onto distinct exit codes.  The file readers (mission log, world,
topic model checkpoint) parse through :func:`json_object` inside
:func:`data_errors`, so every malformed file becomes a :class:`DataError`.
"""

import json
import math
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


def finite(*values) -> bool:
    """True when every value is a finite number.

    Range checks on configuration start with this: NaN compares false with
    everything, so ``x <= 0`` alone lets it through.
    """
    return all(math.isfinite(v) for v in values)


@contextmanager
def data_errors(where: str):
    """Turn an unreadable file, a parse error, a missing key or a value of
    the wrong type inside the block into a :class:`DataError` naming
    ``where`` (a file, or a file and line)."""
    try:
        yield
    except (OSError, LookupError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"{where}: {reason}") from exc


def json_object(text: str) -> dict:
    """Parse one JSON object; any other JSON value raises ``TypeError``."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload
