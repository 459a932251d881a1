"""Exception types shared across the package.

``ValueError`` is reserved for programmer-level precondition violations
(bad argument shapes, out-of-range parameters).  The exceptions below mark
problems with user-supplied configuration or runtime data, which the CLI
maps onto distinct exit codes.
"""

import math


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
