"""Exception hierarchy shared across the package, and the seed check that
every seeded entry point runs."""

import numbers


class WasspropError(Exception):
    """Base class for all package-specific errors."""


class InputError(WasspropError, ValueError):
    """Malformed or inconsistent caller input."""


class DimensionError(InputError):
    """Operands live on different grids / have different dimensions."""


class NormalizationError(InputError):
    """Probability masses do not sum to one within tolerance."""


class StructureError(WasspropError):
    """Graph structure violates an operation's requirements (e.g. disconnected)."""


class NumericalError(WasspropError):
    """A numerical routine failed to reach its accuracy contract."""


class HypothesisError(WasspropError):
    """A mathematical hypothesis the computed quantity depends on does not hold."""


def check_seed(seed) -> int:
    """The seed as a Python int.  numpy integers are accepted and draw what
    the equal int draws; a non-integral or negative seed is an InputError
    here rather than a numpy error later."""
    if not isinstance(seed, numbers.Integral):
        raise InputError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return int(seed)
