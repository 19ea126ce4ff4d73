"""Exception hierarchy shared across the package, and the input rules that
several modules share: `check_seed`, `check_positive` and `check_vertex_range`."""

import numbers

import numpy as np


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


def check_positive(name: str, value) -> float:
    """`value` as a float; InputError names `name` unless it is positive and finite."""
    if not 0 < value < np.inf:
        raise InputError(f"{name} must be positive and finite, got {value}")
    return float(value)


def check_vertex_range(what: str, vertices, n: int) -> np.ndarray:
    """`vertices` as an intp array; InputError names the first outside [0, n)."""
    try:
        a = np.array(vertices, dtype=np.intp)
    except OverflowError:  # a vertex past intp is outside [0, n)
        a = np.array(vertices, dtype=object)
    outside = a[(a < 0) | (a >= n)]
    if outside.size:
        raise InputError(f"{what} vertex {outside[0]} outside [0, {n})")
    return a
