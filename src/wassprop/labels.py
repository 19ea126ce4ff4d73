"""Distribution-valued labels and their transport calculus.

Two label backends are provided:

* ``QuantileLabel``: a one-dimensional distribution stored as its quantile
  function (inverse CDF) sampled on a fixed midpoint grid over (0, 1).  In
  this representation the squared 2-Wasserstein distance is the squared L2
  distance between sample vectors, and weighted barycenters are weighted
  averages, so all transport operations are exact and closed-form.
* ``DiagGaussianLabel``: a b-dimensional Gaussian with diagonal covariance,
  stored as (mean, std) vectors.  Distances and barycenters use the
  coordinate-wise closed forms and never touch a grid.

`check_same_grid` is the grid rule of the package, and `_barycenter_weights`
checks the weights of both barycenters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .errors import DimensionError, InputError, NormalizationError

MASS_TOL = 1e-9  # absolute tolerance for histogram mass normalization


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class QuantileGrid:
    """Uniform midpoint grid on (0, 1) with S nodes s_j = (j - 1/2)/S.

    The midpoints avoid the endpoints 0 and 1, where quantile functions of
    unbounded distributions diverge.  Integrals over [0, 1] are discretized
    by the midpoint rule: (1/S) * sum over nodes.
    """

    size: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 1:
            raise InputError(f"grid size must be >= 1, got {self.size}")
        nodes = (np.arange(self.size) + 0.5) / self.size
        object.__setattr__(self, "nodes", _readonly(nodes))

    def integrate(self, samples: np.ndarray) -> float:
        """Midpoint-rule integral of a function sampled on the nodes."""
        return float(np.sum(samples)) / self.size


DEFAULT_GRID_SIZE = 1024


def check_quantile_samples(values: np.ndarray, shape: Tuple[int, ...]) -> None:
    """Raise unless `values` has `shape` and each row along the last axis is
    a valid inverse CDF: finite and non-decreasing.  Checks one label's
    samples or a whole block of them at once."""
    if values.shape != shape:
        raise DimensionError(f"expected quantile samples of shape {shape}, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("quantile samples must be finite")
    if np.any(values[..., 1:] < values[..., :-1]):
        raise InputError("quantile samples must be non-decreasing")


def check_same_grid(a: QuantileGrid, b: QuantileGrid) -> None:
    """Raise DimensionError unless the grids match; every grid comparison calls it."""
    if a.size != b.size:
        raise DimensionError(f"grid mismatch: S={a.size} vs S={b.size}")


@dataclass(frozen=True)
class QuantileLabel:
    """One-dimensional distribution as quantile samples values[j] = F^{-1}(s_j).

    The sample vector must be finite and non-decreasing (a valid inverse CDF).
    Instances are immutable; all operations on them are pure functions.
    """

    grid: QuantileGrid
    values: np.ndarray

    def __post_init__(self):
        v = _readonly(self.values)
        check_quantile_samples(v, (self.grid.size,))
        object.__setattr__(self, "values", v)

    def mean(self) -> float:
        """Distribution mean, i.e. the grid average of the quantile samples."""
        return float(np.mean(self.values))


@dataclass(frozen=True)
class DiagGaussianLabel:
    """b-dimensional Gaussian with diagonal covariance, as (mean, std) vectors."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = _readonly(np.atleast_1d(self.mean))
        s = _readonly(np.atleast_1d(self.std))
        if m.ndim != 1 or s.ndim != 1 or m.shape != s.shape or m.size < 1:
            raise DimensionError(
                f"mean and std must be equal-length vectors, got {m.shape} and {s.shape}"
            )
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise InputError("Gaussian means and standard deviations must be finite")
        if np.any(s < 0):
            raise InputError("standard deviations must be non-negative")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class DominatedQuantileEnvelope:
    """Non-negative envelope phi sampled on a grid, with its squared L2 norm.

    A quantile label is dominated by the envelope when |F^{-1}(s_j)| <= phi[j]
    at every node.  ``phi_l2_squared`` is the midpoint-rule value of
    the integral of phi^2 over [0, 1].
    """

    grid: QuantileGrid
    phi: np.ndarray
    phi_l2_squared: float = field(init=False)

    def __post_init__(self):
        p = _readonly(self.phi)
        if p.shape != (self.grid.size,):
            raise DimensionError(
                f"expected {self.grid.size} envelope samples, got shape {p.shape}"
            )
        if np.any(p < 0):
            raise InputError("envelope samples must be non-negative")
        with np.errstate(over="ignore"):  # an overflow is raised below
            phi_l2_squared = self.grid.integrate(p * p)
        if not np.isfinite(phi_l2_squared):
            raise InputError(f"envelope's squared L2 norm overflows (largest sample {float(p.max())!r})")
        object.__setattr__(self, "phi", p)
        object.__setattr__(self, "phi_l2_squared", phi_l2_squared)


def quantile_from_histogram(
    bin_values: Sequence[float],
    masses: Sequence[float],
    grid: QuantileGrid,
) -> QuantileLabel:
    """Quantile label of a discrete distribution given as (bin, mass) pairs.

    Uses the right-continuous generalized inverse
    F^{-1}(s) = inf{x : F(x) > s}: at each grid node the smallest bin value
    whose cumulative mass strictly exceeds the node.
    """
    b = np.asarray(bin_values, dtype=float)
    w = np.asarray(masses, dtype=float)
    if b.ndim != 1 or b.shape != w.shape or b.size == 0:
        raise InputError("bin_values and masses must be equal-length non-empty vectors")
    if np.any(np.diff(b) <= 0):
        raise InputError("bin_values must be strictly increasing")
    if not np.all((w >= 0) & (w < np.inf)):
        raise InputError("masses must be non-negative and finite")
    total = float(w.sum())
    if not abs(total - 1.0) <= MASS_TOL:  # NaN fails it too
        raise NormalizationError(f"masses sum to {total}, expected 1 within {MASS_TOL}")
    cum = np.cumsum(w / total)
    # first index with cumulative mass strictly above the node
    idx = np.searchsorted(cum, grid.nodes, side="right")
    idx = np.minimum(idx, b.size - 1)  # guard the s -> 1 edge against rounding
    return QuantileLabel(grid, b[idx])


def standard_normal_quantiles(grid: QuantileGrid) -> np.ndarray:
    """The standard normal quantile function (inverse CDF) at the grid nodes."""
    from scipy.special import ndtri  # loaded here: only Gaussian quantiles need it

    return ndtri(grid.nodes)


def gaussian_quantile_label(mean: float, std: float, grid: QuantileGrid) -> QuantileLabel:
    """Quantile samples of a univariate Gaussian N(mean, std^2) on the grid."""
    if std < 0:
        raise InputError("std must be non-negative")
    with np.errstate(over="ignore"):  # QuantileLabel rejects a quantile past the float range
        values = mean + std * standard_normal_quantiles(grid)
    return QuantileLabel(grid, values)


def w2_squared_quantile(a: QuantileLabel, b: QuantileLabel) -> float:
    """Squared 2-Wasserstein distance between two quantile labels.

    Equals the grid quadrature of (F_a^{-1}(s) - F_b^{-1}(s))^2 over (0, 1).
    """
    check_same_grid(a.grid, b.grid)
    d = a.values - b.values
    return float(np.dot(d, d)) / a.grid.size


def _barycenter_weights(weights: Sequence[float], labels: Sequence) -> np.ndarray:
    """The barycenter weights as floats: one per label (non-empty), all positive."""
    if len(labels) == 0:
        raise InputError("barycenter of an empty label set")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(labels),):
        raise InputError("one weight per label required")
    if np.any(w <= 0):
        raise InputError("weights must be positive")
    return w


def barycenter_quantile(
    weights: Sequence[float],
    labels: Sequence[QuantileLabel],
) -> QuantileLabel:
    """Weighted 2-Wasserstein barycenter of quantile labels.

    The barycenter's quantile function is the normalized weighted average of
    the input quantile functions; weights are raw positive numbers and are
    normalized internally.
    """
    w = _barycenter_weights(weights, labels)
    grid = labels[0].grid
    for lab in labels[1:]:
        check_same_grid(grid, lab.grid)
    stacked = np.stack([lab.values for lab in labels])
    return QuantileLabel(grid, (w @ stacked) / w.sum())


def barycenter_energy(labels: Sequence[QuantileLabel]) -> float:
    """Mean squared distance from k >= 2 labels to their uniform barycenter.

    This is the minimized value (1/k) * sum_i W2^2(mu_i, bar) and coincides
    with the scaled pairwise sum (1/k^2) * sum_{i<j} W2^2(mu_i, mu_j).
    """
    k = len(labels)
    if k < 2:
        raise InputError(f"barycenter energy needs at least 2 labels, got {k}")
    center = barycenter_quantile(np.ones(k), labels)
    return sum(w2_squared_quantile(lab, center) for lab in labels) / k


def w2_squared_gaussian(a: DiagGaussianLabel, b: DiagGaussianLabel) -> float:
    """Squared 2-Wasserstein distance between diagonal Gaussians.

    Coordinate-wise closed form: sum of squared mean gaps plus squared std
    gaps over the b coordinates.
    """
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    dm = a.mean - b.mean
    ds = a.std - b.std
    return float(np.dot(dm, dm) + np.dot(ds, ds))


def barycenter_gaussian(
    weights: Sequence[float],
    labels: Sequence[DiagGaussianLabel],
) -> DiagGaussianLabel:
    """Weighted barycenter of diagonal Gaussians: averaged means and stds."""
    w = _barycenter_weights(weights, labels)
    dim = labels[0].dim
    for lab in labels[1:]:
        if lab.dim != dim:
            raise DimensionError(f"dimension mismatch: {lab.dim} vs {dim}")
    means = np.stack([lab.mean for lab in labels])
    stds = np.stack([lab.std for lab in labels])
    return DiagGaussianLabel((w @ means) / w.sum(), (w @ stds) / w.sum())


def check_dominated(label: QuantileLabel, envelope: DominatedQuantileEnvelope) -> bool:
    """True iff |values[j]| <= phi[j] at every grid node."""
    check_same_grid(label.grid, envelope.grid)
    return bool(np.all(np.abs(label.values) <= envelope.phi))


def tight_envelope(labels: Sequence[QuantileLabel]) -> DominatedQuantileEnvelope:
    """Pointwise max of |quantile samples|: the tightest envelope dominating all."""
    if len(labels) == 0:
        raise InputError("envelope of an empty label set")
    grid = labels[0].grid
    for lab in labels[1:]:
        check_same_grid(grid, lab.grid)
    phi = np.max(np.abs(np.stack([lab.values for lab in labels])), axis=0)
    return DominatedQuantileEnvelope(grid, phi)
