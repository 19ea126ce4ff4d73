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
checks the weights of both barycenters.  `ndtri` is a bit-exact port of
Cephes' standard normal quantile function, so no command loads scipy.special.
"""

from __future__ import annotations

import math
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


# Cephes ndtri (S. L. Moshier): the coefficients of its three rational
# approximations, highest power first.  Each Q starts with the leading 1 that
# Cephes' p1evl implies, and multiplying by 1.0 is exact.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_SQRT_2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log of each element: numpy's vectorized log may differ in the last bit."""
    return np.fromiter(map(math.log, x.tolist()), dtype=float, count=x.size)


def ndtri(y: np.ndarray) -> np.ndarray:
    """The standard normal quantile function (inverse CDF) at each y in (0, 1).

    A port of Cephes `ndtri`, the routine behind scipy.special.ndtri: the
    same coefficients, Horner order and branch points, so the two agree bit
    for bit.  Each step is one correctly rounded IEEE operation, elementwise
    in numpy, and the logarithms are math.log's.  np.polyval is polevl: its
    first step, 0*x + c0, is exact at finite x.
    """
    y = np.array(y, dtype=float)
    upper = y > 1.0 - _EXP_M2  # the upper tail is the lower one reflected
    y[upper] = 1.0 - y[upper]
    out = np.empty_like(y)
    central = y > _EXP_M2
    t = y[central] - 0.5
    t2 = t * t
    out[central] = (t + t * (t2 * np.polyval(_NDTRI_P0, t2) / np.polyval(_NDTRI_Q0, t2))) * _SQRT_2PI
    # tails: x = sqrt(-2 log y) >= 2, less a rational correction in 1/x
    tail = ~central
    x = np.sqrt(-2.0 * _logs(y[tail]))
    z = 1.0 / x
    correction = np.empty_like(x)
    near = x < 8.0  # y > exp(-32)
    for part, p, q in ((near, _NDTRI_P1, _NDTRI_Q1), (~near, _NDTRI_P2, _NDTRI_Q2)):
        zp = z[part]
        correction[part] = zp * np.polyval(p, zp) / np.polyval(q, zp)
    x = (x - _logs(x) / x) - correction
    out[tail] = np.where(upper[tail], x, -x)
    return out


def standard_normal_quantiles(grid: QuantileGrid) -> np.ndarray:
    """The standard normal quantile function (inverse CDF) at the grid nodes."""
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
