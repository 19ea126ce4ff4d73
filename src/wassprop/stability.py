"""Stability constants, generalization bounds, and an empirical stress harness.

The solver's output cost changes by at most beta when one training sample is
replaced, with

    beta = 4 * ||phi||_2^2 * [ 3*sqrt(T*m)/(m*gamma*lambda_1 - T)^2
                               + 4/(m*gamma*lambda_1 - T) + 2/m ],

valid whenever the margin m*gamma*lambda_1 - T is positive.  From beta and
the uniform cost bound M = 4*||phi||_2^2 two generalization bounds follow: a
polynomial one, (64*M*m*beta + 8*M^2)/(m*eps^2), requiring m >= 8*M^2/eps^2,
and an exponential one, 2*exp(-m*eps^2 / (2*(m*beta + M)^2)), for any m >= 1.
Bounds above 1 are vacuous and are reported flagged, never clipped; where
their float expression under- or overflows, they are taken in exact
rationals.  The margin has one computation, `stability_margin`.  A
non-positive one raises HypothesisError in `slice_shift_coefficient` alone,
which beta, the bounds and the swap harness all go through; it only warns in
`invertibility_margin`, since the solve is well-posed for every gamma > 0.

The empirical harness replaces single training labels and verifies, on each
swap, that the measured per-slice solution shift and the measured cost shift
stay below their theoretical bounds.  A swap keeps the vertex, so A does
not change: each swapped field is `TikhonovOperator.swapped_field`, the
instance's Green's columns applied to the shifted labeled right-hand side,
checked like a fresh solve.  The cost shift is measured over the probe
class of monotone labels with values in [-c, c], c = min phi, all dominated
by the envelope.  It is linear in the probe, so its supremum over that class
is reached at a step probe and one prefix sum per swap gives it exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import HypothesisError, InputError, NumericalError, check_positive, check_seed
from .labels import DominatedQuantileEnvelope, QuantileLabel
from .tikhonov import TikhonovOperator

RATIO_SLACK = 1e-9  # measured/bound ratios above 1 + slack indicate a defect


def stability_margin(m: int, gamma: float, lambda1: float, T: int) -> float:
    """m*gamma*lambda_1 - T, T the largest sample multiplicity: its one computation."""
    return m * gamma * lambda1 - T


def invertibility_margin(op: TikhonovOperator) -> float:
    """m*gamma*lambda_1 - max multiplicity; positive means the stability
    hypothesis holds.  Non-positive values only void the stability bound,
    not the solve, so they warn instead of raising."""
    margin = stability_margin(op.m, op.gamma, op.lambda1, op.training.max_multiplicity())
    if margin <= 0:
        warnings.warn(
            f"invertibility margin {margin:.6g} <= 0: the stability bound is vacuous "
            "for this (m, gamma); the solve itself is unaffected",
            stacklevel=2,
        )
    return float(margin)


@dataclass(frozen=True)
class StabilityInputs:
    """The five scalars the stability formulas consume."""

    m: int
    gamma: float
    lambda1: float
    T: int
    phi_l2_squared: float

    def __post_init__(self):
        if self.m < 1 or self.T < 1:
            raise InputError("m and T must be positive integers")
        check_positive("gamma", self.gamma)
        check_positive("lambda1", self.lambda1)
        if not 0 <= self.phi_l2_squared < math.inf:
            raise InputError(f"phi_l2_squared must be finite and >= 0, got {self.phi_l2_squared}")

    @property
    def margin(self) -> float:
        return stability_margin(self.m, self.gamma, self.lambda1, self.T)

    @property
    def hypothesis_holds(self) -> bool:
        return self.margin > 0

    @classmethod
    def from_instance(
        cls, op: TikhonovOperator, envelope: DominatedQuantileEnvelope
    ) -> "StabilityInputs":
        return cls(
            m=op.m,
            gamma=op.gamma,
            lambda1=op.lambda1,
            T=op.training.max_multiplicity(),
            phi_l2_squared=envelope.phi_l2_squared,
        )


def slice_shift_coefficient(m: int, gamma: float, lambda1: float, T: int) -> float:
    """Per-slice bound coefficient: the solution shift at one grid node is at
    most this times the quantile bound M_s at that node."""
    margin = stability_margin(m, gamma, lambda1, T)
    if margin <= 0:
        raise HypothesisError(f"margin m*gamma*lambda1 - T = {margin:.6g} must be positive")
    try:
        first = 3.0 * math.sqrt(T * m) / margin**2
    except OverflowError:  # margin > ~1.3e154: the term is far below the rounding of 2/m
        first = 0.0
    return first + 4.0 / margin + 2.0 / m


def beta(si: StabilityInputs) -> float:
    """Uniform stability constant of the solver on the dominated class."""
    return 4.0 * si.phi_l2_squared * slice_shift_coefficient(si.m, si.gamma, si.lambda1, si.T)


def _quotient(num: float, den: float, formula, values, at_inf: float = math.inf) -> float:
    """num / den while both are normal floats; past an under- or overflow, the
    same quotient `formula` of the floats `values` in exact rationals, rounded
    once: inf past the float range, and its limit `at_inf` if a value is inf."""
    if all(np.finfo(float).tiny <= abs(v) < math.inf for v in (num, den)):
        return num / den
    if math.inf in values:
        return at_inf
    from fractions import Fraction  # imported here: only under- and overflow need it
    try:
        return float(formula(*map(Fraction, values)))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BoundReport:
    """The inputs of both generalization bounds, with epsilon > 0 and m >= 1;
    the bounds and their sample-size and vacuity flags are derived from them."""

    beta: float
    M: float
    m: int
    epsilon: float

    def __post_init__(self):
        check_positive("epsilon", self.epsilon)
        if self.m < 1:
            raise InputError(f"m must be >= 1, got {self.m}")

    @property
    def fraction_bound(self) -> float:
        """(64*M*m*beta + 8*M^2) / (m*eps^2)."""
        m, M, eps = self.m, self.M, self.epsilon
        return _quotient(64.0 * M * m * self.beta + 8.0 * M * M, m * eps * eps,
                         lambda b, M, e: (64 * M * m * b + 8 * M * M) / (m * e * e), (self.beta, M, eps))

    @property
    def exponential_bound(self) -> float:
        """2*exp(-m*eps^2 / (2*(m*beta + M)^2)), and 0 when m*beta + M is 0."""
        m, eps = self.m, self.epsilon
        denom = m * self.beta + self.M
        if denom == 0:
            return 0.0
        return 2.0 * math.exp(-_quotient(m * eps * eps, 2.0 * denom * denom,
                                         lambda b, M, e: m * e * e / (2 * (m * b + M) ** 2),
                                         (self.beta, self.M, eps), at_inf=0.0))

    @property
    def m_ge_4(self) -> bool:
        return self.m >= 4

    @property
    def sample_size_ok(self) -> bool:
        """m >= 8*M^2/eps^2, the polynomial bound's sample-size condition."""
        M, eps = self.M, self.epsilon
        return self.m >= _quotient(8.0 * M * M, eps * eps, lambda M, e: 8 * M * M / (e * e), (M, eps))

    @property
    def fraction_vacuous(self) -> bool:
        return self.fraction_bound > 1.0

    @property
    def exponential_vacuous(self) -> bool:
        return self.exponential_bound > 1.0


def generalization_bounds(si: StabilityInputs, epsilon: float) -> BoundReport:
    """Bounds for a concrete instance; beta raises HypothesisError unless the
    margin hypothesis holds."""
    return BoundReport(beta(si), 4.0 * si.phi_l2_squared, si.m, epsilon)


@dataclass(frozen=True)
class SwapTrial:
    """Measured-over-bound ratios for one single-sample replacement; its
    swap number is its position in the report's trials."""

    sample_index: int
    slice_shift_ratio: float
    cost_shift_ratio: float


@dataclass(frozen=True)
class EmpiricalStabilityReport:
    beta: float
    trials: Tuple[SwapTrial, ...]

    @property
    def worst_slice_ratio(self) -> float:
        return max(t.slice_shift_ratio for t in self.trials)

    @property
    def worst_cost_ratio(self) -> float:
        return max(t.cost_shift_ratio for t in self.trials)

    @property
    def ok(self) -> bool:
        return (
            self.worst_slice_ratio <= 1.0 + RATIO_SLACK
            and self.worst_cost_ratio <= 1.0 + RATIO_SLACK
        )


def _random_dominated_label(
    rng: np.random.Generator, envelope: DominatedQuantileEnvelope
) -> QuantileLabel:
    """Sorted uniforms scaled into [-c, c] with c = min phi, so the label is
    dominated at every node regardless of the envelope's shape."""
    values = np.sort(rng.uniform(-1.0, 1.0, envelope.grid.size))
    return QuantileLabel(envelope.grid, values * float(envelope.phi.min()))


def check_swap_plan(swaps: int, seed) -> int:
    """The seed as an int; raises unless it is valid and swaps >= 1.  The CLI
    runs it before the margin decides whether any swap runs."""
    seed = check_seed(seed)
    if swaps < 1:
        raise InputError(f"swaps must be >= 1, got {swaps}")
    return seed


def empirical_stability(
    op: TikhonovOperator,
    swaps: int,
    envelope: DominatedQuantileEnvelope,
    seed: int = 0,
) -> EmpiricalStabilityReport:
    """Stress-test the bounds on `swaps` random single-label replacements.

    Each trial replaces one training label (same vertex) with a fresh
    envelope-dominated label, obtains the swapped field from
    `TikhonovOperator.swapped_field`, and measures (a) the worst per-slice
    solution shift relative to its bound and (b) the worst cost shift at any
    vertex relative to beta.  The cost shift's probe class is every monotone
    label with values in [-c, c], c = min phi, and `cost_shift_ratio` is its
    exact supremum over that class.  A measured value beyond its proven bound
    raises, since that indicates a solver defect.
    """
    seed = check_swap_plan(swaps, seed)
    op.training.check_dominated(envelope)
    si = StabilityInputs.from_instance(op, envelope)
    coeff = slice_shift_coefficient(si.m, si.gamma, si.lambda1, si.T)
    beta_value = beta(si)
    S = envelope.grid.size
    bound = coeff * envelope.phi
    c = float(envelope.phi.min())

    rng = np.random.default_rng(seed)
    base_field = op.field().values

    trials: List[SwapTrial] = []
    for k in range(swaps):
        idx = int(rng.integers(0, op.m))
        other_field = op.swapped_field(idx, _random_dominated_label(rng, envelope)).values
        d = base_field - other_field

        # (a) per-slice shift against coeff * M_s with M_s = phi(s_j)
        shift = np.max(np.abs(d), axis=0)
        ratios = np.where(bound > 0, shift / np.where(bound > 0, bound, 1.0), 0.0)
        zero_bound = (bound == 0) & (shift > RATIO_SLACK)
        if zero_bound.any():
            raise NumericalError("solution shifted at a node where the envelope vanishes")
        slice_ratio = float(ratios.max())

        # (b) cost shift (1/S)(||x - p||^2 - ||x' - p||^2) = (1/S)(x - x').(x + x' - 2p)
        # against beta.  It is linear in p, so over monotone p in [-c, c] its
        # extremes are at the S+1 step probes, -c before node t and +c from t
        # on, where (x - x').p = c(D_S - 2 D_t) with D_t the prefix sum of x - x'.
        prefix = np.zeros((d.shape[0], S + 1))
        np.cumsum(d, axis=1, out=prefix[:, 1:])
        shifts = np.einsum("vs,vs->v", d, base_field + other_field)[:, None] - 2.0 * c * (
            prefix[:, -1:] - 2.0 * prefix
        )
        worst_shift = float(np.max(np.abs(shifts))) / S
        cost_ratio = worst_shift / beta_value if beta_value > 0 else (0.0 if worst_shift == 0 else np.inf)

        if slice_ratio > 1.0 + RATIO_SLACK:
            raise NumericalError(
                f"swap {k}: slice shift ratio {slice_ratio:.6g} exceeds the proven bound"
            )
        if cost_ratio > 1.0 + RATIO_SLACK:
            raise NumericalError(
                f"swap {k}: cost shift ratio {cost_ratio:.6g} exceeds beta"
            )
        trials.append(SwapTrial(idx, slice_ratio, float(cost_ratio)))

    return EmpiricalStabilityReport(beta=beta_value, trials=tuple(trials))
