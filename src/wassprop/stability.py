"""Stability constants, generalization bounds, and an empirical stress harness.

The solver's output cost changes by at most beta when one training sample is
replaced, with

    beta = 4 * ||phi||_2^2 * [ 3*sqrt(T*m)/(m*gamma*lambda_1 - T)^2
                               + 4/(m*gamma*lambda_1 - T) + 2/m ],

valid whenever the margin m*gamma*lambda_1 - T is positive.  From beta and
the uniform cost bound M = 4*||phi||_2^2 two generalization bounds follow: a
polynomial one, (64*M*m*beta + 8*M^2)/(m*eps^2), requiring m >= 8*M^2/eps^2,
and an exponential one, 2*exp(-m*eps^2 / (2*(m*beta + M)^2)), for any m >= 1.
Bounds above 1 are vacuous and are reported flagged, never clipped.  A
non-positive margin raises HypothesisError in `slice_shift_coefficient`
alone, which beta, the bounds and the swap harness all go through.

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
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import HypothesisError, InputError, NumericalError, check_positive, check_seed
from .labels import DominatedQuantileEnvelope, QuantileLabel
from .tikhonov import TikhonovOperator, stability_margin

RATIO_SLACK = 1e-9  # measured/bound ratios above 1 + slack indicate a defect


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
    return 3.0 * math.sqrt(T * m) / margin**2 + 4.0 / margin + 2.0 / m


def beta(si: StabilityInputs) -> float:
    """Uniform stability constant of the solver on the dominated class."""
    return 4.0 * si.phi_l2_squared * slice_shift_coefficient(si.m, si.gamma, si.lambda1, si.T)


@dataclass(frozen=True)
class BoundReport:
    """Both generalization bounds plus the hypothesis and vacuity flags.

    margin_positive is None when the report was built from a raw beta with no
    graph instance behind it.
    """

    beta: float
    M: float
    m: int
    epsilon: float
    fraction_bound: float
    exponential_bound: float
    m_ge_4: bool
    sample_size_ok: bool
    margin_positive: Optional[bool]

    @property
    def fraction_vacuous(self) -> bool:
        return self.fraction_bound > 1.0

    @property
    def exponential_vacuous(self) -> bool:
        return self.exponential_bound > 1.0


def bounds_from_beta(
    beta_value: float,
    M: float,
    m: int,
    epsilon: float,
    margin_positive: Optional[bool] = None,
) -> BoundReport:
    """Evaluate both bounds from given (beta, M); values above 1 are reported
    as-is with their vacuity flags."""
    check_positive("epsilon", epsilon)
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    fraction = (64.0 * M * m * beta_value + 8.0 * M * M) / (m * epsilon * epsilon)
    denom = m * beta_value + M
    exponential = 0.0 if denom == 0 else 2.0 * math.exp(-m * epsilon * epsilon / (2.0 * denom * denom))
    return BoundReport(
        beta=beta_value,
        M=M,
        m=m,
        epsilon=epsilon,
        fraction_bound=fraction,
        exponential_bound=exponential,
        m_ge_4=m >= 4,
        sample_size_ok=m >= 8.0 * M * M / (epsilon * epsilon),
        margin_positive=margin_positive,
    )


def generalization_bounds(si: StabilityInputs, epsilon: float) -> BoundReport:
    """Bounds for a concrete instance; beta raises HypothesisError unless the
    margin hypothesis holds."""
    return bounds_from_beta(beta(si), 4.0 * si.phi_l2_squared, si.m, epsilon, margin_positive=True)


@dataclass(frozen=True)
class SwapTrial:
    """Measured-over-bound ratios for one single-sample replacement."""

    swap_index: int
    sample_index: int
    slice_shift_ratio: float
    cost_shift_ratio: float


@dataclass(frozen=True)
class EmpiricalStabilityReport:
    beta: float
    slice_coefficient: float
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
        trials.append(SwapTrial(k, idx, slice_ratio, float(cost_ratio)))

    return EmpiricalStabilityReport(
        beta=beta_value, slice_coefficient=coeff, trials=tuple(trials)
    )
