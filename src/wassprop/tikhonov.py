"""Closed-form graph Tikhonov solver for quantile labels.

The fit-plus-smoothness objective over quantile-represented labels decouples
into one quadratic problem per grid node s: minimize

    (1/m) * sum_samples (F_mu^{-1}(s) - Phi_s(v))^2  +  gamma * Phi_s^T L Phi_s

whose stationarity condition is the linear system (T + m*gamma*L) Phi_s = y_s,
with T the diagonal matrix of per-vertex sample multiplicities and y_s the
per-vertex sums of training quantiles at s.  On a connected graph with at
least one sample the matrix is symmetric positive definite, so each slice is
solved directly; the operator is shared across slices and factored once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InputError, NumericalError, StructureError
# is_connected stays bound here: bench/traced.py times it under this name
from .hypergraph import WeightedGraph, is_connected, laplacian, single_component, spectral_gap
from .labels import (
    DominatedQuantileEnvelope,
    QuantileGrid,
    QuantileLabel,
    check_dominated,
)

DENSE_SOLVE_LIMIT = 2000     # direct Cholesky factorization up to this size
CG_RELATIVE_RESIDUAL = 1e-10
RESIDUAL_TOL = 1e-9          # solve contract: ||A x - y||_inf <= tol * max(1, ||y||_inf)
MONOTONE_SLACK = 1e-9        # monotonicity violations beyond this are a solver defect
MAX_PRINCIPLE_SLACK = 1e-9


@dataclass(frozen=True)
class TrainingSet:
    """(vertex, quantile label) samples with multiplicities.

    The same vertex may appear in several samples; its multiplicity is the
    number of samples at it.  All labels must share one grid.
    """

    samples: Tuple[Tuple[int, QuantileLabel], ...]

    def __init__(self, samples: Sequence[Tuple[int, QuantileLabel]]):
        samples = tuple((int(v), lab) for v, lab in samples)
        if len(samples) == 0:
            raise InputError("training set must contain at least one sample")
        grid = samples[0][1].grid
        for v, lab in samples:
            if v < 0:
                raise InputError(f"negative vertex index {v}")
            if lab.grid.size != grid.size:
                raise InputError("all training labels must share one grid")
        object.__setattr__(self, "samples", samples)
        try:
            vertices = np.array([v for v, _ in samples], dtype=np.intp)
        except OverflowError:
            raise InputError("sample vertex index out of range") from None
        # the sample vertices in sample order, and each distinct one (sorted)
        # with its multiplicity
        distinct, counts = np.unique(vertices, return_counts=True)
        for name, a in (("_vertices", vertices), ("_distinct", distinct), ("_counts", counts)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def m(self) -> int:
        """Total sample count."""
        return len(self.samples)

    @property
    def grid(self) -> QuantileGrid:
        return self.samples[0][1].grid

    @property
    def labeled_vertices(self) -> List[int]:
        """Sorted distinct vertices carrying at least one sample."""
        return self._distinct.tolist()

    def _check_range(self, n: int) -> None:
        """Raise unless every sample vertex is below n, naming the first that is not."""
        outside = np.flatnonzero(self._vertices >= n)
        if outside.size:
            raise InputError(f"sample vertex {self._vertices[outside[0]]} outside [0, {n})")

    def multiplicities(self, n: int) -> np.ndarray:
        """Vector t with t[i] = number of samples at vertex i, length n."""
        self._check_range(n)
        t = np.zeros(n)
        t[self._distinct] = self._counts
        return t

    def max_multiplicity(self) -> int:
        return int(self._counts.max())

    def rhs_matrix(self, n: int) -> np.ndarray:
        """(n, S) matrix whose column j is y at grid node j: per-vertex sums
        of training quantile samples, added in sample order."""
        self._check_range(n)
        y = np.zeros((n, self.grid.size))
        for v, lab in self.samples:
            y[v] += lab.values
        return y

    def check_dominated(self, envelope: DominatedQuantileEnvelope) -> None:
        """Raise unless the envelope dominates every training label, naming
        the vertex of the first sample it does not."""
        for v, lab in self.samples:
            if not check_dominated(lab, envelope):
                raise InputError(f"training label at vertex {v} is not dominated by the envelope")

    def replaced(self, index: int, vertex: int, label: QuantileLabel) -> "TrainingSet":
        """Copy with sample `index` swapped for (vertex, label)."""
        new = list(self.samples)
        new[index] = (int(vertex), label)
        return TrainingSet(new)


class TikhonovOperator:
    """One Tikhonov instance: a connected graph, a training set and gamma.

    It holds the Laplacian L, built once, the slice operator
    A = T + m*gamma*L and the right-hand sides of all slices.  A is factored
    on the first solve (Cholesky up to DENSE_SOLVE_LIMIT vertices, conjugate
    gradients above), lambda_1 of L is computed on first use, and the solved
    field and the unit-response columns are kept once computed.
    """

    def __init__(self, g: WeightedGraph, ts: TrainingSet, gamma: float):
        if not 0 < gamma < np.inf:
            raise InputError(f"gamma must be positive and finite, got {gamma}")
        self.laplacian = laplacian(g)
        if not single_component(self.laplacian):
            raise StructureError("Tikhonov solve requires a connected graph")
        self.graph = g
        self.training = ts
        self.gamma = float(gamma)
        self.m = ts.m
        self.t = ts.multiplicities(g.n)
        self.rhs = ts.rhs_matrix(g.n)
        self.matrix = (sp.diags(self.t) + self.m * self.gamma * self.laplacian).tocsr()
        self._field: Optional[QuantileField] = None
        self._columns: Dict[int, np.ndarray] = {}

    @cached_property
    def lambda1(self) -> float:
        """Smallest non-zero eigenvalue of L."""
        return spectral_gap(self.laplacian)

    @cached_property
    def _cho(self):
        """Cholesky factorization of A, or None above DENSE_SOLVE_LIMIT."""
        if self.graph.n > DENSE_SOLVE_LIMIT:
            return None
        try:
            return sla.cho_factor(self.matrix.toarray())
        except sla.LinAlgError as exc:
            raise NumericalError(f"operator not positive definite: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs for a vector or an (n, k) block, with residual check."""
        if self._cho is not None:
            x = sla.cho_solve(self._cho, rhs)
        else:
            rhs2 = rhs if rhs.ndim == 2 else rhs[:, None]
            cols = []
            for j in range(rhs2.shape[1]):
                xj, info = spla.cg(self.matrix, rhs2[:, j], rtol=CG_RELATIVE_RESIDUAL, atol=0.0)
                if info != 0:
                    raise NumericalError(f"conjugate gradient did not converge (info={info})")
                cols.append(xj)
            x = np.stack(cols, axis=1)
            if rhs.ndim == 1:
                x = x[:, 0]
        self.check_residual(x, rhs)
        return x

    def check_residual(self, x: np.ndarray, rhs: np.ndarray) -> None:
        """Raise unless ||A x - rhs||_inf <= RESIDUAL_TOL * max(1, ||rhs||_inf)."""
        resid = np.max(np.abs(self.matrix @ x - rhs))
        scale = max(1.0, float(np.max(np.abs(rhs)))) if rhs.size else 1.0
        if resid > RESIDUAL_TOL * scale:
            raise NumericalError(
                f"solve residual {resid:.3e} exceeds {RESIDUAL_TOL:.0e} * {scale:.3e}"
            )

    def field(self) -> QuantileField:
        """All S slices solved with one factorization; the rows pass the
        `monotone_field` check."""
        if self._field is None:
            self._field = monotone_field(self.training.grid, self.solve(self.rhs))
            self._field.values.flags.writeable = False  # every caller shares it
        return self._field

    def unit_response(self, vertex: int) -> np.ndarray:
        """The column A^{-1} e_vertex: how the solution moves per unit change
        of the right-hand side at one vertex."""
        column = self._columns.get(vertex)
        if column is None:
            e = np.zeros(self.graph.n)
            e[vertex] = 1.0
            column = self._columns[vertex] = self.solve(e)
        return column

    def swapped_field(self, index: int, label: QuantileLabel) -> QuantileField:
        """Field after sample `index` takes `label` at the same vertex v.

        T and A do not change, and only row v of the right-hand side moves,
        by delta = new - old, so the swapped field is
        field + (A^{-1} e_v) delta^T: one factorization serves every swap.
        It passes the checks of a fresh solve: the residual against its own
        right-hand side, and the monotonicity check with its roundoff clamp.
        """
        vertex, old = self.training.samples[index]
        if label.grid.size != old.grid.size:
            raise InputError("all training labels must share one grid")
        delta = label.values - old.values
        values = self.field().values + np.outer(self.unit_response(vertex), delta)
        rhs = self.rhs.copy()
        rhs[vertex] += delta
        self.check_residual(values, rhs)
        return monotone_field(self.training.grid, values)


@dataclass(frozen=True)
class QuantileField:
    """Solved labels for all vertices: matrix of shape (n, S), row i holding
    vertex i's quantile samples.  Every row is non-decreasing."""

    grid: QuantileGrid
    values: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def label(self, vertex: int) -> QuantileLabel:
        return QuantileLabel(self.grid, self.values[vertex])


def monotone_field(grid: QuantileGrid, phi: np.ndarray) -> QuantileField:
    """Wrap solved slices as a field after checking each vertex row for
    monotonicity in s.  The solution is provably non-decreasing, so
    violations beyond MONOTONE_SLACK raise; roundoff-size ones are clamped by
    a running maximum."""
    drops = np.diff(phi, axis=1)
    worst = -float(drops.min()) if drops.size else 0.0
    if worst > MONOTONE_SLACK:
        raise NumericalError(
            f"monotonicity violated by {worst:.3e} (> {MONOTONE_SLACK:.0e}); solver defect"
        )
    if worst > 0.0:
        phi = np.maximum.accumulate(phi, axis=1)
    return QuantileField(grid=grid, values=phi)


def solve_field(g: WeightedGraph, ts: TrainingSet, gamma: float) -> QuantileField:
    """The field of one instance: `TikhonovOperator(g, ts, gamma).field()`."""
    return TikhonovOperator(g, ts, gamma).field()


@dataclass(frozen=True)
class MaxPrincipleReport:
    """Outcome of the per-slice extrema checks over a solved field.

    ``max_excess`` / ``min_excess`` are the worst amounts (over slices) by
    which the field's global max exceeds the labeled-vertex max, resp. the
    labeled-vertex min exceeds the global min; both should be ~0.
    ``negative_dip`` is the worst negativity of the field over slices whose
    right-hand side is entrywise non-negative.
    """

    extrema_on_labeled: bool
    nonnegative_ok: bool
    max_excess: float
    min_excess: float
    negative_dip: float
    slack: float = MAX_PRINCIPLE_SLACK

    @property
    def ok(self) -> bool:
        return self.extrema_on_labeled and self.nonnegative_ok


def check_maximum_principle(field: QuantileField, ts: TrainingSet) -> MaxPrincipleReport:
    """Verify that per-slice extrema are attained on labeled vertices and that
    slices with non-negative data stay non-negative."""
    labeled = ts.labeled_vertices
    phi = field.values
    sub = phi[labeled, :]
    max_excess = float(np.max(phi.max(axis=0) - sub.max(axis=0)))
    min_excess = float(np.max(sub.min(axis=0) - phi.min(axis=0)))
    rhs = ts.rhs_matrix(field.n)
    nonneg_slices = np.all(rhs >= 0, axis=0)
    if nonneg_slices.any():
        negative_dip = -float(phi[:, nonneg_slices].min())
    else:
        negative_dip = 0.0
    return MaxPrincipleReport(
        extrema_on_labeled=(max_excess <= MAX_PRINCIPLE_SLACK and min_excess <= MAX_PRINCIPLE_SLACK),
        nonnegative_ok=(negative_dip <= MAX_PRINCIPLE_SLACK),
        max_excess=max_excess,
        min_excess=min_excess,
        negative_dip=negative_dip,
    )


def check_apriori(
    field: QuantileField,
    envelope: DominatedQuantileEnvelope,
    ts: Optional[TrainingSet] = None,
) -> bool:
    """True iff every row of the field is dominated by the envelope (1e-9 slack).

    When the training set is supplied, its labels are required to be dominated
    exactly; a violation there voids the estimate and raises.
    """
    if ts is not None:
        ts.check_dominated(envelope)
    if field.grid.size != envelope.grid.size:
        raise InputError("field and envelope grids differ")
    return bool(np.all(np.abs(field.values) <= envelope.phi[None, :] + 1e-9))


def invertibility_margin(op: TikhonovOperator) -> float:
    """m*gamma*lambda_1 - max multiplicity; positive means the stability
    hypothesis holds.  Non-positive values only void the stability bound,
    not the solve, so they warn instead of raising."""
    margin = op.m * op.gamma * op.lambda1 - op.training.max_multiplicity()
    if margin <= 0:
        warnings.warn(
            f"invertibility margin {margin:.6g} <= 0: the stability bound is vacuous "
            "for this (m, gamma); the solve itself is unaffected",
            stacklevel=2,
        )
    return float(margin)
