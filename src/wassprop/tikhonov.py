"""Closed-form graph Tikhonov solver for quantile labels.

The fit-plus-smoothness objective over quantile-represented labels decouples
into one quadratic problem per grid node s: minimize

    (1/m) * sum_samples (F_mu^{-1}(s) - Phi_s(v))^2  +  gamma * Phi_s^T L Phi_s

whose stationarity condition is the linear system (T + m*gamma*L) Phi_s = y_s,
with T the diagonal matrix of per-vertex sample multiplicities and y_s the
per-vertex sums of training quantiles at s.  On a connected graph with at
least one sample the matrix is a symmetric positive definite M-matrix.  Only
the k labeled vertices carry data, so all slices are Phi = G Y_L with one
block of Green's columns G = A^{-1} E_L (E_L: unit columns at those vertices;
Y_L: their right-hand-side rows).  G >= 0 entrywise, so monotone rows of Y_L
give monotone rows of Phi; the same G, the one solve, serves every
same-vertex swap.  The inputs are checked by the shared rules
`check_same_grid`, `check_positive` and `check_vertex_range`.

A solve of k columns takes the cheaper of two paths by `cholesky_is_cheaper`,
a pure function of (n, nnz(A), k): a dense Cholesky factorization, about
n^3/3 + 2 n^2 k flops, or batched Jacobi-preconditioned conjugate gradients,
about PCG_ITERATIONS * k * (nnz(A) + n) entry updates, each at a throughput
measured on the benchmark's clique expansions at one BLAS thread.  No A with
more than DENSE_SOLVE_LIMIT vertices is densified.  Few labeled vertices
(small k) thus go to PCG, which sums in a fixed order at every BLAS thread
count; many go to Cholesky, whose blocked factorization does not.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalError, StructureError, check_positive, check_vertex_range
# The operator scans connectivity once, in __init__, so lambda1 takes the gap
# without a second scan, still under the name spectral_gap that
# bench/traced.py times.
from .hypergraph import WeightedGraph, is_connected, laplacian
from .hypergraph import connected_spectral_gap as spectral_gap
from .labels import (
    DominatedQuantileEnvelope,
    QuantileGrid,
    QuantileLabel,
    check_dominated,
    check_same_grid,
)

DENSE_SOLVE_LIMIT = 2000     # memory ceiling: no A above this size is densified
# the solve-path cost model (see cholesky_is_cheaper), measured on the
# benchmark's clique expansions, n = 600..2000, k = 10..400, one BLAS thread
CHOLESKY_FLOPS_PER_S = 24e9  # factor and triangular solves, densifying A included
PCG_ITERATIONS = 22          # 19-24 there; worse-conditioned graphs take more
PCG_ENTRIES_PER_S = 1.7e9    # one iteration of one column touches nnz(A) + n entries
CG_RELATIVE_RESIDUAL = 1e-10
# solve contract: ||A x - y||_inf <= RESIDUAL_TOL * max(1, ||y||_inf) + 100 eps ||A||_inf ||x||_inf;
# the last term is the rounding floor of a backward-stable solve, which grows with m*gamma
RESIDUAL_TOL = 1e-9
MONOTONE_SLACK = 1e-9        # monotonicity violations beyond this are a solver defect
MAX_PRINCIPLE_SLACK = 1e-9


@dataclass(frozen=True)
class TrainingSet:
    """(vertex, quantile label) samples with multiplicities.

    The same vertex may appear in several samples; its multiplicity is the
    number of samples at it.  All labels must share one grid.  `block` is
    Y_L, the (k, S) right-hand-side rows of the k distinct vertices, sorted
    and read-only: row i sums, in sample order, the samples at the i-th.
    """

    samples: Tuple[Tuple[int, QuantileLabel], ...]

    def __init__(self, samples: Sequence[Tuple[int, QuantileLabel]]):
        samples = tuple((int(v), lab) for v, lab in samples)
        if len(samples) == 0:
            raise InputError("training set must contain at least one sample")
        grid = samples[0][1].grid
        for v, lab in samples:
            check_same_grid(grid, lab.grid)
        object.__setattr__(self, "samples", samples)
        counts = Counter(v for v, _ in samples)
        distinct = sorted(counts)
        row = {v: i for i, v in enumerate(distinct)}
        block = np.zeros((len(distinct), grid.size))
        for v, lab in samples:
            block[row[v]] += lab.values
        block.flags.writeable = False
        for name, value in (("_counts", counts), ("_distinct", distinct), ("block", block)):
            object.__setattr__(self, name, value)

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
        return list(self._distinct)

    def multiplicities(self, n: int) -> np.ndarray:
        """Vector t with t[i] = number of samples at vertex i, length n,
        after `check_vertex_range` of every sample vertex against n."""
        check_vertex_range("sample", [v for v, _ in self.samples], n)
        t = np.zeros(n)
        t[self._distinct] = [self._counts[v] for v in self._distinct]
        return t

    def max_multiplicity(self) -> int:
        return max(self._counts.values())

    def check_dominated(self, envelope: DominatedQuantileEnvelope) -> None:
        """Raise unless the envelope dominates every training label, naming
        the vertex of the first sample it does not."""
        for v, lab in self.samples:
            if not check_dominated(lab, envelope):
                raise InputError(f"training label at vertex {v} is not dominated by the envelope")

    def sample(self, index: int) -> Tuple[int, QuantileLabel]:
        """Sample `index` as (vertex, label); the index must lie in [0, m)."""
        if not 0 <= index < self.m:
            raise InputError(f"sample index {index} outside [0, {self.m})")
        return self.samples[index]

    def replaced(self, index: int, vertex: int, label: QuantileLabel) -> "TrainingSet":
        """Copy with sample `index` swapped for (vertex, label)."""
        self.sample(index)
        new = list(self.samples)
        new[index] = (int(vertex), label)
        return TrainingSet(new)


class TikhonovOperator:
    """One Tikhonov instance: a connected graph, a training set and gamma.

    It holds the Laplacian L, built once, the slice operator
    A = T + m*gamma*L and `block`, the labeled rows Y_L of the right-hand
    sides of all slices.  A solve whose block `uses_cholesky` factors a dense
    copy of A in place and drops the factor; any other is one batched
    Jacobi-preconditioned conjugate gradient run over the whole block.
    lambda_1 of L, the Green's columns at the labeled vertices (the one solve)
    and the solved field are computed on first use and kept."""

    def __init__(self, g: WeightedGraph, ts: TrainingSet, gamma: float):
        gamma = check_positive("gamma", gamma)
        if not is_connected(g):
            raise StructureError("Tikhonov solve requires a connected graph")
        self.laplacian = laplacian(g)
        self.graph = g
        self.training = ts
        self.gamma = gamma
        self.m = ts.m
        t = sp.diags(ts.multiplicities(g.n))
        # the right-hand side of all slices is E_L Y_L: zero off the labeled rows
        self.labeled = np.array(ts.labeled_vertices, dtype=np.intp)
        self.block = ts.block
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            self.matrix = (t + self.m * self.gamma * self.laplacian).tocsr()
        if not np.all(np.isfinite(self.matrix.data)):
            raise NumericalError(
                f"slice operator T + m*gamma*L overflows (m*gamma = {self.m * self.gamma:.3e}); "
                "the edge weights or gamma are too large"
            )
        self.norm_inf = float(abs(self.matrix).sum(axis=1).max())  # ||A||_inf, the largest row sum

    @cached_property
    def lambda1(self) -> float:
        """Smallest non-zero eigenvalue of L."""
        return spectral_gap(self.laplacian)

    @cached_property
    def green(self) -> np.ndarray:
        """G = A^{-1} E_L, shape (n, k), read-only: column i is the response
        to a unit right-hand side at the i-th labeled vertex."""
        units = np.zeros((self.graph.n, self.labeled.size))
        units[self.labeled, np.arange(self.labeled.size)] = 1.0
        g = self.solve(units)
        g.flags.writeable = False
        return g

    def uses_cholesky(self, k: int) -> bool:
        """Whether `solve` of an (n, k) block takes the dense Cholesky path."""
        return cholesky_is_cheaper(self.graph.n, self.matrix.nnz, k)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A X = rhs for an (n, k) block, with residual check, by the
        path `uses_cholesky` picks; the dense path's Cholesky factor does not
        outlive the call."""
        if self.uses_cholesky(rhs.shape[1]):
            import scipy.linalg as sla  # loaded here: only the dense path uses it
            try:
                # A is bitwise symmetric, so its CSC transpose densifies to A
                # in Fortran order with no CSR-to-CSC conversion, and LAPACK
                # factors that copy in place.  __init__ rejected a non-finite
                # A, so neither call needs its n-by-n finiteness mask
                factor = sla.cho_factor(self.matrix.T.toarray(), overwrite_a=True, check_finite=False)
            except sla.LinAlgError as exc:
                raise NumericalError(f"operator not positive definite: {exc}") from exc
            x = sla.cho_solve(factor, rhs, check_finite=False)
        else:
            x = self._pcg(rhs)
        self.check_residual(x, rhs)
        return x

    def _pcg(self, b: np.ndarray) -> np.ndarray:
        """Jacobi-preconditioned conjugate gradients on all columns of b at
        once, one SpMM A @ P per iteration.  Column j stops, and is frozen,
        once ||r_j|| < CG_RELATIVE_RESIDUAL * ||b_j|| (scipy's cg rule; a zero
        column is solved by zero).  Raises NumericalError after 10 n
        iterations, scipy's default cap, or when r.z or p.Ap of an open
        column is not positive."""
        a = self.matrix
        n = a.shape[0]
        inv_diag = (1.0 / a.diagonal())[:, None]
        bound = CG_RELATIVE_RESIDUAL * np.linalg.norm(b, axis=0)
        active = np.any(b != 0.0, axis=0)
        x = np.zeros(b.shape)
        r = b.copy()
        p = np.zeros(b.shape)
        rho_prev = np.ones(b.shape[1])  # any positive value: it scales p = 0
        for _ in range(10 * n):
            active &= ~(np.sqrt(np.einsum("ij,ij->j", r, r)) < bound)
            if not active.any():
                return x
            z = inv_diag * r
            rho = np.einsum("ij,ij->j", r, z)
            p = z + _active_ratio(rho, rho_prev, active) * p
            q = a @ p
            alpha = _active_ratio(rho, np.einsum("ij,ij->j", p, q), active)
            x += alpha * p
            r -= alpha * q
            rho_prev = rho
        raise NumericalError(
            f"conjugate gradient did not converge in {10 * n} iterations "
            f"({int(active.sum())} of {b.shape[1]} columns open)"
        )

    def check_residual(self, x: np.ndarray, rhs: np.ndarray, rows=slice(None)) -> None:
        """Raise unless the residual ||A x - y||_inf meets the solve contract,
        where y holds `rhs` at `rows` (all rows by default) and is zero elsewhere."""
        resid = self.matrix @ x
        resid[rows] -= rhs
        resid = float(np.abs(resid, out=resid).max())
        scale = max(1.0, float(np.max(np.abs(rhs)))) if rhs.size else 1.0
        floor = 100 * np.finfo(float).eps * self.norm_inf * float(np.max(np.abs(x), initial=0.0))
        if not resid <= RESIDUAL_TOL * scale + floor:  # a NaN residual fails too
            raise NumericalError(
                f"solve residual {resid:.3e} exceeds {RESIDUAL_TOL:.0e} * {scale:.3e} + {floor:.3e}"
            )

    def _green_field(self, block: np.ndarray) -> QuantileField:
        """The field G Y_L for the labeled rows Y_L of a right-hand side E_L Y_L,
        checked like a fresh solve: its residual, then `monotone_field`."""
        values = self.green @ block
        self.check_residual(values, block, self.labeled)
        return monotone_field(self.training.grid, values)

    @cached_property
    def _solved_field(self) -> QuantileField:
        solved = self._green_field(self.block)
        solved.values.flags.writeable = False
        return solved

    def field(self) -> QuantileField:
        """All S slices as G Y_L; kept and read-only, since callers share it."""
        return self._solved_field

    def swapped_field(self, index: int, label: QuantileLabel) -> QuantileField:
        """Field after sample `index` takes `label` at the same vertex v.

        A does not change and only the row of v in Y_L moves, by
        delta = new - old, so the swapped field is G times the shifted Y_L.
        """
        vertex, old = self.training.sample(index)
        check_same_grid(old.grid, label.grid)
        block = self.block.copy()
        block[np.searchsorted(self.labeled, vertex)] += label.values - old.values
        return self._green_field(block)


def cholesky_is_cheaper(n: int, nnz: int, k: int) -> bool:
    """The solve-path rule for A X = B, A of order n with nnz stored entries
    and B of k columns: True when a dense Cholesky factorization and solve,
    about n^3/3 + 2 n^2 k flops, is estimated to take less time than batched
    Jacobi-PCG, about PCG_ITERATIONS * k * (nnz + n) entry updates.  Never
    True above the DENSE_SOLVE_LIMIT memory ceiling."""
    if n > DENSE_SOLVE_LIMIT:
        return False
    cholesky_s = (n ** 3 / 3 + 2 * n * n * k) / CHOLESKY_FLOPS_PER_S
    pcg_s = PCG_ITERATIONS * k * (nnz + n) / PCG_ENTRIES_PER_S
    return cholesky_s < pcg_s


def _active_ratio(num: np.ndarray, den: np.ndarray, active: np.ndarray) -> np.ndarray:
    """num / den on the active columns and 0 on the rest, which freezes
    them.  A CG denominator (r.z or p.Ap) is positive for SPD A and nonzero
    r; one that is not, on an open column, is a breakdown."""
    if np.any(active & ~(den > 0.0)):
        raise NumericalError("conjugate gradient broke down: a non-positive r.z or p.Ap")
    return np.divide(num, den, out=np.zeros_like(num), where=active)


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


@dataclass(frozen=True)
class MaxPrincipleReport:
    """Outcome of the per-slice extrema checks over a solved field.

    ``max_excess`` / ``min_excess`` are the worst amounts (over slices) by
    which the field's global max exceeds the labeled-vertex max, resp. the
    labeled-vertex min exceeds the global min; both should be ~0.
    ``negative_dip`` is the worst negativity of the field over slices whose
    right-hand side is entrywise non-negative.  The flags compare these with
    MAX_PRINCIPLE_SLACK.
    """

    max_excess: float
    min_excess: float
    negative_dip: float

    @property
    def extrema_on_labeled(self) -> bool:
        return self.max_excess <= MAX_PRINCIPLE_SLACK and self.min_excess <= MAX_PRINCIPLE_SLACK

    @property
    def nonnegative_ok(self) -> bool:
        return self.negative_dip <= MAX_PRINCIPLE_SLACK

    @property
    def ok(self) -> bool:
        return self.extrema_on_labeled and self.nonnegative_ok


def check_maximum_principle(field: QuantileField, ts: TrainingSet) -> MaxPrincipleReport:
    """Verify that per-slice extrema are attained on labeled vertices and that
    slices with non-negative data stay non-negative."""
    labeled = check_vertex_range("sample", ts.labeled_vertices, field.n)
    phi = field.values
    sub = phi[labeled, :]
    max_excess = float(np.max(phi.max(axis=0) - sub.max(axis=0)))
    min_excess = float(np.max(sub.min(axis=0) - phi.min(axis=0)))
    # the right-hand side is zero off the labeled rows, so Y_L decides
    nonneg_slices = np.all(ts.block >= 0, axis=0)
    if nonneg_slices.any():
        negative_dip = -float(phi[:, nonneg_slices].min())
    else:
        negative_dip = 0.0
    return MaxPrincipleReport(max_excess=max_excess, min_excess=min_excess, negative_dip=negative_dip)


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
    check_same_grid(field.grid, envelope.grid)
    return bool(np.all(np.abs(field.values) <= envelope.phi[None, :] + 1e-9))
