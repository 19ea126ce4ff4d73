"""Alternating barycenter label propagation on hypergraphs.

Labels alternate between hyperedges and vertices: each hyperedge takes the
weighted barycenter of its members' labels, then each vertex takes the
weighted barycenter of its incident hyperedges' labels (with its target label
appended as a gamma-weighted anchor when the vertex is known).  Known
vertices additionally carry weight alpha inside hyperedge barycenters.

Both label backends embed labels into a Euclidean vector space in which the
barycenter is a plain weighted average and the squared transport distance is
a scaled squared norm, so each phase is exact: a product of the (n, dim)
label block with a weighted sparse incidence matrix.

Working set: a step allocates only the two blocks it returns, the new
(E, dim) hyperedge block and the new (n, dim) vertex block; every quotient
and row copy is made in place, and `propagate` frees the previous hyperedge
block before the next step makes its own.  So the peak memory of a run is
about one E x dim block, plus a few n x dim blocks (the current and the new
vertex labels), plus the loss buffers of LOSS_BLOCK_VALUES floats each that
the run's context keeps across steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalError, check_positive, check_seed, check_vertex_range
from .hypergraph import Hypergraph
from .labels import DiagGaussianLabel, QuantileGrid, QuantileLabel, check_same_grid
from .labels import standard_normal_quantiles

DEFAULT_MAX_ITERS = 200
DEFAULT_REL_TOL = 1e-6
LOSS_BLOCK_VALUES = 1 << 16  # floats gathered per block of the loss (512 KiB)


@dataclass(frozen=True)
class PropagationConfig:
    """Algorithm parameters: known-vertex weight alpha inside hyperedge
    barycenters, anchor weight gamma at vertex updates, loop limits, seed."""

    alpha: float
    gamma: float
    max_iters: int = DEFAULT_MAX_ITERS
    rel_tol: float = DEFAULT_REL_TOL
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.alpha < math.inf:
            raise InputError(f"alpha must be finite and >= 1, got {self.alpha}")
        check_positive("gamma", self.gamma)
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        check_positive("rel_tol", self.rel_tol)
        object.__setattr__(self, "seed", check_seed(self.seed))


class QuantileBackend:
    """Quantile labels as vectors of grid samples.

    Weighted vector averages realize the exact barycenter, and the squared
    transport distance is the grid quadrature (1/S) * ||x - y||^2.  A random
    start is the standard normal quantile function shifted by row v of one
    seeded (n, 1) draw of U(-1, 1).
    """

    def __init__(self, grid: QuantileGrid):
        self.grid = grid
        self.dim = grid.size
        self.metric_scale = 1.0 / grid.size

    def encode(self, label: QuantileLabel) -> np.ndarray:
        check_same_grid(label.grid, self.grid)
        return np.array(label.values)

    def decode(self, vec: np.ndarray) -> QuantileLabel:
        return QuantileLabel(self.grid, vec)

    def random_init(self, seed: int, n: int, anchors: Sequence[QuantileLabel]) -> np.ndarray:
        shifts = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 1))
        return standard_normal_quantiles(self.grid) + shifts

    def mean_stats(self, values: np.ndarray) -> np.ndarray:
        return values.mean(axis=1, keepdims=True)


class GaussianBackend:
    """Diagonal Gaussians as concatenated (mean, std) vectors.

    Averaging the concatenation averages means and stds coordinate-wise, and
    the squared norm of a difference is the closed-form squared distance.  A
    random start takes row v of one seeded (n, b) draw of U(0, 1) as its
    means and the mean of the anchor stds as its stds.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise InputError(f"Gaussian dimension must be >= 1, got {dim}")
        self.b = dim
        self.dim = 2 * dim
        self.metric_scale = 1.0

    def encode(self, label: DiagGaussianLabel) -> np.ndarray:
        if label.dim != self.b:
            raise InputError(f"label dimension {label.dim} does not match backend {self.b}")
        return np.concatenate([label.mean, label.std])

    def decode(self, vec: np.ndarray) -> DiagGaussianLabel:
        return DiagGaussianLabel(vec[: self.b], np.maximum(vec[self.b:], 0.0))

    def random_init(self, seed: int, n: int, anchors: Sequence[DiagGaussianLabel]) -> np.ndarray:
        std = np.mean(np.stack([a.std for a in anchors]), axis=0)
        means = np.random.default_rng(seed).uniform(0.0, 1.0, (n, self.b))
        return np.hstack([means, np.broadcast_to(std, means.shape)])

    def mean_stats(self, values: np.ndarray) -> np.ndarray:
        return values[:, : self.b]


@dataclass(frozen=True)
class LabeledSubset:
    """Target labels for the known vertices."""

    targets: Dict[int, object]

    def __post_init__(self):
        if not self.targets:
            raise InputError("the set of known vertices must be non-empty")

    @property
    def vertices(self) -> List[int]:
        return sorted(self.targets)


class _Context:
    """The two weighted incidence operators shared by all steps of one run,
    and the scratch buffers of the loss.

    Both operators reuse the index arrays of the hypergraph's incidence
    matrix B and differ only in their data: ``edge_incidence`` (E x n) weighs
    a member by alpha if it is known and 1 otherwise, and
    ``vertex_incidence`` (n x E, the transpose) weighs hyperedge E by 1/|E|.
    The latter does not depend on the known set, so it is the hypergraph's
    own `mean_incidence`, shared by every run on the graph.
    """

    def __init__(self, h: Hypergraph, known: LabeledSubset, cfg: PropagationConfig, backend):
        self.h = h
        self.known = known
        self.cfg = cfg
        self.backend = backend

        self.anchor_vertices = check_vertex_range("known", known.vertices, h.n)
        self.anchor_values = np.stack([backend.encode(known.targets[v]) for v in known.vertices])
        with np.errstate(over="ignore"):  # the loss raises the non-finite labels it makes
            self.anchor_pull = cfg.gamma * self.anchor_values

        inc = h.incidence()
        is_known = np.zeros(h.n, dtype=bool)
        is_known[self.anchor_vertices] = True
        alpha_weights = np.where(is_known[inc.indices], cfg.alpha, 1.0)
        self.edge_incidence = sp.csr_matrix((alpha_weights, inc.indices, inc.indptr), inc.shape)
        self.vertex_incidence = h.mean_incidence
        # a matvec adds each total in storage order; .sum(axis=1) would not
        self.edge_totals = self.edge_incidence @ np.ones(h.n)
        den = h.mean_degrees.copy()
        den[self.anchor_vertices] += cfg.gamma
        # vertices in no hyperedge and not known keep their current label
        updated = den > 0
        self.kept = ~updated
        self.vertex_totals = np.where(updated, den, 1.0)

        # the loss gathers incidences in blocks of `loss_rows` into two buffers
        incidences = inc.nnz
        self.loss_rows = max(1, LOSS_BLOCK_VALUES // backend.dim)
        shape = (min(self.loss_rows, incidences), backend.dim)
        self.loss_buffers = (np.empty(incidences), np.empty(shape), np.empty(shape))


@dataclass(frozen=True)
class PropagationState:
    """Working state of one run: encoded vertex and hyperedge labels, the loss
    trace, and the iteration counter."""

    context: _Context = field(repr=False)
    vertex_values: np.ndarray = field(repr=False)
    edge_values: Optional[np.ndarray] = field(repr=False, default=None)
    loss_history: tuple = ()
    iterations: int = 0

    def vertex_label(self, v: int):
        return self.context.backend.decode(self.vertex_values[v])

    def hyperedge_label(self, e: int):
        if self.edge_values is None:
            raise InputError("no hyperedge labels before the first step")
        return self.context.backend.decode(self.edge_values[e])


def _edge_phase(ctx: _Context, vertex_values: np.ndarray) -> np.ndarray:
    """Hyperedge labels: weighted barycenter of member labels, divided in
    place in the block the product made."""
    edge_values = ctx.edge_incidence @ vertex_values
    edge_values /= ctx.edge_totals[:, None]
    return edge_values


def _loss(ctx: _Context, vertex_values: np.ndarray, edge_values: np.ndarray) -> float:
    """Sum over incidences (v, E) of ||x_v - y_E||^2 / |E|, plus the gamma-
    weighted anchor terms, in transport units.  The incidences are gathered
    in blocks into the context's two buffers, which bounds the scratch
    memory; each squared norm is summed whole, so the result does not depend
    on the block size.  A loss that is not finite (labels too large to
    compare) raises NumericalError."""
    members = ctx.edge_incidence.indices
    rows = ctx.loss_rows
    sq_norms, diffs, others = ctx.loss_buffers
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is raised below
        for start in range(0, members.size, rows):
            block = slice(start, start + rows)
            out = sq_norms[block]
            d, e = diffs[:out.size], others[:out.size]
            # the indices are valid, so "clip" only spares take a buffered copy
            np.take(vertex_values, members[block], axis=0, out=d, mode="clip")
            np.take(edge_values, ctx.h.edge_of[block], axis=0, out=e, mode="clip")
            d -= e
            d *= d
            np.sum(d, axis=1, out=out)
        loss = float(ctx.vertex_incidence.data @ sq_norms)
        anchor_diffs = vertex_values[ctx.anchor_vertices] - ctx.anchor_values
        scale = ctx.backend.metric_scale
        total = loss * scale + ctx.cfg.gamma * float(np.sum(anchor_diffs * anchor_diffs)) * scale
    if not math.isfinite(total):
        raise NumericalError(f"propagation loss is {total}: the labels are too large to compare")
    return total


def step(state: PropagationState) -> PropagationState:
    """One alternation: update hyperedge labels, then vertex labels, then
    accumulate the loss at the new vertex labels.  The input state is left
    as it was; the two blocks of the new state are the only ones made."""
    ctx = state.context
    old = state.vertex_values

    edge_values = _edge_phase(ctx, old)
    new = ctx.vertex_incidence @ edge_values
    with np.errstate(over="ignore", invalid="ignore"):  # _loss raises a non-finite label
        new[ctx.anchor_vertices] += ctx.anchor_pull
        new /= ctx.vertex_totals[:, None]
    np.copyto(new, old, where=ctx.kept[:, None])

    return replace(
        state,
        vertex_values=new,
        edge_values=edge_values,
        loss_history=state.loss_history + (_loss(ctx, new, edge_values),),
        iterations=state.iterations + 1,
    )


def evaluate_loss(state: PropagationState, vertex_values: Optional[np.ndarray] = None) -> float:
    """Loss functional of a fixed vertex labeling, by default the state's own:
    hyperedge labels are the barycenters of these labels, and the loss is
    summed without updating."""
    if vertex_values is None:
        vertex_values = state.vertex_values
    vertex_values = np.asarray(vertex_values, dtype=float)  # the loss buffers are float
    return _loss(state.context, vertex_values, _edge_phase(state.context, vertex_values))


def initial_state(
    h: Hypergraph,
    known: LabeledSubset,
    cfg: PropagationConfig,
    backend,
    initial_labels: Optional[Sequence] = None,
) -> PropagationState:
    """Build the starting state.  Unless explicit labels are given, row v of
    the random start is row v of one `default_rng(seed)` draw of shape
    (n, draws), so it does not depend on n: the start of n vertices is the
    first n rows of the start of any larger n."""
    ctx = _Context(h, known, cfg, backend)
    anchors = [known.targets[v] for v in known.vertices]
    if initial_labels is not None:
        if len(initial_labels) != h.n:
            raise InputError(f"expected {h.n} initial labels, got {len(initial_labels)}")
        values = np.stack([backend.encode(lab) for lab in initial_labels])
    else:
        values = backend.random_init(cfg.seed, h.n, anchors)
    return PropagationState(context=ctx, vertex_values=values)


def _warn_unreached(ctx: _Context) -> None:
    """Warn about vertices no anchor reaches: those in no hyperedge, and those
    whose connected component of the bipartite vertex-hyperedge graph holds no
    known vertex.  The graph scans its components once and keeps them, for
    every known set; the bipartite graph has one link per incidence, so each
    round of the scan is linear in the size of the hyperedges."""
    component = ctx.h.bipartite_components
    reached = np.isin(component, component[ctx.anchor_vertices])
    in_some_edge = ctx.h.mean_degrees > 0
    isolated = np.flatnonzero(~reached & ~in_some_edge).tolist()
    unreached = np.flatnonzero(~reached & in_some_edge).tolist()
    if isolated:
        warnings.warn(
            f"{len(isolated)} vertices belong to no hyperedge and keep their "
            f"initialization: {isolated[:10]}{'...' if len(isolated) > 10 else ''}",
            stacklevel=3,
        )
    if unreached:
        warnings.warn(
            f"{len(unreached)} vertices are not reachable from the known set; "
            f"their labels never feel an anchor: "
            f"{unreached[:10]}{'...' if len(unreached) > 10 else ''}",
            stacklevel=3,
        )


def propagate(
    h: Hypergraph,
    known: LabeledSubset,
    cfg: PropagationConfig,
    backend,
    initial_labels: Optional[Sequence] = None,
) -> PropagationState:
    """Run alternating propagation until the relative loss change drops below
    cfg.rel_tol or cfg.max_iters is reached; returns the final state with the
    full loss history."""
    state = initial_state(h, known, cfg, backend, initial_labels)  # validates known vertices
    _warn_unreached(state.context)
    for _ in range(cfg.max_iters):
        # free the previous hyperedge block before the step makes the next one
        state = replace(state, edge_values=None)
        state = step(state)
        hist = state.loss_history
        if len(hist) >= 2 and abs(hist[-1] - hist[-2]) <= cfg.rel_tol * max(1.0, hist[-2]):
            break
    return state


def classify(state: PropagationState) -> np.ndarray:
    """Hard class per vertex from the label means.

    One-dimensional means use the sign rule (+1 for mean >= 0, else -1);
    multi-dimensional means use the argmax coordinate with ties broken toward
    the lowest index.
    """
    stats = state.context.backend.mean_stats(state.vertex_values)
    if stats.shape[1] == 1:
        return np.where(stats[:, 0] >= 0, 1, -1)
    return np.argmax(stats, axis=1)
