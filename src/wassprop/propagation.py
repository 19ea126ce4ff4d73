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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InputError
from .hypergraph import Hypergraph, components
from .labels import DiagGaussianLabel, QuantileGrid, QuantileLabel, standard_normal_quantiles

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
        if not 0 < self.gamma < math.inf:
            raise InputError(f"gamma must be positive and finite, got {self.gamma}")
        if self.max_iters < 1:
            raise InputError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0 < self.rel_tol < math.inf:
            raise InputError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.seed < 0:
            raise InputError(f"seed must be non-negative, got {self.seed}")


class QuantileBackend:
    """Quantile labels as vectors of grid samples.

    Weighted vector averages realize the exact barycenter, and the squared
    transport distance is the grid quadrature (1/S) * ||x - y||^2.
    """

    def __init__(self, grid: QuantileGrid):
        self.grid = grid
        self.dim = grid.size
        self.metric_scale = 1.0 / grid.size

    def encode(self, label: QuantileLabel) -> np.ndarray:
        if label.grid.size != self.grid.size:
            raise InputError("label grid does not match backend grid")
        return np.array(label.values)

    def decode(self, vec: np.ndarray) -> QuantileLabel:
        return QuantileLabel(self.grid, vec)

    def random_init(
        self, rngs: Sequence[np.random.Generator], anchors: Sequence[QuantileLabel]
    ) -> np.ndarray:
        # standard Gaussian shape with a uniformly drawn mean in [-1, 1] per row
        shifts = np.array([rng.uniform(-1.0, 1.0) for rng in rngs])
        return standard_normal_quantiles(self.grid) + shifts[:, None]

    def mean_stats(self, values: np.ndarray) -> np.ndarray:
        return values.mean(axis=1, keepdims=True)


class GaussianBackend:
    """Diagonal Gaussians as concatenated (mean, std) vectors.

    Averaging the concatenation averages means and stds coordinate-wise, and
    the squared norm of a difference is the closed-form squared distance.
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

    def random_init(
        self, rngs: Sequence[np.random.Generator], anchors: Sequence[DiagGaussianLabel]
    ) -> np.ndarray:
        std = np.mean(np.stack([a.std for a in anchors]), axis=0)
        means = np.stack([rng.uniform(0.0, 1.0, size=self.b) for rng in rngs])
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
    """The two weighted incidence operators shared by all steps of one run.

    Both reuse the index arrays of the hypergraph's incidence matrix B and
    differ only in their data: ``edge_incidence`` (E x n) weighs a member by
    alpha if it is known and 1 otherwise, and ``vertex_incidence`` (n x E,
    the transpose) weighs hyperedge E by 1/|E|.
    """

    def __init__(self, h: Hypergraph, known: LabeledSubset, cfg: PropagationConfig, backend):
        self.h = h
        self.known = known
        self.cfg = cfg
        self.backend = backend

        for v in known.vertices:
            if not (0 <= v < h.n):
                raise InputError(f"known vertex {v} outside [0, {h.n})")
        self.anchor_vertices = np.array(known.vertices, dtype=np.intp)
        self.anchor_values = np.stack([backend.encode(known.targets[v]) for v in known.vertices])

        inc = h.incidence()
        sizes = np.diff(inc.indptr)
        # the hyperedge of each stored incidence, in storage order
        self.member_edges = np.repeat(np.arange(len(h.edges)), sizes)
        is_known = np.zeros(h.n, dtype=bool)
        is_known[self.anchor_vertices] = True
        alpha_weights = np.where(is_known[inc.indices], cfg.alpha, 1.0)
        size_weights = 1.0 / sizes[self.member_edges]
        self.edge_incidence = sp.csr_matrix((alpha_weights, inc.indices, inc.indptr), inc.shape)
        self.vertex_incidence = sp.csr_matrix((size_weights, inc.indices, inc.indptr), inc.shape).T
        # a matvec adds each total in storage order; .sum(axis=1) would not
        self.edge_totals = self.edge_incidence @ np.ones(h.n)
        den = self.vertex_incidence @ np.ones(len(h.edges))
        den[self.anchor_vertices] += cfg.gamma
        # vertices in no hyperedge and not known keep their current label
        self.updated = den > 0
        self.vertex_totals = np.where(self.updated, den, 1.0)


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
    """Hyperedge labels: weighted barycenter of member labels."""
    return (ctx.edge_incidence @ vertex_values) / ctx.edge_totals[:, None]


def _loss(ctx: _Context, vertex_values: np.ndarray, edge_values: np.ndarray) -> float:
    """Sum over incidences (v, E) of ||x_v - y_E||^2 / |E|, plus the gamma-
    weighted anchor terms, in transport units.  The incidences are gathered
    in blocks, which bounds the scratch memory; each squared norm is summed
    whole, so the result does not depend on the block size."""
    members = ctx.edge_incidence.indices
    sq_norms = np.empty(members.size)
    rows = max(1, LOSS_BLOCK_VALUES // ctx.backend.dim)
    for start in range(0, members.size, rows):
        block = slice(start, start + rows)
        diffs = vertex_values[members[block]] - edge_values[ctx.member_edges[block]]
        sq_norms[block] = np.sum(diffs * diffs, axis=1)
    loss = float(ctx.vertex_incidence.data @ sq_norms)
    anchor_diffs = vertex_values[ctx.anchor_vertices] - ctx.anchor_values
    scale = ctx.backend.metric_scale
    return loss * scale + ctx.cfg.gamma * float(np.sum(anchor_diffs * anchor_diffs)) * scale


def step(state: PropagationState) -> PropagationState:
    """One alternation: update hyperedge labels, then vertex labels, then
    accumulate the loss at the new vertex labels."""
    ctx = state.context
    old = state.vertex_values

    edge_values = _edge_phase(ctx, old)
    num = ctx.vertex_incidence @ edge_values
    num[ctx.anchor_vertices] += ctx.cfg.gamma * ctx.anchor_values
    new = np.where(ctx.updated[:, None], num / ctx.vertex_totals[:, None], old)

    return replace(
        state,
        vertex_values=new,
        edge_values=edge_values,
        loss_history=state.loss_history + (_loss(ctx, new, edge_values),),
        iterations=state.iterations + 1,
    )


def evaluate_loss(state_or_ctx, vertex_values: Optional[np.ndarray] = None) -> float:
    """Loss functional of a fixed vertex labeling: hyperedge labels are the
    barycenters of these labels, and the loss is summed without updating."""
    ctx = state_or_ctx.context if isinstance(state_or_ctx, PropagationState) else state_or_ctx
    if vertex_values is None:
        vertex_values = state_or_ctx.vertex_values
    return _loss(ctx, vertex_values, _edge_phase(ctx, vertex_values))


def initial_state(
    h: Hypergraph,
    known: LabeledSubset,
    cfg: PropagationConfig,
    backend,
    initial_labels: Optional[Sequence] = None,
) -> PropagationState:
    """Build the starting state, drawing per-vertex random labels from streams
    seeded by (seed, vertex index) unless explicit labels are given."""
    ctx = _Context(h, known, cfg, backend)
    anchors = [known.targets[v] for v in known.vertices]
    if initial_labels is not None:
        if len(initial_labels) != h.n:
            raise InputError(f"expected {h.n} initial labels, got {len(initial_labels)}")
        values = np.stack([backend.encode(lab) for lab in initial_labels])
    else:
        rngs = [np.random.default_rng([cfg.seed, v]) for v in range(h.n)]
        values = backend.random_init(rngs, anchors)
    return PropagationState(context=ctx, vertex_values=values)


def _warn_unreached(ctx: _Context) -> None:
    """Warn about vertices no anchor reaches: those in no hyperedge, and those
    whose connected component of the bipartite vertex-hyperedge graph holds no
    known vertex.  The bipartite graph has one link per incidence, so each
    round of the scan is linear in the size of the hyperedges."""
    n = ctx.h.n
    members = ctx.edge_incidence.indices
    # vertices first, then hyperedges; each incidence links its two nodes
    component = components(n + len(ctx.h.edges), members, n + ctx.member_edges)[:n]
    reached = np.isin(component, component[ctx.anchor_vertices])
    in_some_edge = np.bincount(members, minlength=n) > 0
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
