"""Alternating barycenter label propagation on hypergraphs.

Labels alternate between hyperedges and vertices: each hyperedge takes the
weighted barycenter of its members' labels, then each vertex takes the
weighted barycenter of its incident hyperedges' labels (with its target label
appended as a gamma-weighted anchor when the vertex is known).  Known
vertices additionally carry weight alpha inside hyperedge barycenters.

Both label backends embed labels into a Euclidean vector space in which the
barycenter is a plain weighted average and the squared transport distance is
a scaled squared norm, so each phase is exact: a product of the (n, width)
label block with a weighted sparse incidence matrix.  A run's context holds
its alpha-weighted incidence and the one draw of the backend's seeded
`start`: (rows, coefficients), with coefficient rows of 1-norm at most 2,
or (None, block), the encoded start.  `initial_state` encodes that draw and
`_seeded_span` spans it.  Every iterate of a seeded run with k anchors
averages the anchors and the start, so it lies in the span of [anchors;
rows], k + 2 rows for quantile labels (Solomon et al., ICML 2014: 1-D
barycenters average quantile functions).  Where these r rows are fewer than
S, `propagate` runs the same phases on the (n, r) block of coefficients
over them, measures the loss with their r x r Gram matrix, and encodes the
vertex coefficients once, at exit.  The hyperedge labels are one step's
messages: `step` returns them, and `propagate` returns the vertex labels
and the loss trace alone.

Working set: a step allocates only the two blocks it returns, the new
(E, width) hyperedge block and the new (n, width) vertex block, where width
is that of the encoded labels, or r on coefficients; every quotient and row
copy is made in place, and `propagate` drops each hyperedge block once its
step has returned.  So the peak memory of the loop is about one E x width
block, plus a few n x width blocks (the current and the new vertex labels),
plus the loss buffers of LOSS_BLOCK_VALUES floats each that the run's
context makes at its first loss and keeps across steps; a run on
coefficients makes the n x S block only at exit.  The loss sums rows of
fewer than NUMPY_PAIRWISE_WIDTH values column by column, in numpy's own
order, into those buffers, so it allocates nothing for them.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import DimensionError, InputError, NumericalError, check_positive, check_seed, check_vertex_range
from .hypergraph import Hypergraph, WeightedGraph
from .labels import DiagGaussianLabel, QuantileGrid, QuantileLabel, check_same_grid
from .labels import standard_normal_quantiles

DEFAULT_MAX_ITERS = 200
DEFAULT_REL_TOL = 1e-6
LOSS_BLOCK_VALUES = 1 << 16  # floats gathered per block of the loss (512 KiB)
# np.sum adds a row of fewer values one by one from the left, starting at
# +0.0; from this width on it sums pairwise, with 8 accumulators
NUMPY_PAIRWISE_WIDTH = 8


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
    seeded (n, 1) draw of U(-1, 1); `start` gives it as the rows [standard
    normal quantiles; 1] and, per vertex, the coefficients [1, shift].
    """

    def __init__(self, grid: QuantileGrid):
        self.grid = grid
        self.metric_scale = 1.0 / grid.size

    def encode(self, label: QuantileLabel) -> np.ndarray:
        check_same_grid(label.grid, self.grid)
        return np.array(label.values)

    def decode(self, vec: np.ndarray) -> QuantileLabel:
        return QuantileLabel(self.grid, vec)

    def start(self, seed: int, n: int, anchor_values: np.ndarray):
        shifts = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 1))
        rows = np.vstack([standard_normal_quantiles(self.grid), np.ones(self.grid.size)])
        return rows, np.hstack([np.ones((n, 1)), shifts])

    def mean_stats(self, values: np.ndarray) -> np.ndarray:
        return values.mean(axis=1, keepdims=True)


class GaussianBackend:
    """Diagonal Gaussians as concatenated (mean, std) vectors.

    Averaging the concatenation averages means and stds coordinate-wise, and
    the squared norm of a difference is the closed-form squared distance.  A
    random start takes row v of one seeded (n, b) draw of U(0, 1) as its
    means and the mean of the encoded anchors' std columns as its stds;
    `start` gives it as (None, block): the random means span every column.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise InputError(f"Gaussian dimension must be >= 1, got {dim}")
        self.b = dim
        self.metric_scale = 1.0

    def encode(self, label: DiagGaussianLabel) -> np.ndarray:
        if label.dim != self.b:
            raise InputError(f"label dimension {label.dim} does not match backend {self.b}")
        return np.concatenate([label.mean, label.std])

    def split(self, values: np.ndarray):
        """Means and stds, clamped at 0, of an encoded label or a block of them."""
        return values[..., : self.b], np.maximum(values[..., self.b:], 0.0)

    def decode(self, vec: np.ndarray) -> DiagGaussianLabel:
        return DiagGaussianLabel(*self.split(vec))

    def start(self, seed: int, n: int, anchor_values: np.ndarray):
        std = anchor_values[:, self.b:].mean(axis=0)
        means = np.random.default_rng(seed).uniform(0.0, 1.0, (n, self.b))
        return None, np.hstack([means, np.broadcast_to(std, means.shape)])

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


def _known_incidence(h: Hypergraph, known: LabeledSubset, alpha: float):
    """The known vertices, checked against h, and h's E x n incidence matrix
    that weighs a known member by alpha and any other member by 1."""
    vertices = check_vertex_range("known", known.vertices, h.n)
    weights = np.ones(h.n)
    weights[vertices] = alpha
    return vertices, h.incidence(vertex_weights=weights)


def star_graph(h: Hypergraph, known: LabeledSubset, alpha: float) -> WeightedGraph:
    """The star expansion of h: a graph on the n vertices and the E hyperedge
    nodes n, ..., n + E - 1, with one pair (u, n + e) per incidence of
    weight w_u / |e|, where w_u is alpha for a known vertex and 1 otherwise.
    The alternating loop is block coordinate descent on its Tikhonov energy,
    so that solve, at gamma' = 1 / (m alpha gamma) for m known vertices, is
    a fixed point of `step`."""
    _, inc = _known_incidence(h, known, alpha)
    pairs = np.column_stack((inc.indices, h.n + h.edge_of))
    return WeightedGraph(h.n + len(h.sizes), pairs, inc.data / h.sizes[h.edge_of])


class _Context:
    """One run's inputs: two weighted incidence operators, the one result of
    the backend's `start` (``start``, drawn at first use), the form the
    labels are held in, and the scratch buffers of the loss.

    The hypergraph builds both operators from its index arrays; only their
    data differ: ``edge_incidence`` (E x n, `_known_incidence`, as in
    `star_graph`) weighs a known member by alpha and others by 1, and
    ``vertex_incidence`` (n x E) weighs hyperedge E by 1/|E|: the
    hypergraph's own `mean_incidence`, shared by every run on the graph.

    Labels are held as the backend encodes them (``basis`` None), or, by
    `over`, as coefficients over the rows of ``basis``, with its Gram matrix
    ``gram`` for their squared norms.
    """

    def __init__(self, h: Hypergraph, known: LabeledSubset, cfg: PropagationConfig, backend):
        self.h = h
        self.cfg = cfg
        self.backend = backend

        self.anchor_vertices, self.edge_incidence = _known_incidence(h, known, cfg.alpha)
        self.vertex_incidence = h.mean_incidence
        # a matvec adds each total in storage order; .sum(axis=1) would not
        self.edge_totals = self.edge_incidence @ np.ones(h.n)
        den = h.mean_degrees.copy()
        den[self.anchor_vertices] += cfg.gamma
        # vertices in no hyperedge and not known keep their current label
        self.kept = den == 0  # den >= 0: a sum of 1/|E| terms, plus gamma > 0 if known
        self.vertex_totals = np.where(self.kept, 1.0, den)

        self._hold(np.stack([backend.encode(known.targets[v]) for v in known.vertices]), None, None)

    def _hold(self, anchor_values: np.ndarray, basis: Optional[np.ndarray], gram: Optional[np.ndarray]):
        """Hold labels in rows as wide as the anchors' rows, and size the loss
        buffers to them."""
        self.basis, self.gram = basis, gram
        self.anchor_values = anchor_values
        with np.errstate(over="ignore"):  # the loss raises the non-finite labels it makes
            self.anchor_pull = self.cfg.gamma * anchor_values
        # the loss gathers incidences in blocks of `loss_rows` into two buffers
        self.loss_rows = max(1, LOSS_BLOCK_VALUES // anchor_values.shape[1])
        vars(self).pop("loss_buffers", None)

    @cached_property
    def start(self):
        return self.backend.start(self.cfg.seed, self.h.n, self.anchor_values)

    @cached_property
    def loss_buffers(self):
        """Made by the first loss, so that a run that steps on coefficients
        makes none for its encoded labels."""
        incidences = self.edge_incidence.nnz
        shape = (min(self.loss_rows, incidences), self.anchor_values.shape[1])
        return np.empty(incidences), np.empty(shape), np.empty(shape)

    def over(self, basis: np.ndarray, gram: np.ndarray) -> "_Context":
        """This run's operators, with labels held as coefficients over the rows
        of `basis`, whose first k rows are the k anchors."""
        span = copy.copy(self)
        span._hold(np.eye(len(self.anchor_vertices), len(basis)), basis, gram)
        return span


@dataclass(frozen=True)
class PropagationState:
    """Working state of one run: encoded vertex labels (inside `propagate`,
    maybe their coefficients over the context's basis), the hyperedge labels
    of a state that `step` returned, and the loss trace, one loss per step
    taken."""

    context: _Context = field(repr=False)
    vertex_values: np.ndarray = field(repr=False)
    edge_values: Optional[np.ndarray] = field(repr=False, default=None)
    loss_history: tuple = ()

    @property
    def iterations(self) -> int:
        return len(self.loss_history)

    def vertex_label(self, v: int):
        return self.context.backend.decode(self.vertex_values[v])

    def hyperedge_label(self, e: int):
        if self.edge_values is None:
            raise InputError("no hyperedge labels: only a state that step returns holds them")
        return self.context.backend.decode(self.edge_values[e])


def _edge_phase(ctx: _Context, vertex_values: np.ndarray) -> np.ndarray:
    """Hyperedge labels: weighted barycenter of member labels, divided in
    place in the block the product made."""
    edge_values = ctx.edge_incidence @ vertex_values
    edge_values /= ctx.edge_totals[:, None]
    return edge_values


def _row_sums(block: np.ndarray, out: np.ndarray) -> None:
    """`np.sum(block, axis=1, out=out)`, bit for bit.  np.sum loops once per
    row, which costs more than the adds on a row this narrow, so a narrow
    block is summed a whole column at a time, in numpy's order, in place
    in `out`."""
    width = block.shape[1]
    if width >= NUMPY_PAIRWISE_WIDTH:
        np.sum(block, axis=1, out=out)
        return
    np.add(block[:, 0], 0.0, out=out)  # as np.sum starts: -0.0 sums to +0.0
    for j in range(1, width):
        out += block[:, j]


def _gram_times(ctx: _Context, rows: np.ndarray) -> np.ndarray:
    """`rows` times the context's Gram matrix, so that the row sums of
    d * _gram_times(d) are squared norms: `rows` itself for encoded labels.
    einsum adds in a fixed order; a BLAS product's order can follow the
    thread count."""
    if ctx.gram is None:
        return rows
    return np.einsum("ij,jk->ik", rows, ctx.gram)


def _loss(ctx: _Context, vertex_values: np.ndarray, edge_values: np.ndarray) -> float:
    """Sum over incidences (v, E) of ||x_v - y_E||^2 / |E|, plus the gamma-
    weighted anchor terms, in transport units.  The incidences are gathered
    in blocks into the context's two buffers, which bounds the scratch
    memory; each squared norm is summed whole, so the result does not depend
    on the block size.  A loss that is not finite (labels too large to
    compare) raises NumericalError."""
    members, edges = ctx.edge_incidence.indices, ctx.h.edge_of
    rows = ctx.loss_rows
    sq_norms, diffs, others = ctx.loss_buffers
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is raised below
        if ctx.gram is not None:
            # on coefficients the quadratic form of x_v - y_E is its dot product
            # with G x_v - G y_E, so the Gram matrix multiplies each label once
            vertex_images, edge_images = _gram_times(ctx, vertex_values), _gram_times(ctx, edge_values)
        for start in range(0, members.size, rows):
            block = slice(start, start + rows)
            out = sq_norms[block]
            d, e = diffs[:out.size], others[:out.size]
            # the indices are valid, so "clip" only spares take a buffered copy
            np.take(vertex_values, members[block], axis=0, out=d, mode="clip")
            np.take(edge_values, edges[block], axis=0, out=e, mode="clip")
            d -= e
            if ctx.gram is None:
                e = d
            else:
                np.take(vertex_images, members[block], axis=0, out=e, mode="clip")
                e -= edge_images[edges[block]]
            d *= e
            _row_sums(d, out)
        # numpy's pairwise sum, not a BLAS dot, whose order follows the thread count
        np.multiply(sq_norms, ctx.vertex_incidence.data, out=sq_norms)
        loss = float(sq_norms.sum())
        anchor_diffs = vertex_values[ctx.anchor_vertices] - ctx.anchor_values
        scale = ctx.backend.metric_scale
        anchor_loss = float(np.sum(anchor_diffs * _gram_times(ctx, anchor_diffs)))
        total = loss * scale + ctx.cfg.gamma * anchor_loss * scale
    if total < 0.0:  # a Gram matrix's quadratic form can round below 0 where the loss is ~0
        total = 0.0
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
    )


def evaluate_loss(state: PropagationState, vertex_values: Optional[np.ndarray] = None) -> float:
    """Loss functional of a fixed vertex labeling, by default the state's own:
    hyperedge labels are the barycenters of these labels, and the loss is
    summed without updating."""
    if vertex_values is None:
        vertex_values = state.vertex_values
    vertex_values = np.asarray(vertex_values, dtype=float)  # the loss buffers are float
    if vertex_values.shape != state.vertex_values.shape:
        raise DimensionError(f"vertex_values of shape {vertex_values.shape} do not match the "
                             f"state's labels of shape {state.vertex_values.shape}")
    return _loss(state.context, vertex_values, _edge_phase(state.context, vertex_values))


def initial_state(
    h: Hypergraph,
    known: LabeledSubset,
    cfg: PropagationConfig,
    backend,
    initial_labels: Optional[Sequence] = None,
) -> PropagationState:
    """Build the starting state.  Unless explicit labels are given, it is the
    backend's seeded start: its block, or its coefficients times its rows in
    a fixed order.  Row v comes from row v of one `default_rng(seed)` draw of
    shape (n, draws), so it does not depend on n: a larger n appends rows."""
    ctx = _Context(h, known, cfg, backend)
    if initial_labels is not None:
        if len(initial_labels) != h.n:
            raise InputError(f"expected {h.n} initial labels, got {len(initial_labels)}")
        values = np.stack([backend.encode(lab) for lab in initial_labels])
    else:
        rows, values = ctx.start
        if rows is not None:
            values = np.einsum("ij,jk->ik", values, rows)
    return PropagationState(context=ctx, vertex_values=values)


def _warn_unreached(ctx: _Context) -> None:
    """Warn about vertices no anchor reaches: those in no hyperedge, which are
    the run's kept vertices (each is its own component, reached only if
    known), and those whose component of the bipartite vertex-hyperedge graph
    holds no known vertex.  The graph scans its components once and keeps
    them for every known set; with one link per incidence, each round of the
    scan is linear in the size of the hyperedges."""
    component = ctx.h.bipartite_components
    reached = np.isin(component, component[ctx.anchor_vertices])
    for vertices, fate in (
        (ctx.kept, "belong to no hyperedge and keep their initialization"),
        (~reached & ~ctx.kept, "are not reachable from the known set; their labels never feel an anchor"),
    ):
        vertices = np.flatnonzero(vertices).tolist()
        if vertices:
            more = "..." if len(vertices) > 10 else ""
            warnings.warn(f"{len(vertices)} vertices {fate}: {vertices[:10]}{more}", stacklevel=3)


def _seeded_span(state: PropagationState) -> PropagationState:
    """The backend's seeded start as coefficients [0 | start's] over the
    basis [anchors; start's rows], when the basis has fewer rows than a label
    has columns, each start coefficient row has 1-norm at most 2 and 16 times
    the basis's Gram matrix is finite; otherwise `state` itself.

    Every coefficient row is then a convex combination of the anchors' (1-norm
    1) and the start's, so a difference of two has 1-norm at most 4, and the
    loss's quadratic form of it adds terms no larger than 16 times the
    largest Gram entry: where that is finite, the loss overflows only where
    the loss of the encoded labels does."""
    ctx = state.context
    k, width = ctx.anchor_values.shape
    rows, start = ctx.start
    if rows is None or k + len(rows) >= width or not np.all(np.abs(start).sum(axis=1) <= 2.0):
        return state
    basis = np.vstack([ctx.anchor_values, rows])
    with np.errstate(over="ignore", invalid="ignore"):  # anchors too large for this form
        gram = np.einsum("ik,jk->ij", basis, basis)
        if not np.isfinite(16.0 * gram).all():
            return state
    coefficients = np.zeros((ctx.h.n, len(basis)))
    coefficients[:, k:] = start
    return PropagationState(context=ctx.over(basis, gram), vertex_values=coefficients)


def _encoded(state: PropagationState, ctx: _Context) -> PropagationState:
    """The state with encoded labels under `ctx`: each coefficient block it
    holds times the basis, added in a fixed order.  A quantile row is a
    non-negative combination of non-decreasing rows plus a constant, so it
    does not decrease."""
    basis = state.context.basis
    if basis is None:
        return state
    edges = state.edge_values
    return replace(
        state,
        context=ctx,
        vertex_values=np.einsum("ij,jk->ik", state.vertex_values, basis),
        edge_values=None if edges is None else np.einsum("ij,jk->ik", edges, basis),
    )


def propagate(
    h: Hypergraph,
    known: LabeledSubset,
    cfg: PropagationConfig,
    backend,
    initial_labels: Optional[Sequence] = None,
) -> PropagationState:
    """Run alternating propagation until the relative loss change drops below
    cfg.rel_tol or cfg.max_iters is reached; returns the final vertex labels
    and the full loss history, with no hyperedge labels.  A seeded run whose
    backend's start has rows steps on coefficients over [anchors; rows] (see
    `_seeded_span`) and encodes the vertex coefficients once, at exit."""
    state = initial_state(h, known, cfg, backend, initial_labels)  # validates known vertices
    encoded = state.context
    _warn_unreached(encoded)
    if initial_labels is None:
        state = _seeded_span(state)
    for _ in range(cfg.max_iters):
        # a result holds no hyperedge block, so each is freed before the next step
        state = replace(step(state), edge_values=None)
        hist = state.loss_history
        if len(hist) >= 2 and abs(hist[-1] - hist[-2]) <= cfg.rel_tol * max(1.0, hist[-2]):
            break
    return _encoded(state, encoded)


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
