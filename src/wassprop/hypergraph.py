"""Hypergraphs, weighted graphs, clique expansion, and Laplacian spectra."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalError, StructureError

# Above this size the spectral gap switches from dense eigendecomposition to a
# deflated iterative eigensolver.
DENSE_EIG_LIMIT = 512
# The iterative solve's Lanczos basis holds LANCZOS_BASIS vectors and a
# restart keeps half of them.  It stops once the smallest Ritz value theta
# has residual <= LANCZOS_TOL * |theta| (ARPACK's stop rule) and gives up
# after RESTARTS_PER_VERTEX * n restarts (ARPACK's default cap).
LANCZOS_BASIS = 32
RESTARTS_PER_VERTEX = 10
LANCZOS_TOL = 1e-10


def _edge_fault(edge: Tuple[int, ...], n: int) -> Optional[str]:
    """What is wrong with a sorted hyperedge of a hypergraph on n vertices,
    checked in this order, or None."""
    if len(edge) < 2:
        return f"hyperedge {edge} has fewer than 2 vertices"
    if len(set(edge)) != len(edge):
        return f"hyperedge {edge} contains duplicate vertices"
    if edge[0] < 0 or edge[-1] >= n:
        return f"hyperedge {edge} has vertices outside [0, {n})"
    return None


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise InputError(f"vertex count must be >= 1, got {n}")
    # every vertex is below n, so fits intp; and numpy must size n 8-byte values,
    # in doubles as np.arange does (2**60 - 64 rounds to 2**60, which it refuses)
    if n > np.iinfo(np.intp).max or float(n) * 8 > np.iinfo(np.intp).max:
        raise InputError(f"vertex count {n} out of range")


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Vertex count plus hyperedges (vertex subsets of size >= 2), held once
    as read-only CSR arrays of the E x n incidence: hyperedge e is
    `indices[indptr[e]:indptr[e + 1]]`, sorted, of `sizes[e]` vertices, and
    `edge_of` holds the hyperedge of each incidence.  The index arrays have
    scipy's index type (int32 while n, E and the incidence count fit it, else
    int64), so `incidence()` wraps them as they are.  Duplicate hyperedges
    act as a multiset; a vertex twice in one hyperedge is rejected, and the
    first faulty hyperedge is named by the first check it fails.  `edges`
    (the hyperedges as sorted tuples) and the parts every propagation run on
    the graph shares (`mean_incidence`, `mean_degrees`, `bipartite_components`)
    are computed on first use and kept.
    """

    n: int

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        _check_vertex_count(n)
        edges = [[int(v) for v in e] for e in edges]
        try:
            members = np.array(list(chain.from_iterable(edges)), dtype=np.intp)
        except OverflowError:  # an index past intp is outside [0, n): some hyperedge fails
            raise InputError(next(filter(None, (_edge_fault(tuple(sorted(e)), n) for e in edges))))
        self._build(n, np.fromiter(map(len, edges), dtype=np.intp, count=len(edges)), members)

    @classmethod
    def from_members(cls, n: int, sizes: np.ndarray, members: np.ndarray) -> "Hypergraph":
        """The hypergraph whose hyperedge e holds `sizes[e]` vertices, the
        hyperedges laid end to end in the intp array `members`; checked and
        stored as the constructor does, with no Python loop over vertices."""
        _check_vertex_count(n)
        h = cls.__new__(cls)
        h._build(n, sizes, members)
        return h

    def _build(self, n: int, sizes: np.ndarray, members: np.ndarray) -> None:
        """Check the hyperedges and keep their arrays, an intp copy of `sizes`
        among them: one lexsort on (hyperedge, vertex) sorts every hyperedge
        and puts a repeated vertex next to its twin."""
        sizes = np.array(sizes, dtype=np.intp)  # the graph's own, left unfrozen at the caller
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        edge_of = np.repeat(np.arange(len(sizes)), sizes)
        indices = members[np.lexsort((members, edge_of))]
        bad = sizes < 2
        bad[edge_of[1:][(indices[1:] == indices[:-1]) & (edge_of[1:] == edge_of[:-1])]] = True
        bad[edge_of[(indices < 0) | (indices >= n)]] = True
        if bad.any():
            e = int(bad.argmax())
            raise InputError(_edge_fault(tuple(indices[indptr[e]:indptr[e + 1]].tolist()), n))
        index = np.int32 if max(n, len(sizes), indices.size) <= np.iinfo(np.int32).max else np.int64
        for name, a in zip(("indptr", "indices", "sizes", "edge_of"),
                           (indptr.astype(index), indices.astype(index), sizes, edge_of)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "n", n)

    @cached_property
    def edges(self) -> Tuple[Tuple[int, ...], ...]:
        """The hyperedges as sorted tuples, in order."""
        flat, bounds = self.indices.tolist(), self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def incidence(self, vertex_weights=None, edge_weights=None) -> sp.csr_matrix:
        """E x n incidence matrix: row e holds hyperedge e's members, member v
        with entry `vertex_weights[v]`, else `edge_weights[e]`, else 1.  It
        wraps the graph's own `indptr` and `indices`: row indices are sorted,
        and the stored entries run through the hyperedges in order."""
        if vertex_weights is not None:
            data = vertex_weights[self.indices]
        else:
            data = np.ones(self.indices.size) if edge_weights is None else edge_weights[self.edge_of]
        return sp.csr_matrix((data, self.indices, self.indptr), shape=(len(self.sizes), self.n))

    @cached_property
    def mean_incidence(self) -> sp.csc_matrix:
        """n x E transpose of `incidence()` whose entries in hyperedge e's
        column are 1/|e|, with read-only data in storage order: its product
        with an (E, dim) block gives each vertex the sum of its hyperedges'
        rows, each divided by the hyperedge's size."""
        inc = self.incidence(edge_weights=1.0 / self.sizes)
        inc.data.flags.writeable = False
        return inc.T

    @cached_property
    def mean_degrees(self) -> np.ndarray:
        """Row totals of `mean_incidence`, read-only: the sum of 1/|e| over
        the hyperedges e holding each vertex, 0 for a vertex in none."""
        # a matvec adds each total in storage order; .sum(axis=1) would not
        degrees = self.mean_incidence @ np.ones(len(self.sizes))
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def bipartite_components(self) -> np.ndarray:
        """Component label of each vertex in the bipartite vertex-hyperedge
        graph, read-only; two vertices share a label iff a chain of
        hyperedges joins them."""
        # vertices first, then hyperedges; each incidence links its two nodes
        labels = components(self.n + len(self.sizes), self.indices, self.n + self.edge_of)[: self.n]
        labels.flags.writeable = False
        return labels


def first_duplicate(pairs: np.ndarray) -> int:
    """Index of the first row of an (m, 2) integer pair array that repeats an
    earlier row, or -1.  A stable sort of one int64 key per row, (i - lo) *
    span + (j - lo), or a lexsort where span^2 overflows int64, puts equal rows
    next to each other in input order: each row after the first of its run repeats."""
    lo, hi = (int(pairs.min()), int(pairs.max())) if pairs.size else (0, 0)
    if (hi - lo + 1) ** 2 <= np.iinfo(np.int64).max:
        shifted = np.subtract(pairs, lo, dtype=np.int64)
        ranked = shifted[:, :1] * (hi - lo + 1) + shifted[:, 1:]
        order = np.argsort(ranked[:, 0], kind="stable")
    else:
        ranked, order = pairs, np.lexsort((pairs[:, 1], pairs[:, 0]))
    ranked = ranked[order]
    repeats = order[1:][np.all(ranked[1:] == ranked[:-1], axis=1)]
    return int(repeats.min()) if repeats.size else -1


def vertex_array(indices) -> np.ndarray:
    """Vertex indices as a new intp array; an index too large for intp raises
    InputError."""
    try:
        return np.array(indices, dtype=np.intp)
    except OverflowError:
        raise InputError("edge vertex index out of range") from None


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Sparse symmetric graph on n vertices: a read-only (m, 2) intp array of
    vertex pairs (i, j) with i < j, in input order, and a read-only array of
    their positive finite weights.  A pair given as (j, i) is stored as (i, j).
    """

    n: int
    pairs: np.ndarray
    weights: np.ndarray

    def __init__(self, n: int, pairs, weights):
        _check_vertex_count(n)
        pairs = vertex_array(pairs).reshape(-1, 2)
        weights = np.array(weights, dtype=float)
        if weights.shape != (len(pairs),):
            raise InputError(f"need one weight per pair: {len(pairs)} pairs, weights {weights.shape}")
        # each check names its first offender
        loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
        if loops.size:
            raise InputError(f"self-loop at vertex {pairs[loops[0], 0]}")
        outside = np.flatnonzero(np.any((pairs < 0) | (pairs >= n), axis=1))
        if outside.size:
            i, j = pairs[outside[0]].tolist()
            raise InputError(f"edge ({i},{j}) outside [0, {n})")
        pairs.sort(axis=1)
        repeat = first_duplicate(pairs)
        if repeat >= 0:
            raise InputError(f"duplicate edge {tuple(pairs[repeat].tolist())}")
        bad = np.flatnonzero(~((weights > 0) & (weights < np.inf)))
        if bad.size:
            key, w = tuple(pairs[bad[0]].tolist()), weights[bad[0]].item()
            raise InputError(f"edge {key} has weight {w}; weights must be positive and finite")
        for name, a in (("pairs", pairs), ("weights", weights)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "n", n)


def clique_expand(h: Hypergraph) -> WeightedGraph:
    """Weighted graph whose edges carry, for each hyperedge of size k covering
    the pair, an additive contribution 1/k^2.

    With these weights the pairwise-sum regularizer on the expanded graph
    reproduces the sum of per-hyperedge barycenter energies exactly.  The
    weights are the off-diagonal entries of B^T diag(1/k^2) B for the
    incidence matrix B; each sum runs through the hyperedges in order.  The
    pairs (i, j), i < j, come in sorted order.
    """
    weighted = h.incidence(edge_weights=1.0 / (h.sizes * h.sizes))
    pairs = sp.triu(h.incidence().T.tocsr() @ weighted, k=1, format="csr")
    pairs.sort_indices()  # the product leaves each row's columns unordered
    pairs = pairs.tocoo()
    return WeightedGraph(h.n, np.column_stack((pairs.row, pairs.col)), pairs.data)


def laplacian(g: WeightedGraph) -> sp.csr_matrix:
    """L = D - W as a sparse symmetric matrix; its diagonal holds the degrees."""
    # both orientations of every pair, interleaved in pair order: (i, j), (j, i), ...
    rows = g.pairs.ravel()
    cols = g.pairs[:, ::-1].ravel()
    weights = np.repeat(g.weights, 2)
    # bincount adds each vertex's weights in edge order; without edges it
    # returns integers, so the degrees are cast to keep L floating-point
    deg = np.bincount(rows, weights=weights, minlength=g.n).astype(float, copy=False)
    adj = sp.csr_matrix((weights, (rows, cols)), shape=(g.n, g.n))
    return (sp.diags(deg) - adj).tocsr()


def components(n: int, heads: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """Connected components of n nodes joined by the undirected links
    (heads[i], tails[i]): each node's label is the smallest node of its
    component.

    Each round looks up the roots of both ends of every link, drops the links
    inside one tree, hooks each larger root under the smallest root it links
    to, and then pointer-jumps until every node points at its root.  A root
    only ever moves to a smaller node, so no cycle forms, and the rounds stop
    when no link joins two trees.  Each round is a few gathers over the links
    still open, and rounds are few: 8 on a randomly permuted 10^4-node path.
    """
    parent = np.arange(n)
    while True:
        a, b = parent[heads], parent[tails]
        heads, tails = np.minimum(a, b), np.maximum(a, b)
        cross = heads != tails
        if not cross.any():
            return parent
        heads, tails = heads[cross], tails[cross]
        np.minimum.at(parent, tails, heads)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def single_component(n: int, heads: np.ndarray, tails: np.ndarray) -> bool:
    """True iff the links (heads[i], tails[i]) join all n nodes into one
    component, i.e. every node's component label is node 0."""
    return not components(n, heads, tails).any()


def is_connected(g: WeightedGraph) -> bool:
    """True iff the graph has a single connected component."""
    return single_component(g.n, g.pairs[:, 0], g.pairs[:, 1])


def spectral_gap(lap: sp.spmatrix) -> float:
    """Smallest non-zero eigenvalue of the Laplacian `lap` of a connected
    weighted graph; a disconnected graph raises StructureError."""
    links = sp.coo_matrix(lap)  # every stored entry links its row and column
    if not single_component(lap.shape[0], links.row, links.col):
        raise StructureError("spectral gap undefined: graph is disconnected")
    return connected_spectral_gap(lap)


def connected_spectral_gap(lap: sp.spmatrix) -> float:
    """`spectral_gap` for a Laplacian whose graph the caller has already
    checked connected, so its components are not scanned again.

    Dense eigendecomposition up to DENSE_EIG_LIMIT vertices; above that, the
    smallest eigenvalue of the Laplacian with the constant nullvector
    deflated by a rank-one shift, by `smallest_eigenvalue` from a fixed
    seeded vector, so that reruns return the same float.
    """
    n = lap.shape[0]
    if n == 1:
        raise StructureError("spectral gap undefined on a single vertex")
    if n <= DENSE_EIG_LIMIT:
        eigvals = np.linalg.eigvalsh(lap.toarray())
        return float(eigvals[1])
    # Shift the constant eigenvector's eigenvalue from 0 up to c > lambda_max
    # (Gershgorin: lambda_max <= 2 max degree), leaving lambda_1 the minimum.
    c = 2.0 * float(lap.diagonal().max()) + 1.0
    ones = np.ones(n) / np.sqrt(n)

    def matvec(x):
        return lap @ x + c * ones * (ones @ x)

    # not the constant vector: that is the deflated eigenvector
    v0 = np.random.default_rng(0).standard_normal(n)
    with np.errstate(over="ignore", invalid="ignore"):  # a step past the float range raises
        gap = smallest_eigenvalue(matvec, v0, c)
    if not 0.0 < gap < np.inf:
        raise NumericalError(f"spectral gap: eigensolver returned {gap!r}")
    return gap


def smallest_eigenvalue(matvec, v0: np.ndarray, norm: float) -> float:
    """Smallest eigenvalue of the symmetric operator `matvec`, of 2-norm
    `norm`, by thick-restart Lanczos (Wu & Simon 2000) from the start vector
    `v0`; for one eigenpair it matches ARPACK's implicit restarts.

    The (LANCZOS_BASIS + 1, n) basis is kept orthonormal by two classical
    Gram-Schmidt passes against all of it on every step.  When it is full,
    the projected matrix's smallest Ritz value is returned if its residual
    meets LANCZOS_TOL; otherwise the smallest half of the Ritz vectors and
    the residual vector are kept, and the basis fills up again.  A residual
    at rounding level (n eps norm) means the Krylov space is invariant, so
    the Ritz values are eigenvalues and the smallest is returned at once.
    Raises NumericalError after RESTARTS_PER_VERTEX * n restarts, or when a
    step leaves the float range.
    """
    n = v0.size
    m, keep = LANCZOS_BASIS, LANCZOS_BASIS // 2
    basis = np.empty((m + 1, n))
    basis[0] = v0 / np.linalg.norm(v0)
    # the projected matrix: tridiagonal, but for the arrow that a restart
    # leaves in the rows and columns of its kept vectors
    proj = np.zeros((m, m))
    start, breakdown = 0, n * np.finfo(float).eps * norm
    for _ in range(RESTARTS_PER_VERTEX * n + 1):
        for j in range(start, m):
            w = matvec(basis[j])
            done = basis[: j + 1]
            coef = done @ w
            w -= coef @ done
            fix = done @ w  # the second pass takes out what rounding left
            w -= fix @ done
            proj[j, j] = coef[j] + fix[j]
            beta = float(np.linalg.norm(w))
            if not beta < np.inf:
                raise NumericalError(f"spectral gap: a Lanczos step left the float range ({beta!r})")
            if beta <= breakdown:
                return float(np.linalg.eigvalsh(proj[: j + 1, : j + 1])[0])
            basis[j + 1] = w / beta
            if j + 1 < m:
                proj[j, j + 1] = proj[j + 1, j] = beta
        theta, s = np.linalg.eigh(proj)
        if beta * abs(s[-1, 0]) <= LANCZOS_TOL * abs(theta[0]):
            return float(theta[0])
        basis[:keep] = s[:, :keep].T @ basis[:m]
        basis[keep] = basis[m]
        proj[:] = 0.0
        proj[:keep, :keep] = np.diag(theta[:keep])
        proj[:keep, keep] = proj[keep, :keep] = beta * s[-1, :keep]
        start = keep
    raise NumericalError(f"spectral gap: Lanczos did not converge in {RESTARTS_PER_VERTEX * n} restarts")
