"""Hypergraphs, weighted graphs, clique expansion, and Laplacian spectra."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .errors import InputError, NumericalError, StructureError

# Above this size the spectral gap switches from dense eigendecomposition to a
# deflated iterative eigensolver.
DENSE_EIG_LIMIT = 512


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a list of hyperedges (vertex subsets of size >= 2).

    Hyperedges are stored as sorted tuples. Duplicate hyperedges are allowed
    and act as a multiset (their contributions accumulate downstream);
    duplicate vertices inside one hyperedge are rejected.
    """

    n: int
    edges: Tuple[Tuple[int, ...], ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 1:
            raise InputError(f"vertex count must be >= 1, got {n}")
        if n > np.iinfo(np.intp).max:  # every vertex is below n, so it fits intp too
            raise InputError(f"vertex count {n} out of range")
        canon = []
        for e in edges:
            t = tuple(sorted(int(v) for v in e))
            if len(t) < 2:
                raise InputError(f"hyperedge {t} has fewer than 2 vertices")
            if len(set(t)) != len(t):
                raise InputError(f"hyperedge {t} contains duplicate vertices")
            if t[0] < 0 or t[-1] >= n:
                raise InputError(f"hyperedge {t} has vertices outside [0, {n})")
            canon.append(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(canon))

    def incidence(self) -> sp.csr_matrix:
        """E x n 0/1 incidence matrix: row e holds ones at hyperedge e's members.

        Built on each call, so graphs that never propagate never pay for it.
        Row indices are sorted, and the stored entries run through the
        hyperedges in order.
        """
        sizes = np.fromiter(map(len, self.edges), dtype=np.intp, count=len(self.edges))
        indptr = np.concatenate([[0], np.cumsum(sizes)])
        indices = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp, count=indptr[-1])
        return sp.csr_matrix(
            (np.ones(indices.size), indices, indptr), shape=(len(self.edges), self.n)
        )


def first_duplicate(pairs: np.ndarray) -> int:
    """Index of the first row of an (m, 2) pair array that repeats an earlier
    row, or -1.  A stable sort puts equal rows next to each other in input
    order, so every row after the first of its run is a repeat."""
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    ranked = pairs[order]
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
        if n < 1:
            raise InputError(f"vertex count must be >= 1, got {n}")
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
    inc = h.incidence()
    sizes = np.diff(inc.indptr)
    weights = 1.0 / np.repeat(sizes * sizes, sizes)
    weighted = sp.csr_matrix((weights, inc.indices, inc.indptr), shape=inc.shape)
    pairs = sp.triu(inc.T.tocsr() @ weighted, k=1, format="csr")
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

    Dense eigendecomposition up to DENSE_EIG_LIMIT vertices; above that, an
    iterative smallest-eigenvalue solve on the Laplacian with the constant
    nullvector deflated by a rank-one shift, started from a fixed seeded
    vector so that reruns return the same float.
    """
    n = lap.shape[0]
    if n == 1:
        raise StructureError("spectral gap undefined on a single vertex")
    if n <= DENSE_EIG_LIMIT:
        eigvals = np.linalg.eigvalsh(lap.toarray())
        return float(eigvals[1])
    import scipy.sparse.linalg as spla  # loaded here: only this branch uses it

    # Shift the constant eigenvector's eigenvalue from 0 up to c > lambda_max
    # (Gershgorin: lambda_max <= 2 max degree), leaving lambda_1 the minimum.
    c = 2.0 * float(lap.diagonal().max()) + 1.0
    ones = np.ones(n) / np.sqrt(n)

    def matvec(x):
        return lap @ x + c * ones * (ones @ x)

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    # not the constant vector: that is the deflated eigenvector
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals = spla.eigsh(op, k=1, which="SA", tol=1e-10, v0=v0, return_eigenvectors=False)
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"spectral gap: eigsh did not converge: {exc}") from None
    return float(vals[0])
