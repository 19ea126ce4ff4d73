"""Hypergraphs, weighted graphs, clique expansion, and Laplacian spectra."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .errors import InputError, StructureError

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

    def incident_edges(self) -> list:
        """For each vertex, the list of indices of hyperedges containing it."""
        inc = self.incidence().tocsc()
        return [inc.indices[a:b].tolist() for a, b in zip(inc.indptr[:-1], inc.indptr[1:])]


@dataclass(frozen=True)
class WeightedGraph:
    """Sparse symmetric graph: map from unordered vertex pairs to positive weights."""

    n: int
    edges: Dict[Tuple[int, int], float]

    def __init__(self, n: int, edges: Dict[Tuple[int, int], float]):
        if n < 1:
            raise InputError(f"vertex count must be >= 1, got {n}")
        canon: Dict[Tuple[int, int], float] = {}
        for (i, j), w in edges.items():
            i, j = int(i), int(j)
            if i == j:
                raise InputError(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise InputError(f"edge ({i},{j}) outside [0, {n})")
            key = (min(i, j), max(i, j))
            if key in canon:
                raise InputError(f"duplicate edge {key}")
            w = float(w)
            if not 0 < w < math.inf:
                raise InputError(f"edge {key} has weight {w}; weights must be positive and finite")
            canon[key] = w
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", canon)

    def _arcs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, weights) of both orientations of every edge, interleaved
        in edge order: (i, j, w), (j, i, w), ..."""
        m = len(self.edges)
        rows = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp, count=2 * m)
        cols = rows.reshape(-1, 2)[:, ::-1].ravel()
        weights = np.repeat(np.fromiter(self.edges.values(), dtype=float, count=m), 2)
        return rows, cols, weights

    def adjacency(self) -> sp.csr_matrix:
        """Symmetric weighted adjacency matrix."""
        rows, cols, weights = self._arcs()
        return sp.csr_matrix((weights, (rows, cols)), shape=(self.n, self.n))


def clique_expand(h: Hypergraph) -> WeightedGraph:
    """Weighted graph whose edges carry, for each hyperedge of size k covering
    the pair, an additive contribution 1/k^2.

    With these weights the pairwise-sum regularizer on the expanded graph
    reproduces the sum of per-hyperedge barycenter energies exactly.  The
    weights are the off-diagonal entries of B^T diag(1/k^2) B for the
    incidence matrix B; each sum runs through the hyperedges in order.  The
    pairs (i, j), i < j, are keyed in sorted order.
    """
    inc = h.incidence()
    sizes = np.diff(inc.indptr)
    weights = 1.0 / np.repeat(sizes * sizes, sizes)
    weighted = sp.csr_matrix((weights, inc.indices, inc.indptr), shape=inc.shape)
    pairs = sp.triu(inc.T.tocsr() @ weighted, k=1, format="csr")
    pairs.sort_indices()  # the product leaves each row's columns unordered
    pairs = pairs.tocoo()
    keys = zip(pairs.row.tolist(), pairs.col.tolist())
    return WeightedGraph(h.n, dict(zip(keys, pairs.data.tolist())))


def laplacian(g: WeightedGraph) -> sp.csr_matrix:
    """L = D - W as a sparse symmetric matrix; its diagonal holds the degrees."""
    rows, cols, weights = g._arcs()
    # bincount adds each vertex's weights in edge order
    deg = np.bincount(rows, weights=weights, minlength=g.n)
    adj = sp.csr_matrix((weights, (rows, cols)), shape=(g.n, g.n))
    return (sp.diags(deg) - adj).tocsr()


def is_connected(g: WeightedGraph) -> bool:
    """True iff the graph has a single connected component."""
    return connected_components(g.adjacency(), directed=False, return_labels=False) == 1


def spectral_gap(g: WeightedGraph) -> float:
    """Smallest non-zero Laplacian eigenvalue of a connected weighted graph.

    Dense eigendecomposition up to DENSE_EIG_LIMIT vertices; above that, an
    iterative smallest-eigenvalue solve on the Laplacian with the constant
    nullvector deflated by a rank-one shift, started from a fixed seeded
    vector so that reruns return the same float.
    """
    if not is_connected(g):
        raise StructureError("spectral gap undefined: graph is disconnected")
    if g.n == 1:
        raise StructureError("spectral gap undefined on a single vertex")
    lap = laplacian(g)
    if g.n <= DENSE_EIG_LIMIT:
        eigvals = np.linalg.eigvalsh(lap.toarray())
        return float(eigvals[1])
    # Shift the constant eigenvector's eigenvalue from 0 up to c > lambda_max
    # (Gershgorin: lambda_max <= 2 max degree), leaving lambda_1 the minimum.
    n = g.n
    c = 2.0 * float(lap.diagonal().max()) + 1.0
    ones = np.ones(n) / np.sqrt(n)

    def matvec(x):
        return lap @ x + c * ones * (ones @ x)

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    # not the constant vector: that is the deflated eigenvector
    v0 = np.random.default_rng(0).standard_normal(n)
    vals = spla.eigsh(op, k=1, which="SA", tol=1e-10, v0=v0, return_eigenvectors=False)
    return float(vals[0])
