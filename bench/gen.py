"""Seeded input generator for the benchmark workloads.

Everything here is plain numpy and the standard library: the benchmark must
not call `wassprop.gen_sbm` (it cannot reach these sizes) or
`wassprop.clique_expand` (a change in its summation order would change the
inputs a performance change is measured on).  Floats are written with `repr`
so the program reads back exactly the doubles generated here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

MIN_EDGE, MAX_EDGE = 2, 7  # hyperedge sizes, inclusive
P_WITHIN = 0.8             # share of hyperedges drawn inside one block


@dataclass(frozen=True)
class PlantedHypergraph:
    """Two-block hypergraph: `blocks[v]` is 0 for v < n/2 and 1 otherwise.

    `edges` holds the random hyperedges followed by the spanning cycle
    (v, v+1 mod n), so every vertex is reached from any known vertex.  The
    cycle follows vertex order and crosses between the blocks only twice.
    """

    n: int
    edges: Tuple[Tuple[int, ...], ...]
    blocks: np.ndarray


def planted_hypergraph(rng: np.random.Generator, n: int, n_edges: int) -> PlantedHypergraph:
    blocks = (np.arange(n) >= n // 2).astype(np.intp)
    members = [np.flatnonzero(blocks == b) for b in (0, 1)]
    everyone = np.arange(n)
    sizes = rng.integers(MIN_EDGE, MAX_EDGE + 1, size=n_edges)
    within = rng.random(n_edges) < P_WITHIN
    which = rng.integers(0, 2, size=n_edges)
    edges: List[Tuple[int, ...]] = []
    for k, inside, b in zip(sizes, within, which):
        pool = members[b] if inside else everyone
        edges.append(tuple(sorted(int(v) for v in rng.choice(pool, size=int(k), replace=False))))
    edges += [tuple(sorted((v, (v + 1) % n))) for v in range(n)]
    return PlantedHypergraph(n, tuple(edges), blocks)


def clique_weights(n: int, edges: Sequence[Sequence[int]]):
    """Clique expansion: each pair (i < j) covered by a hyperedge of size k
    gains weight 1/k^2.  Returns (i, j, w) arrays sorted by (i, j)."""
    ii: List[int] = []
    jj: List[int] = []
    ww: List[float] = []
    for e in edges:
        k = len(e)
        for a in range(k):
            for b in range(a + 1, k):
                ii.append(e[a])
                jj.append(e[b])
                ww.append(1.0 / (k * k))
    keys = np.asarray(ii, dtype=np.int64) * n + np.asarray(jj, dtype=np.int64)
    unique, inverse = np.unique(keys, return_inverse=True)
    weights = np.bincount(inverse, weights=np.asarray(ww), minlength=unique.size)
    return unique // n, unique % n, weights


def hist_label(rng: np.random.Generator, center: float, nbins: int = 4):
    """Histogram with strictly increasing bins whose mean is near `center`
    and Dirichlet masses; returns (bins, masses)."""
    steps = np.cumsum(rng.uniform(0.1, 0.5, nbins))
    bins = center + steps - steps.mean()
    masses = rng.dirichlet(np.ones(nbins))
    return bins, masses


def hist_labels(rng: np.random.Generator, blocks: np.ndarray, known: np.ndarray):
    """Block 0 labels sit near -1, block 1 labels near +1."""
    return {int(v): hist_label(rng, 1.0 if blocks[v] else -1.0) for v in known}


def known_vertices(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """`count` distinct vertices, half from each block, sorted."""
    half = n // 2
    first = rng.choice(half, size=count // 2, replace=False)
    second = half + rng.choice(n - half, size=count - count // 2, replace=False)
    return np.sort(np.concatenate([first, second]))


def write_hypergraph(path: Path, edges: Sequence[Sequence[int]]) -> None:
    with open(path, "w") as fh:
        fh.writelines(" ".join(map(str, e)) + "\n" for e in edges)


def write_graph(path: Path, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{a} {b} {float(c)!r}\n" for a, b, c in zip(i.tolist(), j.tolist(), w))


def write_truth(path: Path, classes: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("vertex,class\n")
        fh.writelines(f"{v},{int(c)}\n" for v, c in enumerate(classes))


def write_hist_labels(path: Path, labels: Dict[int, tuple]) -> None:
    with open(path, "w") as fh:
        fh.write("vertex,kind,params\n")
        for v in sorted(labels):
            bins, masses = labels[v]
            params = ";".join(f"{float(b)!r}:{float(m)!r}" for b, m in zip(bins, masses))
            fh.write(f"{v},hist,{params}\n")
