"""The four benchmark workloads: seeded inputs, the CLI command, and its check.

Sizes are chosen so one CLI run takes a few seconds on 2 CPUs, which leaves
room for several closed-loop runs inside one measured window.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import checks
import gen

GRID = 256
ALPHA, GAMMA_PROP = 20.0, 10.0
GAMMA_STABILITY, EPSILON = 1.5, 0.5  # large enough for a positive margin
GAMMA_FIELD = 0.01                    # small enough that the blocks separate


@dataclass
class Instance:
    """One generated input set: the CLI arguments, the files the command
    writes, and the check of those files."""

    argv: List[str]
    outputs: List[Path]
    check: Callable[[], checks.CheckResult]


def _rng(seed: int, workload: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload])


def prop_quantile(seed: int, work: Path) -> Instance:
    """Quantile propagation with a fixed iteration budget: wide rows
    (S=256) make the propagation step and the predictions write dominate."""
    n, iters = 1200, 6
    rng = _rng(seed, 1)
    h = gen.planted_hypergraph(rng, n, 3 * n)
    known = gen.known_vertices(rng, n, n // 50)
    labels = gen.hist_labels(rng, h.blocks, known)
    gen.write_hypergraph(work / "edges.txt", h.edges)
    gen.write_hist_labels(work / "known.csv", labels)
    out = work / "predictions.csv"
    argv = ["propagate", "--hypergraph", "edges.txt", "--labels", "known.csv",
            "--alpha", repr(ALPHA), "--gamma", repr(GAMMA_PROP), "--grid-size", str(GRID),
            "--max-iters", str(iters), "--tol", "1e-300", "--seed", str(seed),
            "--output", out.name]

    def check() -> checks.CheckResult:
        # the reference starts where the program starts: its seeded initial state
        from wassprop import Hypergraph, QuantileBackend, QuantileGrid, QuantileLabel
        from wassprop.propagation import LabeledSubset, PropagationConfig, initial_state

        grid = QuantileGrid(GRID)
        anchors = checks.anchor_matrix(labels, GRID)
        x0 = initial_state(
            Hypergraph(n, h.edges),
            LabeledSubset({v: QuantileLabel(grid, a) for v, a in anchors.items()}),
            PropagationConfig(alpha=ALPHA, gamma=GAMMA_PROP, seed=seed),
            QuantileBackend(grid),
        ).vertex_values
        ref = checks.propagation_reference(n, h.edges, anchors, ALPHA, GAMMA_PROP, x0, iters)
        return checks.check_predictions(out, ref, 2 * h.blocks - 1, known)

    return Instance(argv, [out], check)


def experiment_gauss(seed: int, work: Path) -> Instance:
    """Seeded trials with one-hot Gaussian anchors (b=2): narrow rows, many
    restarts, so initialization, reachability and classification weigh in.
    A fixed step budget per trial keeps the work the same for every seed."""
    n, trials, iters = 2000, 4, 30
    rng = _rng(seed, 2)
    h = gen.planted_hypergraph(rng, n, 3 * n)
    gen.write_hypergraph(work / "edges.txt", h.edges)
    gen.write_truth(work / "truth.csv", h.blocks)
    out = work / "metrics.csv"
    argv = ["experiment", "--hypergraph", "edges.txt", "--truth", "truth.csv",
            "--labels-per-class", str(n // 200), "--trials", str(trials),
            "--alpha", repr(ALPHA), "--gamma", repr(GAMMA_PROP), "--anchor-kind", "onehot",
            "--max-iters", str(iters), "--tol", "1e-300", "--seed", str(seed),
            "--output", out.name]
    return Instance(argv, [out], lambda: checks.check_metrics(out, trials))


def _graph_instance(seed: int, work: Path, workload: int, n: int, grid: int = GRID):
    rng = _rng(seed, workload)
    h = gen.planted_hypergraph(rng, n, 3 * n)
    i, j, w = gen.clique_weights(n, h.edges)
    known = gen.known_vertices(rng, n, n // 50)
    labels = gen.hist_labels(rng, h.blocks, known)
    gen.write_graph(work / "graph.txt", i, j, w)
    gen.write_hist_labels(work / "known.csv", labels)
    return h.blocks, checks.laplacian(n, i, j, w), checks.anchor_matrix(labels, grid)


def stability_dense(seed: int, work: Path) -> Instance:
    """Empirical stability swaps on a clique expansion with 512 < n <= 2000:
    the dense Cholesky path, one refactorization per swap, the iterative
    spectral gap, and many validated probe labels."""
    n, swaps = 1000, 4
    _, lap, anchors = _graph_instance(seed, work, 3, n)
    report, ratios = work / "report.txt", work / "ratios.csv"
    argv = ["stability", "--graph", "graph.txt", "--labels", "known.csv",
            "--gamma", repr(GAMMA_STABILITY), "--epsilon", repr(EPSILON), "--grid-size", str(GRID),
            "--empirical", "--swaps", str(swaps), "--ratios", ratios.name,
            "--seed", str(seed), "--output", report.name]
    lambda1 = checks.dense_lambda1(lap)
    phi2 = checks.phi_l2_squared(anchors)

    def check() -> checks.CheckResult:
        return checks.check_stability(report, ratios, lambda1, phi2, len(anchors),
                                      GAMMA_STABILITY, EPSILON, swaps)

    return Instance(argv, [report, ratios], check)


def tikhonov_cg(seed: int, work: Path) -> Instance:
    """Closed-form quantile-slice solve with n > 2000: the conjugate-gradient
    side of the dense/iterative switch, then a 320k-value field write.  Half
    the other workloads' grid keeps one run near theirs in length, so a
    window holds as many samples."""
    n, grid = 2500, GRID // 2
    blocks, lap, anchors = _graph_instance(seed, work, 4, n, grid)
    out = work / "field.csv"
    argv = ["solve-tikhonov", "--graph", "graph.txt", "--labels", "known.csv",
            "--gamma", repr(GAMMA_FIELD), "--grid-size", str(grid), "--seed", str(seed),
            "--output", out.name]
    return Instance(argv, [out],
                    lambda: checks.check_field(out, lap, anchors, GAMMA_FIELD, 2 * blocks - 1))


WORKLOADS: Dict[str, Callable[[int, Path], Instance]] = {
    "prop-quantile": prop_quantile,
    "experiment-gauss": experiment_gauss,
    "stability-dense": stability_dense,
    "tikhonov-cg": tikhonov_cg,
}
