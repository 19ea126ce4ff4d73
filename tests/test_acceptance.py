"""Acceptance suite: ten end-to-end criteria, one printed verdict line each.

Each test prints `[PASS]`/`[FAIL]` with its headline numbers even under
pytest's capture, then asserts, so a full run shows ten verdict lines.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wassprop import (
    AnchorSpec,
    CategoricalTable,
    DominatedQuantileEnvelope,
    PropagationConfig,
    QuantileGrid,
    QuantileLabel,
    SbmConfig,
    StabilityInputs,
    TikhonovOperator,
    TrainingSet,
    barycenter_energy,
    beta,
    check_maximum_principle,
    cli,
    clique_expand,
    empirical_stability,
    expected_sbm_counts,
    fileio,
    gen_sbm,
    ingest_categorical,
    laplacian,
    quantile_from_histogram,
    run_experiment,
    spectral_gap,
    w2_squared_quantile,
)
from conftest import (
    dict_graph,
    edge_dict,
    random_connected_graph,
    random_histogram_label,
    random_hypergraph,
    random_training_set,
)


def _verdict(capsys, ok, text):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, text


def test_criterion_01_barycenter_identity(capsys):
    grid = QuantileGrid(1024)
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 6))
        labels = [random_histogram_label(rng, grid) for _ in range(k)]
        energy = barycenter_energy(labels)
        pairwise = sum(
            w2_squared_quantile(labels[i], labels[j])
            for i in range(k)
            for j in range(i + 1, k)
        ) / k**2
        worst = max(worst, abs(energy - pairwise))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _verdict(
        capsys,
        ok,
        f"criterion 1: barycenter identity on 200 random sets (S=1024) — "
        f"worst |energy - pairwise| = {worst:.3e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_clique_expansion_equivalence(capsys):
    grid = QuantileGrid(128)
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        h = random_hypergraph(rng, n, max_edges=6)
        labels = [random_histogram_label(rng, grid) for _ in range(n)]
        lhs = sum(barycenter_energy([labels[v] for v in e]) for e in h.edges)
        g = clique_expand(h)
        rhs = sum(
            w * w2_squared_quantile(labels[i], labels[j]) for (i, j), w in edge_dict(g).items()
        )
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _verdict(
        capsys,
        ok,
        f"criterion 2: hypergraph regularizer equals clique-expansion form on "
        f"100 random hypergraphs — worst gap = {worst:.3e} (tol 1e-10), {elapsed:.2f}s (< 10s)",
    )


def _dense_quadratic_minimizer(g, ts, gamma, s_index):
    """Independent oracle: stack the per-slice objective as least squares."""
    rows, targets = [], []
    for v, lab in ts.samples:
        r = np.zeros(g.n)
        r[v] = 1.0
        rows.append(r)
        targets.append(lab.values[s_index])
    for (i, j), w in edge_dict(g).items():
        r = np.zeros(g.n)
        c = math.sqrt(ts.m * gamma * w)
        r[i] = c
        r[j] = -c
        rows.append(r)
        targets.append(0.0)
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(targets), rcond=None)
    return sol


def test_criterion_03_tikhonov_oracle(capsys):
    grid = QuantileGrid(32)
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 11))
        g = random_connected_graph(rng, n)
        ts = random_training_set(rng, grid, n, int(rng.integers(1, 7)))
        gamma = float(rng.uniform(0.1, 3.0))
        s_index = int(rng.integers(0, grid.size))
        sol = TikhonovOperator(g, ts, gamma).field().values[:, s_index]
        oracle = _dense_quadratic_minimizer(g, ts, gamma, s_index)
        worst = max(worst, float(np.max(np.abs(sol - oracle))))
    # hand-derived two-vertex instance
    grid4 = QuantileGrid(4)
    g2 = dict_graph(2, {(0, 1): 1.0})
    ts2 = TrainingSet(
        [
            (0, quantile_from_histogram([0.0], [1.0], grid4)),
            (1, quantile_from_histogram([1.0], [1.0], grid4)),
        ]
    )
    hand = TikhonovOperator(g2, ts2, 1.0).field().values[:, 0]
    hand_ok = bool(np.allclose(hand, [0.4, 0.6], atol=1e-8))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and hand_ok and elapsed < 30.0
    _verdict(
        capsys,
        ok,
        f"criterion 3: solve_field slice vs dense least-squares oracle on 100 graphs — "
        f"worst inf-norm gap = {worst:.3e} (tol 1e-8), two-vertex instance -> "
        f"({hand[0]:.3f}, {hand[1]:.3f}), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_04_monotone_and_max_principle(capsys):
    grid = QuantileGrid(64)
    rng = np.random.default_rng(109)
    monotone_violations = 0
    extrema_violations = 0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        g = random_connected_graph(rng, n)
        ts = random_training_set(rng, grid, n, int(rng.integers(1, 7)))
        field = TikhonovOperator(g, ts, gamma=float(rng.uniform(0.2, 2.0))).field()
        if np.min(np.diff(field.values, axis=1)) < -1e-9:
            monotone_violations += 1
        if not check_maximum_principle(field, ts).extrema_on_labeled:
            extrema_violations += 1
    ok = monotone_violations == 0 and extrema_violations == 0
    _verdict(
        capsys,
        ok,
        f"criterion 4: 100 random solved fields — monotonicity violations: "
        f"{monotone_violations}, max-principle violations: {extrema_violations} (both must be 0)",
    )


def test_criterion_05_stability_bounds_hold(capsys):
    grid = QuantileGrid(64)
    envelope = DominatedQuantileEnvelope(grid, np.full(grid.size, 2.0))
    rng = np.random.default_rng(113)
    start = time.perf_counter()
    worst_slice = 0.0
    worst_cost = 0.0
    total_swaps = 0
    for gi in range(5):
        g = random_connected_graph(rng, 10)
        vertices = sorted(int(v) for v in rng.choice(10, size=4, replace=False))
        labels = [
            QuantileLabel(grid, 2.0 * np.sort(rng.uniform(-1.0, 1.0, grid.size)))
            for _ in vertices
        ]
        base = TrainingSet(list(zip(vertices, labels)))
        gamma = max(1.0, 2.0 / (base.m * spectral_gap(laplacian(g))))
        op = TikhonovOperator(g, base, gamma)
        report = empirical_stability(op, swaps=10, envelope=envelope, seed=gi)
        total_swaps += len(report.trials)
        worst_slice = max(worst_slice, report.worst_slice_ratio)
        worst_cost = max(worst_cost, report.worst_cost_ratio)
    elapsed = time.perf_counter() - start
    ok = total_swaps == 50 and worst_slice <= 1.0 and worst_cost <= 1.0 and elapsed < 60.0
    _verdict(
        capsys,
        ok,
        f"criterion 5: {total_swaps} single-sample swaps on n=10 graphs — worst "
        f"slice-shift ratio {worst_slice:.3e}, worst cost-shift ratio {worst_cost:.3e} "
        f"(both must be <= 1), {elapsed:.2f}s (< 60s)",
    )


def test_criterion_06_beta_formula_regression(capsys):
    si = StabilityInputs(m=100, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0)
    independent = 4.0 * float(Fraction(30, 249001) + Fraction(4, 499) + Fraction(1, 50))
    gap = abs(beta(si) - independent)
    products = [
        m * beta(StabilityInputs(m=m, gamma=10.0, lambda1=0.5, T=1, phi_l2_squared=1.0))
        for m in (100, 1000, 10000)
    ]
    nonincreasing = products[0] >= products[1] >= products[2]
    ok = gap <= 1e-12 and nonincreasing
    _verdict(
        capsys,
        ok,
        f"criterion 6: beta(100, 10, 0.5, 1, 1) = {beta(si):.12f} vs independent "
        f"{independent:.12f} (|gap| = {gap:.1e}, tol 1e-12); m*beta(m) = "
        f"{products[0]:.4f} >= {products[1]:.4f} >= {products[2]:.4f}",
    )


def test_criterion_07_sbm_experiment(capsys):
    start = time.perf_counter()
    sample = gen_sbm(SbmConfig((50, 50), k=3, p_in=0.01, p_out=0.002, seed=29))
    cfg = PropagationConfig(alpha=20.0, gamma=10.0, seed=11)
    anchors = AnchorSpec(kind="onehot", variance=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        r15 = run_experiment(sample.hypergraph, sample.blocks, 15, 20, cfg, anchors)
        r5 = run_experiment(sample.hypergraph, sample.blocks, 5, 20, cfg, anchors)
    elapsed = time.perf_counter() - start
    every_trial_above_half = min(r15.accuracies) > 0.5
    ok = (
        r15.mean >= 0.70
        and every_trial_above_half
        and r15.mean >= r5.mean - 0.02
        and elapsed < 300.0
    )
    _verdict(
        capsys,
        ok,
        f"criterion 7: two-block SBM classification — mean accuracy {r15.mean:.3f} at "
        f"15 known/block (>= 0.70), min trial {min(r15.accuracies):.3f} (> 0.5), "
        f"{r5.mean:.3f} at 5 known/block (15-known mean must be >= that - 0.02), "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_08_sbm_generator_sanity(capsys):
    totals, withins = [], []
    for seed in range(50):
        cfg = SbmConfig((50, 50), k=3, p_in=0.01, p_out=0.002, seed=seed)
        sample = gen_sbm(cfg)
        totals.append(sample.total)
        withins.append(sample.within_block)
    counts = expected_sbm_counts(SbmConfig((50, 50), k=3, p_in=0.01, p_out=0.002))
    mean_total = float(np.mean(totals))
    mean_within = float(np.mean(withins))
    sd_total = float(np.std(totals, ddof=1))
    sd_within = float(np.std(withins, ddof=1))
    within_5pct = abs(mean_total - counts.expected_total) <= 0.05 * counts.expected_total
    total_band = abs(629 - mean_total) <= 4.0 * sd_total
    within_band = abs(388 - mean_within) <= 4.0 * sd_within
    ok = within_5pct and total_band and within_band
    _verdict(
        capsys,
        ok,
        f"criterion 8: 50-seed generator check — mean total {mean_total:.1f} vs analytic "
        f"{counts.expected_total:.1f} (within 5%); reference realization 629 total / 388 "
        f"within-block inside mean +/- 4*sd bands ({mean_total:.1f} +/- {4 * sd_total:.1f}, "
        f"{mean_within:.1f} +/- {4 * sd_within:.1f})",
    )


def test_criterion_09_ingestion_shape(capsys):
    n_rows, n_features = 40, 16
    names = tuple(f"issue{j}" for j in range(n_features))
    rows = tuple(
        tuple("y" if (i >> (j % 6)) & 1 else "n" for j in range(n_features))
        for i in range(n_rows)
    )
    classes = tuple("rd"[i % 2] for i in range(n_rows))
    complete = ingest_categorical(CategoricalTable(names, rows, classes))
    complete_ok = len(complete.hypergraph.edges) == 32

    # punch missing markers into feature issue0 for rows 0..4
    rows_missing = tuple(
        tuple("?" if (j == 0 and i < 5) else v for j, v in enumerate(row))
        for i, row in enumerate(rows)
    )
    punched = ingest_categorical(CategoricalTable(names, rows_missing, classes))
    excluded_ok = True
    for (feature, _), edge in zip(punched.edge_keys, punched.hypergraph.edges):
        if feature == "issue0" and any(v < 5 for v in edge):
            excluded_ok = False
    ok = complete_ok and excluded_ok
    _verdict(
        capsys,
        ok,
        f"criterion 9: complete 16-binary-feature table -> "
        f"{len(complete.hypergraph.edges)} hyperedges (expected 32); rows with missing "
        f"markers in no hyperedge of that feature: {excluded_ok}",
    )


def _run_all_subcommands(base_dir):
    """Run every subcommand once into base_dir; return {name: bytes}."""
    base_dir.mkdir(parents=True, exist_ok=True)
    out: dict = {}

    def path(name):
        return base_dir / name

    def collect(*names):
        for name in names:
            out[name] = path(name).read_bytes()

    rc = cli.main(
        [
            "gen-sbm",
            "--blocks", "6,6", "--k", "3", "--p-in", "0.8", "--p-out", "0.1",
            "--seed", "3",
            "--output", str(path("sbm.txt")),
            "--truth", str(path("sbm_truth.csv")),
            "--incidence", str(path("sbm_inc.csv")),
        ]
    )
    assert rc == 0
    collect("sbm.txt", "sbm_truth.csv", "sbm_inc.csv")

    votes = path("votes.csv")
    votes.write_text(
        "issue0,issue1,class\ny,y,r\ny,n,d\nn,y,d\nn,n,r\ny,?,r\nn,y,d\n"
    )
    rc = cli.main(
        [
            "ingest",
            "--input", str(votes),
            "--output", str(path("ingest.txt")),
            "--truth", str(path("ingest_truth.csv")),
            "--incidence", str(path("ingest_inc.csv")),
        ]
    )
    assert rc == 0
    collect("ingest.txt", "ingest_truth.csv", "ingest_inc.csv")

    hyper = path("h.txt")
    hyper.write_text("0 1\n1 2\n")
    labels = path("labels.csv")
    fileio.write_hist_labels(labels, {0: ([-1.0], [1.0]), 2: ([1.0], [1.0])})
    rc = cli.main(
        [
            "propagate",
            "--hypergraph", str(hyper),
            "--labels", str(labels),
            "--alpha", "2.0", "--gamma", "5.0", "--grid-size", "32",
            "--seed", "7",
            "--output", str(path("pred.csv")),
            "--trace", str(path("trace.csv")),
        ]
    )
    assert rc == 0
    collect("pred.csv", "trace.csv")

    graph = path("graph.txt")
    graph.write_text("0 1 1.0\n")
    pair_labels = path("pair_labels.csv")
    fileio.write_hist_labels(pair_labels, {0: ([0.0], [1.0]), 1: ([1.0], [1.0])})
    rc = cli.main(
        [
            "solve-tikhonov",
            "--graph", str(graph),
            "--labels", str(pair_labels),
            "--gamma", "1.0", "--grid-size", "8",
            "--output", str(path("field.csv")),
        ]
    )
    assert rc == 0
    collect("field.csv")

    rc = cli.main(
        [
            "stability",
            "--graph", str(graph),
            "--labels", str(pair_labels),
            "--gamma", "1.0", "--epsilon", "0.5", "--grid-size", "8",
            "--empirical", "--swaps", "3", "--seed", "0",
            "--output", str(path("stability.txt")),
            "--ratios", str(path("ratios.csv")),
        ]
    )
    assert rc == 0
    collect("stability.txt", "ratios.csv")

    rc = cli.main(
        [
            "experiment",
            "--blocks", "8,8", "--k", "3", "--p-in", "0.6", "--p-out", "0.05",
            "--labels-per-class", "3", "--trials", "3",
            "--alpha", "20", "--gamma", "10", "--seed", "2",
            "--output", str(path("metrics.csv")),
        ]
    )
    assert rc == 0
    collect("metrics.csv")

    return out


def test_criterion_10_cli_determinism(capsys, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = _run_all_subcommands(tmp_path / "run1")
        second = _run_all_subcommands(tmp_path / "run2")
    assert first.keys() == second.keys()
    differing = sorted(name for name in first if first[name] != second[name])
    ok = not differing
    _verdict(
        capsys,
        ok,
        f"criterion 10: all 6 subcommands rerun with identical flags and seeds — "
        f"{len(first)} output files byte-identical"
        + (f" (differing: {differing})" if differing else ""),
    )
