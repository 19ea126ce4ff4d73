"""SBM generation, categorical ingestion, and the experiment protocol."""

import itertools
import math
import warnings

import numpy as np
import pytest

from wassprop import (
    AnchorSpec,
    CategoricalTable,
    Hypergraph,
    InputError,
    PropagationConfig,
    SbmConfig,
    emit_metrics,
    expected_sbm_counts,
    gen_sbm,
    ingest_categorical,
    run_experiment,
    stratified_subsample,
)
from wassprop import experiments, hypergraph

REFERENCE_SBM = dict(block_sizes=(50, 50), k=3, p_in=0.01, p_out=0.002)


def test_sbm_config_validation():
    SbmConfig(**REFERENCE_SBM)
    with pytest.raises(InputError):
        SbmConfig(block_sizes=(0, 5), k=2, p_in=0.5, p_out=0.1)
    with pytest.raises(InputError):
        SbmConfig(block_sizes=(5, 5), k=1, p_in=0.5, p_out=0.1)
    with pytest.raises(InputError):
        SbmConfig(block_sizes=(5, 5), k=2, p_in=0.1, p_out=0.5)  # p_out > p_in
    with pytest.raises(InputError):
        SbmConfig(block_sizes=(2, 2), k=5, p_in=0.5, p_out=0.1)  # k > n
    with pytest.raises(InputError):
        SbmConfig(block_sizes=(500, 500), k=5, p_in=0.5, p_out=0.1)  # too many subsets


def test_expected_counts_reference_parameters():
    counts = expected_sbm_counts(SbmConfig(**REFERENCE_SBM))
    assert counts.within_subsets == 2 * math.comb(50, 3)
    assert counts.total_subsets == math.comb(100, 3)
    assert counts.expected_within == pytest.approx(392.0, abs=1e-9)
    # 392 within + 122500 * 0.002 = 245 cross
    assert counts.expected_total == pytest.approx(637.0, abs=1e-9)
    assert counts.variance_total > 0


@pytest.mark.parametrize("n, k", [(5, 2), (12, 2), (9, 3), (7, 4), (6, 6), (1, 1), (4, 0), (3, 5), (0, 2)])
def test_k_subsets_match_itertools_combinations(n, k):
    expected = list(itertools.combinations(range(n), k))
    got = experiments.k_subsets(n, k)
    assert got.dtype == np.intp and got.shape == (len(expected), k)
    assert [tuple(row) for row in got.tolist()] == expected


def test_gen_sbm_edges_are_the_kept_subsets_in_order():
    cfg = SbmConfig(block_sizes=(4, 5), k=3, p_in=0.6, p_out=0.3, seed=9)
    subsets = list(itertools.combinations(range(9), 3))
    blocks = np.repeat([0, 1], [4, 5])
    same = np.array([len(set(blocks[list(s)])) == 1 for s in subsets])
    keep = np.random.default_rng(9).random(len(subsets)) < np.where(same, 0.6, 0.3)
    sample = gen_sbm(cfg)
    assert sample.hypergraph.edges == tuple(s for s, kept in zip(subsets, keep) if kept)
    assert (sample.within_block, sample.cross_block) == (int((same & keep).sum()), int((~same & keep).sum()))


def test_gen_sbm_zero_probabilities():
    sample = gen_sbm(SbmConfig(block_sizes=(4, 4), k=3, p_in=0.0, p_out=0.0))
    assert len(sample.hypergraph.edges) == 0
    assert sample.total == 0


def test_gen_sbm_deterministic_extremes():
    sample = gen_sbm(SbmConfig(block_sizes=(3, 3), k=3, p_in=1.0, p_out=0.0, seed=11))
    assert len(sample.hypergraph.edges) == 2
    assert set(sample.hypergraph.edges) == {(0, 1, 2), (3, 4, 5)}
    assert sample.within_block == 2 and sample.cross_block == 0
    assert list(sample.blocks) == [0, 0, 0, 1, 1, 1]


def test_gen_sbm_replay_identical():
    cfg = SbmConfig(**REFERENCE_SBM, seed=123)
    a, b = gen_sbm(cfg), gen_sbm(cfg)
    assert a.hypergraph.edges == b.hypergraph.edges
    assert a.within_block == b.within_block and a.cross_block == b.cross_block


def test_gen_sbm_count_in_band():
    cfg = SbmConfig(**REFERENCE_SBM, seed=7)
    counts = expected_sbm_counts(cfg)
    sample = gen_sbm(cfg)
    sd = math.sqrt(counts.variance_total)
    assert abs(sample.total - counts.expected_total) <= 4.0 * sd


def binary_table(n_features, n_rows, rng):
    names = tuple(f"issue{j}" for j in range(n_features))
    rows = tuple(
        tuple("yn"[rng.integers(0, 2)] for _ in range(n_features)) for _ in range(n_rows)
    )
    classes = tuple("rd"[rng.integers(0, 2)] for _ in range(n_rows))
    return CategoricalTable(names, rows, classes)


def test_ingest_sixteen_binary_features():
    # every feature shows both values on enough rows -> 2 hyperedges each
    rng = np.random.default_rng(3)
    while True:
        table = binary_table(16, 40, rng)
        cols = list(zip(*table.rows))
        if all(2 <= col.count("y") <= len(col) - 2 for col in cols):
            break
    result = ingest_categorical(table)
    assert len(result.hypergraph.edges) == 32
    assert len(result.edge_keys) == 32
    # partition property: for each feature the two hyperedges split all rows
    by_feature = {}
    for (name, value), edge in zip(result.edge_keys, result.hypergraph.edges):
        by_feature.setdefault(name, []).append(edge)
    for name, edges in by_feature.items():
        members = sorted(v for e in edges for v in e)
        assert members == list(range(40))


def test_ingest_single_value_feature():
    table = CategoricalTable(("f",), (("a",), ("a",), ("a",)), ("x", "y", "x"))
    result = ingest_categorical(table)
    assert result.hypergraph.edges == ((0, 1, 2),)
    assert result.edge_keys == (("f", "a"),)


def test_ingest_missing_marker_excluded():
    table = CategoricalTable(("f",), (("a",), ("a",), ("?",)), ("x", "y", "x"))
    result = ingest_categorical(table)
    assert result.hypergraph.edges == ((0, 1),)
    assert all(2 not in e for e in result.hypergraph.edges)


def test_ingest_missing_marker_configurable():
    table = CategoricalTable(("f",), (("a",), ("a",), ("?",)), ("x", "y", "x"))
    # treating "?" as an ordinary value leaves a size-1 group that is dropped
    result = ingest_categorical(table, missing=None)
    assert result.hypergraph.edges == ((0, 1),)


def test_ingest_small_groups_dropped():
    table = CategoricalTable(("f",), (("a",), ("b",), ("c",)), ("x", "y", "x"))
    result = ingest_categorical(table)
    assert result.hypergraph.edges == ()


def test_ingest_classes_sorted_ids():
    table = CategoricalTable(("f",), (("a",), ("a",)), ("rep", "dem"))
    result = ingest_categorical(table)
    assert result.class_names == ("dem", "rep")
    assert list(result.classes) == [1, 0]


def test_ingest_empty_table():
    with pytest.raises(InputError):
        ingest_categorical(CategoricalTable(("f",), (), ()))


def test_ingest_ragged_rows_rejected():
    with pytest.raises(InputError):
        CategoricalTable(("f", "g"), (("a",),), ("x",))


def test_stratified_subsample():
    classes = np.array([0, 0, 0, 1, 1, 1, 1])
    picks = stratified_subsample(classes, per_class=2, seed=5)
    assert len(picks) == 4
    assert np.array_equal(picks, np.sort(picks))
    assert np.count_nonzero(classes[picks] == 0) == 2
    assert np.count_nonzero(classes[picks] == 1) == 2
    again = stratified_subsample(classes, per_class=2, seed=5)
    assert np.array_equal(picks, again)
    with pytest.raises(InputError):
        stratified_subsample(classes, per_class=4)


def test_anchor_spec_validation():
    AnchorSpec(kind="onehot", variance=0.05)
    AnchorSpec(kind="sign", variance=0.0)
    with pytest.raises(InputError):
        AnchorSpec(kind="gauss", variance=0.05)
    for variance in (-0.1, math.nan, math.inf):
        with pytest.raises(InputError, match="variance"):
            AnchorSpec(kind="sign", variance=variance)


def small_sbm(seed=0):
    cfg = SbmConfig(block_sizes=(10, 10), k=3, p_in=0.4, p_out=0.02, seed=seed)
    sample = gen_sbm(cfg)
    return sample.hypergraph, np.asarray(sample.blocks)


def test_run_experiment_accuracy_above_chance():
    h, truth = small_sbm(seed=2)
    cfg = PropagationConfig(alpha=20.0, gamma=10.0, seed=1)
    anchors = AnchorSpec(kind="onehot", variance=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_experiment(h, truth, labels_per_class=4, trials=5, cfg=cfg, anchors=anchors)
    assert result.mean > 0.5
    assert all(0.0 <= a <= 1.0 for a in result.accuracies)
    assert result.stderr >= 0.0


def test_run_experiment_sign_anchors():
    h, truth = small_sbm(seed=4)
    cfg = PropagationConfig(alpha=20.0, gamma=10.0, seed=2)
    anchors = AnchorSpec(kind="sign", variance=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_experiment(h, truth, labels_per_class=4, trials=3, cfg=cfg, anchors=anchors)
    assert result.mean > 0.5


def test_run_experiment_deterministic():
    h, truth = small_sbm(seed=6)
    cfg = PropagationConfig(alpha=10.0, gamma=5.0, seed=9)
    anchors = AnchorSpec(kind="onehot", variance=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        a = run_experiment(h, truth, labels_per_class=3, trials=4, cfg=cfg, anchors=anchors)
        b = run_experiment(h, truth, labels_per_class=3, trials=4, cfg=cfg, anchors=anchors)
    assert a.accuracies == b.accuracies
    assert a.mean == b.mean and a.stderr == b.stderr


def test_run_experiment_known_sets_match_inline_draw(monkeypatch):
    h, truth = small_sbm(seed=8)
    cfg = PropagationConfig(alpha=10.0, gamma=5.0, max_iters=3, seed=12)
    seen = []
    real = experiments.propagate

    def recording(h, known, cfg, backend):
        seen.append(known.vertices)
        return real(h, known, cfg, backend)

    monkeypatch.setattr(experiments, "propagate", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_experiment(h, truth, labels_per_class=3, trials=4, cfg=cfg,
                       anchors=AnchorSpec(kind="onehot", variance=0.05))
    # the draw run_experiment made inline before it called stratified_subsample
    expected = []
    for t in range(4):
        draw_rng = np.random.default_rng([cfg.seed, t, 0])
        known_vertices = []
        for c in np.unique(truth):
            members = np.flatnonzero(truth == c)
            known_vertices.extend(
                int(v) for v in draw_rng.choice(members, size=3, replace=False)
            )
        expected.append(sorted(known_vertices))
    assert seen == expected
    assert all(type(v) is int for v in seen[0])


def test_run_experiment_shares_graph_parts_across_trials(monkeypatch):
    # the 1/|E| incidence, its row totals and the component labels do not
    # depend on the known set: every trial reuses the ones the graph keeps
    h, truth = small_sbm(seed=8)
    cfg = PropagationConfig(alpha=10.0, gamma=5.0, max_iters=3, seed=12)
    anchors = AnchorSpec(kind="onehot", variance=0.05)
    scans, operators = [], []
    scan, real = hypergraph.components, experiments.propagate

    def counting(n, heads, tails):
        scans.append(n)
        return scan(n, heads, tails)

    def recording(h, known, cfg, backend):
        state = real(h, known, cfg, backend)
        operators.append(state.context.vertex_incidence)
        return state

    monkeypatch.setattr(hypergraph, "components", counting)
    monkeypatch.setattr(experiments, "propagate", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shared = run_experiment(h, truth, labels_per_class=3, trials=4, cfg=cfg, anchors=anchors)
        fresh = run_experiment(Hypergraph(h.n, h.edges), truth, labels_per_class=3, trials=4,
                               cfg=cfg, anchors=anchors)
    assert len(scans) == 2  # once per graph
    assert len(operators) == 8 and all(op is h.mean_incidence for op in operators[:4])
    assert shared.accuracies == fresh.accuracies


def test_run_experiment_all_known_flagged():
    h = Hypergraph(4, [(0, 1, 2, 3), (0, 1), (2, 3)])
    truth = np.array([0, 0, 1, 1])
    cfg = PropagationConfig(alpha=2.0, gamma=1.0, seed=0)
    anchors = AnchorSpec(kind="onehot", variance=0.01)
    # every vertex known leaves no accuracy to score; no NaN result comes back
    with pytest.raises(InputError, match="makes all 4 vertices known, leaving none to score"):
        run_experiment(h, truth, labels_per_class=2, trials=2, cfg=cfg, anchors=anchors)


def test_run_experiment_class_size_is_the_draws_check():
    # class 0 holds 1 vertex: the draw names it, though 2 labels per class
    # times 2 classes equals the 4 vertices
    h = Hypergraph(4, [(0, 1, 2, 3)])
    cfg = PropagationConfig(alpha=2.0, gamma=1.0)
    anchors = AnchorSpec(kind="onehot", variance=0.01)
    with pytest.raises(InputError, match="^class 0 has 1 rows, fewer than 2$"):
        run_experiment(h, np.array([0, 1, 1, 1]), labels_per_class=2, trials=1, cfg=cfg, anchors=anchors)


def test_run_experiment_validation():
    h = Hypergraph(4, [(0, 1, 2, 3)])
    cfg = PropagationConfig(alpha=2.0, gamma=1.0)
    anchors = AnchorSpec(kind="onehot", variance=0.01)
    with pytest.raises(InputError):
        run_experiment(h, np.array([0, 0, 1, 1]), labels_per_class=3, trials=1, cfg=cfg, anchors=anchors)
    with pytest.raises(InputError):
        run_experiment(h, np.array([0, 0, 0, 0]), labels_per_class=1, trials=1, cfg=cfg, anchors=anchors)
    with pytest.raises(InputError):
        run_experiment(h, np.array([1, 1, 2, 2]), labels_per_class=1, trials=1, cfg=cfg, anchors=anchors)
    with pytest.raises(InputError):
        run_experiment(h, np.array([0, 0, 1, 1]), labels_per_class=0, trials=1, cfg=cfg, anchors=anchors)
    with pytest.raises(InputError):
        run_experiment(
            h,
            np.array([0, 1, 2, 2]),
            labels_per_class=1,
            trials=1,
            cfg=cfg,
            anchors=AnchorSpec(kind="sign", variance=0.01),
        )
    with pytest.raises(InputError):
        run_experiment(h, np.array([0, 0, 1]), labels_per_class=1, trials=1, cfg=cfg, anchors=anchors)


def test_emit_metrics_shape_and_replay(tmp_path):
    h, truth = small_sbm(seed=8)
    cfg = PropagationConfig(alpha=10.0, gamma=5.0, seed=3)
    anchors = AnchorSpec(kind="onehot", variance=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_experiment(h, truth, labels_per_class=3, trials=20, cfg=cfg, anchors=anchors)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_metrics(result, p1)
    emit_metrics(result, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "trial,accuracy"
    assert len(lines) == 22  # header + 20 trials + 1 summary
    trial_values = [float(line.split(",")[1]) for line in lines[1:-1]]
    tag, mean_text = lines[-1].split(",")
    assert tag == "mean"
    assert float(mean_text) == result.mean
    assert np.mean(trial_values) == pytest.approx(result.mean, rel=1e-12)
