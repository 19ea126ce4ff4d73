"""Experiment harness: block-model hypergraph generation, categorical-table
ingestion, and seeded classification trials with Gaussian soft-label anchors.
The class-size check of the trials is coded once, in `stratified_subsample`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InputError, check_seed
from .hypergraph import Hypergraph
from .labels import DiagGaussianLabel
from .propagation import (
    GaussianBackend,
    LabeledSubset,
    PropagationConfig,
    classify,
    propagate,
)


@dataclass(frozen=True)
class SbmConfig:
    """Stochastic block model over k-uniform hyperedges: every k-subset is
    included with probability p_in when all its vertices share a block and
    p_out otherwise."""

    block_sizes: Tuple[int, ...]
    k: int
    p_in: float
    p_out: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in self.block_sizes))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if not self.block_sizes or any(b < 1 for b in self.block_sizes):
            raise InputError("block sizes must be positive integers")
        if self.k < 2:
            raise InputError(f"hyperedge arity k must be >= 2, got {self.k}")
        if not (0.0 <= self.p_out <= self.p_in <= 1.0):
            raise InputError(
                f"need 0 <= p_out <= p_in <= 1, got p_in={self.p_in}, p_out={self.p_out}"
            )
        if self.k > self.n:
            raise InputError(f"k={self.k} exceeds the vertex count {self.n}")
        if math.comb(self.n, self.k) > np.iinfo(np.int64).max:
            raise InputError(f"C({self.n}, {self.k}) subsets exceed the 64-bit rank range")

    @property
    def n(self) -> int:
        return sum(self.block_sizes)


@dataclass(frozen=True)
class SbmCounts:
    """Analytic expectations for one configuration."""

    within_subsets: int
    total_subsets: int
    expected_within: float
    expected_total: float
    variance_total: float


def expected_sbm_counts(cfg: SbmConfig) -> SbmCounts:
    within = sum(math.comb(b, cfg.k) for b in cfg.block_sizes)
    total = math.comb(cfg.n, cfg.k)
    cross = total - within
    return SbmCounts(
        within_subsets=within,
        total_subsets=total,
        expected_within=within * cfg.p_in,
        expected_total=within * cfg.p_in + cross * cfg.p_out,
        variance_total=within * cfg.p_in * (1 - cfg.p_in)
        + cross * cfg.p_out * (1 - cfg.p_out),
    )


@dataclass(frozen=True)
class SbmSample:
    """One drawn hypergraph with its ground-truth block assignment and the
    realized hyperedge count summary."""

    hypergraph: Hypergraph
    blocks: np.ndarray
    within_block: int
    cross_block: int

    @property
    def total(self) -> int:
        return self.within_block + self.cross_block


def unrank_colex(ranks: np.ndarray, n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n) at the given colex ranks, one sorted row each.
    Subset c_1 < ... < c_k has rank sum C(c_i, i).  With d_i = c_i - (i - 1) in
    [0, n - k], each table C(d + i - 1, i) is the cumsum of the one for i - 1,
    so no entry passes C(n - 1, k); columns are found from the last one down."""
    tables = [np.arange(max(n - k + 1, 0), dtype=np.int64)]
    for _ in range(k - 1):
        tables.append(np.cumsum(tables[-1]))
    subsets = np.empty((len(ranks), k), dtype=np.intp)
    for i in range(k - 1, -1, -1):
        d = np.searchsorted(tables[i], ranks, side="right") - 1
        ranks = ranks - tables[i][d]
        subsets[:, i] = d + i
    return subsets


def gen_sbm(cfg: SbmConfig) -> SbmSample:
    """Each k-subset is drawn once, at its own probability: one draw over all
    k-subsets at p_out keeps the mixed-block rows, then one draw per block at p_in."""
    blocks = np.repeat(np.arange(len(cfg.block_sizes)), cfg.block_sizes)
    rng = np.random.default_rng(cfg.seed)

    def draw(n: int, p: float) -> np.ndarray:  # a binomial count of distinct ranks
        total = math.comb(n, cfg.k)
        return unrank_colex(rng.choice(total, rng.binomial(total, p), replace=False), n, cfg.k)

    subsets = draw(cfg.n, cfg.p_out)
    cross = subsets[blocks[subsets[:, 0]] != blocks[subsets[:, -1]]]  # rows and blocks are sorted
    starts = np.cumsum(cfg.block_sizes) - cfg.block_sizes
    within = [draw(size, cfg.p_in) + start for size, start in zip(cfg.block_sizes, starts)]
    edges = np.unique(np.concatenate([cross, *within]), axis=0)
    blocks.flags.writeable = False
    return SbmSample(
        hypergraph=Hypergraph.from_members(cfg.n, np.full(len(edges), cfg.k), edges.ravel()),
        blocks=blocks,
        within_block=len(edges) - len(cross),
        cross_block=len(cross),
    )


@dataclass(frozen=True)
class CategoricalTable:
    """Rectangular table of categorical feature values plus one class per row."""

    feature_names: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]
    classes: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        object.__setattr__(self, "classes", tuple(self.classes))
        if len(self.rows) != len(self.classes):
            raise InputError("one class value is required per row")
        width = len(self.feature_names)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise InputError(f"row {i} has {len(row)} values, expected {width}")


@dataclass(frozen=True)
class IngestResult:
    """Hypergraph over the rows, integer class ids, and per-hyperedge keys."""

    hypergraph: Hypergraph
    classes: np.ndarray
    class_names: Tuple[str, ...]
    edge_keys: Tuple[Tuple[str, str], ...]


def ingest_categorical(table: CategoricalTable, missing: Optional[str] = "?") -> IngestResult:
    """One hyperedge per (feature, value) pair, containing every row holding
    that value; rows with the missing marker join no hyperedge of that
    feature; hyperedges with fewer than two rows are dropped."""
    if not table.rows:
        raise InputError("cannot ingest an empty table")
    n = len(table.rows)
    edges: List[Tuple[int, ...]] = []
    keys: List[Tuple[str, str]] = []
    for j, name in enumerate(table.feature_names):
        groups: Dict[str, List[int]] = {}
        for i, row in enumerate(table.rows):
            value = row[j]
            if missing is not None and value == missing:
                continue
            groups.setdefault(value, []).append(i)
        for value in sorted(groups):
            members = groups[value]
            if len(members) >= 2:
                edges.append(tuple(members))
                keys.append((name, value))
    class_names = tuple(sorted(set(table.classes)))
    index = {name: i for i, name in enumerate(class_names)}
    classes = np.array([index[c] for c in table.classes], dtype=np.intp)
    classes.flags.writeable = False
    return IngestResult(
        hypergraph=Hypergraph(n, edges),
        classes=classes,
        class_names=class_names,
        edge_keys=tuple(keys),
    )


def stratified_subsample(
    classes: np.ndarray, per_class: int, seed: Union[int, Sequence[int]] = 0
) -> np.ndarray:
    """Seeded draw of per_class row indices from every class, sorted.  The
    classes are drawn in ascending order from one `default_rng(seed)`."""
    classes = np.asarray(classes)
    rng = np.random.default_rng(seed)
    picks: List[np.ndarray] = []
    for c in np.unique(classes):
        members = np.flatnonzero(classes == c)
        if len(members) < per_class:
            raise InputError(
                f"class {c} has {len(members)} rows, fewer than {per_class}"
            )
        picks.append(rng.choice(members, size=per_class, replace=False))
    return np.sort(np.concatenate(picks))


@dataclass(frozen=True)
class AnchorSpec:
    """How known vertices receive Gaussian soft labels.

    kind "onehot": class c gets mean e_c in as many dimensions as classes;
    prediction is the argmax coordinate of the mean.  kind "sign": two
    classes get one-dimensional means -1 and +1; prediction is the sign of
    the mean.  The variance applies to every coordinate.
    """

    kind: str
    variance: float

    def __post_init__(self):
        if self.kind not in ("onehot", "sign"):
            raise InputError(f"anchor kind must be 'onehot' or 'sign', got {self.kind!r}")
        if not 0 <= self.variance < math.inf:
            raise InputError(f"variance must be non-negative and finite, got {self.variance}")


@dataclass(frozen=True)
class ExperimentResult:
    """Per-trial accuracies on the unknown vertices; the summary is derived
    from them."""

    accuracies: Tuple[float, ...]

    def __post_init__(self):
        if not self.accuracies:
            raise InputError("an experiment result needs at least one trial")
        if any(not (0.0 <= a <= 1.0) for a in self.accuracies):
            raise InputError("accuracies must lie in [0, 1]")

    @property
    def trials(self) -> int:
        return len(self.accuracies)

    @property
    def mean(self) -> float:
        return float(np.array(self.accuracies).mean())

    @property
    def stderr(self) -> float:
        """Standard error of the mean; 0.0 for one trial."""
        if self.trials == 1:
            return 0.0
        return float(np.array(self.accuracies).std(ddof=1) / math.sqrt(self.trials))


def _anchor_label(anchors: AnchorSpec, class_id: int, n_classes: int) -> DiagGaussianLabel:
    std = math.sqrt(anchors.variance)
    if anchors.kind == "sign":
        return DiagGaussianLabel([1.0 if class_id == 1 else -1.0], [std])
    mean = np.zeros(n_classes)
    mean[class_id] = 1.0
    return DiagGaussianLabel(mean, np.full(n_classes, std))


def _trial_seed(master: int, trial: int) -> int:
    return int(np.random.SeedSequence([master, trial, 1]).generate_state(1)[0])


def run_experiment(
    h: Hypergraph,
    truth: np.ndarray,
    labels_per_class: int,
    trials: int,
    cfg: PropagationConfig,
    anchors: AnchorSpec,
) -> ExperimentResult:
    """Seeded trials: draw labels_per_class known vertices from every class,
    propagate, and score accuracy on the vertices outside the known set."""
    truth = np.asarray(truth, dtype=np.intp)
    if truth.shape != (h.n,):
        raise InputError(f"truth must assign one class to each of {h.n} vertices")
    if labels_per_class < 1 or trials < 1:
        raise InputError("labels_per_class and trials must be >= 1")
    class_ids = np.unique(truth)
    n_classes = len(class_ids)
    if n_classes < 2:
        raise InputError("need at least two classes")
    if not np.array_equal(class_ids, np.arange(n_classes)):
        raise InputError("classes must be labeled 0..b-1")
    if anchors.kind == "sign" and n_classes != 2:
        raise InputError("sign anchors require exactly two classes")
    backend = GaussianBackend(1 if anchors.kind == "sign" else n_classes)
    labels = [_anchor_label(anchors, int(c), n_classes) for c in class_ids]

    accuracies: List[float] = []
    for t in range(trials):
        # the draw checks the class sizes; one that takes every vertex leaves none to score
        known_vertices = stratified_subsample(truth, labels_per_class, seed=[cfg.seed, t, 0])
        if known_vertices.size == h.n:
            raise InputError(
                f"labels_per_class={labels_per_class} makes all {h.n} vertices known, "
                "leaving none to score"
            )
        known = LabeledSubset({v: labels[truth[v]] for v in known_vertices.tolist()})
        trial_cfg = replace(cfg, seed=_trial_seed(cfg.seed, t))
        # the state is dropped here, so trials never hold two at once
        predicted = classify(propagate(h, known, trial_cfg, backend))
        if anchors.kind == "sign":
            predicted = (predicted + 1) // 2
        mask = np.ones(h.n, dtype=bool)
        mask[known_vertices] = False
        accuracies.append(float(np.mean(predicted[mask] == truth[mask])))

    return ExperimentResult(accuracies=tuple(accuracies))

