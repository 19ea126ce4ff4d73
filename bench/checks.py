"""Output checks against independent references.

Each checker reads the files a command wrote and compares them with a
reference computed here from the generated inputs, within a stated
tolerance, never with a stored digest: a legitimate change of summation
order must pass.  Each returns a `CheckResult`; `accuracy` is the share of
evaluated items that agree with the reference (planted classes of the
unlabeled vertices, or swaps whose measured shift stays within its proven
bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
import scipy.sparse as sp

VALUE_TOL = 1e-9        # propagation values vs the CSR reference, relative to max |X|
ZERO_MEAN = 1e-12       # below this |row mean| the sign class is not checked
EXTREMA_SLACK = 1e-9    # per-slice extrema on labeled vertices
RESIDUAL_TOL = 1e-9     # ||A Phi - Y||_inf <= tol * max(1, ||Y||_inf)
LAMBDA_RTOL = 1e-8      # reported lambda1 vs dense eigvalsh
CLOSED_FORM_RTOL = 1e-12
RATIO_SLACK = 1e-9
ACCURACY_FLOOR = 0.9    # classification workloads; the seed reads about 0.98


@dataclass
class CheckResult:
    problems: List[str] = field(default_factory=list)
    accuracy: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.problems

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def grid_nodes(size: int) -> np.ndarray:
    return (np.arange(size) + 0.5) / size


def quantiles(bins: np.ndarray, masses: np.ndarray, size: int) -> np.ndarray:
    """Right-continuous inverse CDF of a histogram on the midpoint grid."""
    cum = np.cumsum(masses / masses.sum())
    idx = np.minimum(np.searchsorted(cum, grid_nodes(size), side="right"), bins.size - 1)
    return bins[idx]


def anchor_matrix(labels: Dict[int, tuple], size: int) -> Dict[int, np.ndarray]:
    return {v: quantiles(np.asarray(b), np.asarray(m), size) for v, (b, m) in labels.items()}


def laplacian(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> sp.csr_matrix:
    adj = sp.coo_matrix((np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
                        shape=(n, n)).tocsr()
    return (sp.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj).tocsr()


def _csv_rows(path: Path) -> List[List[str]]:
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh]


# ---------------------------------------------------------------- propagate

def read_predictions(path: Path):
    """(vertices, classes, values) from a `vertex,predicted_class,label_params` CSV."""
    rows = _csv_rows(path)[1:]
    vertices = np.array([int(r[0]) for r in rows])
    classes = np.array([int(r[1]) for r in rows])
    values = np.array([[float(x) for x in r[2].split(";")] for r in rows])
    return vertices, classes, values


def propagation_reference(n: int, edges: Sequence[Sequence[int]], anchors: Dict[int, np.ndarray],
                          alpha: float, gamma: float, x0: np.ndarray, iters: int) -> np.ndarray:
    """`iters` alternations X <- D^-1 (Bv Be X + gamma P a) with scipy CSR
    incidence operators (Zhou, Huang & Schoelkopf 2006)."""
    sizes = np.array([len(e) for e in edges], dtype=float)
    rows = np.repeat(np.arange(len(edges)), sizes.astype(int))
    cols = np.concatenate([np.asarray(e) for e in edges])
    known = np.array(sorted(anchors))
    member_alpha = np.where(np.isin(cols, known), alpha, 1.0)
    edge_total = np.bincount(rows, weights=member_alpha)
    be = sp.csr_matrix((member_alpha / edge_total[rows], (rows, cols)), shape=(len(edges), n))
    bv = sp.csr_matrix((1.0 / sizes[rows], (cols, rows)), shape=(n, len(edges)))
    d = np.bincount(cols, weights=1.0 / sizes[rows], minlength=n)
    d[known] += gamma
    c = np.zeros_like(x0)
    c[known] = gamma * np.stack([anchors[v] for v in known])
    x = x0
    for _ in range(iters):
        x = np.where((d > 0)[:, None], (bv @ (be @ x) + c) / np.where(d > 0, d, 1.0)[:, None], x)
    return x


def check_predictions(path: Path, reference: np.ndarray, truth_sign: np.ndarray,
                      known: Sequence[int]) -> CheckResult:
    res = CheckResult()
    vertices, classes, values = read_predictions(path)
    n = reference.shape[0]
    res.require(np.array_equal(vertices, np.arange(n)), "vertex column is not 0..n-1")
    res.require(values.shape == reference.shape, f"values shape {values.shape} != {reference.shape}")
    if not res.ok:
        return res
    drops = np.diff(values, axis=1)
    res.require(bool(np.all(drops >= 0)), f"{int(np.sum(np.any(drops < 0, axis=1)))} rows decrease")
    err = float(np.max(np.abs(values - reference)))
    bound = VALUE_TOL * max(1.0, float(np.max(np.abs(reference))))
    res.require(err <= bound, f"values differ from the CSR reference by {err:.3e} > {bound:.3e}")
    means = values.mean(axis=1)
    decided = np.abs(means) >= ZERO_MEAN
    sign = np.where(means >= 0, 1, -1)
    wrong = int(np.sum(decided & (classes != sign)))
    res.require(wrong == 0, f"{wrong} predicted classes disagree with the sign of the row mean")
    unknown = np.ones(n, dtype=bool)
    unknown[list(known)] = False
    res.accuracy = float(np.mean(classes[unknown] == truth_sign[unknown]))
    res.require(res.accuracy >= ACCURACY_FLOOR, f"accuracy {res.accuracy:.4f} < {ACCURACY_FLOOR}")
    return res


# --------------------------------------------------------------- experiment

def check_metrics(path: Path, trials: int) -> CheckResult:
    res = CheckResult()
    rows = _csv_rows(path)
    res.require(rows[:1] == [["trial", "accuracy"]], "missing trial,accuracy header")
    body = rows[1:]
    res.require(len(body) == trials + 1, f"{len(body)} rows, expected {trials} trials plus mean")
    if not res.ok:
        return res
    res.require([r[0] for r in body[:-1]] == [str(t) for t in range(trials)], "trial ids are not 0..trials-1")
    res.require(body[-1][0] == "mean", "last row is not the mean")
    accs = np.array([float(r[1]) for r in body[:-1]])
    mean = float(body[-1][1])
    res.require(bool(np.all((accs >= 0) & (accs <= 1))), "an accuracy lies outside [0, 1]")
    res.require(abs(mean - accs.mean()) <= 1e-12, f"mean {mean!r} != row mean {accs.mean()!r}")
    res.accuracy = mean
    res.require(mean >= ACCURACY_FLOOR, f"mean accuracy {mean:.4f} < {ACCURACY_FLOOR}")
    return res


# ---------------------------------------------------------------- stability

def read_report(path: Path) -> Dict[str, str]:
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_stability(report_path: Path, ratios_path: Path, lambda1_ref: float,
                    phi_l2_squared_ref: float, m: int, gamma: float, epsilon: float,
                    swaps: int) -> CheckResult:
    res = CheckResult()
    r = read_report(report_path)
    needed = ["m", "T", "lambda1", "margin", "phi_l2_squared", "beta", "M",
              "fraction_bound", "exponential_bound", "worst_slice_ratio",
              "worst_cost_ratio", "empirical_ok", "swaps"]
    absent = [k for k in needed if k not in r]
    res.require(not absent, f"report lacks {absent}")
    if not res.ok:
        return res
    m_rep, T = int(r["m"]), int(r["T"])
    lam, phi2 = float(r["lambda1"]), float(r["phi_l2_squared"])
    res.require(m_rep == m and T == 1 and int(r["swaps"]) == swaps, "m, T or swaps misreported")
    res.require(abs(lam - lambda1_ref) <= LAMBDA_RTOL * lambda1_ref,
                f"lambda1 {lam!r} vs dense eigvalsh {lambda1_ref!r}")
    res.require(_close(phi2, phi_l2_squared_ref, CLOSED_FORM_RTOL), "phi_l2_squared is wrong")
    margin = m_rep * gamma * lam - T
    res.require(_close(float(r["margin"]), margin, CLOSED_FORM_RTOL), "margin != m*gamma*lambda1 - T")
    beta = 4.0 * phi2 * (3.0 * math.sqrt(T * m_rep) / margin**2 + 4.0 / margin + 2.0 / m_rep)
    res.require(_close(float(r["beta"]), beta, CLOSED_FORM_RTOL), "beta != its closed form")
    big_m = 4.0 * phi2
    fraction = (64.0 * big_m * m_rep * beta + 8.0 * big_m**2) / (m_rep * epsilon**2)
    exponential = 2.0 * math.exp(-m_rep * epsilon**2 / (2.0 * (m_rep * beta + big_m) ** 2))
    res.require(_close(float(r["M"]), big_m, CLOSED_FORM_RTOL), "M != 4*phi_l2_squared")
    res.require(_close(float(r["fraction_bound"]), fraction, CLOSED_FORM_RTOL), "fraction bound is wrong")
    res.require(_close(float(r["exponential_bound"]), exponential, CLOSED_FORM_RTOL),
                "exponential bound is wrong")
    res.require(r["empirical_ok"] == "True", "empirical_ok is not True")

    rows = _csv_rows(ratios_path)
    res.require(rows[:1] == [["swap", "sample_index", "slice_ratio", "cost_ratio"]], "bad ratios header")
    body = rows[1:]
    res.require(len(body) == swaps, f"{len(body)} ratio rows, expected {swaps}")
    if not res.ok:
        return res
    res.require([int(b[0]) for b in body] == list(range(swaps)), "swap ids are not 0..swaps-1")
    res.require(all(0 <= int(b[1]) < m for b in body), "sample index outside [0, m)")
    ratios = np.array([[float(b[2]), float(b[3])] for b in body])
    within = np.all((ratios >= 0) & (ratios <= 1.0 + RATIO_SLACK), axis=1)
    res.require(bool(within.all()), f"{int(np.sum(~within))} swaps exceed their bound")
    res.require(float(r["worst_slice_ratio"]) == ratios[:, 0].max()
                and float(r["worst_cost_ratio"]) == ratios[:, 1].max(),
                "worst ratios do not match the CSV")
    res.accuracy = float(np.mean(within))
    return res


def dense_lambda1(lap: sp.csr_matrix) -> float:
    return float(np.linalg.eigvalsh(lap.toarray())[1])


def phi_l2_squared(anchors: Dict[int, np.ndarray]) -> float:
    phi = np.max(np.abs(np.stack(list(anchors.values()))), axis=0)
    return float(np.sum(phi * phi)) / phi.size


# ----------------------------------------------------------------- tikhonov

def read_field(path: Path) -> np.ndarray:
    rows = _csv_rows(path)[1:]
    return np.array([[float(x) for x in r] for r in rows])


def check_field(path: Path, lap: sp.csr_matrix, anchors: Dict[int, np.ndarray], gamma: float,
                truth_sign: np.ndarray) -> CheckResult:
    res = CheckResult()
    table = read_field(path)
    n = lap.shape[0]
    size = next(iter(anchors.values())).size
    res.require(table.shape == (n, size + 1), f"field shape {table.shape} != {(n, size + 1)}")
    if not res.ok:
        return res
    res.require(np.array_equal(table[:, 0], np.arange(n)), "vertex column is not 0..n-1")
    phi = table[:, 1:]
    drops = np.diff(phi, axis=1)
    res.require(bool(np.all(drops >= 0)), f"{int(np.sum(np.any(drops < 0, axis=1)))} rows decrease")
    known = np.array(sorted(anchors))
    max_excess = float(np.max(phi.max(axis=0) - phi[known].max(axis=0)))
    min_excess = float(np.max(phi[known].min(axis=0) - phi.min(axis=0)))
    res.require(max(max_excess, min_excess) <= EXTREMA_SLACK,
                f"slice extrema off the labeled vertices by {max(max_excess, min_excess):.3e}")
    m = len(anchors)
    t = np.zeros(n)
    t[known] = 1.0
    y = np.zeros_like(phi)
    y[known] = np.stack([anchors[v] for v in known])
    a = (sp.diags(t) + (m * gamma) * lap).tocsr()
    resid = float(np.max(np.abs(a @ phi - y)))
    bound = RESIDUAL_TOL * max(1.0, float(np.max(np.abs(y))))
    res.require(resid <= bound, f"residual {resid:.3e} > {bound:.3e}")
    # the blocks have equal size, so the class threshold is the median row
    # mean: the field's global offset follows the label means, not the blocks
    unknown = np.ones(n, dtype=bool)
    unknown[known] = False
    means = phi.mean(axis=1)
    sign = np.where(means >= np.median(means), 1, -1)
    res.accuracy = float(np.mean(sign[unknown] == truth_sign[unknown]))
    return res
