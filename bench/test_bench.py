"""Self-tests of the benchmark: deterministic inputs, checkers that reject
corrupted outputs, and tracing that survives a missing name.

Run from the repository root:  python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import traced  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _generate(name: str, seed: int, where: Path) -> dict:
    where.mkdir()
    WORKLOADS[name](seed, where)
    return {p.name: p.read_bytes() for p in sorted(where.iterdir())}


def test_command_line_names_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_byte_deterministic(name, tmp_path):
    first = _generate(name, 7, tmp_path / "a")
    assert first == _generate(name, 7, tmp_path / "b")
    assert first != _generate(name, 8, tmp_path / "c")


def _run_cli(name: str, tmp_path: Path, monkeypatch):
    import wassprop.cli

    instance = WORKLOADS[name](3, tmp_path)
    monkeypatch.chdir(tmp_path)
    assert wassprop.cli.main(instance.argv) == 0
    result = instance.check()
    assert result.ok, result.problems
    return instance


def _rewrite_line(path: Path, index: int, edit) -> None:
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def test_prediction_check_rejects_a_non_monotone_row(tmp_path, monkeypatch):
    inst = _run_cli("prop-quantile", tmp_path, monkeypatch)

    def swap_first_and_last(line):
        vertex, cls, params = line.split(",")
        values = params.split(";")
        values[0], values[-1] = values[-1], values[0]
        return ",".join([vertex, cls, ";".join(values)])

    _rewrite_line(inst.outputs[0], 5, swap_first_and_last)
    result = inst.check()
    assert not result.ok
    assert any("rows decrease" in p for p in result.problems)


def test_field_check_rejects_a_value_moved_by_1e_6(tmp_path, monkeypatch):
    inst = _run_cli("tikhonov-cg", tmp_path, monkeypatch)

    def nudge(line):
        cells = line.split(",")
        cells[128] = repr(float(cells[128]) + 1e-6)
        return ",".join(cells)

    _rewrite_line(inst.outputs[0], 1000, nudge)
    result = inst.check()
    assert not result.ok
    assert any("residual" in p for p in result.problems)


def test_stability_check_rejects_a_ratio_above_one(tmp_path, monkeypatch):
    inst = _run_cli("stability-dense", tmp_path, monkeypatch)
    ratios = inst.outputs[1]
    _rewrite_line(ratios, 2, lambda line: ",".join(line.split(",")[:2] + ["1.5", line.split(",")[3]]))
    result = inst.check()
    assert not result.ok
    assert any("exceed their bound" in p for p in result.problems)


def test_metrics_check_rejects_a_wrong_mean(tmp_path, monkeypatch):
    inst = _run_cli("experiment-gauss", tmp_path, monkeypatch)
    _rewrite_line(inst.outputs[0], -1, lambda line: "mean,0.5")
    result = inst.check()
    assert not result.ok


def test_missing_name_is_not_measured():
    assert traced._resolve("wassprop.propagation:no_such_function") is None
    assert traced._resolve("wassprop.hypergraph:NoSuchClass.solve") is None
    assert traced._resolve("no_such_module:f") is None
    assert traced._resolve("wassprop.propagation:step") is not None

    layer = "propagation.reach"
    stats = {"import_s": 0.5, "stats": {}, "missing": {layer: list(traced.TARGETS[layer])},
             "extra": {"solve_columns": 0, "cg_iterations": 0, "rel_residual": 0.0, "step_bytes": 0},
             "hook_errors": {"tikhonov.solve": "AttributeError('matrix')"}}
    values, units, unmeasured = run.layer_metrics([run.Run(1.0, 1.0, True, stats=stats)])
    assert "propagation.reach_s" in unmeasured
    assert "tikhonov.rel_residual" in unmeasured
    assert "propagation.step_s" not in unmeasured and "tikhonov.solve_s" not in unmeasured
    assert set(units) >= set(values)


def test_failing_hook_keeps_the_call_and_records_why():
    tracer = traced.Tracer()

    def after(args, kwargs, result):
        raise AttributeError("matrix")

    assert tracer.span("tikhonov.solve", lambda x: x + 1, after)(1) == 2
    assert tracer.stats["tikhonov.solve"]["calls"] == 1
    assert "matrix" in tracer.hook_errors["tikhonov.solve"]
