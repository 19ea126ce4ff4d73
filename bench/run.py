"""Seeded end-to-end and per-layer benchmark of the `wassprop` CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark generates the workload's inputs from --seed with its own code,
then runs the CLI as fresh processes in a closed loop with one client: each
run starts after the previous one has exited, until S seconds have passed
(at least MIN_RUNS runs).  Every output is checked against an independent
reference (checks.py).  Children import `wassprop` from ./src and use
BLAS_THREADS (at most `nproc`) BLAS threads.

--trace 0 runs a set-up probe (setup_probe.py) after every third CLI run and
reports the end-to-end metrics.  It also times a fixed host probe
(HostProbe) after every CLI run and reports wall_s and setup_s scaled by it,
so a slow spell of the shared host does not read as a slower program; the
raw times stay in the printed summary and the record.  --trace 1 alternates
untraced runs with traced ones (traced.py) and reports the per-layer metrics.
The last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The full record (samples, percentiles, machine) goes to
.bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
MIN_RUNS = 3
COPY_CAP_BYTES = 512 << 20  # per array; see machine_copy_gbps
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread, within the nproc limit: on a shared host a second thread
# mostly spins at barriers, doubles CPU time and makes run times less steady.
BLAS_THREADS = 1
# the keys of workloads.WORKLOADS, repeated so that arguments are checked
# before numpy is imported under the BLAS thread setting
WORKLOAD_NAMES = ("prop-quantile", "experiment-gauss", "stability-dense", "tikhonov-cg")


@dataclass
class Run:
    wall_s: float
    rss_mb: float
    ok: bool
    digest: str = ""
    accuracy: float = float("nan")
    problems: List[str] = field(default_factory=list)
    stats: Optional[dict] = None


# The loop of the launcher process: one JSON request per line in, one JSON
# reply per line out.
LAUNCHER = r"""
import json, os, subprocess, sys, time
for line in sys.stdin:
    cmd, cwd, env, log = json.loads(line)
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024.0]), flush=True)
"""


class Launcher:
    """Starts the benchmark's children from a small helper process.

    Linux carries the high-water RSS of the process that forks a child over
    the child's exec, so a child forked from this process (which holds the
    inputs and the reference solutions) would report at least this process's
    peak.  The helper imports nothing heavy.  It times each child and takes
    the child's own peak RSS from wait4 on that child alone: RUSAGE_CHILDREN
    would be a running maximum over every child and hide a decrease."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, cmd: List[str], cwd: Path, env: Dict[str, str], log: Path):
        """Run `cmd` to completion; (exit code, wall seconds, its peak RSS in MB)."""
        self.proc.stdin.write(json.dumps([cmd, str(cwd), env, str(log)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        rc, wall, rss = json.loads(reply)
        return rc, wall, rss

    def close(self) -> None:
        """Let the launcher finish its current child, then wait for it."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def digest(paths: List[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        data = p.read_bytes()
        h.update(f"{p.name}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


def summary(values: List[float]) -> str:
    """Median, 90th percentile and maximum with the sample count."""
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]
    return (f"median {statistics.median(values):.4f} p90 {p90:.4f} "
            f"max {max(values):.4f} (n={len(values)})")


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, env: Dict[str, str],
                 launcher: Launcher):
        from workloads import WORKLOADS

        self.work, self.env, self.spawn = work, env, launcher.spawn
        t0 = time.perf_counter()
        self.instance = WORKLOADS[workload](seed, work)
        self.generate_s = time.perf_counter() - t0
        self.checked: Dict[str, tuple] = {}  # digest -> (ok, accuracy, problems)
        self.attempted = self.failed = 0

    def cli(self, traced: bool) -> Run:
        inst = self.instance
        for p in inst.outputs:
            p.unlink(missing_ok=True)
        stats_path = self.work / "trace-stats.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(stats_path), "--", *inst.argv]
        else:
            cmd = [sys.executable, "-m", "wassprop.cli", *inst.argv]
        self.attempted += 1
        rc, wall, rss = self.spawn(cmd, self.work, self.env, self.work / "cli.log")
        run = Run(wall, rss, ok=False)
        if rc != 0 or not all(p.is_file() for p in inst.outputs):
            run.problems = [f"exit code {rc}: " + (self.work / "cli.log").read_text()[-2000:]]
        else:
            run.digest = digest(inst.outputs)
            if run.digest not in self.checked:
                res = inst.check()
                self.checked[run.digest] = (res.ok, res.accuracy, res.problems)
            run.ok, run.accuracy, run.problems = self.checked[run.digest]
            if traced:
                run.stats = json.loads(stats_path.read_text())
        if not run.ok:
            self.failed += 1
            print(f"FAILED {'traced ' if traced else ''}run: {'; '.join(run.problems)}", file=sys.stderr)
        return run

    def setup(self) -> Optional[float]:
        """Wall time of one set-up probe; None if it failed."""
        self.attempted += 1
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), *self.instance.argv]
        rc, wall, _ = self.spawn(cmd, self.work, self.env, self.work / "setup.log")
        if rc != 0:
            self.failed += 1
            print("FAILED set-up probe: " + (self.work / "setup.log").read_text()[-2000:], file=sys.stderr)
            return None
        return wall

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.instance.outputs if p.is_file())


class HostProbe:
    """A fixed piece of work owned by the benchmark, timed right after each
    CLI run to read how fast the shared host is at that moment.

    The same work on this kind of host runs up to 2x slower for seconds to
    minutes at a time, so a raw median over one window follows the host more
    than the program.  The probe mixes what a CLI run does: a fresh
    interpreter importing numpy and scipy, sparse products on arrays larger
    than the L2 cache, and interpreted Python.  Nothing in it depends on the
    code under test, so a change to the program moves the scaled times in
    full."""

    REF_S = 0.5  # scaled times are seconds on a host where one probe takes this long

    def __init__(self, work: Path, env: Dict[str, str], launcher: Launcher):
        import numpy as np
        import scipy.sparse as sp

        self.work, self.env, self.spawn = work, env, launcher.spawn
        rng = np.random.default_rng(0)
        n, nnz = 200_000, 2_000_000
        self.a = sp.csr_matrix((rng.random(nnz), (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
                               shape=(n, n))
        self.x = rng.random((n, 4))

    def __call__(self) -> float:
        """Seconds one probe takes now."""
        t0 = time.perf_counter()
        rc, _, _ = self.spawn([sys.executable, "-c", "import numpy, scipy.sparse"],
                         self.work, self.env, self.work / "probe.log")
        if rc != 0:
            raise RuntimeError("host probe failed: " + (self.work / "probe.log").read_text()[-2000:])
        for _ in range(10):
            self.a @ self.x
        s = 0
        for i in range(400_000):
            s += i * i % 7
        return time.perf_counter() - t0


def machine_info(nproc: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"nproc": nproc, "blas_threads": int(os.environ[BLAS_VARS[0]]), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas,
            "llc_bytes": llc_bytes(), "cpu": platform.processor() or platform.machine()}


def llc_bytes() -> int:
    """Size of the highest cache level of CPU 0, from sysfs (0 if unknown)."""
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        best = max(best, (level, size))
    return best[1]


def machine_copy_gbps(llc: int):
    """numpy copy bandwidth (read + write bytes per second) on arrays of
    4x the last-level cache, capped at COPY_CAP_BYTES each so a large shared
    cache cannot make the benchmark allocate gigabytes."""
    import numpy as np

    nbytes = min(max(4 * llc, 64 << 20), COPY_CAP_BYTES)
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9, src.nbytes


# per-layer metric -> (unit, layers whose spans it reads, what it reads):
# "self"/"total" seconds and "calls" are summed over the layers, "median" is
# the median call duration, "extra:<key>" a figure the tracer records.
LAYER_METRICS = {
    "cli.self_s": ("s", ("cli.main",), "self"),
    "fileio.read_s": ("s", ("fileio.read",), "self"),
    "hypergraph.build_s": ("s", ("hypergraph.build",), "total"),
    "fileio.write_s": ("s", ("fileio.write", "fileio.label_params"), "total"),
    "fileio.label_params_calls": ("count", ("fileio.label_params",), "calls"),
    "propagation.step_s": ("s", ("propagation.step",), "median"),
    "propagation.steps": ("count", ("propagation.step",), "calls"),
    "propagation.step_bytes": ("bytes", ("propagation.step",), "extra:step_bytes"),
    "propagation.init_s": ("s", ("propagation.init",), "total"),
    "propagation.reach_s": ("s", ("propagation.reach",), "total"),
    "propagation.classify_s": ("s", ("propagation.classify",), "total"),
    "experiments.trial_s": ("s", ("experiments.trial",), "median"),
    "experiments.trials": ("count", ("experiments.trial",), "calls"),
    "experiments.self_s": ("s", ("experiments.run",), "self"),
    "tikhonov.operator_s": ("s", ("tikhonov.operator",), "total"),
    "tikhonov.operator_calls": ("count", ("tikhonov.operator",), "calls"),
    "hypergraph.laplacian_s": ("s", ("hypergraph.laplacian",), "total"),
    "hypergraph.laplacian_calls": ("count", ("hypergraph.laplacian",), "calls"),
    "hypergraph.is_connected_s": ("s", ("hypergraph.is_connected",), "total"),
    "hypergraph.is_connected_calls": ("count", ("hypergraph.is_connected",), "calls"),
    "tikhonov.solve_s": ("s", ("tikhonov.solve",), "total"),
    "tikhonov.solve_columns": ("count", ("tikhonov.solve",), "extra:solve_columns"),
    "tikhonov.cg_solves": ("count", ("tikhonov.cg",), "calls"),
    "tikhonov.cg_iterations": ("count", ("tikhonov.cg",), "extra:cg_iterations"),
    "tikhonov.rel_residual": ("ratio", ("tikhonov.solve",), "extra:rel_residual"),
    "hypergraph.spectral_gap_s": ("s", ("hypergraph.spectral_gap",), "total"),
    "hypergraph.spectral_gap_calls": ("count", ("hypergraph.spectral_gap",), "calls"),
    "labels.quantile_labels_built": ("count", ("labels.quantile_label",), "calls"),
    "labels.quantile_label_s": ("s", ("labels.quantile_label",), "total"),
    "stability.empirical_s": ("s", ("stability.empirical",), "total"),
    "stability.self_s": ("s", ("stability.empirical",), "self"),
    "stability.probes": ("count", ("stability.probe",), "calls"),
}


def layer_metrics(traced: List[Run]):
    """Per-layer values from the traced runs' span aggregates (median over
    runs), their units, and why any metric could not be measured."""
    from traced import TARGETS

    def one(stats: dict) -> Dict[str, float]:
        spans = stats["stats"]
        out = {"cli.import_s": stats["import_s"]}
        for metric, (_, layers, what) in LAYER_METRICS.items():
            if what.startswith("extra:"):
                out[metric] = stats["extra"][what[6:]]
            elif what == "median":
                durations = [d for layer in layers for d in spans.get(layer, {}).get("durations", [])]
                out[metric] = statistics.median(durations) if durations else 0.0
            else:
                out[metric] = sum(spans[layer][what] for layer in layers if layer in spans)
        step_s = out["propagation.step_s"]
        out["propagation.step_gbps"] = out["propagation.step_bytes"] / step_s / 1e9 if step_s else 0.0
        return out

    per_run = [one(r.stats) for r in traced if r.stats is not None]
    values = {k: statistics.median(run[k] for run in per_run) for k in per_run[0]} if per_run else {}
    units = {k: LAYER_METRICS[k][0] for k in LAYER_METRICS}
    units.update({"cli.import_s": "s", "propagation.step_gbps": "GB/s"})
    # a layer is unmeasured only when every binding it wraps is gone
    gone: Dict[str, List[str]] = {}
    for r in traced:
        for layer, bindings in (r.stats or {}).get("missing", {}).items():
            if len(bindings) == len(TARGETS[layer]):
                gone[layer] = bindings
    hook_errors = {k: v for r in traced for k, v in (r.stats or {}).get("hook_errors", {}).items()}
    unmeasured = {}
    for metric, (_, layers, what) in LAYER_METRICS.items():
        lost = [b for layer in layers for b in gone.get(layer, [])]
        failed = [hook_errors[layer] for layer in layers if layer in hook_errors]
        if lost:
            unmeasured[metric] = "not wrapped, missing: " + ", ".join(lost)
        elif failed and what.startswith("extra:"):
            unmeasured[metric] = "tracer hook failed: " + "; ".join(failed)
    if "propagation.step_s" in unmeasured:
        unmeasured["propagation.step_gbps"] = unmeasured["propagation.step_s"]
    return values, units, unmeasured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "wassprop" / "cli.py").is_file():
        print(f"error: {src}/wassprop not found; run from the root of a wassprop checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))  # before numpy loads here too
    sys.path[:0] = [str(BENCH), str(src)]
    env = dict(os.environ, PYTHONPATH=str(src))

    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = Launcher()
    try:
        record = measure(args, work, env, nproc, launcher)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]))
    return 0


def measure(args, work: Path, env: Dict[str, str], nproc: int, launcher: Launcher) -> dict:
    bench = Bench(args.workload, args.seed, work, env, launcher)
    machine = machine_info(nproc)
    bench.setup()  # warm-up, not timed: byte-compiles the package
    probe = None if args.trace else HostProbe(work, env, launcher)
    if probe:
        probe()  # warm-up

    untraced: List[Run] = []
    traced: List[Run] = []
    setups: List[float] = []  # raw set-up wall times
    probes: List[float] = []  # probe after each untraced run (--trace 0 only)
    setup_probes: List[float] = []  # the probe next to each set-up sample
    start = now = time.perf_counter()
    iterations: List[float] = []  # loop iteration durations
    # stop before an iteration of typical length would end past the window
    while (len(untraced) < MIN_RUNS
           or now - start + statistics.median(iterations) <= args.seconds):
        untraced.append(bench.cli(traced=False))
        if args.trace:
            traced.append(bench.cli(traced=True))
        else:
            probes.append(probe())
            if len(untraced) % 3 == 1:  # set-up every third run leaves more CLI samples
                wall = bench.setup()
                if wall is not None:
                    setups.append(wall)
                    setup_probes.append(probes[-1])
        iterations.append(time.perf_counter() - now)
        now = time.perf_counter()
    window_s = time.perf_counter() - start

    walls = [r.wall_s for r in untraced]
    # each time scaled by the host speed the probe next to it read
    scaled_walls = [w * HostProbe.REF_S / p for w, p in zip(walls, probes)]
    scaled_setups = [w * HostProbe.REF_S / p for w, p in zip(setups, setup_probes)]
    digests = [r.digest for r in untraced]
    rerun_identical = sum(a == b != "" for a, b in zip(digests, digests[1:])) / (len(digests) - 1)
    good = [r for r in untraced if r.ok]
    lines = [f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced"
             f"{f', {len(traced)} traced' if args.trace else ''} runs in {window_s:.1f} s "
             f"(closed loop, 1 client); inputs generated in {bench.generate_s:.2f} s",
             "machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()),
             f"raw wall_s: {summary(walls)}"]
    unmeasured: Dict[str, str] = {}
    if args.trace:
        values, units, unmeasured = layer_metrics(traced)
        copy_gbps, copy_bytes = machine_copy_gbps(machine["llc_bytes"])
        values.update({
            "fileio.bytes_written": bench.output_bytes(),
            "rerun_identical": rerun_identical,
            "trace.overhead_s": statistics.median(r.wall_s for r in traced) - statistics.median(walls),
            "machine.copy_gbps": copy_gbps,
            "machine.nproc": nproc,
            "machine.blas_threads": machine["blas_threads"],
        })
        units.update({"fileio.bytes_written": "bytes", "rerun_identical": "fraction",
                      "trace.overhead_s": "s", "machine.copy_gbps": "GB/s",
                      "machine.nproc": "count", "machine.blas_threads": "count"})
        lines.append(f"traced wall_s: {summary([r.wall_s for r in traced])}")
        lines.append(f"copy bandwidth measured on 2 arrays of {copy_bytes} bytes each "
                     f"(last-level cache {machine['llc_bytes']} bytes)")
    else:
        values = {
            "wall_s": statistics.median(scaled_walls),
            "setup_s": statistics.median(scaled_setups) if setups else float("nan"),
            "peak_rss_mb": statistics.median(r.rss_mb for r in untraced),
            "accuracy": statistics.median(r.accuracy for r in good) if good else float("nan"),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "accuracy": "fraction"}
        lines.append(f"host probe: {summary(probes)}; wall_s and setup_s below are scaled "
                     f"by {HostProbe.REF_S} s / the probe after each run")
        lines.append(f"scaled wall_s: {summary(scaled_walls)}")
        if setups:
            lines.append(f"raw setup_s: {summary(setups)}")
            lines.append(f"scaled setup_s: {summary(scaled_setups)}")
        lines.append(f"peak_rss_mb: {summary([r.rss_mb for r in untraced])}")
        lines.append(f"rerun_identical (reported with --trace 1): {rerun_identical:.4f}")
    for k in sorted(values):
        if k in unmeasured:
            lines.append(f"{k}: not measured ({unmeasured[k]})")
        else:
            lines.append(f"{k} = {values[k]!r} {units[k]}")
    print("\n".join(lines))

    # NaN (no successful run to take a median of) is not JSON: write null
    metrics = {k: {"value": v if v == v else None, "unit": units[k]}
               for k, v in values.items() if k not in unmeasured}
    correct = bench.failed == 0 and all(m["value"] is not None for m in metrics.values())
    return {
        "result": {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
                   "metrics": metrics},
        "machine": machine,
        "samples": {"wall_s": walls, "setup_s": setups, "host_probe_s": probes,
                    "scaled_wall_s": scaled_walls, "scaled_setup_s": scaled_setups,
                    "peak_rss_mb": [r.rss_mb for r in untraced],
                    "traced_wall_s": [r.wall_s for r in traced], "digests": digests},
        "not_measured": unmeasured,
        "argv": bench.instance.argv,
    }


if __name__ == "__main__":
    sys.exit(main())
