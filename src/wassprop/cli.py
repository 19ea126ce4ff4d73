"""Command-line front end.

Subcommands: gen-sbm, ingest, propagate, solve-tikhonov, stability,
experiment.  Common flags: --seed, --output, --config (a key=value file whose
entries act as defaults; explicit flags override them).  All emitted CSVs use
'.' decimals and newline line endings, and reruns with identical flags and
seed produce byte-identical files.

`run` is the process entry point of `python -m wassprop.cli` and of the
`wassprop` script; `main` is the same command without its process set-up, for
tests and library callers.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from . import fileio
from .errors import InputError, WasspropError, check_positive, check_seed
from .experiments import (
    AnchorSpec,
    SbmConfig,
    expected_sbm_counts,
    gen_sbm,
    ingest_categorical,
    run_experiment,
)
from .fileio import emit_metrics
from .labels import DEFAULT_GRID_SIZE, QuantileGrid, gaussian_quantile_label, tight_envelope
from .propagation import (
    DEFAULT_MAX_ITERS,
    DEFAULT_REL_TOL,
    GaussianBackend,
    LabeledSubset,
    PropagationConfig,
    QuantileBackend,
    classify,
    propagate,
)
from .stability import (
    StabilityInputs,
    check_swap_plan,
    empirical_stability,
    generalization_bounds,
    invertibility_margin,
)
from .tikhonov import TikhonovOperator, TrainingSet


DEFAULT_ARITY = 3  # the --k of gen-sbm and experiment


def _apply_config(argv: List[str]) -> List[str]:
    """Expand --config <file> into its flags, placed right after the
    subcommand so explicit command-line flags take precedence."""
    path: Optional[str] = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
            break
        if token.startswith("--config="):
            path = token.split("=", 1)[1]
            break
    if path is None or not argv:
        return argv
    return [argv[0]] + fileio.read_config_flags(path) + argv[1:]


def _require_output(args) -> Path:
    if args.output is None:
        raise InputError("--output <path> is required for this subcommand")
    return args.output


def _propagation_config(args) -> PropagationConfig:
    """The loop flags shared by propagate and experiment, plus the seed."""
    return PropagationConfig(
        alpha=args.alpha, gamma=args.gamma, max_iters=args.max_iters, rel_tol=args.tol, seed=args.seed
    )


def _blocks(args) -> Tuple[int, ...]:
    """The block sizes of --blocks, shared by gen-sbm and experiment."""
    try:
        return tuple(int(b) for b in args.blocks.split(","))
    except ValueError:
        raise InputError(
            f"--blocks must be comma-separated integers, got {args.blocks!r}"
        ) from None


def _read_instance(args) -> TikhonovOperator:
    """Shared solve-tikhonov/stability input path: the Tikhonov instance of
    the graph file, the labels file and --gamma."""
    g = fileio.read_graph(args.graph, args.n)
    grid = QuantileGrid(args.grid_size)
    kind, targets = fileio.read_labels(args.labels, grid, g.n)
    if kind == "gauss":  # the reader checked that every Gaussian has one dimension
        dim = next(iter(targets.values())).dim
        if dim != 1:
            raise InputError(f"quantile-field solving needs one-dimensional labels, got dimension {dim}")
        targets = {v: gaussian_quantile_label(float(lab.mean[0]), float(lab.std[0]), grid)
                   for v, lab in targets.items()}
    return TikhonovOperator(g, TrainingSet(sorted(targets.items())), args.gamma)


def _write_hypergraph(args, h, classes) -> None:
    """The gen-sbm and ingest outputs: hypergraph, optional truth and incidence."""
    fileio.write_hypergraph(_require_output(args), h)
    if args.truth is not None:
        fileio.write_truth(args.truth, classes)
    if args.incidence is not None:
        fileio.write_incidence(args.incidence, h)


def cmd_gen_sbm(args) -> int:
    cfg = SbmConfig(_blocks(args), args.k, args.p_in, args.p_out, seed=args.seed)
    sample = gen_sbm(cfg)
    counts = expected_sbm_counts(cfg)
    _write_hypergraph(args, sample.hypergraph, sample.blocks)
    print(
        f"n={cfg.n} k={cfg.k} within_block={sample.within_block} "
        f"cross_block={sample.cross_block} total={sample.total} "
        f"expected_within={counts.expected_within:.3f} "
        f"expected_total={counts.expected_total:.3f}"
    )
    return 0


def cmd_ingest(args) -> int:
    table = fileio.read_categorical_csv(args.input, args.class_column)
    missing = args.missing if args.missing != "" else None
    result = ingest_categorical(table, missing)
    _write_hypergraph(args, result.hypergraph, result.classes)
    print(
        f"rows={result.hypergraph.n} hyperedges={len(result.hypergraph.edges)} "
        f"classes={','.join(result.class_names)}"
    )
    return 0


def cmd_propagate(args) -> int:
    h = fileio.read_hypergraph(args.hypergraph, args.n)
    grid = QuantileGrid(args.grid_size)
    kind, targets = fileio.read_labels(args.labels, grid, h.n)
    if kind == "hist":
        backend = QuantileBackend(grid)
    else:  # the reader checked that every Gaussian has one dimension
        backend = GaussianBackend(next(iter(targets.values())).dim)
    state = propagate(h, LabeledSubset(targets), _propagation_config(args), backend)
    fileio.write_predictions(_require_output(args), classify(state), state)
    if args.trace is not None:
        fileio.write_trace(args.trace, state.loss_history)
    print(f"iterations={state.iterations} final_loss={state.loss_history[-1]!r}")
    return 0


def cmd_solve_tikhonov(args) -> int:
    op = _read_instance(args)
    fileio.write_field(_require_output(args), op.field())
    margin = invertibility_margin(op)
    print(f"n={op.graph.n} m={op.m} margin={margin!r}")
    return 0


def cmd_stability(args) -> int:
    if args.ratios is not None and not args.empirical:
        raise InputError("--ratios requires --empirical")
    op = _read_instance(args)
    envelope = tight_envelope([label for _, label in op.training.samples])
    si = StabilityInputs.from_instance(op, envelope)
    check_positive("epsilon", args.epsilon)  # also when a non-positive margin leaves the bounds out
    check_swap_plan(args.swaps, args.seed)  # likewise, and without --empirical too
    lines = [
        f"m={si.m}",
        f"T={si.T}",
        f"lambda1={si.lambda1!r}",
        f"margin={si.margin!r}",
        f"margin_positive={si.hypothesis_holds}",
        f"phi_l2_squared={si.phi_l2_squared!r}",
    ]
    if si.hypothesis_holds:
        report = generalization_bounds(si, args.epsilon)
        lines += [
            f"beta={report.beta!r}",
            f"M={report.M!r}",
            f"epsilon={report.epsilon!r}",
            f"fraction_bound={report.fraction_bound!r}",
            f"fraction_vacuous={report.fraction_vacuous}",
            f"exponential_bound={report.exponential_bound!r}",
            f"exponential_vacuous={report.exponential_vacuous}",
            f"m_ge_4={report.m_ge_4}",
            f"sample_size_ok={report.sample_size_ok}",
        ]
        if args.empirical:
            emp = empirical_stability(op, args.swaps, envelope, seed=args.seed)
            lines += [
                f"swaps={args.swaps}",
                f"worst_slice_ratio={emp.worst_slice_ratio!r}",
                f"worst_cost_ratio={emp.worst_cost_ratio!r}",
                f"empirical_ok={emp.ok}",
            ]
            if args.ratios is not None:
                fileio.write_ratios(args.ratios, emp.trials)
    if args.output is not None:
        fileio.write_lines(args.output, None, lines)
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _refuse_other_source(args, source: str, defaults) -> None:
    """Raise unless `args` leaves each flag of `defaults` (flag -> its
    default) at its default: the experiment reads its hypergraph from one
    source, and would ignore the other source's flags."""
    given = [flag for flag, default in defaults.items()
             if getattr(args, flag[2:].replace("-", "_")) != default]
    if given:
        raise InputError(f"{source} does not combine with {', '.join(given)}")


def cmd_experiment(args) -> int:
    if args.hypergraph is not None:
        if args.truth is None:
            raise InputError("--hypergraph requires --truth")
        _refuse_other_source(args, "--hypergraph", {"--blocks": None, "--k": DEFAULT_ARITY,
                                                    "--p-in": None, "--p-out": None})
        h = fileio.read_hypergraph(args.hypergraph, args.n)
        truth = fileio.read_truth(args.truth)
    elif args.blocks is not None:
        if args.p_in is None or args.p_out is None:
            raise InputError("--blocks requires --p-in and --p-out")
        _refuse_other_source(args, "--blocks", {"--truth": None, "--n": None})
        sample = gen_sbm(SbmConfig(_blocks(args), args.k, args.p_in, args.p_out, seed=args.seed))
        h, truth = sample.hypergraph, sample.blocks
    else:
        raise InputError("provide either --hypergraph/--truth or --blocks/--p-in/--p-out")
    anchors = AnchorSpec(args.anchor_kind, args.anchor_variance)
    result = run_experiment(
        h, truth, args.labels_per_class, args.trials, _propagation_config(args), anchors
    )
    emit_metrics(result, _require_output(args))
    print(
        f"trials={result.trials} labels_per_class={args.labels_per_class} "
        f"mean={result.mean!r} stderr={result.stderr!r}"
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """A bad flag, also one from --config, is an InputError: one `error:` line
    like every other bad input.  Subcommand parsers are made of this class."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wassprop",
        description="Wasserstein soft-label propagation on graphs and hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument("--output", type=Path, help="primary output file")
    common.add_argument("--config", type=Path, help="key=value file of default flags")

    loop = argparse.ArgumentParser(add_help=False)
    loop.add_argument("--alpha", type=float, required=True)
    loop.add_argument("--gamma", type=float, required=True)
    loop.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    loop.add_argument("--tol", type=float, default=DEFAULT_REL_TOL)

    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--graph", type=Path, required=True)
    training.add_argument("--labels", type=Path, required=True)
    training.add_argument("--gamma", type=float, required=True)
    training.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    training.add_argument("--n", type=int, help="vertex count override")

    p = sub.add_parser("gen-sbm", parents=[common], help="draw a block-model hypergraph")
    p.add_argument("--blocks", required=True, help="comma-separated block sizes, e.g. 50,50")
    p.add_argument("--k", type=int, default=DEFAULT_ARITY, help="hyperedge arity")
    p.add_argument("--p-in", type=float, required=True, help="within-block probability")
    p.add_argument("--p-out", type=float, required=True, help="cross-block probability")
    p.add_argument("--truth", type=Path, help="write vertex,class CSV here")
    p.add_argument("--incidence", type=Path, help="write 0/1 incidence CSV here")
    p.set_defaults(func=cmd_gen_sbm)

    p = sub.add_parser("ingest", parents=[common], help="hypergraph from a categorical CSV")
    p.add_argument("--input", type=Path, required=True, help="CSV with header row")
    p.add_argument("--class-column", default="class", help="name of the class column")
    p.add_argument("--missing", default="?", help="missing-value marker; empty disables")
    p.add_argument("--truth", type=Path, help="write vertex,class CSV here")
    p.add_argument("--incidence", type=Path, help="write 0/1 incidence CSV here")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("propagate", parents=[common, loop], help="alternating label propagation")
    p.add_argument("--hypergraph", type=Path, required=True)
    p.add_argument("--labels", type=Path, required=True)
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--n", type=int, help="vertex count override")
    p.add_argument("--trace", type=Path, help="write iter,loss CSV here")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("solve-tikhonov", parents=[common, training], help="closed-form graph solve")
    p.set_defaults(func=cmd_solve_tikhonov)

    p = sub.add_parser("stability", parents=[common, training], help="stability constants and bounds")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--empirical", action="store_true", help="run replacement swaps")
    p.add_argument("--swaps", type=int, default=20)
    p.add_argument("--ratios", type=Path, help="write per-swap ratio CSV here")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("experiment", parents=[common, loop], help="seeded classification trials")
    p.add_argument("--hypergraph", type=Path)
    p.add_argument("--truth", type=Path)
    p.add_argument("--n", type=int, help="vertex count override")
    p.add_argument("--blocks", help="generate a block model instead of reading files")
    p.add_argument("--k", type=int, default=DEFAULT_ARITY)
    p.add_argument("--p-in", type=float)
    p.add_argument("--p-out", type=float)
    p.add_argument("--labels-per-class", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--anchor-kind", choices=["onehot", "sign"], default="onehot")
    p.add_argument("--anchor-variance", type=float, default=0.05)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        argv = _apply_config(argv)
        args = build_parser().parse_args(argv)
        check_seed(args.seed)  # also in the commands that draw nothing
        return args.func(args)
    except WasspropError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # readers raise InputError, so this is an output file
        print(f"error: cannot write {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a vertex index that implies a huge n
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


def run() -> None:
    """Run `main` on the process arguments and exit with its code.

    Importing numpy and scipy leaves some forty thousand long-lived objects
    that the collector tracks, and every full collection walks all of them,
    among them the ones interpreter exit runs.  Freezing after the imports
    takes those objects out of every later collection; freezing again after
    `main` returns does the same for what the run made, so the exit
    collections have almost nothing to scan.  The exit is `sys.exit`, so the
    streams are still flushed, atexit handlers run and modules are cleared.
    `main` itself never freezes.
    """
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
