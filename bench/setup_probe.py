"""Set-up probe: import the CLI and read the inputs a command names.

Usage: python bench/setup_probe.py <wassprop CLI arguments>

Runs in a fresh process so its wall time is what a user pays before the
command starts computing: interpreter start, `import wassprop.cli`, and
reading and validating every input file through the `fileio` readers.
"""

from __future__ import annotations

import argparse
import sys


def main(argv) -> int:
    import wassprop.cli  # noqa: F401  (the import is part of set-up)
    from wassprop import fileio
    from wassprop.labels import DEFAULT_GRID_SIZE, QuantileGrid

    parser = argparse.ArgumentParser(allow_abbrev=False)
    for flag in ("--hypergraph", "--graph", "--labels", "--truth"):
        parser.add_argument(flag)
    parser.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    args, _ = parser.parse_known_args(argv)
    if args.hypergraph:
        fileio.read_hypergraph(args.hypergraph)
    if args.graph:
        fileio.read_graph(args.graph)
    if args.labels:
        fileio.read_labels(args.labels, QuantileGrid(args.grid_size))
    if args.truth:
        fileio.read_truth(args.truth)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
