#!/usr/bin/env python3

"""Run the benchmark diffusion-control problem (L=4, tf=1, r1=r2=1/2,
f(y) = 1 + y) over a grid of resolutions and family parameters, writing
the CSV report plus per-cell solution/profile files.

$ python3 scripts/run_benchmark_sweep.py                 # quick sweep
$ python3 scripts/run_benchmark_sweep.py --full          # the full table
$ python3 scripts/run_benchmark_sweep.py --out results/my_sweep
"""

import argparse
import sys

from gegopt.cli import main as cli_main


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--out", default="results/benchmark", help="output directory for CSV files"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="sweep N = 4..12 and alpha = -0.4..0.9 instead of the quick grid",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.full:
        cells = ["--Ny", "4:12", "--alpha=-0.4:0.9:0.1"]
    else:
        cells = ["--Ny", "4:12:2", "--alpha=-0.2", "--alpha", "0", "--alpha", "0.5"]
    code = cli_main(cells + ["--sweep", "--out", args.out])
    if code == 0:
        print(f"report written to {args.out}/report.csv")
    return code


if __name__ == "__main__":
    sys.exit(main())
