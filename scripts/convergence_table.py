#!/usr/bin/env python3

"""Summarize a sweep report as a convergence table: for each family parameter,
list the cost, its gap to the finest grid, and the two accuracy scores.

$ gegopt --Ny 4:12 --alpha=-0.4:0.9:0.1 --sweep --out results/benchmark
$ gegopt --Ny 4:12:2 --alpha=-0.2 --alpha 0 --alpha 0.5 --sweep --out results/quick
$ python3 scripts/convergence_table.py results/benchmark/report.csv
"""

import argparse
import csv
import sys
from collections import defaultdict


def load_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = []
    for row in rows:
        if row["error"]:
            print(f"skipping failed cell N_y={row['N_y']} alpha={row['alpha']}: "
                  f"{row['error']}", file=sys.stderr)
            continue
        cells.append(
            {
                "n_y": int(row["N_y"]),
                "n_t": int(row["N_t"]),
                "alpha": float(row["alpha"]),
                "j": float(row["J"]),
                "psi1": float(row["psi1"]),
                "psi2": float(row["psi2"]),
                "feasibility": float(row["feasibility"]),
            }
        )
    return cells


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("report", help="path to a report.csv from a sweep")
    args = parser.parse_args(argv)

    by_alpha = defaultdict(list)
    for cell in load_report(args.report):
        by_alpha[cell["alpha"]].append(cell)

    for alpha in sorted(by_alpha):
        cells = sorted(by_alpha[alpha], key=lambda c: (c["n_y"], c["n_t"]))
        j_ref = cells[-1]["j"]
        print(f"\nalpha = {alpha:g}  (J at finest grid: {j_ref:.10f})")
        print(f"{'N_y':>4} {'N_t':>4} {'J':>16} {'|J - J_ref|':>12} "
              f"{'psi1':>10} {'psi2':>10} {'feas':>10}")
        for c in cells:
            print(
                f"{c['n_y']:>4} {c['n_t']:>4} {c['j']:>16.10f} "
                f"{abs(c['j'] - j_ref):>12.3e} {c['psi1']:>10.2e} "
                f"{c['psi2']:>10.2e} {c['feasibility']:>10.2e}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
