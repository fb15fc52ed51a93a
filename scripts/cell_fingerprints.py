#!/usr/bin/env python3

"""Solve every cell the benchmark solves and write one SHA-256 per cell to
OUT.json, so that two checkouts can be compared for byte-identical results
with one diff.

The cells are the paper_sweep grid (N = 4..12 by 14 alphas), the
ladder_large cells N = 16, 24, 32 at alpha = 0 and the warm-up cell, each at
the profiles that seeds 5 and 41 draw: 258 distinct cells, all run through
`gegopt.cli.run_single`.  A cell's hash covers z, the multipliers, x, phi,
u, J, the CG iteration count, kkt_condition, psi1, psi2, feasibility and
kkt_residual, and for N <= 12 also the dense H and Q and b, c and j0.  A
cell that raises is hashed by its error.  The script imports the gegopt and
perfbench of the checkout it sits in.

$ python3 scripts/cell_fingerprints.py after.json
$ diff before.json after.json
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: Seeds whose profiles the cells are solved at.
SEEDS = (5, 41)

#: Largest N whose dense H and Q are hashed.
DENSE_N = 12


def fingerprint(n: int, cell) -> str:
    """SHA-256 of a solved cell, the (record, solution) pair of
    `run_single`, or of the exception it raised."""
    digest = hashlib.sha256()
    if isinstance(cell, Exception):
        digest.update(f"error: {cell!r}".encode())
        return digest.hexdigest()
    record, sol = cell
    sources = [
        (sol, ("z", "phi", "u", "x")),
        (sol.qp_solution, ("multipliers", "iterations", "kkt_condition")),
        (record, ("j", "psi1", "psi2", "feasibility", "kkt_residual")),
    ]
    if n <= DENSE_N:
        sources.append((sol.transcription.qp, ("H", "Q", "b", "c", "j0")))
    for source, names in sources:
        for name in names:
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(getattr(source, name), dtype=np.float64).tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out", type=Path, help="JSON file the fingerprints are written to")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from gegopt import cli
    from perfbench import oracle, workloads

    cells = [(n, alpha) for n in workloads.SWEEP_N for alpha in workloads.SWEEP_ALPHAS]
    cells += [(n, workloads.LADDER_ALPHA) for n in workloads.LADDER_N]
    cells = list(dict.fromkeys(cells + [workloads.WARM_UP_CELL]))
    result = {}
    for seed in SEEDS:
        ocp = workloads.ocp_for(oracle.draw_inputs(seed))
        for n, alpha in cells:
            try:
                cell = cli.run_single(ocp, n, n, alpha)
            except Exception as exc:  # noqa: BLE001 - a failing cell is fingerprinted too
                cell = exc
            result[f"seed={seed} N={n} alpha={alpha:g}"] = fingerprint(n, cell)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{len(result)} cell fingerprints written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
