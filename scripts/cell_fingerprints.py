#!/usr/bin/env python3

"""Solve every cell and make every operator build that the benchmark does,
and write one SHA-256 per cell and per build to OUT.json, so that two
checkouts can be compared for byte-identical results of all three workloads
with one diff.  A solved cell's value reads "<sha256> J=<repr(J)>
iterations=<n>", so the diff also shows how far J and the CG step count
moved where the bytes differ.

The cells are the paper_sweep grid (N = 4..12 by 14 alphas), the
ladder_large cells N = 16, 24, 32 at alpha = 0 and the warm-up cell, each at
the profiles that seeds 5 and 41 draw: 258 distinct cells, all run through
`gegopt.cli.run_single`.  A cell's hash covers z, the multipliers, x, phi,
u, J, the CG iteration count, kkt_condition, psi1, psi2, feasibility and
kkt_residual, and for N <= 12 also the dense H and Q and b, c and j0.  The
builds are the 12 operators_highdeg builds (n = 128..1024 by 3 alphas) at
each seed's interval length, made by `perfbench.workloads.run_operators`:
24 builds, each hashed over P1, its full-interval row, P2 and the error
bound at every node.  A cell or build that raises is hashed by its error.
Last, one seed-5 paper_sweep pass (`perfbench.workloads.run_sweep`) writes
its files to a temporary directory, and each file is hashed by its bytes:
252 solution and profile CSVs, config.json, and report.csv, whose
wall_time_s column, the one field that differs between identical runs, is
dropped before hashing.
The script imports the gegopt and perfbench of the checkout it sits in, so
to fingerprint another checkout, run a copy of it placed in that checkout.

$ python3 scripts/cell_fingerprints.py after.json
$ diff before.json after.json
"""

import argparse
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: Seeds whose profiles the cells are solved at.
SEEDS = (5, 41)

#: Largest N whose dense H and Q are hashed.
DENSE_N = 12

#: Seed whose paper_sweep pass has every file it writes hashed.
SWEEP_SEED = 5


def _digest(outcome) -> str:
    """SHA-256 over a list of (name, array) pairs, each array taken as
    float64 bytes, or of the exception that the outcome is."""
    digest = hashlib.sha256()
    if isinstance(outcome, Exception):
        digest.update(f"error: {outcome!r}".encode())
        return digest.hexdigest()
    for name, value in outcome:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    return digest.hexdigest()


def fingerprint(n: int, cell) -> str:
    """SHA-256 of a solved cell, the (record, solution) pair of
    `run_single`, followed by its J and CG iteration count, or SHA-256 of
    the exception it raised."""
    if isinstance(cell, Exception):
        return _digest(cell)
    record, sol = cell
    sources = [
        (sol, ("z", "phi", "u", "x")),
        (sol.qp_solution, ("multipliers", "iterations", "kkt_condition")),
        (record, ("j", "psi1", "psi2", "feasibility", "kkt_residual")),
    ]
    if n <= DENSE_N:
        sources.append((sol.transcription.qp, ("H", "Q", "b", "c", "j0")))
    digest = _digest([(name, getattr(source, name)) for source, names in sources for name in names])
    return f"{digest} J={float(record.j)!r} iterations={sol.qp_solution.iterations}"


def operator_fingerprint(build) -> str:
    """SHA-256 of one (rule, P1, P2, bound) build of `run_operators`, or of
    the exception it raised."""
    if isinstance(build, Exception):
        return _digest(build)
    _, first, second, bound = build
    return _digest(
        [
            ("P1", first.matrix),
            ("full_interval_row", first.full_interval_row),
            ("P2", second.matrix),
            ("bound", bound),
        ]
    )


def file_fingerprints(out: Path) -> dict[str, str]:
    """SHA-256 of every file under `out`, keyed by its path relative to
    `out`; report.csv is hashed without its wall_time_s column."""
    result = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "report.csv":
            rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
            drop = rows[0].index("wall_time_s")
            data = json.dumps([row[:drop] + row[drop + 1 :] for row in rows]).encode()
        result[path.relative_to(out).as_posix()] = hashlib.sha256(data).hexdigest()
    return result


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
    builds = [(n, alpha) for n in workloads.OPERATOR_N for alpha in workloads.OPERATOR_ALPHAS]
    for seed in SEEDS:
        inputs = oracle.draw_inputs(seed)
        ocp = workloads.ocp_for(inputs)
        for n, alpha in cells:
            try:
                cell = cli.run_single(ocp, n, n, alpha)
            except Exception as exc:  # noqa: BLE001 - a failing cell is fingerprinted too
                cell = exc
            result[f"seed={seed} N={n} alpha={alpha:g}"] = fingerprint(n, cell)
        for (n, alpha), build in zip(builds, workloads.run_operators(inputs, None)):
            result[f"seed={seed} operators n={n} alpha={alpha:g}"] = operator_fingerprint(build)
    with tempfile.TemporaryDirectory() as tmp:
        workloads.run_sweep(oracle.draw_inputs(SWEEP_SEED), Path(tmp))
        for name, digest in file_fingerprints(Path(tmp)).items():
            result[f"seed={SWEEP_SEED} paper_sweep {name}"] = digest
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"{len(result)} fingerprints written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
