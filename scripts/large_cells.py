#!/usr/bin/env python3

"""Solve the benchmark problem (L=4, tf=1, r1=r2=1/2, f(y) = 1 + y) on the
N = 64 and N = 96 grids at alpha = 0, each cell in a fresh process, and
report its wall time, peak resident memory and cost error |J - J*|.

Before transcribed cells were solved from their Kronecker factors, the
N = 64 cell took 7.0 s and peaked at 2.0 GB on a 2-core machine with
2 BLAS threads.  Each process may map at most MEMORY_CAP bytes, so a cell
that needs more fails with a MemoryError instead of exhausting the machine;
a failed cell is reported with its exit status and last error line.

$ python3 scripts/large_cells.py
"""

import argparse
import json
import resource
import subprocess
import sys

#: Grid sizes N = N_y = N_t, solved at ALPHA.
SIZES = (64, 96)
ALPHA = 0.0

#: Address space allowed to each cell's process.
MEMORY_CAP = 3 * 2**30

#: Exact optimum of the problem for f = 1 + y (perfbench/oracle.py,
#: modal_optimum(1.0, 1.0)).
J_STAR = 15.00031138576968

CHILD = """
import json, resource, sys, time
from gegopt.cli import run_single
from gegopt.transcribe import DiffusionOcp
n, alpha = int(sys.argv[1]), float(sys.argv[2])
ocp = DiffusionOcp(length=4.0, t_final=1.0, r1=0.5, r2=0.5, initial=lambda y: 1.0 + y)
start = time.perf_counter()
record, sol = run_single(ocp, n, n, alpha)
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": wall,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "j": record.j,
    "feasibility": record.feasibility,
    "kkt_condition": sol.qp_solution.kkt_condition,
}))
"""


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_cell(n: int) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(n), str(ALPHA)],
        capture_output=True,
        text=True,
        check=False,
        preexec_fn=_cap_memory,
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["(no error output)"]
        return f"failed with exit status {proc.returncode}: {lines[-1]}"
    cell = json.loads(proc.stdout.strip().splitlines()[-1])
    return (
        f"{cell['wall_s']:.2f} s, peak RSS {cell['peak_rss_mb']:.0f} MB, "
        f"J = {cell['j']:.15f}, |J - J*| = {abs(cell['j'] - J_STAR):.1e}, "
        f"feasibility {cell['feasibility']:.1e}, "
        f"condition estimate {cell['kkt_condition']:.2e}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.parse_args(argv)
    for n in SIZES:
        dim = (n + 3) * (n + 1)
        print(f"N = {n}, alpha = {ALPHA:g} (condensed saddle matrix {dim} square): "
              f"{run_cell(n)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
