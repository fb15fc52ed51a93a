#!/usr/bin/env python3
"""Run one gegopt benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_sweep --seed 13 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 13 --seconds 20

Run from the repository root.  One run, in this process:

1. times ``SETUP_SAMPLES`` fresh processes that each import gegopt, NumPy
   and SciPy and solve one small warm-up cell (after one unrecorded process
   that may compile bytecode); ``setup_s`` is their median;
2. draws the inputs from ``--seed``, solves and checks the warm-up cell here;
3. runs passes over the workload back to back (closed loop) for about
   ``--seconds`` seconds, at least one, and checks every pass's outputs.
   With ``--trace 1`` one unrecorded pass comes first, then half of that
   time runs plain passes and the other half traced ones, which give the
   per-layer figures and ``trace.overhead_s``.

Lines before the last describe the environment, each metric with its unit,
and any failed operation.  The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics).  BLAS
threads are pinned to min(2, available cores).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("paper_sweep", "ladder_large", "operators_highdeg")
SETUP_SAMPLES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = (
    "import sys; from perfbench import oracle, workloads; "
    "workloads.warm_up(oracle.draw_inputs(int(sys.argv[1])))"
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one gegopt benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for the passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ, **{var: str(threads) for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def measure_setup(seed: int, env: dict[str, str]) -> list[float]:
    """Wall seconds of fresh set-up processes; the first is not recorded."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(seed)], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times[1:]


def filesystem_of(path: Path) -> str:
    """Type of the mount holding `path`, from /proc/self/mounts."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1] if len(fields) > 2 else ""
                inside = path == Path(mount) or Path(mount) in path.parents
                if mount and inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int, threads: int, workdir: Path) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy before 1.25 prints its config only
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "artifact_fs": filesystem_of(workdir),
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_passes(workload, inputs, workdir: Path, budget: float, tracer=None):
    """Passes back to back until the next would end past `budget` seconds;
    returns (wall of each pass, merged outcome)."""
    from perfbench import spans, workloads

    walls, outcome = [], workloads.Outcome()
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passdir = workdir / f"pass{len(walls)}"
        try:
            if tracer is None:
                raw = workload.run(inputs, passdir)
            else:
                with spans.traced(tracer):
                    raw = workload.run(inputs, passdir)
            walls.append(time.perf_counter() - pass_start)
            outcome.merge(workload.check(inputs, raw, passdir))
        finally:
            shutil.rmtree(passdir, ignore_errors=True)
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > budget:  # the next pass would overrun
            return walls, outcome


def run_workload(args: argparse.Namespace) -> dict:
    threads = min(2, len(os.sched_getaffinity(0)))
    env = child_env(threads)
    os.environ.update({var: env[var] for var in BLAS_THREAD_VARS})  # before NumPy loads
    setup_times = [] if args.trace else measure_setup(args.seed, env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import oracle, spans, workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    inputs = oracle.draw_inputs(args.seed)
    rundir = ROOT / ".perfbench-run"
    workdir = rundir / f"{args.workload}-{os.getpid()}"
    print("env", json.dumps(environment(args.seed, threads, rundir)))
    print(f"inputs f(y) = {inputs.a!r} + {inputs.b!r} y, operator length {inputs.operator_length!r}")

    warm = workloads.warm_up(inputs)
    try:
        if args.trace:
            # One unrecorded pass first, so the plain and the traced passes
            # both run with the process's caches filled.
            _, outcome = run_passes(workload, inputs, workdir, 0.0)
            plain, plain_outcome = run_passes(workload, inputs, workdir, args.seconds / 2)
            outcome.merge(plain_outcome)
            tracer = spans.Tracer()
            traced, traced_outcome = run_passes(workload, inputs, workdir, args.seconds / 2, tracer)
            outcome.merge(traced_outcome)
        else:
            plain, outcome = run_passes(workload, inputs, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    j_err_max = outcome.j_err_max if workload.solver else warm.j_err_max
    outcome.merge(warm)

    if args.trace:
        figures = spans.layer_figures(tracer, len(traced))
        figures["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        figures["failed_frac"] = outcome.failed / outcome.attempted
        declared = spec["per_layer"]
        write_trace(rundir / f"trace-{args.workload}-seed{args.seed}.jsonl", tracer)
    else:
        figures = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "j_err_max": j_err_max,
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{args.workload:18} {name:42} {m['value']:.6g} {m['unit']}")
    print(f"passes {len(plain)} plain" + (f", {len(traced)} traced" if args.trace else ""))
    for problem in outcome.problems:
        print("FAILED", problem)
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def write_trace(path: Path, tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for index, s in enumerate(tracer.spans):
            fh.write(json.dumps({"id": index, "name": s.name, "start": s.start, "end": s.end,
                                 "parent": s.parent, "cell": s.cell}) + "\n")


def run_all(args: argparse.Namespace) -> dict:
    """Every workload, each in a fresh process; one summary line per metric."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        results[name] = json.loads(last)
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gegopt" / "__init__.py").is_file():
        print(f"no gegopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
