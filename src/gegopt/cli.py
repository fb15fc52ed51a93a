"""Experiment runner and command-line entry point.

One cell of an experiment is a triple (N_y, N_t, alpha): build the rules,
transcribe, solve, recover the state and score the solution.  Two scores
accompany the objective:

  psi1: largest mismatch between the interpolated state at t = 0 and the
        prescribed initial profile over a uniform sample of [0, L];
  psi2: largest magnitude of the full-interval integral of the curvature
        variable across time nodes (how well the zero-flux closure holds).

A sweep runs a grid of cells, writes one report row per cell plus per-cell
solution and profile files (written by writer processes while the next
cells solve), and keeps going when individual cells fail (recording the
failure in the report).  Exit codes: 0 all cells solved,
1 configuration error, 2 sweep finished with at least one failed cell.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import pickle
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .interp import eval2d_grid
from .nodes import QuadratureRule, sgg_rule
from .polycore import BasisSpec
from .qpsolve import QpSolution, solve
from .transcribe import DiffusionOcp, Transcription, build, recover_state

__all__ = [
    "ALPHA_WINDOW",
    "RunConfig",
    "RunRecord",
    "OcpSolution",
    "ConfigError",
    "parse_initial_profile",
    "run_single",
    "run_sweep",
    "emit_profiles",
    "main",
]


#: The open window of family parameters a run accepts.  At alpha <= -1/2 the
#: Gegenbauer weight is not integrable; from alpha = 2 on the solver's
#: |J - J*| stops falling with N, and from alpha = 3 on the full-interval
#: weights go negative.
ALPHA_WINDOW = (-0.5, 2.0)


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 1)."""


@dataclass(frozen=True)
class RunConfig:
    """One experiment: problem data plus the cells to run."""

    length: float = 4.0
    t_final: float = 1.0
    r1: float = 0.5
    r2: float = 0.5
    f_spec: str = "affine:1,1"
    n_y: tuple[int, ...] = (8,)
    n_t: tuple[int, ...] | None = None
    alphas: tuple[float, ...] = (0.0,)
    sweep: bool = False
    out: Path | None = None
    eval_grid: int = 101
    dump_matrices: bool = False

    def __post_init__(self) -> None:
        if self.eval_grid < 2:
            raise ConfigError("eval grid needs at least two sample points")
        for n in (*self.n_y, *(self.n_t or ())):
            if n < 1:
                raise ConfigError(f"grid size {n} is below 1")
        low, high = ALPHA_WINDOW
        for alpha in self.alphas:
            if not low < alpha < high:
                raise ConfigError(f"alpha={alpha:g} is outside the window ({low:g}, {high:g})")

    def cells(self) -> list[tuple[int, int, float]]:
        """Deterministic cell list, sorted by grid size then alpha."""
        if self.n_t is None:
            pairs = [(n, n) for n in self.n_y]
        elif len(self.n_t) == 1:
            pairs = [(n, self.n_t[0]) for n in self.n_y]
        elif len(self.n_t) == len(self.n_y):
            pairs = list(zip(self.n_y, self.n_t))
        else:
            raise ConfigError("--Nt must be a single value or match --Ny in length")
        cells = sorted({(ny, nt, a) for ny, nt in pairs for a in self.alphas})
        if not self.sweep and len(cells) > 1:
            raise ConfigError("multiple cells requested without --sweep")
        return cells


#: The `RunConfig` field of each command-line flag named otherwise; the
#: flag's name is also the field's key in config.json.
_FIELDS = {
    "L": "length", "tf": "t_final", "f": "f_spec", "Ny": "n_y", "Nt": "n_t", "alpha": "alphas",
}


@dataclass(frozen=True)
class RunRecord:
    """One report row."""

    n_y: int
    n_t: int
    alpha: float
    j: float = float("nan")
    feasibility: float = float("nan")
    psi1: float = float("nan")
    psi2: float = float("nan")
    kkt_residual: float = float("nan")
    wall_time_s: float = float("nan")
    error: str = ""


@dataclass(frozen=True)
class OcpSolution:
    """Solved cell: unknown vector and grid fields.  Its objective and
    quality scores are in the cell's `RunRecord`.

    phi, u and x have shape (N_y + 2, N_t + 1): rows 0..N_y are interior
    space nodes, row N_y + 1 is the boundary y = 0.
    """

    transcription: Transcription
    qp_solution: QpSolution
    z: np.ndarray
    phi: np.ndarray
    u: np.ndarray
    x: np.ndarray


def parse_initial_profile(spec: str) -> Callable[[float], float]:
    """Initial-profile parser: 'affine:a,b' means a + b y, 'poly:c0,c1,...'
    a polynomial in y with the listed coefficients."""
    try:
        kind, _, payload = spec.partition(":")
        coeffs = [float(v) for v in payload.split(",")] if payload else []
        if not np.isfinite(coeffs).all():
            raise ValueError
        if kind == "affine":
            if len(coeffs) != 2:
                raise ValueError
            a, b = coeffs
            return lambda y: a + b * y
        if kind == "poly":
            if not coeffs:
                raise ValueError
            poly = np.polynomial.Polynomial(coeffs)
            return lambda y: float(poly(y))
    except ValueError:
        pass
    raise ConfigError(f"cannot parse initial profile {spec!r}")


@contextlib.contextmanager
def _stage(name: str, ny: int, nt: int, alpha: float):
    """Re-raise a failure inside the block as a RuntimeError naming the stage
    and cell; a RuntimeError passes through unchanged."""
    try:
        yield
    except RuntimeError:
        raise
    except Exception as exc:
        raise RuntimeError(
            f"stage {name!r} failed for N_y={ny}, N_t={nt}, alpha={alpha}: {exc}"
        ) from exc


def run_single(
    ocp: DiffusionOcp, n_y: int, n_t: int, alpha: float, eval_grid: int = RunConfig.eval_grid
) -> tuple[RunRecord, OcpSolution]:
    """Build, solve and score one cell."""
    if eval_grid < 2:
        raise ConfigError("eval grid needs at least two sample points")
    start = time.perf_counter()
    with _stage("rules", n_y, n_t, alpha):
        rule_y = sgg_rule(BasisSpec(alpha=alpha, length=ocp.length, degree=n_y))
        rule_t = sgg_rule(BasisSpec(alpha=alpha, length=ocp.t_final, degree=n_t))
    with _stage("transcribe", n_y, n_t, alpha):
        trans = build(ocp, rule_y, rule_t)
    with _stage("solve", n_y, n_t, alpha):
        qp = trans.qp
        sol = solve(qp)
    with _stage("recover", n_y, n_t, alpha):
        phi, u = trans.grid.fields(sol.z)
        x = recover_state(sol.z, qp)
        ys = np.linspace(0.0, ocp.length, eval_grid)
        f_vals = np.array([float(ocp.initial(v)) for v in ys])
        x0 = eval2d_grid(rule_y, rule_t, x[: n_y + 1, :], ys, [0.0])[:, 0]
        psi1 = float(np.max(np.abs(x0 - f_vals)))
        psi2 = float(np.max(np.abs(trans.op_y1.full_interval_row @ phi[: n_y + 1, :])))
    wall = time.perf_counter() - start
    record = RunRecord(
        n_y=n_y,
        n_t=n_t,
        alpha=alpha,
        j=sol.j,
        feasibility=sol.feasibility,
        psi1=psi1,
        psi2=psi2,
        kkt_residual=sol.kkt_residual,
        wall_time_s=wall,
    )
    solution = OcpSolution(transcription=trans, qp_solution=sol, z=sol.z, phi=phi, u=u, x=x)
    return record, solution


def _cell_tag(n_y: int, n_t: int, alpha: float) -> str:
    n = str(n_y) if n_y == n_t else f"{n_y}x{n_t}"
    return f"{n}_{alpha:g}"


def _fill(template: str, values: np.ndarray) -> str:
    """`template % values`, the values taken in row order.  Writers build
    the template from %.16e fields and \\r\\n endings: the bytes csv.writer
    gives for f"{v:.16e}"."""
    return template % tuple(values.ravel().tolist())


def _write_solution_csv(
    path: Path, y_nodes: np.ndarray, t_nodes: np.ndarray,
    phi: np.ndarray, u: np.ndarray, x: np.ndarray,
) -> None:
    y_aug = np.append(y_nodes, 0.0)
    i, j = np.divmod(np.arange(y_aug.size * t_nodes.size), t_nodes.size)
    rows = np.column_stack([i, j, y_aug[i], t_nodes[j], phi.ravel(), u.ravel(), x.ravel()])
    fmt = "%d,%d,%.16e,%.16e,%.16e,%.16e,%.16e\r\n"
    path.write_text(_fill("i,j,y,t,phi,u,x\r\n" + fmt * len(rows), rows), newline="")


def _profile_samples(
    rule_y: QuadratureRule, rule_t: QuadratureRule, x: np.ndarray, u: np.ndarray, samples: int
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The uniform samples ys and ts, the midline's y, and the (x, u) rows
    of the state and control interpolants over the interior rows of the
    (N_y + 2, N_t + 1) grids x and u: the full samples x samples tensor grid
    (y outer), then the midline at each t."""
    rules = (rule_y, rule_t)
    ys = np.linspace(0.0, rule_y.spec.length, samples)
    ts = np.linspace(0.0, rule_t.spec.length, samples)
    mid = 0.5 * rule_y.spec.length
    x, u = (
        np.concatenate([eval2d_grid(*rules, v, ys, ts).ravel(),
                        eval2d_grid(*rules, v, [mid], ts)[0]])
        for v in (x[: rule_y.nodes.size], u[: rule_y.nodes.size])
    )
    return ys, ts, mid, np.column_stack([x, u])


def emit_profiles(sol: OcpSolution, samples: int) -> list[tuple[str, float, float, float, float]]:
    """Uniform samples of the state and control interpolants.

    Returns (section, y, t, x, u) tuples: a full tensor grid, then a slice
    along the spatial midline.
    """
    trans = sol.transcription
    ys, ts, mid, xu = _profile_samples(trans.rule_y, trans.rule_t, sol.x, sol.u, samples)
    ts = ts.tolist()
    heads = [("grid", y) for y in ys.tolist()] + [("midline", mid)]
    coords = ((section, y, t) for section, y in heads for t in ts)
    return [(*c, x, u) for c, x, u in zip(coords, *xu.T.tolist())]


def _profile_template(ys: np.ndarray, ts: np.ndarray, mid: float) -> str:
    """The profile file with x and u left as %.16e fields: the header, one
    grid row per (y, t), y outer, then one midline row per t.  Each
    coordinate is formatted once."""
    tails = ["%.16e,%%.16e,%%.16e\r\n" % t for t in ts.tolist()]
    heads = ["grid,%.16e," % y for y in ys.tolist()] + ["midline,%.16e," % mid]
    return "".join(["section,y,t,x,u\r\n", *(head + head.join(tails) for head in heads)])


def _write_profiles_csv(
    path: Path, rule_y: QuadratureRule, rule_t: QuadratureRule,
    x: np.ndarray, u: np.ndarray, samples: int,
) -> None:
    ys, ts, mid, xu = _profile_samples(rule_y, rule_t, x, u, samples)
    path.write_text(_fill(_profile_template(ys, ts, mid), xu), newline="")


def _dump_matrices(
    out_dir: Path, h: np.ndarray, q: np.ndarray, b: np.ndarray, c: np.ndarray,
    j0: float, n_y: int, n_t: int,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, arr in (("H", h), ("Q", q), ("b", b[:, None]), ("c", c[:, None])):
        fmt = ",".join(["%.16e"] * arr.shape[1]) + "\r\n"
        (out_dir / f"{name}.csv").write_text(_fill(fmt * len(arr), arr), newline="")
    meta = {
        "j0": j0,
        "n_y": n_y,
        "n_t": n_t,
        "H_shape": list(h.shape),
        "Q_shape": list(q.shape),
        "layout": "Z = [phi block, u block], blocks time-major with one y=0 column per time node",
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def _write_cell_files(
    out: Path, tag: str, rule_y: QuadratureRule, rule_t: QuadratureRule,
    phi: np.ndarray, u: np.ndarray, x: np.ndarray, samples: int,
) -> None:
    """One cell's solution and profile files: the job a writer process runs."""
    _write_solution_csv(out / f"solution_{tag}.csv", rule_y.nodes, rule_t.nodes, phi, u, x)
    _write_profiles_csv(out / f"profiles_{tag}.csv", rule_y, rule_t, x, u, samples)


def _write_report(path: Path, records: Sequence[RunRecord]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["N_y", "N_t", "alpha", "J", "feasibility", "psi1", "psi2",
             "kkt_residual", "wall_time_s", "error"]
        )
        for r in records:
            writer.writerow(
                [r.n_y, r.n_t, f"{r.alpha:g}"]
                + [f"{v:.16e}" for v in (r.j, r.feasibility, r.psi1, r.psi2,
                                         r.kkt_residual, r.wall_time_s)]
                + [r.error]
            )


def _serve(job_fd: int, result_fd: int) -> None:
    """A writer process's loop: run each pickled (function, args) job read
    from job_fd until the sender closes it, skipping the rest once one
    raises; then write that exception, pickled, to result_fd."""
    error = None
    with open(job_fd, "rb") as jobs:
        while True:
            try:
                fn, args = pickle.load(jobs)
            except EOFError:
                break
            if error is None:
                try:
                    fn(*args)
                except Exception as exc:  # noqa: BLE001 - raised again by the pool
                    error = exc
    with open(result_fd, "wb") as result:
        if error is not None:
            pickle.dump(error, result)


class _WriterPool:
    """Writer processes, one per available core, forked on entry.  `submit`
    sends a job to each in turn (blocking while that one's pipe is full);
    leaving the block waits for every job and joins every writer, then
    raises the first job's exception, or a writer's abnormal exit.

    It needs only os and pickle, which NumPy has loaded: a
    concurrent.futures pool, with its imports and threads, added about
    2.4 MB to the peak RSS of a process running the paper's sweep.
    """

    def __init__(self) -> None:
        self._workers: list[tuple[int, int, int]] = []  # pid, job fd, result fd
        self._turn = 0

    def __enter__(self) -> _WriterPool:
        try:
            for _ in range(len(os.sched_getaffinity(0))):
                self._fork()
        except BaseException:
            self._join()
            raise
        return self

    def _fork(self) -> None:
        job_r, job_w = os.pipe()
        result_r, result_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (job_r, job_w, result_r, result_w):
                os.close(fd)
            raise
        if pid == 0:  # the writer; it leaves only through os._exit
            code = 1
            try:
                inherited = [fd for _, job, result in self._workers for fd in (job, result)]
                for fd in (job_w, result_r, *inherited):
                    os.close(fd)
                _serve(job_r, result_w)
                code = 0
            finally:
                os._exit(code)
        os.close(job_r)
        os.close(result_w)
        self._workers.append((pid, job_w, result_r))

    def submit(self, fn: Callable, *args) -> None:
        pid, fd, _ = self._workers[self._turn % len(self._workers)]
        self._turn += 1
        data = memoryview(pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL))
        try:
            while data:
                data = data[os.write(fd, data):]
        except BrokenPipeError as exc:
            raise RuntimeError(f"writer process {pid} has exited") from exc

    def _join(self) -> Exception | None:
        """Close the job pipes, wait for every writer, and return the first
        failure."""
        for _, fd, _ in self._workers:
            os.close(fd)
        ends = []
        for pid, _, result_fd in self._workers:
            with open(result_fd, "rb") as result:
                ends.append((pid, result.read(), os.waitpid(pid, 0)[1]))
        self._workers = []
        for pid, error, status in ends:
            if error:
                return pickle.loads(error)
            if status:
                code = os.waitstatus_to_exitcode(status)
                return RuntimeError(f"writer process {pid} exited with code {code}")
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        error = self._join()
        if exc is None and error is not None:
            raise error


def run_sweep(config: RunConfig) -> tuple[list[RunRecord], dict[tuple[int, int, float], OcpSolution]]:
    """Run every cell of the configuration; never stops at a failed cell.

    With `config.out` set, the files of each solved cell are sampled,
    formatted and written by writer processes (`_WriterPool`) while this
    process solves the next cells; report.csv and config.json are written
    here once every cell's files are.  A failed write raises, after every
    writer has been joined, and leaves no report.
    """
    cells = config.cells()
    ocp = DiffusionOcp(
        length=config.length,
        t_final=config.t_final,
        r1=config.r1,
        r2=config.r2,
        initial=parse_initial_profile(config.f_spec),
    )
    records: list[RunRecord] = []
    solutions: dict[tuple[int, int, float], OcpSolution] = {}
    out = config.out
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    with (_WriterPool() if out is not None else contextlib.nullcontext()) as pool:
        for n_y, n_t, alpha in cells:
            try:
                record, sol = run_single(ocp, n_y, n_t, alpha, config.eval_grid)
            except Exception as exc:  # noqa: BLE001 - cell failures go in the report
                records.append(RunRecord(n_y=n_y, n_t=n_t, alpha=alpha, error=str(exc)))
                continue
            records.append(record)
            solutions[(n_y, n_t, alpha)] = sol
            if pool is None:
                continue
            # Only the cell's small arrays travel; the sampled grids are made
            # in the writer.  OcpSolution does not pickle: its problem holds
            # the initial profile as a closure.
            tag, trans = _cell_tag(n_y, n_t, alpha), sol.transcription
            pool.submit(_write_cell_files, out, tag, trans.rule_y, trans.rule_t,
                        sol.phi, sol.u, sol.x, config.eval_grid)
            if config.dump_matrices:
                qp = trans.qp
                pool.submit(_dump_matrices, out / f"matrices_{tag}",
                            qp.H, qp.Q, qp.b, qp.c, qp.j0, n_y, n_t)
    if out is not None:
        _write_report(out / "report.csv", records)
        flags = {name: flag for flag, name in _FIELDS.items()}
        echo = {flags.get(f.name, f.name): getattr(config, f.name) for f in fields(config)}
        del echo["out"]
        echo["version"] = __version__
        (out / "config.json").write_text(json.dumps(echo, indent=2) + "\n")
    return records, solutions


#: Most values one range token may give: no experiment uses more than 14, and
#: the count is checked before the list is built, so 4:1e30 fails at once.
MAX_RANGE_VALUES = 10_000


def _parse_range(token: str, cast):
    """One value, or an inclusive range 'start:stop[:step]', which never
    passes its stop; a range value that `cast` would change (6.5 for int)
    is an error, not truncated."""
    if ":" not in token:
        return [cast(token)]
    parts = token.split(":")
    if len(parts) == 2:
        start, stop, step = float(parts[0]), float(parts[1]), 1.0
    elif len(parts) == 3:
        start, stop, step = (float(p) for p in parts)
    else:
        raise ConfigError(f"cannot parse range {token!r}")
    if not np.isfinite([start, stop, step]).all():
        raise ConfigError(f"range {token!r} needs a finite start, stop and step")
    if step <= 0 or stop < start:
        raise ConfigError(f"range {token!r} must ascend with positive step")
    span = (stop - start) / step + 1e-9
    if span >= MAX_RANGE_VALUES:
        raise ConfigError(f"range {token!r} gives more than {MAX_RANGE_VALUES} values")
    count = int(span) + 1
    vals = [round(start + k * step, 12) for k in range(count)]
    for v in vals:
        if cast(v) != v:
            raise ConfigError(f"range {token!r} gives {v:g}, which is not a whole number")
    return [cast(v) for v in vals]


def _values(cast):
    """argparse type: the values of one `_parse_range` token, a ValueError
    reported as an error of the flag."""
    def parse(token: str) -> list:
        try:
            return _parse_range(token, cast)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); remap to config error
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gegopt",
        description="Spectral solver for diffusion optimal control; writes CSV reports.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--L", type=float, help="domain length")
    parser.add_argument("--tf", type=float, help="time horizon")
    parser.add_argument("--r1", type=float, help="state cost weight")
    parser.add_argument("--r2", type=float, help="control cost weight")
    parser.add_argument("--f", help="initial profile: affine:a,b or poly:c0,c1,...")
    parser.add_argument(
        "--Ny", action="extend", type=_values(int),
        help="space grid size(s): value, range a:b[:s], or repeated",
    )
    parser.add_argument(
        "--Nt", action="extend", type=_values(int),
        help="time grid size(s); defaults to matching --Ny cell by cell",
    )
    parser.add_argument(
        "--alpha", action="extend", type=_values(float),
        help=f"family parameter(s) in the open window ({ALPHA_WINDOW[0]:g}, "
        f"{ALPHA_WINDOW[1]:g}): value, range a:b:s, or repeated",
    )
    parser.add_argument("--sweep", action="store_true", help="allow multi-cell runs")
    parser.add_argument("--out", type=Path, help="output directory")
    parser.add_argument(
        "--eval-grid", type=int, help="uniform samples per axis for scores and profiles"
    )
    parser.add_argument(
        "--dump-matrices", action="store_true",
        help="also write the assembled QP matrices per cell",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = vars(_build_parser().parse_args(argv))
        config = RunConfig(**{
            _FIELDS.get(flag, flag): tuple(v) if isinstance(v, list) else v
            for flag, v in args.items()
        })
        records, _ = run_sweep(config)
    except (ValueError, TypeError) as exc:  # ConfigError is a ValueError
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    failed = [r for r in records if r.error]
    for r in records:
        status = f"FAILED: {r.error}" if r.error else (
            f"J={r.j:.6f} feas={r.feasibility:.2e} psi1={r.psi1:.2e} psi2={r.psi2:.2e}"
        )
        print(f"N_y={r.n_y} N_t={r.n_t} alpha={r.alpha:g}: {status}")
    return 2 if failed else 0
