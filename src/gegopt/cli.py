"""Experiment runner and command-line entry point.

One cell of an experiment is a triple (N_y, N_t, alpha): build the rules,
transcribe, solve, recover the state and score the solution.  Two scores
accompany the objective:

  psi1: largest mismatch between the interpolated state at t = 0 and the
        prescribed initial profile over a uniform sample of [0, L];
  psi2: largest magnitude of the full-interval integral of the curvature
        variable across time nodes (how well the zero-flux closure holds).

A sweep runs a grid of cells, writes one report row per cell plus per-cell
solution and profile files, and keeps going when individual cells fail
(recording the failure in the report).  Exit codes: 0 all cells solved,
1 configuration error, 2 sweep finished with at least one failed cell.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .interp import Interpolant2D, eval2d_grid
from .nodes import sgg_rule
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
        cells = sorted(
            {(ny, nt, a) for ny, nt in pairs for a in self.alphas},
            key=lambda c: (c[0], c[1], c[2]),
        )
        if not self.sweep and len(cells) > 1:
            raise ConfigError("multiple cells requested without --sweep")
        return cells


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
    ocp: DiffusionOcp, n_y: int, n_t: int, alpha: float, eval_grid: int = 101
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
        state_interp = Interpolant2D(rule_y, rule_t, x[: n_y + 1, :])
        ys = np.linspace(0.0, ocp.length, eval_grid)
        f_vals = np.array([float(ocp.initial(v)) for v in ys])
        psi1 = float(np.max(np.abs(eval2d_grid(state_interp, ys, [0.0])[:, 0] - f_vals)))
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


def _csv_rows(fmt: str, rows: np.ndarray) -> str:
    """`fmt % row` for each row of a 2-D array, joined.  Callers use %.16e
    fields and a \\r\\n ending: the bytes csv.writer gives for f"{v:.16e}"."""
    return "".join(map(fmt.__mod__, map(tuple, rows.tolist())))


def _write_solution_csv(path: Path, sol: OcpSolution) -> None:
    y_aug = np.append(sol.transcription.rule_y.nodes, 0.0)
    t_nodes = sol.transcription.rule_t.nodes
    i, j = np.divmod(np.arange(y_aug.size * t_nodes.size), t_nodes.size)
    rows = np.column_stack(
        [i, j, y_aug[i], t_nodes[j], sol.phi.ravel(), sol.u.ravel(), sol.x.ravel()]
    )
    fmt = "%d,%d,%.16e,%.16e,%.16e,%.16e,%.16e\r\n"
    path.write_text("i,j,y,t,phi,u,x\r\n" + _csv_rows(fmt, rows), newline="")


def _profile_samples(sol: OcpSolution, samples: int) -> tuple[np.ndarray, np.ndarray]:
    """(y, t, x, u) rows of the state and control interpolants: the full
    samples x samples tensor grid (y outer), then the spatial midline."""
    trans = sol.transcription
    n_y = trans.grid.n_y
    x_interp = Interpolant2D(trans.rule_y, trans.rule_t, sol.x[: n_y + 1, :])
    u_interp = Interpolant2D(trans.rule_y, trans.rule_t, sol.u[: n_y + 1, :])
    ys = np.linspace(0.0, trans.ocp.length, samples)
    ts = np.linspace(0.0, trans.ocp.t_final, samples)
    grid = np.column_stack([
        np.repeat(ys, samples), np.tile(ts, samples),
        eval2d_grid(x_interp, ys, ts).ravel(), eval2d_grid(u_interp, ys, ts).ravel(),
    ])
    mid = 0.5 * trans.ocp.length
    midline = np.column_stack([
        np.full(samples, mid), ts,
        eval2d_grid(x_interp, [mid], ts)[0], eval2d_grid(u_interp, [mid], ts)[0],
    ])
    return grid, midline


def emit_profiles(sol: OcpSolution, samples: int) -> list[tuple[str, float, float, float, float]]:
    """Uniform samples of the state and control interpolants.

    Returns (section, y, t, x, u) tuples: a full tensor grid, then a slice
    along the spatial midline.
    """
    grid, midline = _profile_samples(sol, samples)
    return [("grid", *row) for row in grid.tolist()] + [
        ("midline", *row) for row in midline.tolist()
    ]


def _write_profiles_csv(path: Path, sol: OcpSolution, samples: int) -> None:
    grid, midline = _profile_samples(sol, samples)
    path.write_text(
        "section,y,t,x,u\r\n"
        + _csv_rows("grid,%.16e,%.16e,%.16e,%.16e\r\n", grid)
        + _csv_rows("midline,%.16e,%.16e,%.16e,%.16e\r\n", midline),
        newline="",
    )


def _dump_matrices(out_dir: Path, sol: OcpSolution) -> None:
    qp = sol.transcription.qp
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, arr in (("H", qp.H), ("Q", qp.Q), ("b", qp.b[:, None]), ("c", qp.c[:, None])):
        fmt = ",".join(["%.16e"] * arr.shape[1]) + "\r\n"
        (out_dir / f"{name}.csv").write_text(_csv_rows(fmt, arr), newline="")
    meta = {
        "j0": qp.j0,
        "n_y": qp.grid.n_y,
        "n_t": qp.grid.n_t,
        "H_shape": list(qp.H.shape),
        "Q_shape": list(qp.Q.shape),
        "layout": "Z = [phi block, u block], blocks time-major with one y=0 column per time node",
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


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


def run_sweep(config: RunConfig) -> tuple[list[RunRecord], dict[tuple[int, int, float], OcpSolution]]:
    """Run every cell of the configuration; never stops at a failed cell."""
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
    for n_y, n_t, alpha in cells:
        try:
            record, sol = run_single(ocp, n_y, n_t, alpha, config.eval_grid)
        except Exception as exc:  # noqa: BLE001 - cell failures go in the report
            records.append(RunRecord(n_y=n_y, n_t=n_t, alpha=alpha, error=str(exc)))
            continue
        records.append(record)
        solutions[(n_y, n_t, alpha)] = sol
        if out is not None:
            tag = _cell_tag(n_y, n_t, alpha)
            _write_solution_csv(out / f"solution_{tag}.csv", sol)
            _write_profiles_csv(out / f"profiles_{tag}.csv", sol, config.eval_grid)
            if config.dump_matrices:
                _dump_matrices(out / f"matrices_{tag}", sol)
    if out is not None:
        _write_report(out / "report.csv", records)
        echo = {
            "L": config.length,
            "tf": config.t_final,
            "r1": config.r1,
            "r2": config.r2,
            "f": config.f_spec,
            "Ny": list(config.n_y),
            "Nt": list(config.n_t) if config.n_t is not None else None,
            "alpha": list(config.alphas),
            "sweep": config.sweep,
            "eval_grid": config.eval_grid,
            "dump_matrices": config.dump_matrices,
            "version": __version__,
        }
        (out / "config.json").write_text(json.dumps(echo, indent=2) + "\n")
    return records, solutions


def _parse_range(token: str, cast):
    """One value, or an inclusive range 'start:stop[:step]'."""
    if ":" not in token:
        return [cast(token)]
    parts = token.split(":")
    if len(parts) == 2:
        start, stop, step = float(parts[0]), float(parts[1]), 1.0
    elif len(parts) == 3:
        start, stop, step = (float(p) for p in parts)
    else:
        raise ConfigError(f"cannot parse range {token!r}")
    if step <= 0 or stop < start:
        raise ConfigError(f"range {token!r} must ascend with positive step")
    count = int(round((stop - start) / step)) + 1
    vals = [start + k * step for k in range(count)]
    return [cast(round(v, 12)) for v in vals]


def _collect(tokens: list[str] | None, cast) -> tuple | None:
    if not tokens:
        return None
    out: list = []
    for token in tokens:
        out.extend(_parse_range(token, cast))
    return tuple(out)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); remap to config error
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="gegopt",
        description="Spectral solver for diffusion optimal control; writes CSV reports.",
    )
    parser.add_argument("--L", type=float, default=RunConfig.length, help="domain length")
    parser.add_argument("--tf", type=float, default=RunConfig.t_final, help="time horizon")
    parser.add_argument("--r1", type=float, default=RunConfig.r1, help="state cost weight")
    parser.add_argument("--r2", type=float, default=RunConfig.r2, help="control cost weight")
    parser.add_argument(
        "--f", default=RunConfig.f_spec, help="initial profile: affine:a,b or poly:c0,c1,..."
    )
    parser.add_argument(
        "--Ny", action="append", default=None,
        help="space grid size(s): value, range a:b[:s], or repeated",
    )
    parser.add_argument(
        "--Nt", action="append", default=None,
        help="time grid size(s); defaults to matching --Ny cell by cell",
    )
    parser.add_argument(
        "--alpha", action="append", default=None,
        help=f"family parameter(s) in the open window ({ALPHA_WINDOW[0]:g}, "
        f"{ALPHA_WINDOW[1]:g}): value, range a:b:s, or repeated",
    )
    parser.add_argument("--sweep", action="store_true", help="allow multi-cell runs")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    parser.add_argument(
        "--eval-grid", type=int, default=RunConfig.eval_grid,
        help="uniform samples per axis for scores and profiles",
    )
    parser.add_argument(
        "--dump-matrices", action="store_true",
        help="also write the assembled QP matrices per cell",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        config = RunConfig(
            length=args.L,
            t_final=args.tf,
            r1=args.r1,
            r2=args.r2,
            f_spec=args.f,
            n_y=_collect(args.Ny, int) or RunConfig.n_y,
            n_t=_collect(args.Nt, int),
            alphas=_collect(args.alpha, float) or RunConfig.alphas,
            sweep=args.sweep,
            out=args.out,
            eval_grid=args.eval_grid,
            dump_matrices=args.dump_matrices,
        )
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
