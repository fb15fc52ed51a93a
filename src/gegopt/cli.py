"""Experiment runner and command-line entry point.

One cell of an experiment is a triple (N_y, N_t, alpha): build the rules,
transcribe, solve, recover the state and score the solution.  Two scores
accompany the objective:

  psi1: largest mismatch between the interpolated state at t = 0 and the
        prescribed initial profile over a uniform sample of [0, L];
  psi2: largest magnitude of the full-interval integral of the curvature
        variable across time nodes (how well the zero-flux closure holds).

A sweep runs a grid of cells, writes each solved cell's solution and
profile files as soon as it solves, then one report row per cell, and
keeps going when individual cells fail (recording the failure in the
report).  Every computed CSV field is `%.16e`, converted from NumPy arrays
by `_format16e`.  Exit codes: 0 all cells solved,
1 configuration error, 2 sweep finished with at least one failed cell.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
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


def _check_alpha(alpha: float) -> None:
    """Raise ConfigError for a family parameter outside ALPHA_WINDOW."""
    low, high = ALPHA_WINDOW
    if not low < alpha < high:
        raise ConfigError(f"alpha={alpha:g} is outside the window ({low:g}, {high:g})")


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
        for alpha in self.alphas:
            _check_alpha(alpha)

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
    _check_alpha(alpha)
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


#: Bytes of one %.16e field: "-1.2345678901234567e-308" at most.
_FIELD = 24

#: 10^k is tabled for |k| <= _POWERS, past 16 - E for every double.
_POWERS = 350

#: Mantissa bits np.longdouble needs for `_format16e`'s own digits (x87
#: has 63); with fewer, as where it is float64, every value goes to %.
_MANTISSA_BITS = 63

#: Bytes of text `_write_csv` assembles at a time: about 2,400 profile rows.
_BLOCK_BYTES = 1 << 18


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """By i = k + _POWERS: 10^k in np.longdouble, parsed from "1e{k}" so
    that it is correctly rounded, the tie window and the exponent 16 - k;
    then the 4-byte words "[-]d.d", "dddd" and "ddde"."""
    ks = np.arange(-_POWERS, _POWERS + 1)
    words = (
        [b"%+03d" % (16 - k) for k in ks],
        [b"%s%d.%d" % (sign, d // 10, d % 10) for sign in (b"\0", b"-") for d in range(100)],
        [b"%04d" % d for d in range(10_000)],
        [b"%03de" % d for d in range(1_000)],
    )
    return (
        np.array([f"1e{k}" for k in ks], dtype=np.longdouble),
        np.where((ks >= 0) & (ks <= 27), 0.006, 0.03),
        *(np.array(w, dtype="S4").view(np.uint32) for w in words),
    )


def _format16e(values: np.ndarray) -> np.ndarray:
    """`b"%.16e" % v` for each value, NUL-padded to _FIELD bytes.

    With E = floor(log10|v|), s = |v| 10^(16 - E) in np.longdouble lies in
    [1e16, 1e17) after at most one correction of E, within 0.004 of a last
    digit where 10^(16 - E) is exact (0 <= 16 - E <= 27) and 0.011
    elsewhere.  Rounded half-up, s gives the 17 correctly rounded digits
    unless its fraction is within a wider window of 1/2 (Steele & White,
    PLDI 1990; Gay, AT&T NAM 90-10, 1990).  Those near-ties, zero, nan and
    inf go to % in one batched call.
    """
    v = np.ravel(np.asarray(values, dtype=np.float64))
    out = np.empty((v.size, _FIELD // 4), np.uint32)
    fallback = ~np.isfinite(v) | (v == 0.0)
    if np.finfo(np.longdouble).nmant < _MANTISSA_BITS:
        fallback[:] = True
    else:
        powers, windows, exps, heads, quads, tails = _format_tables()
        a = np.where(fallback, 1.0, np.abs(v))
        i = _POWERS + 16 - np.floor(np.log10(a)).astype(np.intp)
        s = a.astype(np.longdouble) * powers[i]
        off = np.flatnonzero((s < 1e16) | (s >= 1e17))
        i[off] += np.where(s[off] < 1e16, 1, -1)
        s[off] = a[off] * powers[i[off]]
        off = off[(s[off] < 1e16) | (s[off] >= 1e17)]
        fallback[off], s[off] = True, 1e16
        q = s.astype(np.uint64)
        frac = (s - q).astype(np.float64)
        fallback |= np.abs(frac - 0.5) <= windows[i]
        q += frac > 0.5
        carry = np.flatnonzero(q == 10**17)
        q[carry], i[carry] = 10**16, i[carry] - 1
        head, r = np.divmod(q, 10**15)
        out[:, 0] = heads[np.where(v < 0.0, head + 100, head)]
        out[:, 1] = quads[r // 10**11]
        out[:, 2] = quads[r // 10**7 % 10**4]
        out[:, 3] = quads[r // 10**3 % 10**4]
        out[:, 4] = tails[r % 10**3]
        out[:, 5] = exps[i]
    rest = np.flatnonzero(fallback)
    if rest.size:
        text = (b"%.16e\n" * rest.size % tuple(v[rest].tolist())).split()
        out[rest] = np.array(text, dtype=f"S{_FIELD}").view(np.uint32).reshape(-1, _FIELD // 4)
    return out.view(f"S{_FIELD}").ravel()


def _write_csv(
    path: Path, head: bytes, text: Sequence[tuple[np.ndarray, np.ndarray]], values: np.ndarray,
) -> None:
    """Write `head`, then one row per row of the (n, k) float `values`: the
    text columns, then the k values as %.16e, comma-separated and ended by
    \r\n.  A text column (cells, index) gives row r the NUL-padded bytes
    cells[index[r]].  Rows are assembled _BLOCK_BYTES at a time and written
    without their NULs, so the file's padded text is never held whole."""
    n, k = values.shape
    widths = [cells.itemsize for cells, _ in text]
    starts = np.cumsum([0, *widths]) + np.arange(len(widths) + 1)
    width = starts[-1] + (_FIELD + 1) * k + 1
    block = np.zeros((max(1, _BLOCK_BYTES // width), width), np.uint8)
    block[:, starts[1:] - 1] = ord(",")
    block[:, starts[-1] + _FIELD::_FIELD + 1] = ord(",")
    block[:, -2:] = np.frombuffer(b"\r\n", np.uint8)
    fields = block[:, starts[-1]:-1].reshape(len(block), k, _FIELD + 1)[:, :, :_FIELD]
    with path.open("wb") as fh:
        fh.write(head)
        for lo in range(0, n, len(block)):
            rows = slice(lo, lo + len(block))
            m = len(values[rows])
            for (cells, index), start, w in zip(text, starts, widths):
                block[:m, start:start + w] = cells[index[rows]].view(np.uint8).reshape(m, w)
            fields[:m] = _format16e(values[rows]).view(np.uint8).reshape(m, k, _FIELD)
            fh.write(block[:m].tobytes().translate(None, b"\0"))


def _write_solution_csv(
    path: Path, y_nodes: np.ndarray, t_nodes: np.ndarray,
    phi: np.ndarray, u: np.ndarray, x: np.ndarray,
) -> None:
    y_aug = np.append(y_nodes, 0.0)
    i, j = np.divmod(np.arange(y_aug.size * t_nodes.size), t_nodes.size)
    counts = np.array([b"%d" % c for c in range(max(y_aug.size, t_nodes.size))])
    _write_csv(
        path, b"i,j,y,t,phi,u,x\r\n",
        [(counts, i), (counts, j), (_format16e(y_aug), i), (_format16e(t_nodes), j)],
        np.column_stack([phi.ravel(), u.ravel(), x.ravel()]),
    )


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


def _write_profiles_csv(
    path: Path, rule_y: QuadratureRule, rule_t: QuadratureRule,
    x: np.ndarray, u: np.ndarray, samples: int,
) -> None:
    """The header, one grid row per (y, t), y outer, then one midline row
    per t; each coordinate is formatted once."""
    ys, ts, mid, xu = _profile_samples(rule_y, rule_t, x, u, samples)
    head, t = np.divmod(np.arange(len(xu)), ts.size)  # head ys.size is the midline
    _write_csv(
        path, b"section,y,t,x,u\r\n",
        [(np.array([b"grid", b"midline"]), head // ys.size),
         (_format16e(np.append(ys, mid)), head), (_format16e(ts), t)],
        xu,
    )


def _dump_matrices(
    out_dir: Path, h: np.ndarray, q: np.ndarray, b: np.ndarray, c: np.ndarray,
    j0: float, n_y: int, n_t: int,
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, arr in (("H", h), ("Q", q), ("b", b[:, None]), ("c", c[:, None])):
        _write_csv(out_dir / f"{name}.csv", b"", [], arr)
    meta = {
        "j0": j0,
        "n_y": n_y,
        "n_t": n_t,
        "H_shape": list(h.shape),
        "Q_shape": list(q.shape),
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
    """Run every cell of the configuration; never stops at a failed cell.

    With `config.out` set, each solved cell's files are written as soon as
    it solves, and report.csv and config.json once every cell has run.  A
    failed write raises its OSError and leaves no report; the files of the
    cells before it stay.
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
    for n_y, n_t, alpha in cells:
        try:
            record, sol = run_single(ocp, n_y, n_t, alpha, config.eval_grid)
        except Exception as exc:  # noqa: BLE001 - cell failures go in the report
            records.append(RunRecord(n_y=n_y, n_t=n_t, alpha=alpha, error=str(exc)))
            continue
        records.append(record)
        solutions[(n_y, n_t, alpha)] = sol
        if out is None:
            continue
        tag, trans = _cell_tag(n_y, n_t, alpha), sol.transcription
        _write_solution_csv(out / f"solution_{tag}.csv", trans.rule_y.nodes, trans.rule_t.nodes,
                            sol.phi, sol.u, sol.x)
        _write_profiles_csv(out / f"profiles_{tag}.csv", trans.rule_y, trans.rule_t,
                            sol.x, sol.u, config.eval_grid)
        if config.dump_matrices:
            qp = trans.qp
            _dump_matrices(out / f"matrices_{tag}", qp.H, qp.Q, qp.b, qp.c, qp.j0, n_y, n_t)
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
