"""The benchmark's workloads: what one pass runs, and the gate its outputs pass.

Each workload has a `run` (the timed pass; it calls gegopt's public
functions through their modules, so a traced pass sees them) and a `check`
(untimed) that turns the pass's outputs into an `Outcome`.  An operation is
one solver cell or one operator build; it fails if it raised or if any of
its checks fails.  Failures are counted, never raised.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from gegopt import bounds, cli, intmat, nodes, qpsolve
from gegopt.bounds import BoundInputs
from gegopt.polycore import BasisSpec
from gegopt.transcribe import DiffusionOcp

from . import oracle

SWEEP_N = tuple(range(4, 13))
SWEEP_ALPHAS = tuple(round(-0.4 + 0.1 * k, 12) for k in range(14))
EVAL_GRID = 101
LADDER_N = (16, 24, 32)
LADDER_ALPHA = 0.0
OPERATOR_N = (128, 256, 512, 1024)
OPERATOR_ALPHAS = (-0.2, 0.0, 0.5)
WARM_UP_CELL = (8, 0.5)

#: Largest accepted normalized |J - J*| per grid size N = N_y = N_t: two to
#: three times the worst value over the sweep's alphas (alpha = 0 for
#: N >= 16) at the commit that introduced the benchmark, for f = 1 + y.
J_ERR_TOL = {
    4: 3e-3, 5: 3e-2, 6: 7e-4, 7: 2e-2, 8: 3e-4, 9: 8e-3, 10: 2e-4, 11: 6e-3,
    12: 1e-4, 16: 2e-7, 24: 7e-8, 32: 3e-8,
}

#: Operator identities (P1 1 = x, row sum = length, P2 1 = x^2 / 2) hold to
#: this times max(1, length^order); the e^x running integral to E_X_TOL.
IDENTITY_TOL = 1e-12
E_X_TOL = 1e-12


@dataclass
class Outcome:
    """Operations attempted and failed, the largest normalized |J - J*| over
    the solver cells, and one line per failed operation."""

    attempted: int = 0
    failed: int = 0
    j_err_max: float = 0.0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str], j_err: float = 0.0) -> None:
        self.attempted += 1
        self.j_err_max = max(self.j_err_max, j_err)
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))

    def merge(self, other: Outcome) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.j_err_max = max(self.j_err_max, other.j_err_max)
        self.problems.extend(other.problems)


def ocp_for(inputs: oracle.Inputs) -> DiffusionOcp:
    return DiffusionOcp(
        length=oracle.LENGTH,
        t_final=oracle.T_FINAL,
        r1=oracle.R1,
        r2=oracle.R2,
        initial=cli.parse_initial_profile(inputs.f_spec),
    )


def check_solution(inputs: oracle.Inputs, n: int, j: float, sol: cli.OcpSolution) -> tuple[list[str], float]:
    """Feasibility recomputed from H, z and b, and J against the oracle;
    returns the problems found and the normalized |J - J*|."""
    qp = sol.transcription.qp
    problems = []
    feasibility = float(np.max(np.abs(qp.H @ sol.z - qp.b)))
    b_scale = max(1.0, float(np.max(np.abs(qp.b))))
    if not feasibility <= qpsolve.FEASIBILITY_TOL * b_scale:
        problems.append(f"feasibility {feasibility:.3e}")
    err = oracle.normalized_error(j, inputs.a, inputs.b)
    if not err <= J_ERR_TOL[n]:
        problems.append(f"|J - J*| {err:.3e} above {J_ERR_TOL[n]:.0e}")
    return problems, err


def _read_numbers(path: Path, usecols: tuple[int, ...], rows: int) -> tuple[np.ndarray | None, str]:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2)
    except (OSError, ValueError) as exc:
        return None, f"{path.name} unreadable ({exc})"
    if data.shape[0] != rows:
        return None, f"{path.name} has {data.shape[0]} rows, expected {rows}"
    return data, ""


def cell_tag(n_y: int, n_t: int, alpha: float) -> str:
    """The <tag> of a cell's solution_<tag>.csv and profiles_<tag>.csv."""
    n = str(n_y) if n_y == n_t else f"{n_y}x{n_t}"
    return f"{n}_{alpha:g}"


def check_artifacts(out: Path, alpha: float, sol: cli.OcpSolution) -> list[str]:
    """The cell's solution and profile CSVs read back to the arrays exactly."""
    grid = sol.transcription.grid
    tag = cell_tag(grid.n_y, grid.n_t, alpha)
    problems = []
    data, why = _read_numbers(out / f"solution_{tag}.csv", (2, 3, 4, 5, 6), (grid.n_y + 2) * (grid.n_t + 1))
    if data is None:
        problems.append(why)
    else:
        y_aug = np.append(sol.transcription.rule_y.nodes, 0.0)
        t_nodes = sol.transcription.rule_t.nodes
        want = np.column_stack([
            np.repeat(y_aug, t_nodes.size), np.tile(t_nodes, y_aug.size),
            sol.phi.ravel(), sol.u.ravel(), sol.x.ravel(),
        ])
        if not np.array_equal(data, want):
            problems.append(f"solution_{tag}.csv does not read back to the solution arrays")
    data, why = _read_numbers(out / f"profiles_{tag}.csv", (1, 2, 3, 4), EVAL_GRID**2 + EVAL_GRID)
    if data is None:
        problems.append(why)
    else:
        want = np.array([row[1:] for row in cli.emit_profiles(sol, EVAL_GRID)])
        if not np.array_equal(data, want):
            problems.append(f"profiles_{tag}.csv does not read back to the profile samples")
    return problems


def _read_report(path: Path) -> tuple[dict[tuple[int, int, float], float], int]:
    """J per (N_y, N_t, alpha) and the row count of report.csv; -1 rows if unreadable."""
    try:
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {(int(r["N_y"]), int(r["N_t"]), float(r["alpha"])): float(r["J"]) for r in rows}, len(rows)
    except (OSError, KeyError, ValueError, TypeError):
        return {}, -1


# --- paper_sweep -------------------------------------------------------------


def sweep_config(inputs: oracle.Inputs, out: Path) -> cli.RunConfig:
    return cli.RunConfig(
        length=oracle.LENGTH, t_final=oracle.T_FINAL, r1=oracle.R1, r2=oracle.R2,
        f_spec=inputs.f_spec, n_y=SWEEP_N, alphas=SWEEP_ALPHAS, sweep=True,
        out=out, eval_grid=EVAL_GRID,
    )


def run_sweep(inputs: oracle.Inputs, workdir: Path):
    config = sweep_config(inputs, workdir)
    return config, cli.run_sweep(config)


def check_sweep(inputs: oracle.Inputs, raw, workdir: Path) -> Outcome:
    config, (records, solutions) = raw
    outcome = Outcome()
    report, report_rows = _read_report(config.out / "report.csv")
    cells = config.cells()
    for rec in records:
        label = f"cell N_y={rec.n_y} N_t={rec.n_t} alpha={rec.alpha:g}"
        if rec.error:
            outcome.record(label, [rec.error])
            continue
        sol = solutions[(rec.n_y, rec.n_t, rec.alpha)]
        problems, err = check_solution(inputs, rec.n_y, rec.j, sol)
        problems += check_artifacts(config.out, rec.alpha, sol)
        if report_rows != len(cells):
            problems.append(f"report.csv has {report_rows} rows for {len(cells)} cells")
        elif report.get((rec.n_y, rec.n_t, rec.alpha)) != rec.j:
            problems.append("report.csv row missing or its J does not read back")
        outcome.record(label, problems, err)
    if len(records) != len(cells):
        outcome.record("sweep", [f"{len(records)} records for {len(cells)} cells"])
    return outcome


# --- ladder_large ------------------------------------------------------------


def run_ladder(inputs: oracle.Inputs, workdir: Path):
    ocp = ocp_for(inputs)
    results = []
    for n in LADDER_N:
        try:
            results.append(cli.run_single(ocp, n, n, LADDER_ALPHA))
        except Exception as exc:  # noqa: BLE001 - a failed cell is counted, not raised
            results.append(exc)
    return results


def check_ladder(inputs: oracle.Inputs, raw, workdir: Path) -> Outcome:
    outcome = Outcome()
    for n, result in zip(LADDER_N, raw):
        label = f"cell N={n} alpha={LADDER_ALPHA:g}"
        if isinstance(result, Exception):
            outcome.record(label, [repr(result)])
            continue
        record, sol = result
        outcome.record(label, *check_solution(inputs, n, record.j, sol))
    return outcome


# --- operators_highdeg -------------------------------------------------------


def run_operators(inputs: oracle.Inputs, workdir: Path):
    length = inputs.operator_length
    deriv_sup = math.exp(length)  # every derivative of e^x on [0, length]
    results = []
    for n in OPERATOR_N:
        for alpha in OPERATOR_ALPHAS:
            try:
                rule = nodes.sgg_rule(BasisSpec(alpha, length, n))
                first = intmat.first_order_matrix(rule)
                second = intmat.higher_order_matrix(first, 2)
                spec_bound = BoundInputs(rule.spec, deriv_sup)
                bound = [bounds.first_order_error_bound(spec_bound, x) for x in rule.nodes]
                results.append((rule, first, second, bound))
            except Exception as exc:  # noqa: BLE001 - a failed build is counted, not raised
                results.append(exc)
    return results


def check_operator(rule, first, second, bound) -> list[str]:
    length = rule.spec.length
    x = rule.nodes
    ones = np.ones_like(x)
    problems = []
    checks = (
        ("P1 1 - x", np.max(np.abs(first.matrix @ ones - x)), IDENTITY_TOL * max(1.0, length)),
        ("row sum - length", abs(first.full_interval_row.sum() - length), IDENTITY_TOL * max(1.0, length)),
        ("P2 1 - x^2/2", np.max(np.abs(second.matrix @ ones - 0.5 * x * x)), IDENTITY_TOL * max(1.0, length**2)),
        ("e^x running integral", np.max(np.abs(first.matrix @ np.exp(x) - np.expm1(x))), E_X_TOL),
    )
    for what, err, tol in checks:
        if not err <= tol:
            problems.append(f"{what} error {err:.3e} above {tol:.0e}")
    if not all(math.isfinite(v) and v >= 0.0 for v in bound):
        problems.append("error bound not a finite nonnegative number")
    return problems


def check_operators(inputs: oracle.Inputs, raw, workdir: Path) -> Outcome:
    outcome = Outcome()
    builds = [(n, alpha) for n in OPERATOR_N for alpha in OPERATOR_ALPHAS]
    for (n, alpha), result in zip(builds, raw):
        label = f"operators n={n} alpha={alpha:g}"
        if isinstance(result, Exception):
            outcome.record(label, [repr(result)])
        else:
            outcome.record(label, check_operator(*result))
    return outcome


# --- warm-up and registry ----------------------------------------------------


def warm_up(inputs: oracle.Inputs) -> Outcome:
    """One small solver cell, run and checked before any timed pass."""
    outcome = Outcome()
    n, alpha = WARM_UP_CELL
    try:
        record, sol = cli.run_single(ocp_for(inputs), n, n, alpha)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        outcome.record("warm-up cell", [repr(exc)])
        return outcome
    outcome.record("warm-up cell", *check_solution(inputs, n, record.j, sol))
    return outcome


@dataclass(frozen=True)
class Workload:
    run: Callable[[oracle.Inputs, Path], object]
    check: Callable[[oracle.Inputs, object, Path], Outcome]
    solver: bool  # False: j_err_max comes from the warm-up cell


WORKLOADS = {
    "paper_sweep": Workload(run_sweep, check_sweep, solver=True),
    "ladder_large": Workload(run_ladder, check_ladder, solver=True),
    "operators_highdeg": Workload(run_operators, check_operators, solver=False),
}
