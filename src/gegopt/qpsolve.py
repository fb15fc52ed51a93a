"""Solution of the equality-constrained quadratic programs produced by the
transcription.

The first-order optimality conditions form the symmetric saddle system

    [2Q  H'] [Z     ]   [-c]
    [H   0 ] [lambda] = [ b].

A transcribed program carries its `Elimination`, which condenses it onto the
free data of the state: the dynamics rows give the interior control through
integration matrices, and phi and u at y = 0 enter only through their sum,
split evenly.  Its condensed saddle matrix has (N_y + 3)(N_t + 1) rows
against about 3 (N_y + 2)(N_t + 1) for the full one.  The solver
equilibrates it symmetrically (s_i = 1 / sqrt(max_j |k_ij|)), solves it by
dense LU and lifts the result back to Z and lambda.  The one refinement step
takes the residual of the full saddle system, maps it through the same
elimination and solves the condensed matrix again; a refinement on the
condensed residual alone would not see the round-off that D = P1^-1 carries
into the condensed Hessian, squared in its control term.  The N_t + 1 split
directions that the condensing removes are the reported rank deficiency.

A program without an elimination (a hand-built one), or one whose condensed
matrix is singular or has a condition estimate of at least 1 / (dim * eps),
takes the generic path.  Unknowns whose columns of H, Q and c agree to
within round-off enter the program only through their sum, so splitting that
sum is free and the saddle matrix is singular but consistent.  The generic
path finds these groups of equal columns, merges each group into one
unknown s, solves the smaller saddle system by dense LU with one step of
iterative refinement, and gives each of the k members of a group the value
s / k.  That is the minimum-norm solution, and it agrees with a null-space
elimination started from the minimum-norm feasible point.

A program whose merged saddle matrix is still singular, or whose condition
estimate reaches 1 / (dim * eps), has a null space that equal columns do
not explain.  It falls back to a dense singular-value factorization of the
full saddle matrix, which returns the minimum-norm solution.  Only that
branch checks the constraint rows for rank deficiency: a nonsingular merged
matrix already implies that H has full row rank.  Rank-deficient
constraint rows (a genuinely overdetermined or duplicated constraint set)
are an error and abort; an inconsistent saddle system likewise aborts
rather than silently returning a least-squares compromise.  On every path
the residual and feasibility are checked on the full, unmerged system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transcribe import DiscreteQp

__all__ = [
    "QpSolution",
    "SolveReport",
    "RankDeficientError",
    "SolveError",
    "solve",
    "diagnostics",
]

#: Relative tolerance used for constraint-row rank decisions (scaled by the
#: largest matrix entry in magnitude).
RANK_TOL = 1e-10

#: Feasibility must come out no worse than this times max(1, |b|_inf).
FEASIBILITY_TOL = 1e-8

_EPS = float(np.finfo(float).eps)


class RankDeficientError(ValueError):
    """Constraint rows are numerically dependent."""

    def __init__(self, deficiency: int, scale: float):
        self.deficiency = deficiency
        self.scale = scale
        super().__init__(
            f"constraint matrix is rank deficient by {deficiency} "
            f"(smallest singular value {scale:.3e})"
        )


class SolveError(RuntimeError):
    """The saddle system could not be solved to the required residuals."""


@dataclass(frozen=True)
class QpSolution:
    """Minimizer, multipliers and solve-time diagnostics."""

    z: np.ndarray
    j: float
    kkt_residual: float
    feasibility: float
    multipliers: np.ndarray
    kkt_condition: float
    kkt_rank_deficiency: int


@dataclass(frozen=True)
class SolveReport:
    """Independently recomputed solution-quality report."""

    feasibility: float
    stationarity: float
    objective: float
    kkt_condition: float
    kkt_rank_deficiency: int


def _min_norm_solve(k: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Minimum-norm solution of k x = rhs with one refinement step.

    Returns (x, condition estimate, rank deficiency).  Singular values below
    the usual dense-rank cutoff are treated as exact zeros.
    """
    u, s, vt = np.linalg.svd(k)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(k.shape[1]), 1.0, k.shape[0]
    cutoff = s[0] * max(k.shape) * np.finfo(float).eps
    rank = int(np.count_nonzero(s > cutoff))
    u_r, s_r, vt_r = u[:, :rank], s[:rank], vt[:rank]

    def apply_pinv(r: np.ndarray) -> np.ndarray:
        return vt_r.T @ ((u_r.T @ r) / s_r)

    x = apply_pinv(rhs)
    x = x + apply_pinv(rhs - k @ x)
    cond = float(s[0] / s_r[-1])
    return x, cond, k.shape[0] - rank


def _equal_columns(h: np.ndarray, q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Representative of every unknown: the smallest index whose H column,
    Q column and c entry agree with its own.

    Entries agree when they differ by at most 8 eps times the largest entry
    of their array (at least 1).  A fixed random projection of the columns,
    sorted, brings candidates next to each other; only runs of projections
    that lie within the round-off of each other are compared entry by entry.
    """
    arrays = (h, q, c[None, :])
    scales = [max(1.0, float(np.max(np.abs(a), initial=0.0))) for a in arrays]
    rng = np.random.default_rng(0)
    weights = [rng.uniform(-1.0, 1.0, a.shape[0]) for a in arrays]
    proj = sum(w @ a for w, a in zip(weights, arrays))
    rows = sum(a.shape[0] for a in arrays)
    slack = 2.0 * (rows + 8) * _EPS * sum(np.abs(w).sum() * s for w, s in zip(weights, scales))

    def agree(i: int, j: int) -> bool:
        return all(
            float(np.max(np.abs(a[:, i] - a[:, j]), initial=0.0)) <= 8.0 * _EPS * s
            for a, s in zip(arrays, scales)
        )

    rep = np.arange(q.shape[0])
    order = np.argsort(proj, kind="stable")
    for run in np.split(order, np.flatnonzero(np.diff(proj[order]) > slack) + 1):
        anchors: list[int] = []
        for i in np.sort(run):
            match = next((a for a in anchors if agree(a, i)), None)
            if match is None:
                anchors.append(int(i))
            else:
                rep[i] = match
    return rep


def _saddle(q: np.ndarray, h: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Saddle matrix over the kept columns, built without the full one."""
    nk, n_rows = keep.size, h.shape[0]
    kkt = np.zeros((nk + n_rows, nk + n_rows))
    kkt[:nk, :nk] = q[np.ix_(keep, keep)]
    kkt[:nk, :nk] *= 2.0
    h_keep = h[:, keep]
    kkt[:nk, nk:] = h_keep.T
    kkt[nk:, :nk] = h_keep
    return kkt


def _condition(k: np.ndarray, probe: np.ndarray, back: np.ndarray) -> float:
    """|k|_1 times two steps of Hager's estimator for |k^-1|_1: |probe|_1 with
    probe = k^-1 e/dim, and |back|_inf with back = k^-1 sign(probe), both
    lower bounds for a symmetric k."""
    inv_norm = max(float(np.abs(probe).sum()), float(np.max(np.abs(back), initial=0.0)))
    return float(np.abs(k).sum(axis=0).max(initial=0.0)) * inv_norm


def _lu_solve(k: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Solve the symmetric system k x = rhs by LU with one refinement step.

    Returns (x, condition estimate); a singular k gives (None, inf).  The
    estimate's probes are carried as extra right-hand sides of the two
    solves.
    """
    dim = k.shape[0]
    try:
        x, probe = np.linalg.solve(k, np.column_stack([rhs, np.full(dim, 1.0 / max(dim, 1))])).T
        step, back = np.linalg.solve(
            k, np.column_stack([k @ x - rhs, np.where(probe < 0.0, -1.0, 1.0)])
        ).T
    except np.linalg.LinAlgError:
        return None, np.inf
    return x - step, _condition(k, probe, back)


def _residual(qp: DiscreteQp, z: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the full saddle system: (stationarity, constraints)."""
    return 2.0 * (qp.Q @ z) + qp.c + qp.H.T @ lam, qp.H @ z - qp.b


def _condensed_solve(qp: DiscreteQp) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(z, lambda, condition estimate) through the program's elimination, or
    None when its condensed saddle matrix is singular or too ill conditioned.

    The matrix is equilibrated symmetrically, s_i = 1 / sqrt(max_j |k_ij|).
    The refinement step solves for the correction of the full saddle
    residual, mapped through the same elimination, since the condensed
    residual does not see the round-off of D = P1^-1 in the condensed
    Hessian."""
    elim = qp.elimination
    k = elim.saddle()
    row_max = np.abs(k).max(axis=1)
    s = 1.0 / np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    k *= s[:, None]
    k *= s
    dim = k.shape[0]
    try:
        z_p, r = elim.rhs(qp.c, qp.b)
        x, probe = np.linalg.solve(k, np.column_stack([s * r, np.full(dim, 1.0 / dim)])).T
        z, lam = elim.expand(qp.c, z_p, s * x)
        r_s, r_c = _residual(qp, z, lam)
        dz_p, dr = elim.rhs(-r_s, r_c)
        step, back = np.linalg.solve(
            k, np.column_stack([s * dr, np.where(probe < 0.0, -1.0, 1.0)])
        ).T
        dz, dlam = elim.expand(-r_s, dz_p, s * step)
    except np.linalg.LinAlgError:
        return None
    cond = _condition(k, probe, back)
    if not cond * dim * _EPS < 1.0:  # also a NaN estimate
        return None
    return z - dz, lam - dlam, cond


def _merged_solve(qp: DiscreteQp) -> tuple[np.ndarray, np.ndarray, float, int]:
    """(z, lambda, condition estimate, rank deficiency) of any program: equal
    columns merged and one LU solve, else the SVD of the full saddle matrix."""
    h, b, q, c = qp.H, qp.b, qp.Q, qp.c
    n = q.shape[0]
    rep = _equal_columns(h, q, c)
    keep = np.flatnonzero(rep == np.arange(n))
    kkt = _saddle(q, h, keep)
    x, cond = _lu_solve(kkt, np.concatenate([-c[keep], b]))
    if cond * kkt.shape[0] * _EPS < 1.0:
        # Every member of a group of equal columns takes an equal share.
        share = np.bincount(rep, minlength=n)[rep]
        z, lam = x[np.searchsorted(keep, rep)] / share, x[keep.size :]
        deficiency = n - keep.size
    else:
        del kkt
        n_rows = h.shape[0]
        if n_rows > 0:
            s_h = np.linalg.svd(h, compute_uv=False)
            rank_h = int(np.count_nonzero(s_h > RANK_TOL * float(np.max(np.abs(h)))))
            if rank_h < n_rows:
                raise RankDeficientError(n_rows - rank_h, float(s_h[-1]))
        x, cond, deficiency = _min_norm_solve(
            _saddle(q, h, np.arange(n)), np.concatenate([-c, b])
        )
        z, lam = x[:n], x[n:]
    return z, lam, cond, deficiency


def solve(qp: DiscreteQp) -> QpSolution:
    """Solve the QP; returns the minimum-norm first-order optimal point."""
    h, b, q, c = qp.H, qp.b, qp.Q, qp.c
    for name, arr in (("H", h), ("b", b), ("Q", q), ("c", c)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite entries in {name}")
    scale_q = max(1.0, float(np.max(np.abs(q)))) if q.size else 1.0
    if q.size and float(np.max(np.abs(q - q.T))) > 1e-12 * scale_q:
        raise ValueError("cost matrix must be symmetric")

    n = q.shape[0]
    condensed = _condensed_solve(qp) if qp.elimination is not None else None
    if condensed is not None:
        z, lam, cond = condensed
        deficiency = qp.elimination.eliminated
    else:
        z, lam, cond, deficiency = _merged_solve(qp)

    # Residual of the full saddle system: stationarity, then constraints.
    res = np.abs(np.concatenate(_residual(qp, z, lam)))
    rhs_scale = max(1.0, float(np.max(np.abs(np.concatenate([c, b])), initial=0.0)))
    if float(np.max(res, initial=0.0)) > 1e-7 * rhs_scale:
        raise SolveError(
            f"saddle system is inconsistent (residual {float(np.max(res)):.3e})"
        )
    feasibility = float(np.max(res[n:], initial=0.0))
    b_scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
    if feasibility > FEASIBILITY_TOL * b_scale:
        raise SolveError(f"constraints violated beyond tolerance ({feasibility:.3e})")
    stationarity = float(np.max(res[:n], initial=0.0))
    j = float(z @ q @ z + c @ z + qp.j0)
    return QpSolution(
        z=z,
        j=j,
        kkt_residual=stationarity,
        feasibility=feasibility,
        multipliers=lam,
        kkt_condition=cond,
        kkt_rank_deficiency=deficiency,
    )


def diagnostics(sol: QpSolution, qp: DiscreteQp) -> SolveReport:
    """Recompute solution quality from scratch (no reuse of solve results)."""
    feasibility = float(np.max(np.abs(qp.H @ sol.z - qp.b), initial=0.0))
    stationarity = float(
        np.max(np.abs(2.0 * qp.Q @ sol.z + qp.c + qp.H.T @ sol.multipliers), initial=0.0)
    )
    objective = float(sol.z @ qp.Q @ sol.z + qp.c @ sol.z + qp.j0)
    return SolveReport(
        feasibility=feasibility,
        stationarity=stationarity,
        objective=objective,
        kkt_condition=sol.kkt_condition,
        kkt_rank_deficiency=sol.kkt_rank_deficiency,
    )
