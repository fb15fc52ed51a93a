"""Solution of the equality-constrained quadratic programs produced by the
transcription.

The first-order optimality conditions form the symmetric saddle system

    [2Q  H'] [Z     ]   [-c]
    [H   0 ] [lambda] = [ b].

The solver has two routes.

(a) A transcribed program carries its `Elimination`, which condenses it onto
the free data of the state: the dynamics rows give the interior control
through integration matrices, and phi and u at y = 0 enter only through
their sum, split evenly.  Its condensed saddle matrix has (N_y + 3)(N_t + 1)
rows against about 3 (N_y + 2)(N_t + 1) for the full one.  This route reads
nothing but the elimination: b, c, j0 and the products with Q, H and H'
come from its Kronecker factors, and its input checks ask that the factors
be finite and Q's time and space factors symmetric.  The solver
equilibrates it symmetrically (s_i = 1 / sqrt(max_j |k_ij|)), solves it by
dense LU and lifts the result back to Z and lambda.  The one refinement step
takes the residual of the full saddle system, maps it through the same
elimination and solves the condensed matrix again; a refinement on the
condensed residual alone would not see the round-off that D = P1^-1 carries
into the condensed Hessian, squared in its control term.  The N_t + 1 split
directions that the condensing removes are the reported rank deficiency,
and `kkt_condition` is Hager's estimate of the 1-norm condition number of
the equilibrated condensed matrix.

(b) Every other program (a hand-built one), and a transcribed one whose
condensed matrix is singular or has a condition estimate of at least
1 / (dim * eps), is solved through a dense singular-value factorization of
the full saddle matrix with one refinement step.  Singular values below the
dense-rank cutoff count as zeros, so a singular but consistent system gets
its minimum-norm solution; the rank deficiency is their number, and
`kkt_condition` is s_max / s_min over the kept singular values.  This route
reads the dense program (for a transcribed one, `Transcription.qp` is
assembled here) and checks that H, b, Q, c are finite and Q symmetric, then
the constraint rows: rank-deficient rows (a genuinely overdetermined or
duplicated constraint set) are an error and abort.  A saddle matrix whose
entries overflow is rejected before the factorization.

On both routes the residual and feasibility are checked on the full saddle
system, and an inconsistent system, a residual that is not a number and an
objective that overflows abort rather than silently returning a
least-squares compromise or an infinite cost.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .transcribe import DiscreteQp, Elimination, FactoredQp

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
    cutoff = s[0] * (max(k.shape) * _EPS)
    rank = int(np.count_nonzero(s > cutoff))
    u_r, s_r, vt_r = u[:, :rank], s[:rank], vt[:rank]

    def apply_pinv(r: np.ndarray) -> np.ndarray:
        return vt_r.T @ ((u_r.T @ r) / s_r)

    x = apply_pinv(rhs)
    x = x + apply_pinv(rhs - k @ x)
    cond = float(s[0] / s_r[-1])
    return x, cond, k.shape[0] - rank


def _condition(k: np.ndarray, probe: np.ndarray, back: np.ndarray) -> float:
    """|k|_1 times two steps of Hager's estimator for |k^-1|_1: |probe|_1 with
    probe = k^-1 e/dim, and |back|_inf with back = k^-1 sign(probe), both
    lower bounds for a symmetric k."""
    inv_norm = max(float(np.abs(probe).sum()), float(np.max(np.abs(back), initial=0.0)))
    return float(np.abs(k).sum(axis=0).max(initial=0.0)) * inv_norm


class _Dense:
    """A dense program behind the products and data an `Elimination` gives.
    Its arrays must be finite and Q symmetric."""

    def __init__(self, qp: DiscreteQp | FactoredQp):
        self.h, self.q, self.b, self.c, self.j0 = qp.H, qp.Q, qp.b, qp.c, qp.j0
        for name, arr in (("H", self.h), ("b", self.b), ("Q", self.q), ("c", self.c)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
        q = self.q
        scale_q = max(1.0, float(np.max(np.abs(q)))) if q.size else 1.0
        if q.size and float(np.max(np.abs(q - q.T))) > 1e-12 * scale_q:
            raise ValueError("cost matrix must be symmetric")

    def q_mul(self, z: np.ndarray) -> np.ndarray:
        return self.q @ z

    def h_mul(self, z: np.ndarray) -> np.ndarray:
        return self.h @ z

    def ht_mul(self, lam: np.ndarray) -> np.ndarray:
        return self.h.T @ lam


def _residual(
    prog: Elimination | _Dense, z: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the full saddle system: (stationarity, constraints)."""
    return 2.0 * prog.q_mul(z) + prog.c + prog.ht_mul(lam), prog.h_mul(z) - prog.b


def _check_factors(elim: Elimination) -> None:
    """An elimination's factors and data must be finite, and the time and
    space factors of Q symmetric."""
    for f in fields(elim):
        value = getattr(elim, f.name)
        if f.name != "grid" and not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite entries in elimination factor {f.name}")
    for name in ("q_t", "q_y"):
        factor = getattr(elim, name)
        scale = max(1.0, float(np.max(np.abs(factor), initial=0.0)))
        if float(np.max(np.abs(factor - factor.T), initial=0.0)) > 1e-12 * scale:
            raise ValueError(f"cost factor {name} must be symmetric")


def _condensed_solve(elim: Elimination) -> tuple[np.ndarray, np.ndarray, float] | None:
    """(z, lambda, condition estimate) through the elimination, or None when
    its condensed saddle matrix is singular or too ill conditioned.

    The matrix is equilibrated symmetrically, s_i = 1 / sqrt(max_j |k_ij|).
    The refinement step solves for the correction of the full saddle
    residual, mapped through the same elimination, since the condensed
    residual does not see the round-off of D = P1^-1 in the condensed
    Hessian."""
    k = elim.saddle()
    row_max = np.abs(k).max(axis=1)
    s = 1.0 / np.sqrt(np.where(row_max > 0.0, row_max, 1.0))
    k *= s[:, None]
    k *= s
    dim = k.shape[0]
    try:
        z_p, r = elim.rhs(elim.c, elim.b)
        x, probe = np.linalg.solve(k, np.column_stack([s * r, np.full(dim, 1.0 / dim)])).T
        z, lam = elim.expand(elim.c, z_p, s * x)
        r_s, r_c = _residual(elim, z, lam)
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


def solve(qp: DiscreteQp | FactoredQp) -> QpSolution:
    """Solve the QP; returns the minimum-norm first-order optimal point."""
    elim = qp.elimination
    if elim is not None:
        _check_factors(elim)
    condensed = _condensed_solve(elim) if elim is not None else None
    if condensed is not None:
        z, lam, cond = condensed
        deficiency = elim.eliminated
        prog = elim
    else:
        prog = _Dense(qp)
        h = prog.h
        n_rows = h.shape[0]
        if n_rows > 0:
            s_h = np.linalg.svd(h, compute_uv=False)
            rank_h = int(np.count_nonzero(s_h > RANK_TOL * float(np.max(np.abs(h)))))
            if rank_h < n_rows:
                raise RankDeficientError(n_rows - rank_h, float(s_h[-1]))
        kkt = np.block([[2.0 * prog.q, h.T], [h, np.zeros((n_rows, n_rows))]])
        if not np.all(np.isfinite(kkt)):
            raise SolveError("saddle matrix has non-finite entries (2Q overflows)")
        x, cond, deficiency = _min_norm_solve(kkt, np.concatenate([-prog.c, prog.b]))
        z, lam = x[: h.shape[1]], x[h.shape[1] :]

    n = z.size
    # Residual of the full saddle system: stationarity, then constraints.
    res = np.abs(np.concatenate(_residual(prog, z, lam)))
    rhs_scale = max(1.0, float(np.max(np.abs(np.concatenate([prog.c, prog.b])), initial=0.0)))
    worst = float(np.max(res, initial=0.0))
    if not worst <= 1e-7 * rhs_scale:  # also a NaN residual
        raise SolveError(f"saddle system is inconsistent (residual {worst:.3e})")
    feasibility = float(np.max(res[n:], initial=0.0))
    b_scale = max(1.0, float(np.max(np.abs(prog.b), initial=0.0)))
    if not feasibility <= FEASIBILITY_TOL * b_scale:
        raise SolveError(f"constraints violated beyond tolerance ({feasibility:.3e})")
    stationarity = float(np.max(res[:n], initial=0.0))
    j = float(z @ prog.q_mul(z) + prog.c @ z + prog.j0)
    if not np.isfinite(j):
        raise SolveError(f"objective is not finite ({j})")
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
