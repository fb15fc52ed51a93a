"""Solution of the equality-constrained quadratic programs produced by the
transcription.

The first-order optimality conditions form the symmetric saddle system

    [2Q  H'] [Z     ]   [-c]
    [H   0 ] [lambda] = [ b].

The solver has two routes.

(a) A transcribed program carries its `Elimination`, which condenses it onto
the free data of the state: the dynamics rows give the interior control
through integration matrices, and phi and u at y = 0 enter only through
their sum, split evenly.  What is left is the condensed saddle system
[2 Qc, F'; F, 0] of (N_y + 3)(N_t + 1) rows, whose only constraints are the
N_t + 1 flux rows.  This route reads nothing but the elimination: b, c, j0
and the products with Q, H, H' and Qc come from its Kronecker factors as
(N_t + 1) x (N_y + 2) matrix products, and its input checks ask that the
factors be finite and Q's time and space factors symmetric.  The flux rows
have an explicit Kronecker null space, so the solver reduces the condensed
system onto it and solves the reduced system, SPD for a sound cell, by
conjugate gradients preconditioned with its control term, which fast
diagonalization on the space side applies exactly (Benzi, Golub & Liesen,
Acta Numer. 14 (2005); Lynch, Rice & Thomas, Numer. Math. 6 (1964)).  No
array of O(N^4) entries is formed, and no matrix larger than a time or
space factor is factored.  The result is lifted back to Z and lambda.  The
one refinement step takes the residual of the full saddle system, maps it
through the same elimination and solves again; a refinement on the
condensed residual alone would not see the round-off that D = P1^-1 carries
into the condensed Hessian, squared in its control term.  The N_t + 1 split
directions that the condensing removes are the reported rank deficiency;
`kkt_condition` is the ratio of the extreme Ritz values of the first CG
solve, an estimate of the condition number of the preconditioned reduced
system (1 + (r1/r2)(2 t_f/pi)^2 on a sound cell), and `iterations` counts
the CG steps of both solves.  The cell falls through to route (b) when
the preconditioner is singular or not finite, CG does not converge, or the
refined full residual is not at round-off (below ROUND_OFF times the
magnitude of the terms it sums).

(b) Every other program (a hand-built one), and a transcribed one that
falls through, is solved through a dense singular-value factorization of
the full saddle matrix with one refinement step.  A transcribed program is
refused with SolveError before it is assembled when its H, Q and full
saddle matrix would not fit in physical memory.  Singular values below the
dense-rank cutoff count as zeros, so a singular but consistent system gets
its minimum-norm solution; the rank deficiency is their number,
`kkt_condition` is s_max / s_min over the kept singular values and
`iterations` is 0.  This route reads the dense program (for a transcribed
one, `Transcription.qp` is assembled here) and checks that H, b, Q, c are
finite and Q symmetric, then the constraint rows: rank-deficient rows (a
genuinely overdetermined or duplicated constraint set) are an error and
abort.  A saddle matrix whose entries overflow is rejected before the
factorization.

On both routes the residual and feasibility are checked on the full saddle
system, and an inconsistent system, a residual that is not a number and an
objective that overflows abort rather than silently returning a
least-squares compromise or an infinite cost.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .transcribe import DiscreteQp, Elimination, FactoredQp, GridIndexMap

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

#: CG on the reduced condensed system stops at |r| <= CG_TOL |rhs|.
CG_TOL = 1e-10

#: CG iterations allowed per solve before the cell falls through.
CG_MAX_ITERATIONS = 2000

#: The refined full residual of the condensed route must come out below this
#: times the magnitude of the terms it sums, or the cell falls through.
ROUND_OFF = 1e-12

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
    iterations: int


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


def _physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(grid: GridIndexMap) -> None:
    """Raise SolveError when the dense H and Q of a transcribed program and
    its full saddle matrix, which the SVD route forms, do not fit in
    physical memory together."""
    n, m = grid.n_unknowns, grid.block_size
    sizes = {"H": 8 * m * n, "Q": 8 * n * n, f"the {n + m}-square saddle matrix": 8 * (n + m) ** 2}
    available = _physical_memory()
    if sum(sizes.values()) > available:
        need = ", ".join(f"{name} {size / 1e9:.3g} GB" for name, size in sizes.items())
        raise SolveError(
            f"the SVD route needs {need}, more than the {available / 1e9:.3g} GB "
            "of physical memory"
        )


def _preconditioner(elim: Elimination, z_y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """M^-1 for the control term M = 2 r2 (K Z)' W (K Z) of the reduced
    Hessian, applied exactly by fast diagonalization on the space side.

    (K Z) Y = D Y Ah' + Y Ch' with Ah = A Z_y, Ch = C Z_y.  Times P1 and
    Ch^-T, Y (Ah' Ch^-T) + P1 Y = P1 X Ch^-T, and with Ah' Ch^-T = V L V^-1
    column k of Y V solves (l_k I + P1) y_k = P1 x_k, x = X Ch^-T V.  The
    transposed solve takes the transposes of the same N_y + 1 matrices
    T_k = (l_k I + P1)^-1 P1.  P1 itself is not diagonalized: its
    eigenvectors are far too ill conditioned.  Raises LinAlgError when the
    diagonalization is singular or not finite."""
    a_hat, c_hat = elim.a @ z_y, elim._mismatch() @ z_y
    lam, v = np.linalg.eig(np.linalg.solve(c_hat, a_hat).T)
    v_inv, ctv = np.linalg.inv(v), np.linalg.solve(c_hat.T, v)
    p1 = elim.p1
    tk = np.linalg.solve(lam[:, None, None] * np.eye(p1.shape[0]) + p1, p1)
    weight = 2.0 * elim.r2 * (elim.w_t[:, None] * elim.w_y)
    if not all(np.all(np.isfinite(m)) for m in (v_inv, ctv, tk)):
        raise np.linalg.LinAlgError("fast diagonalization is not finite")

    def columns(t: np.ndarray, x: np.ndarray) -> np.ndarray:
        return (t @ x.T[:, :, None])[:, :, 0].T

    def apply(r: np.ndarray) -> np.ndarray:
        chi = columns(tk.transpose(0, 2, 1), r @ v_inv.T) @ ctv.T
        return (columns(tk, (chi.real / weight) @ ctv) @ v_inv).real

    return apply


def _pcg(
    apply: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
) -> tuple[np.ndarray, list[float], list[float]] | None:
    """(x, alphas, betas) of preconditioned CG on apply(x) = rhs from x = 0,
    or None when it does not reach |r| <= CG_TOL |rhs| within
    CG_MAX_ITERATIONS or stops being finite.  A breakdown (a zero
    denominator) gives NaN, which ends the iteration."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    tol = (CG_TOL * np.linalg.norm(rhs)) ** 2
    alphas, betas, rz, p = [], [], 1.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(CG_MAX_ITERATIONS + 1):
            rr = np.vdot(r, r)
            if not np.isfinite(rr):
                return None
            if rr <= tol:
                return x, alphas, betas
            if k == CG_MAX_ITERATIONS:
                return None
            z = precondition(r)
            rz, rz_old = np.vdot(r, z), rz
            if k:
                betas.append(rz / rz_old)
                z += betas[-1] * p
            p = z
            q = apply(p)
            alphas.append(rz / np.vdot(p, q))
            x += alphas[-1] * p
            r -= alphas[-1] * q


def _ritz_ratio(alphas: list[float], betas: list[float], steps: int) -> float:
    """max |theta| / min |theta| over the Ritz values theta of the Lanczos
    matrix of the first `steps` CG iterations: a lower bound for the
    condition number of the preconditioned operator.  The matrix is the
    tridiagonal with diagonal 1/a_j + b_j/a_(j-1), subdiagonal 1/a_j and
    superdiagonal b_(j+1)/a_j, similar to the symmetric one when every
    b > 0 and defined even when the preconditioner is indefinite."""
    inv = 1.0 / np.array(alphas[:steps])
    if not inv.size:
        return 1.0
    upper = np.multiply(betas[: inv.size - 1], inv[:-1])
    lanczos = np.diag(inv + np.append(0.0, upper)) + np.diag(inv[:-1], -1) + np.diag(upper, 1)
    ritz = np.abs(np.linalg.eigvals(lanczos))
    return float(ritz.max() / ritz.min())


class _NullSpace:
    """The condensed saddle system [2 Qc, F'; F, 0] [zeta; mu] = [r; g]
    reduced onto the null space of its flux rows F zeta = zeta f, f = [w_y; 0].

    Z_y, the last N_y + 1 columns of the Householder reflection that takes
    f to a multiple of e_0, is an orthonormal basis of f's complement, so
    zeta = g f' / |f|^2 + Y Z_y'.  Y solves the reduced system
    (2 Qc (Y Z_y')) Z_y = (r - 2 Qc zeta_g) Z_y by CG preconditioned with
    the exact control term, and mu = (r - 2 Qc zeta) f / |f|^2 per time row."""

    def __init__(self, elim: Elimination):
        self.elim = elim
        self.f = np.append(elim.w_y, 0.0)
        self.f2 = float(self.f @ self.f)
        v = self.f.copy()
        v[0] += np.copysign(np.sqrt(self.f2), v[0])
        self.z_y = (np.eye(v.size) - (2.0 / float(v @ v)) * np.outer(v, v))[:, 1:]
        self.precondition = _preconditioner(elim, self.z_y)

    def hessian(self, zeta: np.ndarray) -> np.ndarray:
        return 2.0 * self.elim.qc_mul(zeta)

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, list[float], list[float]] | None:
        """([zeta; mu], CG alphas, CG betas), or None when CG fails."""
        grid = self.elim.grid
        r = rhs[: -(grid.n_t + 1)].reshape(grid.n_t + 1, grid.n_y + 2)
        zeta = np.outer(rhs[-(grid.n_t + 1) :] / self.f2, self.f)
        r_y = (r - self.hessian(zeta)) @ self.z_y
        cg = _pcg(lambda y: self.hessian(y @ self.z_y.T) @ self.z_y, self.precondition, r_y)
        if cg is None:
            return None
        y, alphas, betas = cg
        zeta += y @ self.z_y.T
        mu = (r - self.hessian(zeta)) @ self.f / self.f2
        return np.concatenate([zeta.ravel(), mu]), alphas, betas


def _condensed_solve(elim: Elimination) -> tuple[np.ndarray, np.ndarray, float, int] | None:
    """(z, lambda, condition estimate, CG iterations) through the
    elimination, or None when the preconditioner cannot be set up, CG fails
    or the refined residual is not at round-off.

    The refinement step solves for the correction of the full saddle
    residual, mapped through the same elimination, since the condensed
    residual does not see the round-off of D = P1^-1 in the condensed
    Hessian."""
    try:
        reduced = _NullSpace(elim)
        z_p, r = elim.rhs(elim.c, elim.b)
        first = reduced.solve(r)
        if first is None:
            return None
        x, alphas, betas = first
        cond = _ritz_ratio(alphas, betas, max(elim.grid.n_t + 1, elim.grid.n_y + 2))
        z, lam = elim.expand(elim.c, z_p, x)
        r_s, r_c = _residual(elim, z, lam)
        dz_p, dr = elim.rhs(-r_s, r_c)
        second = reduced.solve(dr)
        if second is None:
            return None
        dz, dlam = elim.expand(-r_s, dz_p, second[0])
    except np.linalg.LinAlgError:
        return None
    z, lam = z - dz, lam - dlam
    r_s, r_c = _residual(elim, z, lam)
    grad = 2.0 * np.abs(elim.q_mul(z)) + np.abs(elim.c) + np.abs(elim.ht_mul(lam))
    rows = np.abs(elim.h_mul(z)) + np.abs(elim.b)
    if not (
        np.max(np.abs(r_s)) <= ROUND_OFF * np.max(grad)
        and np.max(np.abs(r_c)) <= ROUND_OFF * np.max(rows)
    ):
        return None
    return z, lam, cond, len(alphas) + len(second[1])


def solve(qp: DiscreteQp | FactoredQp) -> QpSolution:
    """Solve the QP; returns the minimum-norm first-order optimal point."""
    elim = qp.elimination
    if elim is not None:
        _check_factors(elim)
    condensed = _condensed_solve(elim) if elim is not None else None
    if condensed is not None:
        z, lam, cond, iterations = condensed
        deficiency = elim.eliminated
        prog = elim
    else:
        if elim is not None:
            _check_fits(elim.grid)
        iterations = 0
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
        iterations=iterations,
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
