"""Solution of the equality-constrained quadratic programs produced by the
transcription.

The first-order optimality conditions form the symmetric saddle system

    [2Q  H'] [Z     ]   [-c]
    [H   0 ] [lambda] = [ b].

A transcribed program carries its `Elimination`, which condenses it onto
the free data of the state: the dynamics rows give the interior control
through integration matrices, and phi and u at y = 0 enter only through
their sum, split evenly.  What is left is the condensed saddle system
[2 Qc, F'; F, 0] of (N_y + 3)(N_t + 1) rows, whose only constraints are the
N_t + 1 flux rows.  The solver reads nothing but the elimination: b, c, j0
and the products with Q, H, H' and Qc come from its Kronecker factors as
(N_t + 1) x (N_y + 2) matrix products, and its input checks ask that the
factors be finite and Q's time and space factors symmetric.  A program
without an elimination is refused.  The flux rows have an explicit
Kronecker null space, so the solver reduces the condensed system onto it
and solves the reduced system, SPD for a sound cell, by conjugate gradients
preconditioned with its control term, which fast diagonalization on the
space side applies exactly (Benzi, Golub & Liesen, Acta Numer. 14 (2005);
Lynch, Rice & Thomas, Numer. Math. 6 (1964)).  No array of O(N^4) entries
is formed, and no matrix larger than a time or space factor is factored.
The result is lifted back to Z and lambda.  The one refinement step takes
the residual of the full saddle system, maps it through the same
elimination and solves again; a refinement on the condensed residual alone
would not see the round-off that D = P1^-1 carries into the condensed
Hessian, squared in its control term.  The N_t + 1 split directions that
the condensing removes are the reported rank deficiency, and `iterations`
counts the CG steps of both solves.

A cell fails with SolveError naming the step: the preconditioner cannot be
set up (a singular or non-finite diagonalization), CG on the first or on
the refinement solve does not converge, or the refined full residual is not
at round-off (below ROUND_OFF times the magnitude of the terms it sums;
this also catches a residual that is not a number).  An inconsistent or
infeasible result and an objective that overflows end in SolveError too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .transcribe import DiscreteQp, Elimination, FactoredQp

__all__ = [
    "QpSolution",
    "SolveError",
    "solve",
]

#: Feasibility must come out no worse than this times max(1, |b|_inf).
FEASIBILITY_TOL = 1e-8

#: CG on the reduced condensed system stops at |r| <= CG_TOL |rhs|.
CG_TOL = 1e-10

#: CG iterations allowed per solve before the cell fails.
CG_MAX_ITERATIONS = 2000

#: The refined full residual must come out below this times the magnitude
#: of the terms it sums, or the cell fails.
ROUND_OFF = 1e-12


class SolveError(RuntimeError):
    """The saddle system could not be solved to the required residuals."""


@dataclass(frozen=True)
class QpSolution:
    """Minimizer, multipliers and solve-time diagnostics.

    `kkt_condition` is max |theta| / min |theta| over the Ritz values theta
    of the first max(N_t + 1, N_y + 2) CG steps of the first solve: a lower
    bound for the condition number of the preconditioned reduced system,
    1 + (r1/r2)(2 t_f/pi)^2 on a sound cell.  It reads low when CG runs many
    more steps than that: 2.6e4 against about 4e5 at t_f = 100, r1 = 50."""

    z: np.ndarray
    j: float
    kkt_residual: float
    feasibility: float
    multipliers: np.ndarray
    kkt_condition: float
    kkt_rank_deficiency: int
    iterations: int


def _residual(elim: Elimination, z: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the full saddle system: (stationarity, constraints)."""
    return 2.0 * elim.q_mul(z) + elim.c + elim.ht_mul(lam), elim.h_mul(z) - elim.b


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
    step: str,
) -> tuple[np.ndarray, list[float], list[float]]:
    """(x, alphas, betas) of preconditioned CG on apply(x) = rhs from x = 0.
    Raises SolveError naming `step` when CG stops being finite or does not
    reach |r| <= CG_TOL |rhs| within CG_MAX_ITERATIONS.  A breakdown (a
    zero denominator) gives NaN, which ends the iteration."""
    x = np.zeros_like(rhs)
    r = rhs.copy()
    tol = (CG_TOL * np.linalg.norm(rhs)) ** 2
    alphas, betas, rz, p = [], [], 1.0, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(CG_MAX_ITERATIONS + 1):
            rr = np.vdot(r, r)
            if not np.isfinite(rr):
                raise SolveError(f"CG on the {step} solve is not finite after {k} iterations")
            if rr <= tol:
                return x, alphas, betas
            if k == CG_MAX_ITERATIONS:
                raise SolveError(
                    f"CG on the {step} solve did not reach |r| <= {CG_TOL:g} |rhs| "
                    f"in {k} iterations"
                )
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

    def solve(self, rhs: np.ndarray, step: str) -> tuple[np.ndarray, list[float], list[float]]:
        """([zeta; mu], CG alphas, CG betas); CG failing raises SolveError
        naming `step`."""
        grid = self.elim.grid
        r = rhs[: -(grid.n_t + 1)].reshape(grid.n_t + 1, grid.n_y + 2)
        zeta = np.outer(rhs[-(grid.n_t + 1) :] / self.f2, self.f)
        r_y = (r - self.hessian(zeta)) @ self.z_y
        y, alphas, betas = _pcg(
            lambda y: self.hessian(y @ self.z_y.T) @ self.z_y, self.precondition, r_y, step
        )
        zeta += y @ self.z_y.T
        mu = (r - self.hessian(zeta)) @ self.f / self.f2
        return np.concatenate([zeta.ravel(), mu]), alphas, betas


def solve(qp: DiscreteQp | FactoredQp) -> QpSolution:
    """Solve a transcribed QP through its elimination, with one refinement
    step on the full saddle residual; returns the minimum-norm first-order
    optimal point.  Raises ValueError for a program without an elimination
    and SolveError naming the step that fails."""
    elim = qp.elimination
    if elim is None:
        raise ValueError("the program has no elimination; only transcribed programs are solved")
    _check_factors(elim)
    try:
        reduced = _NullSpace(elim)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"preconditioner setup failed: {exc}") from exc
    z_p, r = elim.rhs(elim.c, elim.b)
    x, alphas, betas = reduced.solve(r, "first")
    z, lam = elim.expand(elim.c, z_p, x)
    r_s, r_c = _residual(elim, z, lam)
    dz_p, dr = elim.rhs(-r_s, r_c)
    dx, refinement, _ = reduced.solve(dr, "refinement")
    dz, dlam = elim.expand(-r_s, dz_p, dx)
    z, lam = z - dz, lam - dlam

    # Residual of the full saddle system: stationarity, then constraints.
    r_s, r_c = _residual(elim, z, lam)
    stationarity, feasibility = float(np.max(np.abs(r_s))), float(np.max(np.abs(r_c)))
    grad = np.max(2.0 * np.abs(elim.q_mul(z)) + np.abs(elim.c) + np.abs(elim.ht_mul(lam)))
    rows = np.max(elim.h_terms(z) + np.abs(elim.b))
    if not (stationarity <= ROUND_OFF * grad and feasibility <= ROUND_OFF * rows):
        raise SolveError(
            f"refined residual is not at round-off: stationarity {stationarity:.3e} against "
            f"terms up to {grad:.3e}, constraints {feasibility:.3e} against terms up to {rows:.3e}"
        )
    rhs_scale = max(1.0, float(np.max(np.abs(np.concatenate([elim.c, elim.b])))))
    worst = max(stationarity, feasibility)
    if not worst <= 1e-7 * rhs_scale:
        raise SolveError(f"saddle system is inconsistent (residual {worst:.3e})")
    b_scale = max(1.0, float(np.max(np.abs(elim.b))))
    if not feasibility <= FEASIBILITY_TOL * b_scale:
        raise SolveError(f"constraints violated beyond tolerance ({feasibility:.3e})")
    j = float(z @ elim.q_mul(z) + elim.c @ z + elim.j0)
    if not np.isfinite(j):
        raise SolveError(f"objective is not finite ({j})")
    return QpSolution(
        z=z,
        j=j,
        kkt_residual=stationarity,
        feasibility=feasibility,
        multipliers=lam,
        kkt_condition=_ritz_ratio(alphas, betas, max(elim.grid.n_t + 1, elim.grid.n_y + 2)),
        kkt_rank_deficiency=elim.eliminated,
        iterations=len(alphas) + len(refinement),
    )
