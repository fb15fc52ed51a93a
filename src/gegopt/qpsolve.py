"""Solution of the equality-constrained quadratic programs produced by the
transcription.

The first-order optimality conditions form the symmetric saddle system

    [2Q  H'] [Z     ]   [-c]
    [H   0 ] [lambda] = [ b].

The solver condenses a transcribed program, `DiscreteQp`, onto the free
data of the state through its Kronecker factors (`_Condensed`): the
dynamics rows give the interior control through integration matrices, and
phi and u at y = 0 enter only through their sum, split evenly.  What is left
is the condensed saddle system [2 Qc, F'; F, 0] of (N_y + 3)(N_t + 1) rows,
whose only constraints are the N_t + 1 flux rows.  The solver reads nothing
but the factors, never the dense H or Q: b, c, j0 and the products with Q,
H, H' and Qc are (N_t + 1) x (N_y + 2) matrix products of them, and its
input checks ask that the factors be finite and Q's time and space factors
symmetric.  The flux rows have an explicit Kronecker null space, so the
solver reduces the condensed system onto it and solves the reduced system,
SPD for a sound cell, by conjugate gradients preconditioned with its
control term, which fast diagonalization on the space side applies exactly
(Benzi, Golub & Liesen, Acta Numer. 14 (2005); Lynch, Rice & Thomas,
Numer. Math. 6 (1964)).  No array of O(N^4) entries is formed, and no
matrix larger than a time or space factor is factored.
The result is lifted back to Z and lambda.  `solve` takes one correction
step twice from Z = lambda = 0: each maps the residual of the full saddle
system through the condensing, solves, and subtracts the result.  The
first step gives the solution, the second refines it; a refinement on the
condensed residual alone would not see the round-off that D = P1^-1
carries into the condensed Hessian, squared in its control term.  The
N_t + 1 split directions that the condensing removes are the reported rank
deficiency, and `iterations` counts the CG steps of both solves.

A cell fails with SolveError naming the step: the preconditioner cannot be
set up (a singular or non-finite P1^-1 or diagonalization), CG on the first
or on the refinement solve does not converge, or the refined full residual
is not at round-off (below ROUND_OFF times the magnitude of the terms it
sums; this also catches a residual that is not a number).  An inconsistent
result and an objective that overflows end in SolveError too.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .transcribe import DiscreteQp

__all__ = [
    "QpSolution",
    "SolveError",
    "solve",
]

#: Feasibility |H z - b| that a check of a solved cell accepts, times the
#: scale of b.  The solver holds it to ROUND_OFF times the magnitude of the
#: terms the constraint rows sum, which is tighter.
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


def _residual(qp: DiscreteQp, z: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the full saddle system: (stationarity, constraints)."""
    return 2.0 * qp.q_mul(z) + qp.c + qp.ht_mul(lam), qp.h_mul(z) - qp.b


def _check_factors(qp: DiscreteQp) -> None:
    """A program's factors and data must be finite, and the time and space
    factors of Q symmetric."""
    for f in fields(qp):
        value = getattr(qp, f.name)
        if f.name != "grid" and not np.all(np.isfinite(value)):
            raise ValueError(f"non-finite entries in program factor {f.name}")
    for name in ("q_t", "q_y"):
        factor = getattr(qp, name)
        scale = max(1.0, float(np.max(np.abs(factor), initial=0.0)))
        if float(np.max(np.abs(factor - factor.T), initial=0.0)) > 1e-12 * scale:
            raise ValueError(f"cost factor {name} must be symmetric")


def _preconditioner(qp: DiscreteQp, z_y: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """M^-1 for the control term M = 2 r2 (K Z)' W (K Z) of the reduced
    Hessian, applied exactly by fast diagonalization on the space side.

    (K Z) Y = D Y Ah' + Y Ch' with Ah = A Z_y, Ch = C Z_y.  Times P1 and
    Ch^-T, Y (Ah' Ch^-T) + P1 Y = P1 X Ch^-T, and with Ah' Ch^-T = V L V^-1
    column k of Y V solves (l_k I + P1) y_k = P1 x_k, x = X Ch^-T V.  The
    transposed solve takes the transposes of the same N_y + 1 matrices
    T_k = (l_k I + P1)^-1 P1.  P1 itself is not diagonalized: its
    eigenvectors are far too ill conditioned.  Raises LinAlgError when the
    diagonalization is singular or not finite."""
    a_hat, c_hat = qp.a @ z_y, qp.mismatch @ z_y
    lam, v = np.linalg.eig(np.linalg.solve(c_hat, a_hat).T)
    v_inv, ctv = np.linalg.inv(v), np.linalg.solve(c_hat.T, v)
    p1 = qp.p1
    tk = np.linalg.solve(lam[:, None, None] * np.eye(p1.shape[0]) + p1, p1)
    weight = 2.0 * qp.r2 * (qp.w_t[:, None] * qp.w_y)
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


class _Condensed:
    """The program condensed onto the free data of the state, and the
    condensed saddle system solved on the null space of its flux rows.

    The condensed unknowns zeta form one (N_t + 1) x (N_y + 2) time-major
    block: slots 0..N_y hold the interior phi values E phi, slot N_y + 1
    holds v = phi_b + u_b, the sum through which alone the y = 0 values
    enter the program.  On the dynamics rows H_d Z = r the state and the
    interior control are affine in zeta, through integration matrices only:

        x  = fbar - r + G zeta,        G = I_t (x) A + P1 (x) B,
        Eu = K zeta - (D (x) I) r,     K = D (x) A + I_t (x) C,

    with A = P2 E, B = 1 e_b', C = B - E and D = P1^-1; for the transcribed
    r = f(y_i) - f(0) the state is x = f(0) + G zeta.  phi_b and u_b each
    take v / 2, the minimum-norm split, so the N_t + 1 null directions that
    split v are stated, not discovered.  The condensed Hessian
    Qc = r1 G' W G + r2 K' W K, W = W_t (x) W_y, is a sum of eight Kronecker
    products, each an (N_t + 1)^2 time factor times an (N_y + 2)^2 space
    factor, and the only constraints left are the N_t + 1 flux rows
    F zeta = zeta f, f = [w_y; 0].

    Z_y, the last N_y + 1 columns of the Householder reflection that takes
    f to a multiple of e_0, is an orthonormal basis of f's complement, so
    zeta = g f' / |f|^2 + Y Z_y' for flux rows F zeta = g.  Y solves the
    reduced system (2 Qc (Y Z_y')) Z_y = (r - 2 Qc zeta_g) Z_y by CG
    preconditioned with the exact control term, and the flux multipliers are
    mu = (r - 2 Qc zeta) f / |f|^2 per time row.  Raises LinAlgError when
    D or the preconditioner cannot be set up."""

    def __init__(self, qp: DiscreteQp):
        self.qp = qp
        self.d, self.c = np.linalg.inv(qp.p1), qp.mismatch
        if not np.all(np.isfinite(self.d)):
            raise np.linalg.LinAlgError("P1^-1 is not finite")
        self.f = np.append(qp.w_y, 0.0)
        self.f2 = float(self.f @ self.f)
        v = self.f.copy()
        v[0] += np.copysign(np.sqrt(self.f2), v[0])
        self.z_y = (np.eye(v.size) - (2.0 / float(v @ v)) * np.outer(v, v))[:, 1:]
        self.precondition = _preconditioner(qp, self.z_y)

    def lift(self, zeta: np.ndarray, r: np.ndarray | float) -> np.ndarray:
        """Full unknown vector Z of zeta on the dynamics rows H_d Z = r."""
        phi = zeta.copy()
        phi[:, -1] *= 0.5
        u = np.empty_like(phi)
        u[:, :-1] = self.d @ (zeta @ self.qp.a.T - r) + zeta @ self.c.T
        u[:, -1] = phi[:, -1]
        return np.concatenate([phi.ravel(), u.ravel()])

    def pull(self, g: np.ndarray) -> np.ndarray:
        """T' g: a gradient in Z taken to zeta by the adjoint of the linear
        part of `lift`."""
        phi, u = self.qp.grid.blocks(g)
        out = phi.copy()
        out[:, -1] = 0.5 * (phi[:, -1] + u[:, -1])
        u_int = u[:, :-1]
        out += self.d.T @ u_int @ self.qp.a + u_int @ self.c
        return out

    def hessian(self, zeta: np.ndarray) -> np.ndarray:
        """2 Qc zeta, the condensed Hessian r1 G' W G + r2 K' W K applied as
        (N_t + 1) x (N_y + 2) matrix products: G zeta = zeta A' + P1 zeta B',
        K zeta = D zeta A' + zeta C', G' chi = chi A + P1' chi B and
        K' chi = D' chi A + chi C, with W = w_t w_y' entrywise.  B = 1 e_b'
        reads only the y = 0 slot v of zeta and writes only that slot of
        G' chi."""
        qp = self.qp
        w = qp.w_t[:, None] * qp.w_y
        za, v = zeta @ qp.a.T, zeta[:, -1:]
        state = qp.r1 * w * (za + qp.p1 @ v)
        control = qp.r2 * w * (self.d @ za + v - zeta[:, :-1])
        out = (state + self.d.T @ control) @ qp.a
        out[:, :-1] -= control
        out[:, -1] += qp.p1.T @ state.sum(axis=1) + control.sum(axis=1)
        return 2.0 * out

    def solve(
        self, c: np.ndarray, b: np.ndarray, step: str
    ) -> tuple[np.ndarray, np.ndarray, list[float], list[float]]:
        """(Z, lambda, CG alphas, CG betas) minimizing Z' Q Z + c' Z over
        H Z = b; CG failing raises SolveError naming `step`.

        Z_p solves the dynamics rows with zeta = 0, and r = -T' (2 Q Z_p + c)
        is the condensed right-hand side.  The dynamics multipliers follow
        from the stationarity rows of the interior control,
        (2 Q Z + c)_Eu = (P1' (x) I) lambda_d: one P1' solve."""
        qp, n_t = self.qp, self.qp.grid.n_t + 1
        z_p = self.lift(np.zeros((n_t, qp.grid.n_y + 2)), b[:-n_t].reshape(n_t, -1))
        r = -self.pull(2.0 * qp.q_mul(z_p) + c)
        zeta = np.outer(b[-n_t:] / self.f2, self.f)
        r_y = (r - self.hessian(zeta)) @ self.z_y
        y, alphas, betas = _pcg(
            lambda y: self.hessian(y @ self.z_y.T) @ self.z_y, self.precondition, r_y, step
        )
        zeta += y @ self.z_y.T
        mu = (r - self.hessian(zeta)) @ self.f / self.f2
        z = z_p + self.lift(zeta, 0.0)
        g = qp.grid.blocks(2.0 * qp.q_mul(z) + c)
        lam_d = np.linalg.solve(qp.p1.T, g[1, :, :-1])
        return z, np.concatenate([lam_d.ravel(), mu]), alphas, betas


def solve(qp: DiscreteQp) -> QpSolution:
    """Solve a transcribed QP through its factors by one correction step
    on the full saddle residual, taken twice from Z = lambda = 0; returns
    the minimum-norm first-order optimal point.  Raises ValueError for
    non-finite or asymmetric factors and SolveError naming the step that
    fails."""
    _check_factors(qp)
    try:
        condensed = _Condensed(qp)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"preconditioner setup failed: {exc}") from exc
    z, lam, cg = np.zeros(qp.grid.n_unknowns), np.zeros_like(qp.b), []
    for step in ("first", "refinement"):
        r_s, r_c = _residual(qp, z, lam)
        dz, dlam, alphas, betas = condensed.solve(-r_s, r_c, step)
        z, lam = z - dz, lam - dlam
        cg.append((alphas, betas))
    (alphas, betas), (refinement, _) = cg

    # Residual of the full saddle system: stationarity, then constraints.
    r_s, r_c = _residual(qp, z, lam)
    stationarity, feasibility = float(np.max(np.abs(r_s))), float(np.max(np.abs(r_c)))
    grad = np.max(2.0 * np.abs(qp.q_mul(z)) + np.abs(qp.c) + np.abs(qp.ht_mul(lam)))
    rows = np.max(qp.h_terms(z) + np.abs(qp.b))
    if not (stationarity <= ROUND_OFF * grad and feasibility <= ROUND_OFF * rows):
        raise SolveError(
            f"refined residual is not at round-off: stationarity {stationarity:.3e} against "
            f"terms up to {grad:.3e}, constraints {feasibility:.3e} against terms up to {rows:.3e}"
        )
    rhs_scale = max(1.0, float(np.max(np.abs(np.concatenate([qp.c, qp.b])))))
    worst = max(stationarity, feasibility)
    if not worst <= 1e-7 * rhs_scale:
        raise SolveError(f"saddle system is inconsistent (residual {worst:.3e})")
    j = float(z @ qp.q_mul(z) + qp.c @ z + qp.j0)
    if not np.isfinite(j):
        raise SolveError(f"objective is not finite ({j})")
    return QpSolution(
        z=z,
        j=j,
        kkt_residual=stationarity,
        feasibility=feasibility,
        multipliers=lam,
        kkt_condition=_ritz_ratio(alphas, betas, max(qp.grid.n_t + 1, qp.grid.n_y + 2)),
        kkt_rank_deficiency=qp.grid.n_t + 1,  # one boundary split per time node
        iterations=len(alphas) + len(refinement),
    )
