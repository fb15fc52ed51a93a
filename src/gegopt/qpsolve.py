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
H and H' are (N_t + 1) x (N_y + 2) matrix products of them, the condensed
Hessian is the product with Q taken between the condensing map and its
adjoint, and the input check asks that the factors be finite.
The flux rows have an explicit Kronecker null space, so the
solver reduces the condensed system onto it and solves the reduced system,
SPD for a sound cell, by conjugate gradients preconditioned with its
control term, which fast diagonalization on the space side applies exactly
(Benzi, Golub & Liesen, Acta Numer. 14 (2005); Lynch, Rice & Thomas,
Numer. Math. 6 (1964)).  No array of O(N^4) entries is formed, and no
matrix larger than a time or space factor is factored.
The result is lifted back to Z and lambda.  `solve` takes correction
steps from Z = lambda = 0: each maps the residual of the full saddle
system through the condensing, solves, and subtracts the result.  The
first step gives the solution, the next ones refine it until the residual
is at round-off; a refinement on the condensed residual alone would not
see the round-off that D = P1^-1 carries into the condensed Hessian,
squared in its control term.  The N_t + 1 split directions that the
condensing removes are the reported rank deficiency, and `iterations`
counts the CG steps of every solve.

A cell fails with SolveError naming the step: the preconditioner cannot be
set up (a singular or non-finite P1^-1 or diagonalization), CG on one of
the solves does not converge, or the refined full residual
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

#: The correction steps, at least two: from N = 200 on a third can be needed
#: (the second leaves 1.6e-11 at N = 200, alpha = 0).  A later step that
#: would move Z by more than CG_TOL of its size is not taken: it corrects
#: more than round-off, as where the refinement stalls (alpha >= 15).
CORRECTION_STEPS = ("first", "refinement", "second refinement", "third refinement")


class SolveError(RuntimeError):
    """The saddle system could not be solved to the required residuals."""


@dataclass(frozen=True)
class QpSolution:
    """Minimizer, multipliers and solve-time diagnostics.

    `kkt_condition` is max |theta| / min |theta| over the Ritz values theta
    of every CG step of the first solve: a lower bound for the condition
    number of the preconditioned reduced system, 1 + (r1/r2)(2 t_f/pi)^2 on
    a sound cell (3.99e5 against 4.05e5 at t_f = 100, r1 = 50, r2 = 0.5,
    N = 8)."""

    z: np.ndarray
    j: float
    kkt_residual: float
    feasibility: float
    multipliers: np.ndarray
    kkt_condition: float
    kkt_rank_deficiency: int
    iterations: int


def _check_factors(qp: DiscreteQp) -> None:
    """A program's factors and data must be finite."""
    for f in fields(qp):
        if not np.all(np.isfinite(getattr(qp, f.name))):
            raise ValueError(f"non-finite entries in program factor {f.name}")


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


def _ritz_ratio(alphas: list[float], betas: list[float]) -> float:
    """max |theta| / min |theta| over the Ritz values theta of the Lanczos
    matrix of the CG iterations: a lower bound for the condition number of
    the preconditioned operator.  The matrix is the tridiagonal with
    diagonal 1/a_j + b_j/a_(j-1), subdiagonal 1/a_j and superdiagonal
    b_(j+1)/a_j, similar to the symmetric one when every b > 0 and defined
    even when the preconditioner is indefinite."""
    inv = 1.0 / np.array(alphas)
    if not inv.size:
        return 1.0
    upper = np.multiply(betas, inv[:-1])
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
    split v are stated, not discovered.  With T the linear part of this map
    from zeta to Z (`lift`) and T' its adjoint (`pull`), the condensed
    Hessian is 2 Qc = T' (2 Q) T, applied through the program's own Q
    product, and the only constraints left are the N_t + 1 flux rows
    F zeta = zeta f, f = [w_y; 0].

    Z_y, the last N_y + 1 columns of the Householder reflection that takes
    f to a multiple of e_0, is an orthonormal basis of f's complement, so
    zeta = g f' / |f|^2 + Y Z_y' for flux rows F zeta = g.  Y solves the
    reduced system (2 Qc (Y Z_y')) Z_y = -T' (2 Q lift(zeta_g, r) + c) Z_y
    by CG preconditioned with the exact control term, and the flux
    multipliers are mu = -(T' g) f / |f|^2 per time row, g = 2 Q Z + c the
    gradient at the solution.  Raises LinAlgError when D or the
    preconditioner cannot be set up."""

    def __init__(self, qp: DiscreteQp):
        self.qp = qp
        self.d = np.linalg.inv(qp.p1)
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
        u[:, :-1] = self.d @ (zeta @ self.qp.a.T - r) + zeta @ self.qp.mismatch.T
        u[:, -1] = phi[:, -1]
        return np.concatenate([phi.ravel(), u.ravel()])

    def pull(self, g: np.ndarray) -> np.ndarray:
        """T' g: a gradient in Z taken to zeta by the adjoint of the linear
        part of `lift`."""
        phi, u = self.qp.grid.blocks(g)
        out = phi.copy()
        out[:, -1] = 0.5 * (phi[:, -1] + u[:, -1])
        u_int = u[:, :-1]
        out += self.d.T @ u_int @ self.qp.a + u_int @ self.qp.mismatch
        return out

    def hessian(self, zeta: np.ndarray) -> np.ndarray:
        """2 Qc zeta = T' (2 Q) T zeta."""
        return self.pull(2.0 * self.qp.q_mul(self.lift(zeta, 0.0)))

    def solve(
        self, c: np.ndarray, b: np.ndarray, step: str
    ) -> tuple[np.ndarray, np.ndarray, list[float], list[float]]:
        """(Z, lambda, CG alphas, CG betas) minimizing Z' Q Z + c' Z over
        H Z = b; CG failing raises SolveError naming `step`.

        zeta_g meets the flux rows of b and r_d holds b's dynamics rows, so
        the reduced right-hand side is -T' (2 Q lift(zeta_g, r_d) + c) Z_y.  The
        multipliers are read off the one gradient g = 2 Q Z + c: the flux
        multipliers are mu = -(T' g) f / |f|^2, and the dynamics multipliers
        follow from the stationarity rows of the interior control,
        g_Eu = (P1' (x) I) lambda_d: one P1' solve."""
        qp, n_t = self.qp, self.qp.grid.n_t + 1
        r_d = b[:-n_t].reshape(n_t, -1)
        zeta = np.outer(b[-n_t:] / self.f2, self.f)
        rhs = -self.pull(2.0 * qp.q_mul(self.lift(zeta, r_d)) + c) @ self.z_y
        y, alphas, betas = _pcg(
            lambda y: self.hessian(y @ self.z_y.T) @ self.z_y, self.precondition, rhs, step
        )
        z = self.lift(zeta + y @ self.z_y.T, r_d)
        g = 2.0 * qp.q_mul(z) + c
        mu = -self.pull(g) @ self.f / self.f2
        lam_d = np.linalg.solve(qp.p1.T, qp.grid.blocks(g)[1, :, :-1])
        return z, np.concatenate([lam_d.ravel(), mu]), alphas, betas


def solve(qp: DiscreteQp) -> QpSolution:
    """Solve a transcribed QP through its factors by correction steps on
    the full saddle residual from Z = lambda = 0 (CORRECTION_STEPS); returns
    the minimum-norm first-order optimal point.  Raises ValueError for
    non-finite factors and SolveError naming the step that fails."""
    _check_factors(qp)
    try:
        condensed = _Condensed(qp)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"preconditioner setup failed: {exc}") from exc
    z, lam, cg = np.zeros(qp.grid.n_unknowns), np.zeros_like(qp.b), []
    while True:
        # Residual of the full saddle system: stationarity, then constraints.
        qz, ht = qp.q_mul(z), qp.ht_mul(lam)
        r_s, r_c = 2.0 * qz + qp.c + ht, qp.h_mul(z) - qp.b
        if len(cg) >= 2:
            stationarity, feasibility = float(np.max(np.abs(r_s))), float(np.max(np.abs(r_c)))
            grad = np.max(2.0 * np.abs(qz) + np.abs(qp.c) + np.abs(ht))
            rows = np.max(qp.h_terms(z) + np.abs(qp.b))
            at_round_off = stationarity <= ROUND_OFF * grad and feasibility <= ROUND_OFF * rows
            if at_round_off or len(cg) == len(CORRECTION_STEPS):
                break
        dz, dlam, alphas, betas = condensed.solve(-r_s, r_c, CORRECTION_STEPS[len(cg)])
        cg.append((alphas, betas))
        if len(cg) > 2 and np.max(np.abs(dz)) > CG_TOL * np.max(np.abs(z)):
            break
        z, lam = z - dz, lam - dlam
    if not at_round_off:
        raise SolveError(
            f"refined residual is not at round-off: stationarity {stationarity:.3e} against "
            f"terms up to {grad:.3e}, constraints {feasibility:.3e} against terms up to {rows:.3e}"
        )
    rhs_scale = max(1.0, float(np.max(np.abs(np.concatenate([qp.c, qp.b])))))
    worst = max(stationarity, feasibility)
    if not worst <= 1e-7 * rhs_scale:
        raise SolveError(f"saddle system is inconsistent (residual {worst:.3e})")
    j = float(z @ qz + qp.c @ z + qp.j0)
    if not np.isfinite(j):
        raise SolveError(f"objective is not finite ({j})")
    return QpSolution(
        z=z,
        j=j,
        kkt_residual=stationarity,
        feasibility=feasibility,
        multipliers=lam,
        kkt_condition=_ritz_ratio(*cg[0]),
        kkt_rank_deficiency=qp.grid.n_t + 1,  # one boundary split per time node
        iterations=sum(len(alphas) for alphas, _ in cg),
    )
