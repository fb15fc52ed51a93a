"""Transcription of the diffusion control problem into an equality-constrained
quadratic program.

Problem: minimize the integral over (y, t) in [0, L] x [0, t_final] of
r1 x^2 + r2 u^2 subject to x_t = x_yy + u with insulated (zero-flux)
boundaries at y = 0 and y = L and initial profile x(y, 0) = f(y).

The state is eliminated in favor of phi = x_yy.  Two integrations in y plus
one integration in t of the dynamics give, for every interior collocation
point, an integral equation that is linear in phi and u; the integration
constant in time is fixed by f, and the zero-flux condition at y = L
becomes the requirement that phi integrate to zero across [0, L] at every
time node.  Collocating both coordinates on Gauss nodes and replacing every
integral by the corresponding integration-matrix row yields H Z = b with

    Z = [phi-block, u-block],

where each block holds, for every time node j, the values at the N_y + 1
interior space nodes plus one extra value at the boundary y = 0 (the value
at y = 0 enters the eliminated integration constant, so it is a genuine
unknown).  Each block is an (N_t + 1) x (N_y + 2) array stored time-major:
flat index i + j (N_y + 2) holds space slot i (i = N_y + 1 meaning y = 0)
at time node j.  Every matrix of the program is therefore a Kronecker
product of a time factor (N_t + 1 square) and a space factor over the
N_y + 2 slots of a time slice.

The cost is the Gauss discretization of the running integral of
r1 x^2 + r2 u^2, written both as an assembled quadratic form
(Q, c, j0) with J(Z) = Z' Q Z + c' Z + j0 and as a literal nested
summation used as a cross-check oracle.

Every transcribed program also has its `Elimination`: the dynamics rows
solved for the interior control, D = P1^-1 applied in time, which leaves
(N_y + 2)(N_t + 1) unknowns (the interior phi values and the sum
phi + u at y = 0) under the N_t + 1 flux rows.  Its condensed Hessian is a
sum of Kronecker products of the same time and space factors, which the
solver applies matrix-free.  The same factors give b, c, j0 and the
products with Q, H and H' as (N_t + 1) x (N_y + 2) matrix products, so
`build` and the solver form no array of O(N^4) entries.  The dense program
is assembled only when `Transcription.qp` is read: by the matrix dumps and
the tests, which keep it as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .intmat import (
    IntegrationOperator,
    first_order_matrix,
    higher_order_matrix,
)
from .nodes import QuadratureRule

__all__ = [
    "DiffusionOcp",
    "GridIndexMap",
    "Elimination",
    "DiscreteQp",
    "FactoredQp",
    "Transcription",
    "assemble_dynamics",
    "assemble_boundary",
    "assemble_cost",
    "combine",
    "state_map",
    "cost_summation",
    "recover_state",
    "build",
]


@dataclass(frozen=True)
class DiffusionOcp:
    """Problem data: domain, horizon, cost weights and initial profile."""

    length: float
    t_final: float
    r1: float
    r2: float
    initial: Callable[[float], float]

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise ValueError("domain length must be positive")
        if not self.t_final > 0.0:
            raise ValueError("horizon must be positive")
        # r1 = 0 (no state penalty) is allowed; r2 > 0 keeps the program
        # strictly convex in the interior control values.
        if self.r1 < 0.0 or not self.r2 > 0.0:
            raise ValueError("cost weights must satisfy r1 >= 0, r2 > 0")


@dataclass(frozen=True)
class GridIndexMap:
    """Block layout of an (N_y, N_t) collocation grid.

    Each of the phi and u blocks is an (N_t + 1) x (N_y + 2) array stored
    time-major: slots 0..N_y of a time slice hold the interior space nodes,
    slot N_y + 1 the value at y = 0.
    index(i, j):    flat position of space slot i at time index j.
    """

    n_y: int
    n_t: int

    def __post_init__(self) -> None:
        if self.n_y < 1 or self.n_t < 1:
            raise ValueError("grid needs at least one interior node per axis")

    @property
    def block_size(self) -> int:
        """Length of the phi block (= length of the u block)."""
        return (self.n_y + 2) * (self.n_t + 1)

    @property
    def n_unknowns(self) -> int:
        return 2 * self.block_size

    def index(self, i, j):
        """Flat position of grid point (space i, time j) within a block."""
        return np.asarray(i) + np.asarray(j) * (self.n_y + 2)

    def fields(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi, u) of an unknown vector, each of shape (N_y + 2, N_t + 1):
        rows 0..N_y are the interior space nodes, row N_y + 1 is y = 0."""
        phi, u = np.reshape(z, (2, self.n_t + 1, self.n_y + 2)).transpose(0, 2, 1)
        return phi, u


@dataclass(frozen=True)
class Elimination:
    """The transcribed QP condensed onto the free data of the state.

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
    split v are stated (`eliminated`), not discovered.  The condensed
    Hessian Qc = r1 G' W G + r2 K' W K, W = W_t (x) W_y, is a sum of eight
    Kronecker products, each an (N_t + 1)^2 time factor times an
    (N_y + 2)^2 space factor, and the only constraints left are the N_t + 1
    flux rows F = I_t (x) w_y' E on zeta.

    The full program is held as factors too: Q = r1 [1 1; 1 1] (x) q_t (x)
    q_y plus r2 W on the interior u values, and f holds the initial profile
    at the interior space nodes, f0 its value at y = 0.  `b`, `c`, `j0` and
    the products with Q, H, H' and Qc are (N_t + 1) x (N_y + 2) matrix
    products of these factors, equal to the dense `Transcription.qp` and
    the Kronecker sum to round-off.
    """

    grid: GridIndexMap
    r1: float
    r2: float
    p1: np.ndarray
    d: np.ndarray
    a: np.ndarray
    w_t: np.ndarray
    w_y: np.ndarray
    q_t: np.ndarray
    q_y: np.ndarray
    f: np.ndarray
    f0: float

    @property
    def eliminated(self) -> int:
        """Null directions of the full saddle matrix: one split per time node."""
        return self.grid.n_t + 1

    def _mismatch(self) -> np.ndarray:
        """C = 1 e_b' - E, the boundary-minus-local space factor."""
        c = -_interior(self.grid)
        c[:, -1] = 1.0
        return c

    def _blocks(self, z: np.ndarray) -> np.ndarray:
        """Z as its (phi, u) blocks, each (N_t + 1) x (N_y + 2) time-major."""
        return np.reshape(z, (2, self.grid.n_t + 1, self.grid.n_y + 2))

    def _lift(self, zeta: np.ndarray, r: np.ndarray | float) -> np.ndarray:
        """Full unknown vector Z of zeta on the dynamics rows H_d Z = r."""
        zeta = zeta.reshape(self.grid.n_t + 1, self.grid.n_y + 2)
        phi = zeta.copy()
        phi[:, -1] *= 0.5
        u = np.empty_like(phi)
        u[:, :-1] = self.d @ (zeta @ self.a.T - r) + zeta @ self._mismatch().T
        u[:, -1] = phi[:, -1]
        return np.concatenate([phi.ravel(), u.ravel()])

    def _pull(self, g: np.ndarray) -> np.ndarray:
        """T' g: a gradient in Z taken to zeta by the adjoint of the linear
        part of `_lift`."""
        phi, u = self._blocks(g)
        out = phi.copy()
        out[:, -1] = 0.5 * (phi[:, -1] + u[:, -1])
        u_int = u[:, :-1]
        out += self.d.T @ u_int @ self.a + u_int @ self._mismatch()
        return out.ravel()

    @cached_property
    def b(self) -> np.ndarray:
        """Right-hand side of H Z = b: f(y_i) - f(0) per dynamics row, 0 per
        flux row."""
        n_t = self.grid.n_t + 1
        return np.concatenate([np.tile(self.f - self.f0, n_t), np.zeros(n_t)])

    @cached_property
    def c(self) -> np.ndarray:
        """Linear cost term 2 r1 M' W fbar, M = [1, 1] (x) P1 (x) E: per
        block 2 r1 P1' (W fbar) E, W fbar the profile at each interior grid
        point times its tensor quadrature weight."""
        n_t = self.grid.n_t + 1
        weighted = np.kron(self.w_t, self.w_y) * np.tile(self.f, n_t)
        block = np.zeros((n_t, self.grid.n_y + 2))
        block[:, :-1] = self.p1.T @ weighted.reshape(n_t, -1)
        block *= 2.0 * self.r1
        return np.tile(block.ravel(), 2)

    @cached_property
    def j0(self) -> float:
        """Constant cost term r1 fbar' W fbar."""
        fbar = np.tile(self.f, self.grid.n_t + 1)
        return self.r1 * float(np.kron(self.w_t, self.w_y) @ fbar**2)

    def q_mul(self, z: np.ndarray) -> np.ndarray:
        """Q Z."""
        phi, u = self._blocks(z)
        state = self.r1 * (self.q_t @ (phi + u) @ self.q_y)
        control = state + self.r2 * (self.w_t[:, None] * np.append(self.w_y, 0.0)) * u
        return np.concatenate([state.ravel(), control.ravel()])

    def h_mul(self, z: np.ndarray) -> np.ndarray:
        """H Z: the dynamics rows, then the flux rows."""
        phi, u = self._blocks(z)
        dyn = phi @ self.a.T + self.p1 @ ((phi + u) @ self._mismatch().T)
        return np.concatenate([dyn.ravel(), phi[:, :-1] @ self.w_y])

    def h_terms(self, z: np.ndarray) -> np.ndarray:
        """|H| |Z|, the magnitude of the terms H Z sums: the scale of its
        round-off, which H Z itself does not give when it cancels to b = 0
        (a constant initial profile)."""
        phi, u = np.abs(self._blocks(z))
        mismatch = np.abs(self._mismatch())
        dyn = phi @ np.abs(self.a.T) + np.abs(self.p1) @ ((phi + u) @ mismatch.T)
        return np.concatenate([dyn.ravel(), phi[:, :-1] @ np.abs(self.w_y)])

    def ht_mul(self, lam: np.ndarray) -> np.ndarray:
        """H' lambda, lambda = [dynamics multipliers; flux multipliers]."""
        n_t = self.grid.n_t + 1
        lam_d = lam[: -n_t].reshape(n_t, self.grid.n_y + 1)
        u = self.p1.T @ lam_d @ self._mismatch()
        phi = lam_d @ self.a + u
        phi[:, :-1] += lam[-n_t:, None] * self.w_y
        return np.concatenate([phi.ravel(), u.ravel()])

    def qc_mul(self, zeta: np.ndarray) -> np.ndarray:
        """Qc zeta, the condensed Hessian r1 G' W G + r2 K' W K applied as
        (N_t + 1) x (N_y + 2) matrix products: G zeta = zeta A' + P1 zeta B',
        K zeta = D zeta A' + zeta C', G' chi = chi A + P1' chi B and
        K' chi = D' chi A + chi C, with W = w_t w_y' entrywise.  B = 1 e_b'
        reads only the y = 0 slot v of zeta and writes only that slot of
        G' chi."""
        zeta = zeta.reshape(self.grid.n_t + 1, self.grid.n_y + 2)
        w = self.w_t[:, None] * self.w_y
        za, v = zeta @ self.a.T, zeta[:, -1:]
        state = self.r1 * w * (za + self.p1 @ v)
        control = self.r2 * w * (self.d @ za + v - zeta[:, :-1])
        out = (state + self.d.T @ control) @ self.a
        out[:, :-1] -= control
        out[:, -1] += self.p1.T @ state.sum(axis=1) + control.sum(axis=1)
        return out

    def rhs(self, c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(z_p, r) for minimizing Z' Q Z + c' Z over H Z = b: z_p solves the
        dynamics rows with zeta = 0, and r = [-T' (2 Q z_p + c); b_flux] is
        the condensed right-hand side."""
        n_dyn = (self.grid.n_t + 1) * (self.grid.n_y + 1)
        zeta = np.zeros((self.grid.n_t + 1) * (self.grid.n_y + 2))
        z_p = self._lift(zeta, b[:n_dyn].reshape(self.grid.n_t + 1, -1))
        grad = self._pull(2.0 * self.q_mul(z_p) + c)
        return z_p, np.concatenate([-grad, b[n_dyn:]])

    def expand(
        self, c: np.ndarray, z_p: np.ndarray, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(Z, lambda) from a condensed solution x = [zeta; flux multipliers].

        The dynamics multipliers follow from the stationarity rows of the
        interior control, (2 Q Z + c)_Eu = (P1' (x) I) lambda_d: one P1'
        solve."""
        n = (self.grid.n_t + 1) * (self.grid.n_y + 2)
        z = z_p + self._lift(x[:n], 0.0)
        g = self._blocks(2.0 * self.q_mul(z) + c)
        lam_d = np.linalg.solve(self.p1.T, g[1, :, :-1])
        return z, np.concatenate([lam_d.ravel(), x[n:]])


@dataclass(frozen=True)
class DiscreteQp:
    """Equality-constrained QP: minimize Z' Q Z + c' Z + j0 over H Z = b.

    `elimination`, when set, condenses the program onto its free data
    (transcribed programs), and it is all the solver reads; the solver
    refuses a hand-built program, which leaves it `None`."""

    H: np.ndarray
    b: np.ndarray
    Q: np.ndarray
    c: np.ndarray
    j0: float
    grid: GridIndexMap
    elimination: Elimination | None = field(default=None, repr=False)


@dataclass(frozen=True)
class FactoredQp:
    """A transcribed program as the solver takes it: its `elimination`,
    whose factors are all the solver reads.  H and Q come from the dense
    program `Transcription.qp`, assembled when one of them is first read
    (a check or an observer, never the solver) and kept by this instance
    alone."""

    transcription: Transcription = field(repr=False)
    elimination: Elimination | None = field(repr=False)

    @cached_property
    def dense(self) -> DiscreteQp:
        return self.transcription.qp

    H = property(lambda self: self.dense.H)
    Q = property(lambda self: self.dense.Q)


@dataclass(frozen=True)
class Transcription:
    """A QP together with the rules and operators that produced it.

    Nothing of O(N^4) size is stored: `qp` assembles the dense program, bit
    for bit, on each read, and `factored` gives the program as the solver
    takes it, through its `elimination`.
    """

    ocp: DiffusionOcp
    grid: GridIndexMap
    rule_y: QuadratureRule
    rule_t: QuadratureRule
    op_y1: IntegrationOperator
    op_y2: IntegrationOperator
    op_t1: IntegrationOperator

    def __post_init__(self) -> None:
        _check_operator(self.op_y1, 1, self.grid.n_y + 1, self.ocp.length)
        _check_operator(self.op_y2, 2, self.grid.n_y + 1, self.ocp.length)
        _check_operator(self.op_t1, 1, self.grid.n_t + 1, self.ocp.t_final)

    @property
    def elimination(self) -> Elimination:
        p1 = self.op_t1.matrix
        w_y, w_t = self.op_y1.full_interval_row, self.op_t1.full_interval_row
        q_t, w_slots = _cost_factors(self.grid, p1, w_y, w_t)
        return Elimination(
            grid=self.grid, r1=self.ocp.r1, r2=self.ocp.r2, p1=p1, d=np.linalg.inv(p1),
            a=self.op_y2.matrix @ _interior(self.grid), w_t=w_t, w_y=w_y,
            q_t=q_t, q_y=np.diag(w_slots), f=_profile(self.ocp, self.op_y2.rule.nodes),
            f0=float(self.ocp.initial(0.0)),
        )

    @property
    def factored(self) -> FactoredQp:
        return FactoredQp(self, self.elimination)

    @property
    def qp(self) -> DiscreteQp:
        a_phi, a_u, rhs = assemble_dynamics(self.ocp, self.grid, self.op_y2, self.op_t1)
        psi = assemble_boundary(self.grid, self.op_y1.full_interval_row)
        h, b = combine(a_phi, a_u, psi, rhs)
        rows = (self.op_y1.full_interval_row, self.op_t1.full_interval_row)
        q, c, j0 = assemble_cost(self.ocp, self.grid, self.rule_y.nodes, self.op_t1, *rows)
        return DiscreteQp(
            H=h, b=b, Q=q, c=c, j0=j0, grid=self.grid, elimination=self.elimination
        )


def _check_operator(op: IntegrationOperator, order: int, size: int, length: float) -> None:
    if op.order != order:
        raise ValueError(f"expected an order-{order} operator, got order {op.order}")
    if op.matrix.shape != (size, size):
        raise ValueError(f"operator size {op.matrix.shape} does not match grid ({size})")
    if abs(op.interval[0]) > 1e-12 or abs(op.interval[1] - length) > 1e-12 * max(1.0, length):
        raise ValueError(f"operator interval {op.interval} does not match [0, {length}]")


def _interior(grid: GridIndexMap) -> np.ndarray:
    """E: selects the N_y + 1 interior slots of one time slice."""
    return np.eye(grid.n_y + 1, grid.n_y + 2)


def _cost_factors(
    grid: GridIndexMap, p1: np.ndarray, full_row_y: np.ndarray, full_row_t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Time factor P1' W_t P1, symmetrized, and the diagonal of the space
    factor E' W_y E of the cost's state term."""
    gram_t = p1.T @ (full_row_t[:, None] * p1)
    return 0.5 * (gram_t + gram_t.T), full_row_y @ _interior(grid)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron with every zero entry +0.0: a product 0 * (negative entry) is
    -0.0, which the matrix dumps would print as -0.  Cleared in place, since
    a second product-sized array raises the solver's peak memory."""
    k = np.kron(a, b)
    k += 0.0
    return k


def _profile(ocp: DiffusionOcp, y: np.ndarray) -> np.ndarray:
    """Initial profile f at each point of y."""
    return np.array([float(ocp.initial(v)) for v in y])


def assemble_dynamics(
    ocp: DiffusionOcp,
    grid: GridIndexMap,
    op_y2: IntegrationOperator,
    op_t1: IntegrationOperator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collocated dynamics rows: (phi-block matrix, u-block matrix, rhs).

    Row (i, j) states that the twice-integrated phi plus the once-integrated
    mismatch between boundary and local values of phi + u balances
    f(y_i) - f(0).  Only interior space indices generate rows; the boundary
    unknowns appear in the columns alone.  In Kronecker form, with E the
    interior selector and e_b the boundary slot,

        a_u = P1 (x) (1 e_b' - E),    a_phi = I_t (x) (P2 E) + a_u.
    """
    n_y, n_t = grid.n_y, grid.n_t
    _check_operator(op_y2, 2, n_y + 1, ocp.length)
    _check_operator(op_t1, 1, n_t + 1, ocp.t_final)
    e = _interior(grid)
    mismatch = -e
    mismatch[:, -1] = 1.0
    a_u = _kron(op_t1.matrix, mismatch)
    a_phi = _kron(np.eye(n_t + 1), op_y2.matrix @ e)
    a_phi += a_u
    f = _profile(ocp, op_y2.rule.nodes)
    rhs = np.tile(f - float(ocp.initial(0.0)), n_t + 1)
    return a_phi, a_u, rhs


def assemble_boundary(grid: GridIndexMap, full_row_y: np.ndarray) -> np.ndarray:
    """Zero-flux closure at y = L: one row per time node requiring the
    interior phi values to integrate to zero across [0, L], I_t (x) (w_y' E)
    on the phi block."""
    if full_row_y.shape != (grid.n_y + 1,):
        raise ValueError("full-interval row does not match the space grid")
    psi = np.zeros((grid.n_t + 1, grid.n_unknowns))
    psi[:, : grid.block_size] = _kron(np.eye(grid.n_t + 1), full_row_y @ _interior(grid))
    return psi


def state_map(
    ocp: DiffusionOcp,
    grid: GridIndexMap,
    y_nodes: np.ndarray,
    op_t1: IntegrationOperator,
) -> tuple[np.ndarray, np.ndarray]:
    """Affine recovery of the interior state from the unknown vector:
    x_interior = M Z + fbar, ordered time-major (space fastest), with
    M = [P1 (x) E, P1 (x) E]."""
    m = _kron(op_t1.matrix, _interior(grid))
    return np.hstack([m, m]), np.tile(_profile(ocp, y_nodes), grid.n_t + 1)


def assemble_cost(
    ocp: DiffusionOcp,
    grid: GridIndexMap,
    y_nodes: np.ndarray,
    op_t1: IntegrationOperator,
    full_row_y: np.ndarray,
    full_row_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Quadratic form of the discretized cost: J(Z) = Z' Q Z + c' Z + j0.

    The running cost is integrated by the full-interval rows in both
    coordinates; the state enters through the affine recovery map, so
    Q = r1 M' W M + r2 S' W S with W = W_t (x) W_y the tensor quadrature
    weight and S the interior-u selector.  Since M = [1, 1] (x) P1 (x) E,
    r1 M' W M = r1 [[B, B], [B, B]] with B = (P1' W_t P1) (x) (E' W_y E);
    the time factor is symmetrized so Q is exactly symmetric.  S' W S is
    diagonal and is added in place.
    """
    m, fbar = state_map(ocp, grid, y_nodes, op_t1)
    w = np.kron(full_row_t, full_row_y)
    q_t, w_slots = _cost_factors(grid, op_t1.matrix, full_row_y, full_row_t)
    b = _kron(q_t, np.diag(w_slots))
    b *= ocp.r1
    q = np.block([[b, b], [b, b]])
    u_diag = np.arange(grid.block_size, grid.n_unknowns)
    q[u_diag, u_diag] += ocp.r2 * np.kron(full_row_t, w_slots)
    c = 2.0 * ocp.r1 * (m.T @ (w * fbar))
    j0 = ocp.r1 * float(w @ fbar**2)
    return q, c, j0


def combine(
    a_phi: np.ndarray, a_u: np.ndarray, psi: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stack dynamics and boundary rows into the full constraint system."""
    if a_phi.shape != a_u.shape or a_phi.shape[0] != rhs.shape[0]:
        raise ValueError("dynamics blocks and right-hand side do not line up")
    h_top = np.hstack([a_phi, a_u])
    if psi.shape[1] != h_top.shape[1]:
        raise ValueError("boundary rows do not match the unknown count")
    h = np.vstack([h_top, psi])
    b = np.concatenate([rhs, np.zeros(psi.shape[0])])
    return h, b


def cost_summation(
    ocp: DiffusionOcp,
    grid: GridIndexMap,
    y_nodes: np.ndarray,
    op_t1: IntegrationOperator,
    full_row_y: np.ndarray,
    full_row_t: np.ndarray,
    z: np.ndarray,
) -> float:
    """Literal nested-summation evaluation of the discrete cost.

    Kept deliberately naive (explicit loops over grid points and time rows)
    as an independent route to the same number as the assembled quadratic
    form.
    """
    p1 = op_t1.matrix
    offset = grid.block_size
    total = 0.0
    for l in range(grid.n_t + 1):
        inner = 0.0
        for k in range(grid.n_y + 1):
            x_kl = float(ocp.initial(y_nodes[k]))
            for s in range(grid.n_t + 1):
                pos = int(grid.index(k, s))
                x_kl += p1[l, s] * (z[pos] + z[offset + pos])
            u_kl = z[offset + int(grid.index(k, l))]
            inner += full_row_y[k] * (ocp.r1 * x_kl**2 + ocp.r2 * u_kl**2)
        total += full_row_t[l] * inner
    return total


def recover_state(
    z: np.ndarray,
    grid: GridIndexMap,
    op_t1: IntegrationOperator,
    ocp: DiffusionOcp,
    y_nodes: np.ndarray,
) -> np.ndarray:
    """Grid state from a solved unknown vector.

    Returns shape (N_y + 2, N_t + 1): rows 0..N_y are the interior space
    nodes, row N_y + 1 is the boundary y = 0.  Each entry integrates
    phi + u in time and adds the initial profile.
    """
    phi, u = grid.fields(z)
    f_vals = _profile(ocp, np.append(y_nodes, 0.0))
    return (phi + u) @ op_t1.matrix.T + f_vals[:, None]


def build(ocp: DiffusionOcp, rule_y: QuadratureRule, rule_t: QuadratureRule) -> Transcription:
    """Full pipeline from problem data and rules to the operators of the QP;
    the program itself is read from the result (`factored`, `qp`)."""
    grid = GridIndexMap(rule_y.spec.degree, rule_t.spec.degree)
    op_y1 = first_order_matrix(rule_y)
    op_y2 = higher_order_matrix(op_y1, 2)
    op_t1 = first_order_matrix(rule_t)
    return Transcription(ocp, grid, rule_y, rule_t, op_y1, op_y2, op_t1)
