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
r1 x^2 + r2 u^2, J(Z) = Z' Q Z + c' Z + j0, with a literal nested summation
kept as a cross-check oracle.

`Transcription.qp` is the one program type, `DiscreteQp`, and it holds only
those time and space factors.  b, c, j0 and the products with Q, H and H'
are (N_t + 1) x (N_y + 2) matrix products of them, so `build` forms no array
of O(N^4) entries; the solver condenses the program through the same
factors (`qpsolve`).  The dense H and Q are the Kronecker expansions of the
factors, each written straight into one array the first time it is read (by
the matrix dumps, the benchmark's feasibility check and the tests, which
keep them as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "DiscreteQp",
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

    def blocks(self, z: np.ndarray) -> np.ndarray:
        """The (phi, u) blocks of an unknown vector as one view of shape
        (2, N_t + 1, N_y + 2), time-major."""
        return np.reshape(z, (2, self.n_t + 1, self.n_y + 2))

    def fields(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi, u) of an unknown vector, each of shape (N_y + 2, N_t + 1):
        rows 0..N_y are the interior space nodes, row N_y + 1 is y = 0."""
        phi, u = self.blocks(z).transpose(0, 2, 1)
        return phi, u


@dataclass(frozen=True)
class DiscreteQp:
    """Equality-constrained QP, minimize Z' Q Z + c' Z + j0 over H Z = b,
    held as the Kronecker factors of the transcription.

    With A = P2 E and C = 1 e_b' - E (`mismatch`), the dynamics rows of H
    are [I_t (x) A + P1 (x) C, P1 (x) C] and its flux rows I_t (x) w_y' E on
    the phi block; Q = r1 [1 1; 1 1] (x) q_t (x) q_y plus r2 W on the
    interior u values, W = W_t (x) W_y.  f holds the initial profile at the
    interior space nodes, f0 its value at y = 0.  `b`, `c`, `j0` and the
    products with Q, H and H' are (N_t + 1) x (N_y + 2) matrix products of
    these factors.  The dense `H` (`combine`) and `Q` (`assemble_cost`) are
    their Kronecker expansions, formed the first time each is read and kept
    by this instance alone; the solver reads neither.
    """

    grid: GridIndexMap
    r1: float
    r2: float
    p1: np.ndarray
    a: np.ndarray
    w_t: np.ndarray
    w_y: np.ndarray
    q_t: np.ndarray
    q_y: np.ndarray
    f: np.ndarray
    f0: float

    @cached_property
    def mismatch(self) -> np.ndarray:
        """C = 1 e_b' - E, the boundary-minus-local space factor of H."""
        c = -_interior(self.grid)
        c[:, -1] = 1.0
        return c

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
        phi, u = self.grid.blocks(z)
        state = self.r1 * (self.q_t @ (phi + u) @ self.q_y)
        control = state + self.r2 * (self.w_t[:, None] * np.append(self.w_y, 0.0)) * u
        return np.concatenate([state.ravel(), control.ravel()])

    def h_mul(self, z: np.ndarray) -> np.ndarray:
        """H Z: the dynamics rows, then the flux rows."""
        phi, u = self.grid.blocks(z)
        dyn = phi @ self.a.T + self.p1 @ ((phi + u) @ self.mismatch.T)
        return np.concatenate([dyn.ravel(), phi[:, :-1] @ self.w_y])

    def h_terms(self, z: np.ndarray) -> np.ndarray:
        """|H| |Z|, the magnitude of the terms H Z sums: the scale of its
        round-off, which H Z itself does not give when it cancels to b = 0
        (a constant initial profile)."""
        phi, u = np.abs(self.grid.blocks(z))
        mismatch = np.abs(self.mismatch)
        dyn = phi @ np.abs(self.a.T) + np.abs(self.p1) @ ((phi + u) @ mismatch.T)
        return np.concatenate([dyn.ravel(), phi[:, :-1] @ np.abs(self.w_y)])

    def ht_mul(self, lam: np.ndarray) -> np.ndarray:
        """H' lambda, lambda = [dynamics multipliers; flux multipliers]."""
        n_t = self.grid.n_t + 1
        lam_d = lam[: -n_t].reshape(n_t, self.grid.n_y + 1)
        u = self.p1.T @ lam_d @ self.mismatch
        phi = lam_d @ self.a + u
        phi[:, :-1] += lam[-n_t:, None] * self.w_y
        return np.concatenate([phi.ravel(), u.ravel()])

    @cached_property
    def H(self) -> np.ndarray:
        """Dense constraint matrix: dynamics rows, then flux rows."""
        return combine(self)

    @cached_property
    def Q(self) -> np.ndarray:
        """Dense Hessian of the cost."""
        return assemble_cost(self)


@dataclass(frozen=True)
class Transcription:
    """The rules and operators of a transcribed problem.

    Nothing of O(N^4) size is stored: each read of `qp` gives a fresh
    program, whose dense H and Q are expanded, bit for bit, when first read.
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
    def qp(self) -> DiscreteQp:
        """The program's factors.  Q's time factor P1' W_t P1 is symmetrized
        so that Q is exactly symmetric; its space factor is E' W_y E."""
        p1, e = self.op_t1.matrix, _interior(self.grid)
        w_y, w_t = self.op_y1.full_interval_row, self.op_t1.full_interval_row
        gram_t = p1.T @ (w_t[:, None] * p1)
        return DiscreteQp(
            grid=self.grid, r1=self.ocp.r1, r2=self.ocp.r2, p1=p1, a=self.op_y2.matrix @ e,
            w_t=w_t, w_y=w_y, q_t=0.5 * (gram_t + gram_t.T), q_y=np.diag(w_y @ e),
            f=_profile(self.ocp, self.op_y2.rule.nodes), f0=float(self.ocp.initial(0.0)),
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


def _kron(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """Set every block of the 2-D array `out` to np.kron(a, b), with every
    zero entry +0.0: a product 0 * (negative entry) is -0.0, which the
    matrix dumps would print as -0.  All blocks are written by one product
    and cleared in place, so no block-sized temporary is formed."""
    (a0, a1), (b0, b1) = a.shape, b.shape
    # Splitting each axis of a 2-D array, a strided slice included, gives a view.
    view = out.reshape(-1, a0, b0, out.shape[1] // (a1 * b1), a1, b1)
    np.multiply(a[:, None, None, :, None], b[:, None, None, :], out=view)
    out += 0.0


def _profile(ocp: DiffusionOcp, y: np.ndarray) -> np.ndarray:
    """Initial profile f at each point of y."""
    return np.array([float(ocp.initial(v)) for v in y])


def assemble_dynamics(qp: DiscreteQp, out: np.ndarray) -> None:
    """Collocated dynamics rows, written into `out`, the first
    (N_y + 1)(N_t + 1) rows of H.

    Row (i, j) states that the twice-integrated phi plus the once-integrated
    mismatch between boundary and local values of phi + u balances
    f(y_i) - f(0).  Only interior space indices generate rows; the boundary
    unknowns appear in the columns alone.  In Kronecker form, with E the
    interior selector and e_b the boundary slot, the u block is
    P1 (x) (1 e_b' - E) and the phi block is I_t (x) (P2 E) plus the u
    block: both blocks are written as the u block, then P2 E is added to the
    diagonal time blocks of phi.
    """
    n_t = qp.grid.n_t + 1
    _kron(qp.p1, qp.mismatch, out)
    phi = out[:, : qp.grid.block_size].reshape(n_t, qp.grid.n_y + 1, n_t, qp.grid.n_y + 2)
    for j in range(n_t):
        phi[j, :, j] += qp.a


def assemble_boundary(qp: DiscreteQp, out: np.ndarray) -> None:
    """Zero-flux closure at y = L, written into `out`, the last N_t + 1 rows
    of H (zero on entry): row j requires the interior phi values of time
    node j to integrate to zero across [0, L], I_t (x) (w_y' E) on the phi
    block."""
    stride = qp.grid.n_y + 2
    for j in range(qp.grid.n_t + 1):
        out[j, j * stride : j * stride + qp.grid.n_y + 1] = qp.w_y


def combine(qp: DiscreteQp) -> np.ndarray:
    """The full constraint matrix H: the dynamics rows over the flux rows,
    each written by its assembler into its slice of one array."""
    n_dyn = (qp.grid.n_y + 1) * (qp.grid.n_t + 1)
    h = np.zeros((n_dyn + qp.grid.n_t + 1, qp.grid.n_unknowns))
    assemble_dynamics(qp, h[:n_dyn])
    assemble_boundary(qp, h[n_dyn:])
    return h


def state_map(qp: DiscreteQp) -> tuple[np.ndarray, np.ndarray]:
    """Affine recovery of the interior state from the unknown vector:
    x_interior = M Z + fbar, ordered time-major (space fastest), with
    M = [P1 (x) E, P1 (x) E].  The program and its solver do without the
    dense M; it is the reference for `recover_state` and the cost."""
    m = np.empty(((qp.grid.n_y + 1) * (qp.grid.n_t + 1), qp.grid.n_unknowns))
    _kron(qp.p1, _interior(qp.grid), m)
    return m, np.tile(qp.f, qp.grid.n_t + 1)


def assemble_cost(qp: DiscreteQp) -> np.ndarray:
    """Q of the discretized cost J(Z) = Z' Q Z + c' Z + j0.

    The running cost is integrated by the full-interval rows in both
    coordinates; the state enters through the affine recovery map, so
    Q = r1 M' W M + r2 S' W S with W = W_t (x) W_y the tensor quadrature
    weight and S the interior-u selector.  Since M = [1, 1] (x) P1 (x) E,
    r1 M' W M = r1 [[B, B], [B, B]] with B = q_t (x) q_y, all four blocks
    written by one product.  S' W S is diagonal and is added in place.
    """
    block = qp.grid.block_size
    q = np.empty((2 * block, 2 * block))
    _kron(qp.q_t, qp.q_y, q)
    q *= qp.r1
    u_diag = np.arange(block, 2 * block)
    q[u_diag, u_diag] += qp.r2 * np.kron(qp.w_t, np.diagonal(qp.q_y))
    return q


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


def recover_state(z: np.ndarray, qp: DiscreteQp) -> np.ndarray:
    """Grid state from a solved unknown vector.

    Returns shape (N_y + 2, N_t + 1): rows 0..N_y are the interior space
    nodes, row N_y + 1 is the boundary y = 0.  Each entry integrates
    phi + u in time and adds the initial profile.
    """
    phi, u = qp.grid.fields(z)
    return (phi + u) @ qp.p1.T + np.append(qp.f, qp.f0)[:, None]


def build(ocp: DiffusionOcp, rule_y: QuadratureRule, rule_t: QuadratureRule) -> Transcription:
    """Full pipeline from problem data and rules to the operators of the QP;
    the program itself is read from the result (`qp`)."""
    grid = GridIndexMap(rule_y.spec.degree, rule_t.spec.degree)
    op_y1 = first_order_matrix(rule_y)
    op_y2 = higher_order_matrix(op_y1, 2)
    op_t1 = first_order_matrix(rule_t)
    return Transcription(ocp, grid, rule_y, rule_t, op_y1, op_y2, op_t1)
