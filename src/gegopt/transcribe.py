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
unknown).  Grid unknowns are numbered time-major: flat index
i + j (N_y + 2) holds space index i (i = N_y + 1 meaning y = 0) at time
node j.

The cost is the Gauss discretization of the running integral of
r1 x^2 + r2 u^2, written both as an assembled quadratic form
(Q, c, j0) with J(Z) = Z' Q Z + c' Z + j0 and as a literal nested
summation used as a cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """Index bookkeeping for an (N_y, N_t) collocation grid.

    n_collocation:  number of collocated dynamics equations minus one.
    n_block:        flat length of one unknown block minus two.
    index(i, j):    time-major flat position of space index i, time index j
                    (i = N_y + 1 addresses the y = 0 boundary value).
    """

    n_y: int
    n_t: int

    def __post_init__(self) -> None:
        if self.n_y < 1 or self.n_t < 1:
            raise ValueError("grid needs at least one interior node per axis")

    @property
    def n_collocation(self) -> int:
        return self.n_y + self.n_t + self.n_y * self.n_t

    @property
    def n_block(self) -> int:
        return self.n_y + self.n_t * (self.n_y + 2)

    @property
    def block_size(self) -> int:
        """Length of the phi block (= length of the u block)."""
        return self.n_block + 2

    @property
    def n_unknowns(self) -> int:
        return 2 * self.block_size

    def index(self, i, j):
        """Flat position of grid point (space i, time j) within a block."""
        return np.asarray(i) + np.asarray(j) * (self.n_y + 2)

    @property
    def interior_by_time(self) -> np.ndarray:
        """Block positions of interior values ordered time-major
        (space fastest): entry l = k + j (N_y + 1) maps to index(k, j)."""
        l = np.arange(self.n_collocation + 1)
        return l + l // (self.n_y + 1)

    @property
    def interior_by_node(self) -> np.ndarray:
        """Block positions of interior values ordered node-major
        (time fastest): entry m = s + k (N_t + 1) maps to index(k, s)."""
        m = np.arange(self.n_collocation + 1)
        k, s = m // (self.n_t + 1), m % (self.n_t + 1)
        return self.index(k, s)


@dataclass(frozen=True)
class DiscreteQp:
    """Equality-constrained QP: minimize Z' Q Z + c' Z + j0 over H Z = b."""

    H: np.ndarray
    b: np.ndarray
    Q: np.ndarray
    c: np.ndarray
    j0: float
    grid: GridIndexMap


@dataclass(frozen=True)
class Transcription:
    """A QP together with the rules and operators that produced it."""

    ocp: DiffusionOcp
    grid: GridIndexMap
    rule_y: QuadratureRule
    rule_t: QuadratureRule
    op_y1: IntegrationOperator
    op_y2: IntegrationOperator
    op_t1: IntegrationOperator
    qp: DiscreteQp


def _check_operator(op: IntegrationOperator, order: int, size: int, length: float) -> None:
    if op.order != order:
        raise ValueError(f"expected an order-{order} operator, got order {op.order}")
    if op.matrix.shape != (size, size):
        raise ValueError(f"operator size {op.matrix.shape} does not match grid ({size})")
    if abs(op.interval[0]) > 1e-12 or abs(op.interval[1] - length) > 1e-12 * max(1.0, length):
        raise ValueError(f"operator interval {op.interval} does not match [0, {length}]")


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
    unknowns appear in the columns alone.
    """
    n_y, n_t = grid.n_y, grid.n_t
    _check_operator(op_y2, 2, n_y + 1, ocp.length)
    _check_operator(op_t1, 1, n_t + 1, ocp.t_final)
    p2 = op_y2.matrix
    p1 = op_t1.matrix
    y = op_y2.rule.nodes
    f0 = float(ocp.initial(0.0))
    rows = grid.n_collocation + 1
    a_phi = np.zeros((rows, grid.block_size))
    a_u = np.zeros((rows, grid.block_size))
    rhs = np.empty(rows)
    space_cols = np.arange(n_y + 1)
    time_cols = np.arange(n_t + 1)
    for j in range(n_t + 1):
        for i in range(n_y + 1):
            r = i + j * (n_y + 1)
            a_phi[r, grid.index(space_cols, j)] += p2[i]
            a_phi[r, grid.index(i, time_cols)] -= p1[j]
            a_phi[r, grid.index(n_y + 1, time_cols)] += p1[j]
            a_u[r, grid.index(i, time_cols)] = -p1[j]
            a_u[r, grid.index(n_y + 1, time_cols)] = p1[j]
            rhs[r] = float(ocp.initial(y[i])) - f0
    return a_phi, a_u, rhs


def assemble_boundary(grid: GridIndexMap, full_row_y: np.ndarray) -> np.ndarray:
    """Zero-flux closure at y = L: one row per time node requiring the
    interior phi values to integrate to zero across [0, L]."""
    if full_row_y.shape != (grid.n_y + 1,):
        raise ValueError("full-interval row does not match the space grid")
    psi = np.zeros((grid.n_t + 1, grid.n_unknowns))
    cols = grid.interior_by_time
    stride = grid.n_y + 1
    for j in range(grid.n_t + 1):
        psi[j, cols[j * stride : (j + 1) * stride]] = full_row_y
    return psi


def state_map(
    ocp: DiffusionOcp,
    grid: GridIndexMap,
    y_nodes: np.ndarray,
    op_t1: IntegrationOperator,
) -> tuple[np.ndarray, np.ndarray]:
    """Affine recovery of the interior state from the unknown vector:
    x_interior = M Z + fbar, ordered time-major (space fastest)."""
    n_y, n_t = grid.n_y, grid.n_t
    p1 = op_t1.matrix
    rows = grid.n_collocation + 1
    m = np.zeros((rows, grid.n_unknowns))
    fbar = np.empty(rows)
    offset = grid.block_size
    time_cols = np.arange(n_t + 1)
    for l in range(n_t + 1):
        for k in range(n_y + 1):
            r = k + l * (n_y + 1)
            cols = grid.index(k, time_cols)
            m[r, cols] = p1[l]
            m[r, offset + cols] = p1[l]
            fbar[r] = float(ocp.initial(y_nodes[k]))
    return m, fbar


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
    Q = r1 M' W M + r2 S' W S with W the tensor quadrature weight.  S
    selects the interior u values, so S' W S is diagonal and is added in
    place.
    """
    m, fbar = state_map(ocp, grid, y_nodes, op_t1)
    w = np.kron(full_row_t, full_row_y)
    q = ocp.r1 * (m.T @ (w[:, None] * m))
    u_interior = grid.block_size + grid.interior_by_time
    q[u_interior, u_interior] += ocp.r2 * w
    q = 0.5 * (q + q.T)
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
    n_y, n_t = grid.n_y, grid.n_t
    block = grid.block_size
    phi = z[:block].reshape(n_t + 1, n_y + 2).T
    u = z[block:].reshape(n_t + 1, n_y + 2).T
    y_aug = np.append(y_nodes, 0.0)
    f_vals = np.array([float(ocp.initial(yv)) for yv in y_aug])
    return (phi + u) @ op_t1.matrix.T + f_vals[:, None]


def build(ocp: DiffusionOcp, rule_y: QuadratureRule, rule_t: QuadratureRule) -> Transcription:
    """Full pipeline from problem data and rules to the assembled QP."""
    grid = GridIndexMap(rule_y.spec.degree, rule_t.spec.degree)
    op_y1 = first_order_matrix(rule_y)
    op_y2 = higher_order_matrix(op_y1, 2)
    op_t1 = first_order_matrix(rule_t)
    a_phi, a_u, rhs = assemble_dynamics(ocp, grid, op_y2, op_t1)
    psi = assemble_boundary(grid, op_y1.full_interval_row)
    h, b = combine(a_phi, a_u, psi, rhs)
    q, c, j0 = assemble_cost(
        ocp, grid, rule_y.nodes, op_t1, op_y1.full_interval_row, op_t1.full_interval_row
    )
    qp = DiscreteQp(H=h, b=b, Q=q, c=c, j0=j0, grid=grid)
    return Transcription(
        ocp=ocp,
        grid=grid,
        rule_y=rule_y,
        rule_t=rule_t,
        op_y1=op_y1,
        op_y2=op_y2,
        op_t1=op_t1,
        qp=qp,
    )
