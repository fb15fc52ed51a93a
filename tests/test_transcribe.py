"""Tests for the transcription of the diffusion control problem into a QP.

The sharpest checks are manufactured solutions: polynomial (phi, u) pairs
that satisfy the integral dynamics and the zero-flux closure exactly must be
annihilated by the assembled constraints to round-off, because the
integration matrices are exact on polynomials up to the grid degree.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import null_space_oracle, reachable_arrays

from gegopt import transcribe
from gegopt.polycore import BasisSpec
from gegopt.nodes import sgg_rule
from gegopt.intmat import first_order_matrix, higher_order_matrix
from gegopt.qpsolve import solve
from gegopt.transcribe import (
    DiffusionOcp,
    GridIndexMap,
    assemble_boundary,
    assemble_cost,
    assemble_dynamics,
    build,
    cost_summation,
    recover_state,
    state_map,
)

L, TF = 4.0, 1.0


def make_ocp(f=lambda y: 1.0 + y, r1=0.5, r2=0.5):
    return DiffusionOcp(length=L, t_final=TF, r1=r1, r2=r2, initial=f)


def make_transcription(n_y=4, n_t=4, alpha=-0.2, f=lambda y: 1.0 + y):
    rule_y = sgg_rule(BasisSpec(alpha=alpha, length=L, degree=n_y))
    rule_t = sgg_rule(BasisSpec(alpha=alpha, length=TF, degree=n_t))
    return build(make_ocp(f), rule_y, rule_t)


def fill_grid(grid: GridIndexMap, t_nodes, y_aug, phi_f, u_f) -> np.ndarray:
    """Vector of unknowns holding phi_f and u_f sampled on the full grid."""
    z = np.zeros(grid.n_unknowns)
    rows = np.arange(grid.n_y + 2)
    for j, t in enumerate(t_nodes):
        z[grid.index(rows, j)] = phi_f(y_aug, t)
        z[grid.block_size + grid.index(rows, j)] = u_f(y_aug, t)
    return z


def dynamics_rows(qp) -> np.ndarray:
    """The dynamics rows of H, as `assemble_dynamics` writes them."""
    rows = np.zeros(((qp.grid.n_y + 1) * (qp.grid.n_t + 1), qp.grid.n_unknowns))
    assemble_dynamics(qp, rows)
    return rows


def flux_rows(qp) -> np.ndarray:
    """The flux rows of H, as `assemble_boundary` writes them."""
    rows = np.zeros((qp.grid.n_t + 1, qp.grid.n_unknowns))
    assemble_boundary(qp, rows)
    return rows


def interior_positions(grid: GridIndexMap) -> np.ndarray:
    """Block positions of the interior slots, time-major (space fastest)."""
    return grid.index(np.arange(grid.n_y + 1), np.arange(grid.n_t + 1)[:, None]).ravel()


class TestGridIndexMap:
    @pytest.mark.parametrize("n_y, n_t", [(1, 1), (2, 3), (5, 4), (12, 12)])
    def test_dimension_identities(self, n_y, n_t):
        grid = GridIndexMap(n_y, n_t)
        assert grid.block_size == (n_y + 2) * (n_t + 1)
        assert grid.n_unknowns == 2 * (n_y + 2) * (n_t + 1)

    def test_frozen_index_values(self):
        grid = GridIndexMap(2, 3)
        assert int(grid.index(1, 2)) == 9
        assert int(grid.index(3, 0)) == 3  # boundary slot of the first time node
        np.testing.assert_array_equal(grid.index(np.array([0, 1]), 1), [4, 5])

    @settings(deadline=None, max_examples=30)
    @given(n_y=st.integers(min_value=1, max_value=8), n_t=st.integers(min_value=1, max_value=8))
    def test_fields_roundtrip(self, n_y, n_t):
        """fields() reads slot i of time node j at index(i, j) of each block,
        and its two views, re-raveled time-major, give back z."""
        grid = GridIndexMap(n_y, n_t)
        z = np.arange(grid.n_unknowns, dtype=float)
        phi, u = grid.fields(z)
        assert phi.shape == u.shape == (n_y + 2, n_t + 1)
        i, j = np.meshgrid(np.arange(n_y + 2), np.arange(n_t + 1), indexing="ij")
        np.testing.assert_array_equal(phi, z[grid.index(i, j)])
        np.testing.assert_array_equal(u, z[grid.block_size + grid.index(i, j)])
        np.testing.assert_array_equal(np.concatenate([phi.T.ravel(), u.T.ravel()]), z)

    @pytest.mark.parametrize("n_y, n_t", [(0, 3), (3, 0), (-1, 2)])
    def test_degenerate_grids_rejected(self, n_y, n_t):
        with pytest.raises(ValueError):
            GridIndexMap(n_y, n_t)


class TestManufacturedSolutions:
    """Polynomial (phi, u) pairs satisfying the continuous equations exactly."""

    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.5])
    @pytest.mark.parametrize("n", [4, 8])
    def test_time_independent_pair(self, alpha, n):
        # phi = y - L/2 integrates to zero over [0, L]; with u = 1 - phi the
        # once-integrated mismatch cancels and x(y, t) = f(y) + t-terms work out.
        phi_f = lambda y, t: y - L / 2.0
        u_f = lambda y, t: 1.0 - y + L / 2.0
        f = lambda y: y**3 / 6.0 - L * y**2 / 4.0
        rule_y = sgg_rule(BasisSpec(alpha=alpha, length=L, degree=n))
        rule_t = sgg_rule(BasisSpec(alpha=alpha, length=TF, degree=n))
        tr = build(make_ocp(f), rule_y, rule_t)
        z = fill_grid(
            tr.grid, rule_t.nodes, np.append(rule_y.nodes, 0.0), phi_f, u_f
        )
        assert np.abs(tr.qp.H @ z - tr.qp.b).max() < 1e-9

    def test_time_dependent_pair(self):
        phi_f = lambda y, t: (y - L / 2.0) * (1.0 + t)
        u_f = lambda y, t: y**3 / 6.0 - L * y**2 / 4.0 + 2.0 - phi_f(y, t)
        f = lambda y: y**3 / 6.0 - L * y**2 / 4.0
        tr = make_transcription(n_y=8, n_t=8, alpha=0.3, f=f)
        z = fill_grid(
            tr.grid, tr.rule_t.nodes, np.append(tr.rule_y.nodes, 0.0), phi_f, u_f
        )
        assert np.abs(tr.qp.H @ z - tr.qp.b).max() < 1e-9


class TestDynamicsAssembly:
    def test_rhs_is_initial_profile_offset(self):
        tr = make_transcription(n_y=3, n_t=2)
        y = tr.rule_y.nodes
        expected = np.tile(1.0 + y - 1.0, tr.grid.n_t + 1)  # f(y) - f(0) = y
        rhs = tr.qp.b[: expected.size]
        np.testing.assert_allclose(rhs, expected, atol=1e-14)

    def test_constant_profile_gives_zero_rhs(self):
        tr = make_transcription(n_y=3, n_t=2, f=lambda y: 7.0)
        np.testing.assert_array_equal(tr.qp.b, np.zeros(tr.qp.b.size))

    def test_shapes(self):
        tr = make_transcription(n_y=4, n_t=3)
        qp = tr.qp
        rows = (tr.grid.n_y + 1) * (tr.grid.n_t + 1)
        dyn = dynamics_rows(qp)
        assert dyn.shape == (rows, tr.grid.n_unknowns)
        assert_same_bits(dyn, qp.H[:rows])
        assert qp.b.shape == (rows + tr.grid.n_t + 1,)

    def test_operator_validation(self):
        """A transcription checks each operator's order, size and interval
        when it is made, so the program its assemblers take is sound."""
        tr = make_transcription(n_y=4, n_t=3)
        with pytest.raises(ValueError):
            replace(tr, op_y2=tr.op_y1)  # wrong order
        wrong_size = higher_order_matrix(
            first_order_matrix(sgg_rule(BasisSpec(alpha=0.0, length=L, degree=7))), 2
        )
        with pytest.raises(ValueError):
            replace(tr, op_y2=wrong_size)
        wrong_interval = higher_order_matrix(
            first_order_matrix(sgg_rule(BasisSpec(alpha=0.0, length=2.0, degree=4))), 2
        )
        with pytest.raises(ValueError):
            replace(tr, op_y2=wrong_interval)


class TestBoundaryRows:
    def test_rows_integrate_constants_to_length(self):
        tr = make_transcription(n_y=5, n_t=3)
        psi = flux_rows(tr.qp)
        z = np.zeros(tr.grid.n_unknowns)
        z[interior_positions(tr.grid)] = 1.0
        np.testing.assert_allclose(psi @ z, np.full(tr.grid.n_t + 1, L), atol=1e-12)

    def test_rows_annihilate_odd_profiles(self):
        tr = make_transcription(n_y=6, n_t=3)
        psi = flux_rows(tr.qp)
        z = np.zeros(tr.grid.n_unknowns)
        phi_interior = np.tile(tr.rule_y.nodes - L / 2.0, tr.grid.n_t + 1)
        z[interior_positions(tr.grid)] = phi_interior
        np.testing.assert_allclose(psi @ z, np.zeros(tr.grid.n_t + 1), atol=1e-12)

    def test_rows_touch_only_interior_phi_columns(self):
        tr = make_transcription(n_y=4, n_t=2)
        psi = flux_rows(tr.qp)
        assert np.all(psi[:, tr.grid.block_size :] == 0.0)  # u block untouched
        for j in range(tr.grid.n_t + 1):
            assert np.all(psi[:, tr.grid.index(tr.grid.n_y + 1, j)] == 0.0)

class TestCostForm:
    def test_constant_term_is_weighted_initial_energy(self):
        """For r1 = 1/2, f = 1 + y on [0, 4] x [0, 1]: j0 = 62/3."""
        tr = make_transcription(n_y=4, n_t=4)
        assert tr.qp.j0 == pytest.approx(62.0 / 3.0, rel=1e-12)

    def test_q_symmetric_positive_semidefinite(self):
        tr = make_transcription(n_y=4, n_t=3)
        q = tr.qp.Q
        np.testing.assert_allclose(q, q.T, atol=1e-14)
        assert np.linalg.eigvalsh(q).min() > -1e-10

    def test_interior_control_diagonal_is_quadrature_weight(self):
        # with r1 = 0 the state term drops out of the control block, leaving
        # exactly the tensor quadrature weight times r2 on the diagonal
        ocp = make_ocp(r1=0.0)
        rule_y = sgg_rule(BasisSpec(alpha=-0.2, length=L, degree=3))
        rule_t = sgg_rule(BasisSpec(alpha=-0.2, length=TF, degree=2))
        tr = build(ocp, rule_y, rule_t)
        grid = tr.grid
        w_y = tr.op_y1.full_interval_row
        w_t = tr.op_t1.full_interval_row
        for l in range(grid.n_t + 1):
            for k in range(grid.n_y + 1):
                pos = grid.block_size + int(grid.index(k, l))
                assert tr.qp.Q[pos, pos] == pytest.approx(
                    tr.ocp.r2 * w_t[l] * w_y[k], rel=1e-12
                )

    def test_zero_profile_kills_affine_terms(self):
        tr = make_transcription(n_y=3, n_t=3, f=lambda y: 0.0)
        np.testing.assert_array_equal(tr.qp.c, np.zeros(tr.grid.n_unknowns))
        assert tr.qp.j0 == 0.0

    @pytest.mark.parametrize("n", [4, 6])
    def test_quadratic_form_matches_literal_summation(self, n, rng):
        tr = make_transcription(n_y=n, n_t=n)
        qp = tr.qp
        for _ in range(10):
            z = rng.normal(size=tr.grid.n_unknowns)
            via_form = float(z @ qp.Q @ z + qp.c @ z + qp.j0)
            via_sum = cost_summation(
                tr.ocp,
                tr.grid,
                tr.rule_y.nodes,
                tr.op_t1,
                tr.op_y1.full_interval_row,
                tr.op_t1.full_interval_row,
                z,
            )
            assert via_form == pytest.approx(via_sum, rel=1e-12)


class TestStateRecovery:
    def test_zero_unknowns_return_initial_profile(self):
        tr = make_transcription(n_y=3, n_t=2)
        x = recover_state(np.zeros(tr.grid.n_unknowns), tr.qp)
        y_aug = np.append(tr.rule_y.nodes, 0.0)
        np.testing.assert_allclose(x, (1.0 + y_aug)[:, None] * np.ones((1, 3)), atol=1e-14)

    def test_unit_source_adds_elapsed_time(self):
        tr = make_transcription(n_y=3, n_t=2)
        z = fill_grid(
            tr.grid,
            tr.rule_t.nodes,
            np.append(tr.rule_y.nodes, 0.0),
            lambda y, t: np.ones_like(y),
            lambda y, t: np.zeros_like(y),
        )
        x = recover_state(z, tr.qp)
        y_aug = np.append(tr.rule_y.nodes, 0.0)
        expected = (1.0 + y_aug)[:, None] + tr.rule_t.nodes[None, :]
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_matches_affine_state_map(self, rng):
        tr = make_transcription(n_y=4, n_t=3)
        z = rng.normal(size=tr.grid.n_unknowns)
        m, fbar = state_map(tr.qp)
        via_map = m @ z + fbar
        x = recover_state(z, tr.qp)
        via_grid = x[: tr.grid.n_y + 1, :].T.ravel()  # time-major, space fastest
        np.testing.assert_allclose(via_map, via_grid, atol=1e-12)


class TestBuildPipeline:
    def test_constraint_shapes(self):
        tr = make_transcription(n_y=5, n_t=4)
        n_rows = (tr.grid.n_y + 1) * (tr.grid.n_t + 1) + tr.grid.n_t + 1
        assert tr.qp.H.shape == (n_rows, tr.grid.n_unknowns)
        assert tr.qp.b.shape == (n_rows,)
        assert tr.op_y2.order == 2
        assert tr.op_y1.order == 1 and tr.op_t1.order == 1

    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.5])
    def test_constraints_have_full_row_rank(self, alpha):
        tr = make_transcription(n_y=4, n_t=4, alpha=alpha)
        assert np.linalg.matrix_rank(tr.qp.H) == tr.qp.H.shape[0]

    @pytest.mark.parametrize("alpha", [-0.3, 0.0, 0.5])
    def test_released_transcription_reassembles_the_same_qp(self, alpha):
        """A transcription holds no array of the dense program's size; each
        read of `qp` assembles it afresh, bit for bit."""
        tr = make_transcription(n_y=5, n_t=4, alpha=alpha)
        assert max(a.size for a in reachable_arrays(tr)) < tr.grid.n_unknowns
        first, second = tr.qp, tr.qp
        assert first is not second
        for name in ("H", "b", "Q", "c", "j0"):
            assert_same_bits(getattr(first, name), getattr(second, name))

    def test_rule_domain_mismatch_rejected(self):
        rule_y = sgg_rule(BasisSpec(alpha=0.0, length=2.0, degree=4))  # not L
        rule_t = sgg_rule(BasisSpec(alpha=0.0, length=TF, degree=4))
        with pytest.raises(ValueError):
            build(make_ocp(), rule_y, rule_t)

    def test_reading_h_holds_one_copy(self):
        """H is written straight into one array: reading it at N = 32 peaks
        at H itself plus 10%."""
        qp = make_transcription(n_y=32, n_t=32, alpha=0.0).qp
        tracemalloc.start()
        try:
            h = qp.H
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * h.nbytes, f"peak {peak / h.nbytes:.2f} x H.nbytes"


class TestProblemValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"length": 0.0},
            {"length": -1.0},
            {"t_final": 0.0},
            {"r1": -0.1},
            {"r2": 0.0},
            {"r2": -1.0},
        ],
    )
    def test_invalid_data_rejected(self, kwargs):
        base = dict(length=L, t_final=TF, r1=0.5, r2=0.5, initial=lambda y: y)
        with pytest.raises(ValueError):
            DiffusionOcp(**{**base, **kwargs})

    def test_zero_state_weight_allowed(self):
        ocp = DiffusionOcp(length=L, t_final=TF, r1=0.0, r2=0.5, initial=lambda y: y)
        assert ocp.r1 == 0.0


# Reference assemblers: the nested-loop bodies that built the program before
# the Kronecker form, with the interior row count (N_y + 1)(N_t + 1) and the
# time-major interior positions written out in place of the old index-map
# members.


def loop_dynamics(ocp, grid, op_y2, op_t1):
    n_y, n_t = grid.n_y, grid.n_t
    p2 = op_y2.matrix
    p1 = op_t1.matrix
    y = op_y2.rule.nodes
    f0 = float(ocp.initial(0.0))
    rows = (n_y + 1) * (n_t + 1)
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


def loop_boundary(grid, full_row_y):
    psi = np.zeros((grid.n_t + 1, grid.n_unknowns))
    l = np.arange((grid.n_y + 1) * (grid.n_t + 1))
    cols = l + l // (grid.n_y + 1)
    stride = grid.n_y + 1
    for j in range(grid.n_t + 1):
        psi[j, cols[j * stride : (j + 1) * stride]] = full_row_y
    return psi


def loop_constraints(ocp, grid, op_y2, op_t1, full_row_y):
    """H and b stacked from the loop-built dynamics and boundary rows."""
    a_phi, a_u, rhs = loop_dynamics(ocp, grid, op_y2, op_t1)
    psi = loop_boundary(grid, full_row_y)
    h = np.vstack([np.hstack([a_phi, a_u]), psi])
    return h, np.concatenate([rhs, np.zeros(psi.shape[0])])


def loop_state_map(ocp, grid, y_nodes, op_t1):
    n_y, n_t = grid.n_y, grid.n_t
    p1 = op_t1.matrix
    rows = (n_y + 1) * (n_t + 1)
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


def loop_cost(ocp, grid, y_nodes, op_t1, full_row_y, full_row_t):
    m, fbar = loop_state_map(ocp, grid, y_nodes, op_t1)
    w = np.kron(full_row_t, full_row_y)
    q = ocp.r1 * (m.T @ (w[:, None] * m))
    l = np.arange((grid.n_y + 1) * (grid.n_t + 1))
    u_interior = grid.block_size + l + l // (grid.n_y + 1)
    q[u_interior, u_interior] += ocp.r2 * w
    q = 0.5 * (q + q.T)
    c = 2.0 * ocp.r1 * (m.T @ (w * fbar))
    j0 = ocp.r1 * float(w @ fbar**2)
    return q, c, j0


def record_calls(monkeypatch, *names):
    """Wrap the named functions of `transcribe` so that each call appends
    its name to the returned list."""
    calls = []
    for name in names:
        real = getattr(transcribe, name)
        monkeypatch.setattr(
            transcribe, name, lambda *args, _f=real, _n=name: calls.append(_n) or _f(*args)
        )
    return calls


def assert_same_bits(a, b):
    """Equal values and equal signs of zero: the arrays print identically."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestLoopReference:
    """The program reproduces the loop assemblers: H, b, M, fbar and j0 bit
    for bit; c, a matrix product of the factors, and Q, whose products are
    summed in another order, to 1e-15 of their scale, and Q exactly
    symmetric."""

    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.5])
    @pytest.mark.parametrize("n_y, n_t", [(1, 1), (3, 5), (5, 3), (8, 8)])
    def test_matches_loop_assembly(self, n_y, n_t, alpha):
        f = lambda y: 1.0 + y - 0.3 * y**2
        tr = make_transcription(n_y=n_y, n_t=n_t, alpha=alpha, f=f)
        ocp, grid, y, qp = tr.ocp, tr.grid, tr.rule_y.nodes, tr.qp
        w_y, w_t = tr.op_y1.full_interval_row, tr.op_t1.full_interval_row
        h, b = loop_constraints(ocp, grid, tr.op_y2, tr.op_t1, w_y)
        assert_same_bits(qp.H, h)
        assert_same_bits(qp.b, b)
        for new, old in zip(state_map(qp), loop_state_map(ocp, grid, y, tr.op_t1)):
            assert_same_bits(new, old)
        q, c, j0 = loop_cost(ocp, grid, y, tr.op_t1, w_y, w_t)
        assert np.abs(qp.c - c).max() <= 1e-15 * np.abs(c).max()
        assert_same_bits(qp.j0, j0)
        assert np.abs(qp.Q - q).max() <= 1e-15 * np.abs(q).max()
        assert np.array_equal(qp.Q, qp.Q.T)

    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.5])
    def test_solution_matches_loop_program(self, alpha):
        """The solver, through the program's factors, against the
        null-space oracle on the loop-built dense program."""
        tr = make_transcription(n_y=6, n_t=6, alpha=alpha)
        ocp, grid, y = tr.ocp, tr.grid, tr.rule_y.nodes
        w_y, w_t = tr.op_y1.full_interval_row, tr.op_t1.full_interval_row
        h, b = loop_constraints(ocp, grid, tr.op_y2, tr.op_t1, w_y)
        q, c, j0 = loop_cost(ocp, grid, y, tr.op_t1, w_y, w_t)
        new = solve(tr.qp)
        z, _, j = null_space_oracle(SimpleNamespace(H=h, b=b, Q=q, c=c, j0=j0))
        assert new.j == pytest.approx(j, rel=1e-13)
        assert np.abs(new.z - z).max() < 1e-10
        assert new.kkt_rank_deficiency == grid.n_t + 1


class TestFactoredProgram:
    """The program's matrix-free products with Q, H and H' reproduce its
    dense Kronecker expansions to round-off."""

    @pytest.mark.parametrize("alpha", [-0.2, 0.0, 0.5])
    @pytest.mark.parametrize("n_y, n_t", [(1, 1), (3, 5), (5, 3), (8, 8)])
    def test_matches_dense_program(self, n_y, n_t, alpha, rng):
        f = lambda y: 1.0 + y - 0.3 * y**2
        qp = make_transcription(n_y=n_y, n_t=n_t, alpha=alpha, f=f).qp
        z = rng.normal(size=qp.grid.n_unknowns)
        lam = rng.normal(size=qp.H.shape[0])
        for got, want in (
            (qp.q_mul(z), qp.Q @ z),
            (qp.h_mul(z), qp.H @ z),
            (qp.h_terms(z), np.abs(qp.H) @ np.abs(z)),
            (qp.ht_mul(lam), qp.H.T @ lam),
        ):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_factored_program_reads_the_dense_one_once(self, monkeypatch):
        """A program's dense parts are assembled once per instance, on first
        read, and a fresh program assembles them afresh."""
        tr = make_transcription(n_y=3, n_t=3)
        qp = tr.qp
        calls = record_calls(monkeypatch, "assemble_dynamics", "assemble_cost")
        assert not calls
        assert qp.Q.shape == (tr.grid.n_unknowns,) * 2
        assert_same_bits(qp.H, tr.qp.H)
        assert qp.Q is qp.Q and qp.H is qp.H
        assert calls == ["assemble_cost", "assemble_dynamics", "assemble_dynamics"]

    @pytest.mark.parametrize("first", ["H", "b", "Q", "c", "j0"])
    def test_dense_parts_assembled_by_group_on_read(self, monkeypatch, first):
        """Reading H assembles the constraint rows alone and reading Q the
        cost alone; b, c and j0 are products of the factors and assemble
        nothing, and nothing forms the state map.  Each dense part is
        assembled once per instance."""
        assemblers = {
            "H": ["combine", "assemble_dynamics", "assemble_boundary"],
            "Q": ["assemble_cost"],
        }
        every = [name for names in assemblers.values() for name in names]
        calls = record_calls(monkeypatch, *every, "state_map")
        qp = make_transcription(n_y=4, n_t=3).qp
        getattr(qp, first)
        assert calls == assemblers.get(first, [])
        for name in ("H", "b", "Q", "c", "j0"):
            getattr(qp, name)
        assert sorted(calls) == sorted(every)
