"""Tests for the truncation-error bound formulas.

The bounds are implemented in log-domain arithmetic, so the strongest checks
recompute the same quantities through plain gamma/factorial products and by
measuring actual quadrature errors with the integration operators, then
assert domination.  All error measurements carry a float64 noise floor of a
few machine epsilons; domination is only meaningful while the measured error
sits above that floor.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import binom, gamma

from gegopt.polycore import BasisSpec
from gegopt.nodes import sgg_rule
from gegopt.intmat import first_order_matrix, higher_order_matrix
from gegopt.bounds import (
    BoundInputs,
    asymptotic_shape,
    dynamics_residual_bound,
    first_order_error_bound,
    fit_shape_constant,
    qth_order_error_bound,
    uniform_sup_error_bound,
)


def make_inputs(alpha=0.0, length=1.0, degree=8, deriv_sup=1.0, q=1, leibniz_sup=1.0):
    spec = BasisSpec(alpha=alpha, length=length, degree=degree)
    return BoundInputs(spec=spec, deriv_sup=deriv_sup, q=q, leibniz_sup=leibniz_sup)


def gamma_oracle_q1(alpha, length, n, a_sup, x):
    """Plain-arithmetic recomputation of the first-order bound.

    Independent of the log-domain route: gamma products evaluated directly,
    with the parity branches for negative alpha written out literally.
    """
    lead = (
        a_sup
        * x
        * length ** (n + 1)
        * gamma(alpha + 1.0)
        * gamma(n + 2.0 * alpha + 1.0)
        / (
            2.0 ** (2.0 * n + 1.0)
            * math.factorial(n + 1)
            * gamma(2.0 * alpha + 1.0)
            * gamma(n + alpha + 1.0)
        )
    )
    if alpha >= 0.0:
        return lead
    # parity branches; the whole factor is taken in magnitude because the
    # bound is on |error| and gamma(2*alpha) is negative on (-1/2, 0)
    if n % 2 == 0:
        factor = (
            2.0
            * alpha
            * binom(n / 2.0 + alpha, n / 2.0)
            * math.factorial(n + 1)
            * gamma(2.0 * alpha)
            / (
                math.sqrt((n + 1.0) * (n + 2.0 * alpha + 1.0))
                * gamma(n + 2.0 * alpha + 1.0)
            )
        )
    else:
        factor = (
            binom((n - 1) / 2.0 + alpha, (n + 1) / 2.0)
            * math.factorial(n + 1)
            * gamma(2.0 * alpha)
            / gamma(n + 2.0 * alpha + 1.0)
        )
    return abs(lead * factor)


class TestClosedForms:
    def test_frozen_rational_value(self):
        # alpha=0, q=1, n=3, l=1, x=1, A=1 collapses to 1 / (2^7 * 4!) = 1/3072
        inputs = make_inputs(degree=3)
        assert first_order_error_bound(inputs, x=1.0) == pytest.approx(1.0 / 3072.0, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 7, 11])
    @pytest.mark.parametrize("length", [1.0, 4.0])
    def test_alpha_zero_factorial_form(self, n, length):
        # at alpha = 0 the bound is A * x * l^{n+1} / (2^{2n+1} (n+1)!)
        a_sup, x = 2.5, 0.4 * length
        inputs = make_inputs(length=length, degree=n, deriv_sup=a_sup)
        expected = a_sup * x * length ** (n + 1) / (2.0 ** (2 * n + 1) * math.factorial(n + 1))
        assert first_order_error_bound(inputs, x=x) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.4, -0.2, 0.0, 0.3, 0.7])
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_gamma_product_oracle(self, alpha, n):
        # both parities hit each negative-alpha branch
        length, a_sup, x = 2.0, 1.7, 1.3
        inputs = make_inputs(alpha=alpha, length=length, degree=n, deriv_sup=a_sup)
        got = first_order_error_bound(inputs, x=x)
        want = gamma_oracle_q1(alpha, length, n, a_sup, x)
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0.0

    def test_zero_derivative_sup_gives_zero(self):
        inputs = make_inputs(deriv_sup=0.0)
        assert first_order_error_bound(inputs, x=0.5) == 0.0


class TestScalingIdentities:
    def test_q1_matches_first_order_bitwise(self):
        inputs = make_inputs(alpha=0.3, degree=9, deriv_sup=2.0)
        assert qth_order_error_bound(inputs, x=0.6) == first_order_error_bound(inputs, x=0.6)
        q3 = replace(inputs, q=3)
        assert first_order_error_bound(q3, x=0.6) == first_order_error_bound(inputs, x=0.6)

    def test_q3_is_half_of_q1(self):
        inputs = make_inputs(alpha=-0.2, degree=8, deriv_sup=3.0)
        b1 = qth_order_error_bound(inputs, x=0.5)
        b3 = qth_order_error_bound(replace(inputs, q=3), x=0.5)
        assert b3 == pytest.approx(b1 / 2.0, rel=1e-14)

    @pytest.mark.parametrize("q", [2, 4, 5])
    def test_general_q_divides_by_factorial(self, q):
        inputs = make_inputs(alpha=0.5, degree=7, deriv_sup=1.0)
        b1 = qth_order_error_bound(inputs, x=0.8)
        bq = qth_order_error_bound(replace(inputs, q=q), x=0.8)
        assert bq == pytest.approx(b1 / math.factorial(q - 1), rel=1e-13)

    def test_uniform_sup_ratio(self):
        # the uniform-input variant differs by exactly 2^{n+1} * leibniz_sup
        n = 6
        inputs = make_inputs(alpha=0.4, degree=n, deriv_sup=1.1, leibniz_sup=3.0)
        ratio = uniform_sup_error_bound(inputs, x=0.7) / qth_order_error_bound(inputs, x=0.7)
        assert ratio == pytest.approx(2.0 ** (n + 1) * 3.0, rel=1e-13)

    def test_linear_in_deriv_sup_and_x(self):
        base = make_inputs(alpha=0.2, degree=10, deriv_sup=1.0)
        doubled = make_inputs(alpha=0.2, degree=10, deriv_sup=2.0)
        assert uniform_sup_error_bound(doubled, x=0.5) == pytest.approx(
            2.0 * uniform_sup_error_bound(base, x=0.5), rel=1e-14
        )
        assert uniform_sup_error_bound(base, x=0.8) == pytest.approx(
            2.0 * uniform_sup_error_bound(base, x=0.4), rel=1e-14
        )


class TestDecayTrends:
    def test_monotone_in_degree(self):
        # fixed alpha=0, l=1, A=1, x=1/2: two more nodes always tighten
        values = [
            first_order_error_bound(make_inputs(degree=n), x=0.5) for n in range(4, 16)
        ]
        for lo, hi in zip(values[2:], values[:-2]):
            assert lo < hi

    @pytest.mark.parametrize("length", [1.0, 4.0])
    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.9])
    def test_geometric_decay_past_n8(self, alpha, length):
        values = [
            first_order_error_bound(
                make_inputs(alpha=alpha, length=length, degree=n), x=length / 2.0
            )
            for n in range(8, 21)
        ]
        ratios = [b / a for a, b in zip(values, values[1:])]
        assert max(ratios) < 1.0
        # the ratio itself keeps shrinking: super-geometric
        assert ratios[-1] < ratios[0]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_alpha_zero_minimizes_bound(self, alpha):
        n = 16
        b0 = first_order_error_bound(make_inputs(alpha=0.0, degree=n), x=0.5)
        ba = first_order_error_bound(make_inputs(alpha=alpha, degree=n), x=0.5)
        assert b0 < ba

    @pytest.mark.parametrize("alpha", [-0.4, 0.0, 0.9])
    def test_finite_up_to_degree_100(self, alpha):
        inputs = make_inputs(alpha=alpha, length=4.0, degree=100, deriv_sup=1e6)
        value = first_order_error_bound(inputs, x=2.0)
        assert np.isfinite(value)
        assert value >= 0.0


class TestEmpiricalDomination:
    """Measured quadrature errors versus the computed bounds for f = e^x."""

    # a couple of machine epsilons: the smallest error float64 can express
    # for integrals of order one, regardless of how far the bound decays
    NOISE_FLOOR = 8.0 * np.finfo(float).eps

    @staticmethod
    def nodewise_errors(alpha: float, n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
        rule = sgg_rule(BasisSpec(alpha=alpha, length=1.0, degree=n))
        op = first_order_matrix(rule)
        if order == 2:
            op = higher_order_matrix(op, 2)
        approx = op.matrix @ np.exp(rule.nodes)
        if order == 1:
            exact = np.exp(rule.nodes) - 1.0
        else:
            exact = np.exp(rule.nodes) - 1.0 - rule.nodes
        return rule.nodes, np.abs(approx - exact)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("n", range(4, 11))
    def test_first_order_dominates_exp(self, alpha, n):
        nodes, errors = self.nodewise_errors(alpha, n, order=1)
        inputs = make_inputs(alpha=alpha, degree=n, deriv_sup=math.e)
        bounds = np.array([first_order_error_bound(inputs, x=float(x)) for x in nodes])
        assert np.all(errors <= bounds + self.NOISE_FLOOR)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_decay_rate_average_below_quarter(self, alpha):
        # a ratio of two round-off values says nothing about decay, so a
        # pair counts only when both peak errors lie above the noise floor
        worst = []
        for n in range(4, 13):
            _, errors = self.nodewise_errors(alpha, n, order=1)
            worst.append(float(np.max(errors)))
        ratios = [
            b / a
            for a, b in zip(worst, worst[1:])
            if a > self.NOISE_FLOOR and b > self.NOISE_FLOOR
        ]
        assert len(ratios) >= 4, f"too few peak errors above the floor: {worst}"
        assert np.mean(ratios) < 0.25, f"peak errors {worst}, ratios {ratios}"

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_second_order_dominates_exp(self, n):
        # derivative input: sup over [0,1] of the Leibniz-expanded
        # d^{n+1}/dx^{n+1} [(x_i - x) e^x] = (x_i - x - (n+1)) e^x <= (n+2) e
        nodes, errors = self.nodewise_errors(0.0, n, order=2)
        inputs = make_inputs(degree=n, deriv_sup=(n + 2) * math.e, q=2)
        bounds = np.array([qth_order_error_bound(inputs, x=float(x)) for x in nodes])
        assert np.all(errors <= bounds + self.NOISE_FLOOR)


class TestDynamicsResidualBound:
    def spatial(self, alpha, n, a_sup=1.0, leib=1.0, length=4.0):
        return BoundInputs(
            spec=BasisSpec(alpha=alpha, length=length, degree=n),
            deriv_sup=a_sup,
            leibniz_sup=leib,
        )

    def temporal(self, alpha, n, b_sup=1.0, horizon=1.0):
        return BoundInputs(
            spec=BasisSpec(alpha=alpha, length=horizon, degree=n), deriv_sup=b_sup
        )

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_gamma_oracle(self, alpha):
        # recompute prefactor * (temporal + spatial) through plain gamma calls
        n, length, horizon = 6, 4.0, 1.0
        a_sup, b_sup, leib, y, t = 1.3, 2.0, 2.5, 2.4, 0.7
        got = dynamics_residual_bound(
            self.spatial(alpha, n, a_sup, leib, length),
            self.temporal(alpha, n, b_sup, horizon),
            y,
            t,
        )
        prefactor = gamma(1.0 + alpha) / (2.0 * gamma(1.0 + 2.0 * alpha))
        eps1 = (
            4.0 ** (-n)
            * b_sup
            * horizon ** (n + 1)
            * t
            * gamma(n + 2.0 * alpha + 1.0)
            / (math.factorial(n + 1) * gamma(n + alpha + 1.0))
        )
        eps2 = (
            a_sup
            * leib
            * 2.0 ** (1 - n)
            * y
            * length ** (n + 1)
            * gamma(n + 2.0 * alpha + 1.0)
            / (math.factorial(n + 1) * gamma(1.0 + n + alpha))
        )
        assert got == pytest.approx(prefactor * (eps1 + eps2), rel=1e-12)

    def test_prefactor_is_half_at_alpha_zero(self):
        # with A = 0 the bound is exactly eps1 / 2, so doubling B doubles it
        lo = dynamics_residual_bound(
            self.spatial(0.0, 5, a_sup=0.0), self.temporal(0.0, 5, b_sup=1.0), 1.0, 0.5
        )
        hi = dynamics_residual_bound(
            self.spatial(0.0, 5, a_sup=0.0), self.temporal(0.0, 5, b_sup=2.0), 1.0, 0.5
        )
        assert hi == pytest.approx(2.0 * lo, rel=1e-14)
        eps1 = 4.0 ** (-5) * 0.5 / math.factorial(6)
        assert lo == pytest.approx(0.5 * eps1, rel=1e-13)

    def test_temporal_part_vanishes_with_b(self):
        full = dynamics_residual_bound(
            self.spatial(0.2, 6, a_sup=1.0), self.temporal(0.2, 6, b_sup=0.0), 2.0, 0.9
        )
        spatial_only = dynamics_residual_bound(
            self.spatial(0.2, 6, a_sup=1.0), self.temporal(0.2, 6, b_sup=1e-30), 2.0, 0.9
        )
        assert full == pytest.approx(spatial_only, rel=1e-12)

    def test_linear_in_node_coordinates(self):
        sp, tp = self.spatial(0.5, 6, a_sup=0.0), self.temporal(0.5, 6, b_sup=2.0)
        assert dynamics_residual_bound(sp, tp, 1.0, 0.8) == pytest.approx(
            2.0 * dynamics_residual_bound(sp, tp, 1.0, 0.4), rel=1e-13
        )
        sp2, tp2 = self.spatial(0.5, 6, a_sup=1.3, leib=2.0), self.temporal(0.5, 6, b_sup=0.0)
        assert dynamics_residual_bound(sp2, tp2, 2.0, 0.3) == pytest.approx(
            2.0 * dynamics_residual_bound(sp2, tp2, 1.0, 0.3), rel=1e-13
        )

    def test_mismatched_alpha_rejected(self):
        with pytest.raises(ValueError):
            dynamics_residual_bound(
                self.spatial(0.0, 5), self.temporal(0.5, 5), 1.0, 0.5
            )

    @pytest.mark.parametrize("n", [6, 7])
    def test_negative_alpha_branches_positive(self, n):
        value = dynamics_residual_bound(
            self.spatial(-0.3, n), self.temporal(-0.3, n), 2.0, 0.5
        )
        assert np.isfinite(value)
        assert value > 0.0

    @pytest.mark.parametrize("n", range(4, 11))
    def test_dominates_manufactured_diffusion_pair(self, n):
        """Exact samples of a separable diffusion solution leave a collocation
        residual below the computed bound at every node pair.

        The state cos(pi y / L) e^{-t} has zero flux at both walls, so the
        curvature profile phi, the control u = x_t - phi, and the initial
        profile are all explicit; every derivative bound is available in
        closed form.
        """
        from gegopt.transcribe import DiffusionOcp, build

        length, horizon, alpha = 4.0, 1.0, 0.0
        w = math.pi / length
        phi_f = lambda y, t: -(w ** 2) * np.cos(w * y) * np.exp(-t)
        u_f = lambda y, t: (w ** 2 - 1.0) * np.cos(w * y) * np.exp(-t)

        rule_y = sgg_rule(BasisSpec(alpha=alpha, length=length, degree=n))
        rule_t = sgg_rule(BasisSpec(alpha=alpha, length=horizon, degree=n))
        ocp = DiffusionOcp(
            length=length, t_final=horizon, r1=0.5, r2=0.5,
            initial=lambda y: math.cos(w * y),
        )
        tr = build(ocp, rule_y, rule_t)
        grid = tr.grid
        y_aug = np.append(rule_y.nodes, 0.0)
        z = np.zeros(grid.n_unknowns)
        cols = np.arange(grid.n_y + 2)
        for j, t in enumerate(rule_t.nodes):
            z[grid.index(cols, j)] = phi_f(y_aug, t)
            z[grid.block_size + grid.index(cols, j)] = u_f(y_aug, t)
        residual = tr.qp.H @ z - tr.qp.b

        # sup_k |d^k phi / dy^k| = w^{k+2} e^{-t} <= w^2 because w < 1;
        # |d^k psi / dt^k| = (1 - cos(w y)) e^{-t} <= 2;  the mean-value
        # point is unknown so take sup over the whole interval for n_max
        a_max, b_max = w ** 2, 2.0
        for j, t in enumerate(rule_t.nodes):
            for i, yv in enumerate(rule_y.nodes):
                row = i + j * (grid.n_y + 1)
                n_max = max(1.0, yv, length - yv)
                bound = dynamics_residual_bound(
                    self.spatial(alpha, n, a_max, n_max, length),
                    self.temporal(alpha, n, b_max, horizon),
                    float(yv),
                    float(t),
                )
                assert abs(residual[row]) <= bound


class TestAsymptoticShape:
    def test_matches_direct_formula(self):
        n, length, x, alpha, q = 5, 2.0, 0.7, 0.3, 2
        direct = (
            math.e ** n
            * length ** (n + 1)
            * x
            / (2.0 ** (2 * n + 1) * n ** (n + 1.5 - alpha) * math.factorial(q - 1))
        )
        assert asymptotic_shape(n, length, x, alpha, q) == pytest.approx(direct, rel=1e-12)

    def test_alpha_enters_exponent_above_zero(self):
        n = 12
        ratio = asymptotic_shape(n, 2.0, 0.7, 0.5) / asymptotic_shape(n, 2.0, 0.7, 0.0)
        assert ratio == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_negative_alpha_drops_shift(self):
        # below zero the decay exponent saturates at n + 3/2
        assert asymptotic_shape(9, 1.0, 0.5, -0.3) == pytest.approx(
            asymptotic_shape(9, 1.0, 0.5, 0.0), rel=1e-12
        )

    def test_finite_at_degree_100(self):
        assert np.isfinite(asymptotic_shape(100, 4.0, 2.0, 0.0))

    def test_rejects_degree_below_one(self):
        with pytest.raises(ValueError):
            asymptotic_shape(0, 1.0, 0.5, 0.0)

    @pytest.mark.parametrize("q", [0, 1.5])
    def test_rejects_bad_order(self, q):
        with pytest.raises(ValueError, match="integration order must be a positive integer"):
            asymptotic_shape(4, 1.0, 0.5, 0.0, q=q)

    def test_fit_constant_is_max_ratio(self):
        samples = [(n, 0.5, 3.0 * asymptotic_shape(n, 1.0, 0.5, 0.0)) for n in range(4, 9)]
        # perturb one entry downward; the max ratio must still be 3
        n0, x0, v0 = samples[2]
        samples[2] = (n0, x0, 0.5 * v0)
        fitted = fit_shape_constant(samples, 1.0, 0.0)
        assert fitted == pytest.approx(3.0, rel=1e-12)

    def test_fit_constant_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_shape_constant([], 1.0, 0.0)


class TestValidation:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            make_inputs(q=0)
        with pytest.raises(ValueError):
            BoundInputs(spec=BasisSpec(alpha=0.0, length=1.0, degree=4), deriv_sup=1.0, q=1.5)

    def test_rejects_negative_sups(self):
        with pytest.raises(ValueError):
            make_inputs(deriv_sup=-1.0)
        with pytest.raises(ValueError):
            make_inputs(leibniz_sup=-0.1)

    def test_rejects_point_outside_domain(self):
        inputs = make_inputs(length=2.0)
        with pytest.raises(ValueError):
            first_order_error_bound(inputs, x=2.5)
        with pytest.raises(ValueError):
            first_order_error_bound(inputs, x=-0.1)
