"""A-priori error bounds for the integration operators and for the
transcribed dynamics residual.

For a degree-n basis the order-q running-integral row at node x commits an
error controlled by the sup of the (n+1)-st derivative of the integrand
(times the leftover polynomial factor for q > 1).  The bounds split into
three parameter branches: alpha >= 0, and for -1/2 < alpha < 0 separate
even-n and odd-n expressions.  Every branch is a product of gamma-function
ratios and is evaluated in the log domain with magnitudes only — the
formulas are bounds on absolute errors, so the result is always the
positive magnitude of the product.

The asymptotic decay shapes are provided separately: they describe the
large-n behavior up to an unknown constant, so they are exposed as shape
functions plus a fitted-constant helper, never asserted as absolute bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polycore import BasisSpec

__all__ = [
    "BoundInputs",
    "first_order_error_bound",
    "qth_order_error_bound",
    "uniform_sup_error_bound",
    "dynamics_residual_bound",
    "asymptotic_shape",
    "fit_shape_constant",
    "estimate_derivative_sup",
]

_LOG2 = math.log(2.0)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs for one bound evaluation.

    deriv_sup bounds the relevant derivative of the integrand: the
    (n+1)-st for the order-specific bounds, a uniform bound over all orders
    up to n+1 for the uniform variant.  leibniz_sup is the product-rule
    factor of the uniform variant (the max of (q-1)! and the worst
    falling-factorial-times-distance-power term); it stays 1 for q = 1.
    """

    spec: BasisSpec
    deriv_sup: float
    q: int = 1
    leibniz_sup: float = 1.0

    def __post_init__(self) -> None:
        _checked_order(self.q)
        if self.deriv_sup < 0.0 or self.leibniz_sup < 0.0:
            raise ValueError("derivative bounds must be nonnegative")


def _checked_order(q: int) -> int:
    if int(q) != q or q < 1:
        raise ValueError(f"integration order must be a positive integer, got {q}")
    return q


def _log_abs_binom(a: float, k: float) -> float:
    """log |binomial(a, k)| for real a, integer k >= 0."""
    return math.lgamma(a + 1.0) - math.lgamma(k + 1.0) - math.lgamma(a - k + 1.0)


def _log_or_zero(v: float) -> float:
    if v < 0.0:
        raise ValueError(f"expected a nonnegative quantity, got {v}")
    return math.log(v) if v > 0.0 else -math.inf


def _log_degree_factor(alpha: float, n: int) -> float:
    """Log magnitude of the degree-dependent factor shared by every bound.

    For alpha >= 0 it is G(n+2a+1) / (G(n+2) G(n+a+1)).  For alpha < 0 that
    ratio is multiplied by a parity-dependent factor whose G(n+2) and
    G(n+2a+1) cancel it, written here already cancelled.
    """
    if alpha >= 0.0:
        head = math.lgamma(n + 2.0 * alpha + 1.0) - math.lgamma(n + 2.0)
    elif n % 2 == 1:
        # odd n: (n+1)! |Gamma(2a)| |binom((n+1)/2 + a - 1, (n+1)/2)| / Gamma(n+2a+1)
        head = math.lgamma(2.0 * alpha) + _log_abs_binom(
            (n + 1) / 2.0 + alpha - 1.0, (n + 1) / 2.0
        )
    else:
        # even n: |2a Gamma(2a)| = Gamma(2a+1), so the gamma ratio collapses and
        # a square-root factor appears instead.
        head = (
            _log_abs_binom(n / 2.0 + alpha, n / 2.0)
            + math.lgamma(2.0 * alpha + 1.0)
            - 0.5 * math.log((n + 1.0) * (n + 2.0 * alpha + 1.0))
        )
    return head - math.lgamma(n + alpha + 1.0)


def _check_point(x: float, length: float) -> None:
    if x < 0.0 or x > length * (1.0 + 1e-12):
        raise ValueError(f"node {x} outside [0, {length}]")


def qth_order_error_bound(inputs: BoundInputs, x: float, q: int | None = None) -> float:
    """Error bound for the order-q running-integral row at node x, given a
    sup bound on the (n+1)-st derivative of the integrand."""
    order = _checked_order(inputs.q if q is None else q)
    spec = inputs.spec
    _check_point(x, spec.length)
    n, alpha, length = spec.degree, spec.alpha, spec.length
    log_val = (
        _log_or_zero(inputs.deriv_sup)
        - (2 * n + 1) * _LOG2
        + math.lgamma(alpha + 1.0)
        + _log_or_zero(x)
        + (n + 1) * math.log(length)
        - math.lgamma(2.0 * alpha + 1.0)
        - math.lgamma(float(order))
        + _log_degree_factor(alpha, n)
    )
    return float(np.exp(log_val))


def first_order_error_bound(inputs: BoundInputs, x: float) -> float:
    """Single-integration (q = 1) specialization of the order-q bound."""
    return qth_order_error_bound(inputs, x, q=1)


def uniform_sup_error_bound(inputs: BoundInputs, x: float, q: int | None = None) -> float:
    """Error bound using one uniform derivative sup across all orders.

    Applies when deriv_sup dominates every derivative of the integrand up
    to order n+1; the product-rule expansion then contributes a factor
    2^(n+1) and the leibniz_sup term relative to the order-specific bound.
    """
    order = _checked_order(inputs.q if q is None else q)
    spec = inputs.spec
    _check_point(x, spec.length)
    n, alpha, length = spec.degree, spec.alpha, spec.length
    log_val = (
        -n * _LOG2
        + _log_or_zero(inputs.deriv_sup)
        + (n + 1) * math.log(length)
        + _log_or_zero(inputs.leibniz_sup)
        + _log_or_zero(x)
        + math.lgamma(alpha + 1.0)
        - math.lgamma(float(order))
        - math.lgamma(2.0 * alpha + 1.0)
        + _log_degree_factor(alpha, n)
    )
    return float(np.exp(log_val))


def dynamics_residual_bound(
    inputs_y: BoundInputs, inputs_t: BoundInputs, y: float, t: float
) -> float:
    """Bound on one collocated dynamics-row residual at grid point (y, t).

    inputs_y bounds the space derivatives of the curvature variable
    (deriv_sup uniform over orders, with its product-rule factor);
    inputs_t bounds the (N_t + 1)-st time derivative of the once-integrated
    combination.  Both rules must share one family parameter.
    """
    alpha = inputs_y.spec.alpha
    if abs(alpha - inputs_t.spec.alpha) > 1e-14:
        raise ValueError("space and time rules must share the family parameter")
    with np.errstate(over="ignore"):
        return uniform_sup_error_bound(inputs_y, y, q=1) + first_order_error_bound(inputs_t, t)


def asymptotic_shape(n: int, length: float, x: float, alpha: float, q: int = 1) -> float:
    """Large-n decay shape of the order-q bound, with the unknown constant
    stripped: e^n length^(n+1) x / (2^(2n+1) n^(n+3/2-alpha) (q-1)!) for
    alpha >= 0, and the same without alpha in the exponent otherwise."""
    if n < 1:
        raise ValueError("shape function needs n >= 1")
    _checked_order(q)
    expo = n + 1.5 - alpha if alpha >= 0.0 else n + 1.5
    log_val = (
        n
        + (n + 1) * math.log(length)
        + _log_or_zero(x)
        - (2 * n + 1) * _LOG2
        - expo * math.log(n)
        - math.lgamma(float(q))
    )
    return float(np.exp(log_val))


def fit_shape_constant(
    samples: list[tuple[int, float, float]], length: float, alpha: float, q: int = 1
) -> float:
    """Smallest constant C with error <= C * shape over the given samples.

    samples holds (n, x, observed_error) triples.  The result is data: a
    fitted ratio, not a certified bound.
    """
    if not samples:
        raise ValueError("at least one sample is required")
    return max(err / asymptotic_shape(n, length, x, alpha, q) for n, x, err in samples)


def _divided_difference(xs: np.ndarray, ys: np.ndarray) -> float:
    table = np.array(ys, dtype=float)
    m = xs.size
    for level in range(1, m):
        table[: m - level] = (table[1 : m - level + 1] - table[: m - level]) / (
            xs[level:] - xs[: m - level]
        )
    return float(table[0])


def estimate_derivative_sup(
    f: Callable[[float], float], lo: float, hi: float, order: int, n_windows: int = 8
) -> float:
    """Rough numerical estimate of sup |f^(order)| on [lo, hi].

    Samples order-th divided differences (times order!) on Chebyshev-spaced
    windows.  This is an estimate for exploratory use, not a certified
    bound; prefer an analytic sup when one is available.
    """
    if order < 1 or int(order) != order:
        raise ValueError("derivative order must be a positive integer")
    if not hi > lo:
        raise ValueError("empty estimation interval")
    fact = math.factorial(order)
    angles = np.cos(np.arange(order + 1) * math.pi / order)[::-1]
    best = 0.0
    widths = [hi - lo, 0.5 * (hi - lo)]
    for width in widths:
        if width <= 0.0:
            continue
        n_off = 1 if width == hi - lo else n_windows
        for k in range(n_off):
            start = lo + k * (hi - lo - width) / max(1, n_off - 1) if n_off > 1 else lo
            mid, half = start + 0.5 * width, 0.5 * width
            xs = mid + half * angles
            ys = np.array([f(v) for v in xs])
            best = max(best, abs(_divided_difference(xs, ys) * fact))
    return best
