#!/usr/bin/env python3

"""Measure nodewise quadrature errors for f = e^x on [0, 1] and compare them
with the computed truncation-error bounds, then report the fitted constant
of the asymptotic decay shape.  Demonstrates that the theory dominates the
observation until the measurement hits the float64 floor.

$ python3 scripts/quadrature_bound_demo.py
$ python3 scripts/quadrature_bound_demo.py --alpha 0.5 --n-max 16
"""

import argparse
import math
import sys

import numpy as np

from gegopt.polycore import BasisSpec
from gegopt.nodes import sgg_rule
from gegopt.intmat import first_order_matrix
from gegopt.bounds import (
    BoundInputs,
    first_order_error_bound,
    fit_shape_constant,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--alpha", type=float, default=0.0, help="family parameter")
    parser.add_argument("--n-min", type=int, default=4)
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args(argv)

    print(f"f = e^x on [0, 1], alpha = {args.alpha:g}, derivative sup A = e")
    print(f"{'n':>3} {'max error':>12} {'bound there':>12} {'error/bound':>12}")
    samples = []
    for n in range(args.n_min, args.n_max + 1):
        rule = sgg_rule(BasisSpec(alpha=args.alpha, length=1.0, degree=n))
        op = first_order_matrix(rule)
        errors = np.abs(op.matrix @ np.exp(rule.nodes) - (np.exp(rule.nodes) - 1.0))
        worst = int(np.argmax(errors))
        inputs = BoundInputs(
            spec=BasisSpec(alpha=args.alpha, length=1.0, degree=n), deriv_sup=math.e
        )
        bound = first_order_error_bound(inputs, x=float(rule.nodes[worst]))
        print(
            f"{n:>3} {errors[worst]:>12.3e} {bound:>12.3e} "
            f"{errors[worst] / bound:>12.3e}"
        )
        samples.append((n, float(rule.nodes[worst]), float(errors[worst])))

    constant = fit_shape_constant(samples, 1.0, args.alpha)
    print(f"\nfitted constant of the asymptotic decay shape: {constant:.6e}")
    print("(errors below ~1e-15 are float64 roundoff, not truncation)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
