"""Spectral optimal control of the 1-D diffusion equation.

The toolkit discretizes the controlled diffusion equation on Gauss node
sets of a shifted Gegenbauer family, replaces differentiation by stable
numerical integration operators, and solves the resulting
equality-constrained quadratic program.  See the individual modules:

- polycore:   the polynomial family and its leading coefficients
- nodes:      Gauss rules, Christoffel numbers, barycentric weights
- interp:     barycentric interpolation in one and two dimensions
- intmat:     running-integral operators of arbitrary order
- transcribe: the diffusion control problem as a QP
- qpsolve:    the matrix-free solver of the condensed saddle system
- bounds:     a-priori error bounds and decay shapes
- cli:        the experiment runner (`gegopt` console script)
"""

__version__ = "0.1.0"

from .polycore import BasisSpec
from .nodes import QuadratureRule, sgg_rule
from .transcribe import DiffusionOcp, DiscreteQp, GridIndexMap, Transcription, build
from .qpsolve import QpSolution, solve

__all__ = [
    "__version__",
    "BasisSpec",
    "QuadratureRule",
    "sgg_rule",
    "DiffusionOcp",
    "DiscreteQp",
    "GridIndexMap",
    "Transcription",
    "build",
    "QpSolution",
    "solve",
]
