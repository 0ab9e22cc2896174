"""Positive-invariance verification for convex sets under continuous dynamics.

The package decides whether a polyhedron, polytope, polyhedral cone,
ellipsoid, or quadratic (ice-cream) cone is positively invariant for a
linear system, and probes general nonlinear fields by boundary sampling and
trajectory falsification. The per-family deciders and the numerical
kernels are reached through their own modules (invarcheck.checkers,
invarcheck.numerics, invarcheck.tangent).
"""

from .checkers import (
    Certificate,
    Counterexample,
    Decision,
    Verdict,
    check,
)
from .dynamics import Trajectory, falsify, integrate
from .expressions import build_expression_system, parse_formula
from .sets import (
    BoundaryPoint,
    Ellipsoid,
    HPolyhedron,
    LorenzCone,
    Membership,
    VCone,
    VPolytope,
    active_constraints,
    membership,
    orthant_h,
    orthant_v,
    sample_boundary,
)
from .solvers import lp_feasible, qp_nearest
from .systems import DynamicalSystem, GeneralSystem, LinearSystem
from .tangent import TangentCone, tangent_cone_at

__version__ = "0.1.0"

__all__ = [
    "BoundaryPoint", "Certificate", "Counterexample", "Decision",
    "DynamicalSystem", "Ellipsoid", "GeneralSystem", "HPolyhedron",
    "LinearSystem", "LorenzCone", "Membership", "TangentCone", "Trajectory",
    "VCone", "VPolytope", "Verdict",
    "active_constraints", "build_expression_system", "check", "falsify",
    "integrate", "lp_feasible", "membership", "orthant_h", "orthant_v",
    "parse_formula", "qp_nearest", "sample_boundary", "tangent_cone_at",
]
