"""Positive-invariance verification for convex sets under continuous dynamics.

The package decides whether a polyhedron, polytope, polyhedral cone,
ellipsoid, or quadratic (ice-cream) cone is positively invariant for a
linear system, and probes general nonlinear fields by boundary sampling and
trajectory falsification.
"""

from .checkers import (
    Certificate,
    Counterexample,
    Decision,
    Verdict,
    check,
    check_ellipsoid_linear,
    check_hpoly_linear,
    check_lorenz_linear,
    check_nonlinear_sampled,
    check_orthant_linear,
    check_vcone,
    check_vpolytope,
)
from .dynamics import Trajectory, falsify, integrate
from .expressions import build_expression_system, parse_formula
from .numerics import (
    EigenResult,
    minimize_scalar_convex,
    solve_linear,
    sym_eig,
)
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
from .tangent import (
    TangentCone,
    cone_contains,
    tangent_cone_at,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPoint", "Certificate", "Counterexample", "Decision",
    "DynamicalSystem", "EigenResult", "Ellipsoid", "GeneralSystem",
    "HPolyhedron", "LinearSystem", "LorenzCone", "Membership", "TangentCone",
    "Trajectory", "VCone", "VPolytope", "Verdict",
    "active_constraints", "build_expression_system", "check",
    "check_ellipsoid_linear", "check_hpoly_linear", "check_lorenz_linear",
    "check_nonlinear_sampled", "check_orthant_linear", "check_vcone",
    "check_vpolytope", "cone_contains", "falsify", "integrate",
    "lp_feasible", "membership", "minimize_scalar_convex", "orthant_h",
    "orthant_v", "parse_formula", "qp_nearest", "sample_boundary",
    "solve_linear", "sym_eig", "tangent_cone_at",
]
