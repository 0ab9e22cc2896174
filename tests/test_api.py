import importlib

import invarcheck
import invarcheck.errors
import invarcheck.tangent

PUBLIC = [
    "BoundaryPoint", "Certificate", "Counterexample", "Decision",
    "DynamicalSystem", "Ellipsoid", "GeneralSystem", "HPolyhedron",
    "LinearSystem", "LorenzCone", "Membership", "TangentCone", "Trajectory",
    "VCone", "VPolytope", "Verdict",
    "active_constraints", "build_expression_system", "check", "falsify",
    "integrate", "lp_feasible", "membership", "orthant_h", "orthant_v",
    "parse_formula", "qp_nearest", "sample_boundary", "tangent_cone_at",
]
# names that left the top level and stay public in their own modules
MODULE_ONLY = {
    "numerics": ["sym_eig", "EigenResult", "minimize_scalar_convex", "solve_linear"],
    "tangent": ["cone_contains"],
    "checkers": ["check_ellipsoid_linear", "check_hpoly_linear", "check_lorenz_linear",
                 "check_nonlinear_sampled", "check_orthant_linear", "check_vcone",
                 "check_vpolytope"],
}


def test_every_public_name_resolves_once():
    names = invarcheck.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(invarcheck, name) is not None, name


def test_removed_problem_objects_are_not_public():
    # the decomposition programs take plain arrays and return tuples, and
    # tangent_cone_at is the one tangent-cone constructor
    for name in ("LPFeasibilityProblem", "QPProblem", "OptResult", "tangent_h",
                 "tangent_polytope", "tangent_vcone", "tangent_quadratic"):
        assert name not in invarcheck.__all__
        assert not hasattr(invarcheck, name)
        assert not hasattr(invarcheck.tangent, name)
    for name in ("IndexOutOfRange", "ApexPoint"):
        assert not hasattr(invarcheck.errors, name)


def test_public_list_is_pinned():
    assert invarcheck.__all__ == PUBLIC


def test_dropped_names_resolve_in_their_own_modules():
    for module, names in MODULE_ONLY.items():
        mod = importlib.import_module(f"invarcheck.{module}")
        for name in names:
            assert name not in invarcheck.__all__ and not hasattr(invarcheck, name), name
            assert getattr(mod, name) is not None, (module, name)
