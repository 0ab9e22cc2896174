import invarcheck
import invarcheck.errors
import invarcheck.tangent


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
