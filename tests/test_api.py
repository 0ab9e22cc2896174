import invarcheck


def test_every_public_name_resolves_once():
    names = invarcheck.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(invarcheck, name) is not None, name


def test_removed_problem_objects_are_not_public():
    # the decomposition programs take plain arrays and return tuples
    for name in ("LPFeasibilityProblem", "QPProblem", "OptResult"):
        assert name not in invarcheck.__all__
        assert not hasattr(invarcheck, name)
