import math
import re

import numpy as np
import pytest

from invarcheck import checkers, solvers
from invarcheck.checkers import (
    Decision,
    check,
    check_ellipsoid_linear,
    check_hpoly_linear,
    check_lorenz_linear,
    check_nonlinear_sampled,
    check_orthant_linear,
    check_vcone,
    check_vpolytope,
)
from invarcheck.dynamics import falsify, integrate
from invarcheck.errors import EmptySet, InputError, NoConvergence, NumericalFailure
from invarcheck.numerics import pow2_exponent
from invarcheck.sets import (
    Ellipsoid,
    HPolyhedron,
    LorenzCone,
    Membership,
    VCone,
    VPolytope,
    membership,
    orthant_h,
    orthant_v,
    sample_boundary,
)
from invarcheck.systems import GeneralSystem, LinearSystem

from oracles import (bisection_min, golden_section_min, inequality_lp_with_equalities,
                     metzler_violation, power_iteration_gen_eig_max)

UNIT_BOX = HPolyhedron(
    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
    [1.0, 1.0, 0.0, 0.0],
)
TRIANGLE = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
ICE3 = LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 0.0, 1.0])


def test_box_contraction_invariant():
    v = check_hpoly_linear(UNIT_BOX, -np.eye(2))
    assert v.decision is Decision.INVARIANT
    facets = {f["index"]: f for f in v.certificate.data["facets"]}
    # on the facet x1 = 1 the outward flux -x1 peaks at -1; the facets
    # through the origin peak at exactly 0
    assert facets[0]["optimum"] == pytest.approx(-1.0, abs=1e-9)
    assert facets[2]["optimum"] == pytest.approx(0.0, abs=1e-9)
    assert max(f["optimum"] for f in facets.values()) <= 1e-8


def test_box_expansion_not_invariant():
    v = check_hpoly_linear(UNIT_BOX, np.eye(2))
    assert v.decision is Decision.NOT_INVARIANT
    assert v.counterexample.violation == pytest.approx(1.0, abs=1e-9)
    assert v.counterexample.point[0] == pytest.approx(1.0, abs=1e-9)
    assert v.notes["facet"] == 0


def test_facet_check_stops_at_first_violating_facet(monkeypatch):
    # every facet of the box [-1, 1]^2 is violated under x' = x; the first
    # one refutes and no later facet LP is solved
    import invarcheck.checkers as checkers

    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0] * 4)
    calls = []
    facet_lp = checkers._facet_lp

    def counted(g, h):
        solve = facet_lp(g, h)

        def facet(i, c):
            calls.append(i)
            return solve(i, c)

        return facet

    monkeypatch.setattr(checkers, "_facet_lp", counted)
    v = check_hpoly_linear(box, np.eye(2))
    assert v.decision is Decision.NOT_INVARIANT
    assert v.notes == {"facet": 0}
    assert calls == [0]


def test_unbounded_facet_outside_default_box_refuted():
    # x1 <= 2e6 under x1' = x2: the flux x2 is unbounded on the facet, which
    # lies far from the origin (beyond |x_i| <= 1e6)
    v = check_hpoly_linear(HPolyhedron([[1.0, 0.0]], [2e6]), [[0.0, 1.0], [0.0, 0.0]])
    assert v.decision is Decision.NOT_INVARIANT
    assert v.notes["facet"] == 0
    assert v.counterexample.point[0] == pytest.approx(2e6)
    assert v.counterexample.violation > 0.0
    assert v.counterexample.violation == pytest.approx(v.counterexample.point[1])


def test_unattained_parallel_facet_not_sampled():
    # x1 <= 1.0005 beside x1 <= 1 is never attained; its facet-anchor LP
    # ends phase one 5e-4 short, which must not pass as rounding
    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]],
                      [1.0, 1.0, 1.0, 1.0, 1.0005])
    for bp in sample_boundary(box, 60, 0):
        assert membership(box, bp.point) is not Membership.OUTSIDE
    assert falsify(box, LinearSystem(-np.eye(2)), 40, horizon=1.0, step=1e-2, seed=0) is None
    sampled = check_nonlinear_sampled(box, GeneralSystem(lambda t, x: -x), 0.0, 60, 0)
    assert sampled.decision is Decision.UNKNOWN


def _assert_facet_witness(s, a, v):
    """The refutation's point lies on its facet and in the set, its flux is
    positive and is the reported violation, and a trajectory from it exits
    within time 1."""
    assert v.decision is Decision.NOT_INVARIANT
    i = v.notes["facet"]
    x = v.counterexample.point
    scale = 1.0 + np.abs(s.b) + np.abs(s.G) @ np.abs(x)
    assert abs(s.G[i] @ x - s.b[i]) <= 1e-9 * scale[i]
    assert np.all(s.G @ x - s.b <= 1e-9 * scale)
    flux = float(s.G[i] @ (a @ x))
    assert flux > 0.0
    assert v.counterexample.violation == pytest.approx(flux, rel=1e-12)
    hit = falsify(s, LinearSystem(a), 4, horizon=1.0, step=1e-3, seed=23, extra_starts=[x])
    assert hit is not None and hit[1] <= 1.0


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def test_unbounded_facets_refute_with_on_facet_witness():
    rng = np.random.default_rng(211)
    shear = np.array([[0.0, 1.0], [0.0, 0.0]])
    cases = [
        # the orthant as a plain halfspace form under a non-Metzler field
        (HPolyhedron(-np.eye(2), np.zeros(2)), np.array([[-1.0, -2.0], [0.0, -3.0]])),
        (HPolyhedron(-np.eye(3), np.zeros(3)),
         np.array([[-1.0, 0.5, 0.0], [0.0, -1.0, 0.0], [0.0, -0.1, 2.0]])),
        # x1 <= 1 under the shear x1' = x2
        (HPolyhedron([[1.0, 0.0]], [1.0]), shear),
        # the far facet 1e-7 x1 <= 1, the line x1 = 1e7, under the same shear
        (HPolyhedron([[1e-7, 0.0]], [1.0]), shear),
        # the wedge 0 <= x2 <= x1 under a rotation, which turns it outward
        (HPolyhedron([[0.0, -1.0], [-1.0, 1.0]], [0.0, 0.0]), _rotation(np.pi / 2)),
        # the wedge 0 <= x2 <= 3 x1 under the shear x1' = -x2
        (HPolyhedron([[0.0, -1.0], [-3.0, 1.0]], [0.0, 0.0]), -shear),
    ]
    for _ in range(8):
        # a half-plane g'x <= b under the shear along its boundary line,
        # both rotated by a random angle
        r = _rotation(rng.uniform(0.0, 2.0 * np.pi))
        g = r @ np.array([1.0, 0.0])
        cases.append((HPolyhedron([g], [rng.uniform(-5.0, 5.0)]),
                      rng.uniform(0.1, 3.0) * r @ shear @ r.T))
    for s, a in cases:
        v = check_hpoly_linear(s, a)
        _assert_facet_witness(s, a, v)
        assert check(s, LinearSystem(a)).counterexample.violation == v.counterexample.violation


def test_unbounded_facet_without_witness_is_numerical_failure(monkeypatch):
    # an unbounded facet LP whose witness LP then finds no point of flux 1
    # is a numerical failure, never a verdict: the set's one-row form replies
    # unbounded, the witness form with the flux row added infeasible
    def facet_lp(g, h):
        reply = ("unbounded", None, np.inf) if g.shape[0] == 1 else ("infeasible", None, 1.0)
        return lambda i, c: reply

    monkeypatch.setattr(checkers, "_facet_lp", facet_lp)
    with pytest.raises(NumericalFailure, match="no point of flux 1"):
        check_hpoly_linear(HPolyhedron([[1.0, 0.0]], [1.0]), [[0.0, 1.0], [0.0, 0.0]])


def _unbounded_facet_cones(rng, count=60):
    """Seeded cones G(x - shift) <= 0 in R^2..R^8, with n to n + 2 rows, each
    with an A under which some facet LP is unbounded: (set, A) pairs."""
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 9))
        g = rng.normal(size=(n + int(rng.integers(0, 3)), n))
        s, a = HPolyhedron(g, g @ (3.0 * rng.normal(size=n))), rng.normal(size=(n, n))
        facet_lp = solvers._facet_lp(s.G, s.b)
        if any(facet_lp(i, a.T @ s.G[i])[0] == "unbounded" for i in range(s.G.shape[0])):
            out.append((s, a))
    return out


def _copied_row_forms(m):
    """checkers._facet_lp for a set of m rows, with the witness form (m + 1
    rows) solved with a copy of row i as an equality row: the reference."""
    def forms(g, h):
        if g.shape[0] == m:
            return solvers._facet_lp(g, h)
        return lambda i, c: inequality_lp_with_equalities(c, g, h, g[i:i + 1], h[i:i + 1])

    return forms


def test_unbounded_facet_witness_holds_its_row_in_place(monkeypatch):
    # the witness LP is the facet LP's form with the row -c'x <= -1 added and
    # row i held in place: m + 1 rows, with no copy of row i. It refutes at the
    # facet the copied-row LP refutes at, with a point in the set, on facet
    # i, of scaled flux at least 1
    simplex, rows = solvers.simplex_standard, []

    def spied(c, a_eq, b_eq, slacks=()):
        rows.append(len(b_eq))
        return simplex(c, a_eq, b_eq, slacks=slacks)

    refuted = 0
    for s, a in _unbounded_facet_cones(np.random.default_rng(223)):
        m = s.G.shape[0]
        with monkeypatch.context() as mp:
            mp.setattr(checkers, "_facet_lp", _copied_row_forms(m))
            want = check_hpoly_linear(s, a)
        with monkeypatch.context() as mp:
            rows.clear()
            mp.setattr(solvers, "simplex_standard", spied)
            v = check_hpoly_linear(s, a)
        assert (v.decision, v.notes) == (want.decision, want.notes)
        if v.decision is not Decision.NOT_INVARIANT:
            continue
        i, x = v.notes["facet"], v.counterexample.point
        a_s, e = checkers._matrix(s, a)
        c = a_s.T @ s.G[i]
        if not np.isinf(solvers._facet_lp(s.G, s.b)(i, c)[2]):
            continue  # refuted at a bounded facet: no witness LP
        refuted += 1
        assert rows == [m] * (len(rows) - 1) + [m + 1]
        scale = 1.0 + np.abs(s.b) + np.abs(s.G) @ np.abs(x)
        assert np.all(s.G @ x - s.b <= 1e-12 * scale)
        assert abs(s.G[i] @ x - s.b[i]) <= 1e-12 * scale[i]
        assert c @ x >= 1.0 - 1e-12 * (1.0 + np.abs(c) @ np.abs(x))
        assert v.counterexample.violation == math.ldexp(float(c @ x), e)
    assert refuted >= 40


def test_orthant_h_equals_metzler_test():
    # check(orthant_h(n), A) runs the sign test and check(HPolyhedron(-I, 0),
    # A) the facet LPs, with unbounded facets wherever A is not Metzler; the
    # two must decide alike
    rng = np.random.default_rng(307)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(1, 6))
        a = rng.uniform(-1.0, 1.0, size=(n, n))
        if rng.random() < 0.5:
            a = np.where(np.eye(n, dtype=bool), a, np.abs(a))
        via_tag = check(orthant_h(n), LinearSystem(a))
        via_rows = check(HPolyhedron(-np.eye(n), np.zeros(n)), LinearSystem(a))
        assert via_tag.decision is via_rows.decision, a
        if via_tag.decision is Decision.INVARIANT:
            assert via_tag.certificate.kind == "metzler"
            assert via_rows.certificate.kind == "facet-lp"
        else:
            assert via_tag.notes.keys() == {"entry"}
            _assert_facet_witness(HPolyhedron(-np.eye(n), np.zeros(n)), a, via_rows)
        seen.add(via_tag.decision)
    assert seen == {Decision.INVARIANT, Decision.NOT_INVARIANT}


def test_empty_polyhedron_raises():
    empty = HPolyhedron([[1.0], [-1.0]], [-1.0, -2.0])
    with pytest.raises(EmptySet):
        check_hpoly_linear(empty, np.eye(1))


def test_emptiness_lp_runs_only_when_no_facet_lp_is_feasible(monkeypatch):
    # a feasible facet LP holds a point of the polyhedron, so the vacuous row
    # 0'x <= 1 before the refuting facet x1 <= 1 asks for no emptiness LP
    solve, facet_lp, asked = checkers.solve_inequality_lp, checkers._facet_lp, []

    def spied(c, g_ub, h_ub):
        asked.append("emptiness")
        return solve(c, g_ub, h_ub)

    def facet_spied(g, h):
        facet = facet_lp(g, h)
        return lambda i, c: asked.append("facet") or facet(i, c)

    monkeypatch.setattr(checkers, "solve_inequality_lp", spied)
    monkeypatch.setattr(checkers, "_facet_lp", facet_spied)
    v = check_hpoly_linear(HPolyhedron([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0]), np.eye(2))
    assert (v.decision, v.notes, asked) == (Decision.NOT_INVARIANT, {"facet": 1},
                                            ["facet", "facet"])
    # nor when that facet holds: the set is certified with no emptiness LP
    asked.clear()
    v = check_hpoly_linear(HPolyhedron([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0]), -np.eye(2))
    assert v.decision is Decision.INVARIANT and asked == ["facet", "facet"]
    # with every facet LP infeasible, one emptiness LP tells a whole space
    # from an empty set
    asked.clear()
    v = check_hpoly_linear(HPolyhedron([[0.0, 0.0]], [1.0]), np.eye(2))
    assert v.decision is Decision.INVARIANT and asked == ["facet", "emptiness"]
    asked.clear()
    with pytest.raises(EmptySet):
        check_hpoly_linear(HPolyhedron([[1.0], [-1.0]], [-1.0, -2.0]), np.eye(1))
    assert asked == ["facet", "facet", "emptiness"]


def test_redundant_row_is_a_vacuous_facet():
    # x1 <= 2 never binds on the box [-1, 1]^2: its facet LP is infeasible
    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]],
                      [1.0, 1.0, 1.0, 1.0, 2.0])
    v = check(box, LinearSystem(-np.eye(2)))
    assert v.decision is Decision.INVARIANT
    assert v.certificate.data["facets"][-1] == {"index": 4, "vacuous": True}


def test_vertex_refutes_a_general_field_before_sampling(monkeypatch):
    # at vertex 0 = (0, 0) the field (-0.3, -0.3) points away from both edges;
    # phase one's infeasibility is 0.6, the L1 size of the field, since no
    # nonnegative combination of the edges (1, 0) and (0, 1) reduces it
    def no_sampling(*args, **kwargs):
        raise AssertionError("the vertex refutation must not sample the boundary")

    monkeypatch.setattr(checkers, "sample_boundary", no_sampling)
    v = check(VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
              GeneralSystem(lambda t, x: x - 0.3))
    assert v.decision is Decision.NOT_INVARIANT
    assert v.notes == {"vertex": 0}
    assert np.array_equal(v.counterexample.point, [0.0, 0.0])
    assert v.counterexample.violation == pytest.approx(0.6, rel=1e-12)


@pytest.mark.parametrize("s", [
    VPolytope([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)]),
    orthant_v(3),
], ids=["vpolytope", "vcone"])
def test_the_generators_take_one_field_call(s):
    # the field is evaluated at every generator in one call, for a linear
    # and a vectorised general field; a general field that passes there is
    # evaluated once more, on the boundary samples
    gens = getattr(s, s.GENERATORS)
    for sys, decision, calls in [
        (LinearSystem(-np.eye(s.dim)), Decision.INVARIANT, 1),
        (GeneralSystem(lambda t, x: x - 1.0, vectorized=True), Decision.NOT_INVARIANT, 1),
        (GeneralSystem(lambda t, x: -x, vectorized=True), Decision.UNKNOWN, 2),
    ]:
        shapes, field = [], sys.field

        def spy(t, x, shapes=shapes, field=field):
            shapes.append(np.shape(x))
            return field(t, x)

        sys.field = spy
        assert check(s, sys, n_samples=50).decision is decision
        assert len(shapes) == calls and shapes[0] == gens.T.shape


def _dominant(rng, n, axis, invariant):
    """A0 with a negative diagonal that outweighs its row (axis=1) or column
    (axis=0) off-diagonal sums, except in one when not invariant: the
    infinity-norm (rows) or 1-norm (columns) ball is then invariant, or not."""
    a0 = rng.normal(size=(n, n)) / np.sqrt(n)
    np.fill_diagonal(a0, 0.0)
    margin = rng.uniform(0.1, 1.0, n)
    if not invariant:
        margin[rng.integers(n)] *= -1.0
    np.fill_diagonal(a0, -(np.sum(np.abs(a0), axis=axis) + margin))
    return a0


def _symmetric_hforms(rng):
    """Seeded centrally symmetric H-forms in R^2..R^8, each with an
    invariant and a refuting A: boxes, {|T^-1 x|_inf <= 1} and
    {|Gx|_inf <= 1} with its rows shuffled, so that mates sit anywhere."""
    out = []
    for n in range(2, 9):
        w = rng.uniform(0.5, 2.0, n)
        t = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        ti = np.linalg.inv(t)
        g = rng.normal(size=(n + int(rng.integers(1, 4)), n))
        for s, conj in [
            (HPolyhedron(np.vstack([np.eye(n), -np.eye(n)]), np.append(w, w)), np.diag(w)),
            (HPolyhedron(np.vstack([ti, -ti]), np.ones(2 * n)), t),
        ]:
            for invariant in (True, False):
                a0 = _dominant(rng, n, 1, invariant)
                out.append((s, conj @ np.linalg.solve(conj.T, a0.T).T))
        rows = np.vstack([g, -g])[rng.permutation(2 * g.shape[0])]
        s = HPolyhedron(rows, np.ones(rows.shape[0]))
        out += [(s, -rng.uniform(0.5, 2.0) * np.eye(n) + 0.01 * rng.normal(size=(n, n))),
                (s, rng.normal(size=(n, n)))]
    return out


def _every_facet(s, a):
    """check_hpoly_linear's decision, refuting facet and per-facet replies,
    from solvers._facet_lp on every facet in order: the reference."""
    a_s, e = checkers._matrix(s, a)
    facet_lp, replies = solvers._facet_lp(s.G, s.b), []
    for i in range(s.G.shape[0]):
        status, x, val = facet_lp(i, a_s.T @ s.G[i])
        if status == "unbounded" or (status == "optimal" and val > checkers._FACET_OPTIMUM_TOL):
            return Decision.NOT_INVARIANT, i, replies
        replies.append((status, math.ldexp(val, e) if status == "optimal" else None))
    return Decision.INVARIANT, None, replies


def test_symmetric_hform_mirrors_agree_with_every_facet_solved():
    # the lower facet of each antipodal pair is solved, and the other reads
    # its status and optimum off it, with the argmax negated
    decisions = set()
    for s, a in _symmetric_hforms(np.random.default_rng(401)):
        v = check_hpoly_linear(s, a)
        decision, refuting, replies = _every_facet(s, a)
        decisions.add(decision)
        assert v.decision is decision
        if decision is Decision.NOT_INVARIANT:
            assert v.notes == {"facet": refuting}
            continue
        facets = v.certificate.data["facets"]
        assert [f["index"] for f in facets] == list(range(s.G.shape[0]))
        for f, (status, optimum) in zip(facets, replies):
            assert ("vacuous" in f) == (status == "infeasible")
            if "vacuous" in f:
                continue
            assert abs(f["optimum"] - optimum) <= 1e-12 * abs(optimum)
            x = np.array(f["argmax"])
            scale = 1.0 + np.abs(s.b) + np.abs(s.G) @ np.abs(x)
            assert abs(s.G[f["index"]] @ x - s.b[f["index"]]) <= 1e-12 * scale[f["index"]]
            assert np.all(s.G @ x - s.b <= 1e-12 * scale)
            assert not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in f["argmax"])
    assert decisions == {Decision.INVARIANT, Decision.NOT_INVARIANT}


def _facet_lp_count(monkeypatch, s, a):
    """The decision of check_hpoly_linear and the facet LPs it solved."""
    calls, facet_lp = [], checkers._facet_lp

    def counted(g, h):
        solve = facet_lp(g, h)
        return lambda i, c: calls.append(i) or solve(i, c)

    with monkeypatch.context() as mp:
        mp.setattr(checkers, "_facet_lp", counted)
        return check_hpoly_linear(s, a).decision, len(calls)


def test_only_complete_exact_pairings_halve_the_facet_lps(monkeypatch):
    # m/2 LPs on the box [-1, 1]^3 under a contraction; a row without an
    # antipode, or one pair with unequal b, leaves every facet to its own LP
    g, a = np.vstack([np.eye(3), -np.eye(3)]), -np.eye(3) + 0.1 * np.ones((3, 3))
    for s, lps in [
        (HPolyhedron(g, np.ones(6)), 3),
        (HPolyhedron(np.vstack([g, [1.0, 1.0, 1.0]]), np.ones(7)), 7),
        (HPolyhedron(g, [1.0, 1.0, 1.0, 2.0, 1.0, 1.0]), 6),
        # -0.0 is 0.0: the rows (0, 1) and (-0, -1) are antipodes
        (HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, -0.0], [0.0, -1.0]], np.ones(4)), 2),
    ]:
        assert _facet_lp_count(monkeypatch, s, a[:s.dim, :s.dim]) == (Decision.INVARIANT, lps)


def _symmetric_vforms(rng):
    """Cross-polytopes {|T^-1 x|_1 <= 1} in R^2..R^8 with shuffled vertices,
    and the cone over +-e1, +-e2 in R^3 (the plane x3 = 0), each with an
    invariant and a refuting A."""
    out = []
    for n in range(2, 9):
        t = rng.normal(size=(n, n)) + 2.0 * np.eye(n)
        s = VPolytope(np.vstack([t.T, -t.T])[rng.permutation(2 * n)])
        for invariant in (True, False):
            a0 = _dominant(rng, n, 0, invariant)
            out.append((s, t @ np.linalg.solve(t.T, a0.T).T))
    plane = VCone(np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    a = rng.normal(size=(3, 3))
    keep = a.copy()
    keep[2, :2] = 0.0  # x3' = a33 x3 keeps the plane
    return out + [(plane, keep), (plane, a)]


def _every_generator(s, a):
    """The first generator whose decomposition LP is infeasible, each LP
    solved on its own, or None: the reference."""
    f = np.ldexp(a @ s.columns[:s.dim], -pow2_exponent(a))
    for i in range(s.columns.shape[1]):
        rhs = np.zeros(s.columns.shape[0])
        rhs[:s.dim] = f[:, i]
        if solvers.lp_feasible(s.columns, rhs, i)[1] is None:
            return i
    return None


def _lp_feasible_columns(monkeypatch, s, sys):
    """The verdict of check on s under sys and the rhs columns given to
    lp_feasible."""
    columns, lp_feasible = [], checkers.lp_feasible

    def spied(cols, rhs, free):
        columns.append(rhs.shape[1])
        return lp_feasible(cols, rhs, free)

    with monkeypatch.context() as mp:
        mp.setattr(checkers, "lp_feasible", spied)
        return check(s, sys, n_samples=20), sum(columns)


def test_symmetric_vform_mirrors_decompose_the_field(monkeypatch):
    # under a linear field generator i with mate[i] < i takes its partner's
    # coefficients, permuted by the pairing: they still decompose A v_i
    decisions = set()
    for s, a in _symmetric_vforms(np.random.default_rng(409)):
        gens = getattr(s, s.GENERATORS)
        v, columns = _lp_feasible_columns(monkeypatch, s, LinearSystem(a))
        decisions.add(v.decision)
        refuting = _every_generator(s, a)
        if refuting is not None:
            assert v.decision is Decision.NOT_INVARIANT
            assert v.notes == {s.GENERATOR: refuting}
            continue
        assert v.decision is Decision.INVARIANT and columns == gens.shape[0] // 2
        records = v.certificate.data[s.GENERATORS]
        assert [r["index"] for r in records] == list(range(gens.shape[0]))
        for r in records:
            i, alpha = r["index"], np.array(r["alpha"])
            f = a @ gens[i]
            scale = 1.0 + np.abs(gens.T) @ np.abs(alpha) + np.abs(f)
            assert np.all(np.abs(gens.T @ alpha - f) <= 1e-12 * scale)
            assert np.all(np.delete(alpha, i) >= 0.0)
            if isinstance(s, VPolytope):
                assert abs(alpha.sum()) <= 1e-12 * (1.0 + np.abs(alpha).sum())
    assert decisions == {Decision.INVARIANT, Decision.NOT_INVARIANT}


def test_a_general_field_is_never_mirrored(monkeypatch):
    # an expression field need not be odd: every vertex of the cross-polytope
    # has its own LP, where x' = -x as a linear system solves half of them
    from invarcheck.expressions import build_expression_system

    n = 4
    s = VPolytope(np.vstack([np.eye(n), -np.eye(n)]))
    v, columns = _lp_feasible_columns(monkeypatch, s, LinearSystem(-np.eye(n)))
    assert v.decision is Decision.INVARIANT and columns == n
    sys = build_expression_system([f"-x{k + 1}" for k in range(n)])
    v, columns = _lp_feasible_columns(monkeypatch, s, sys)
    assert v.decision is Decision.UNKNOWN and columns == 2 * n


def test_orthant_metzler_example():
    v = check_orthant_linear([[-1.0, 2.0], [0.0, -3.0]])
    assert v.decision is Decision.INVARIANT
    assert v.certificate.data["min_offdiagonal"] == pytest.approx(0.0)


def test_orthant_counterexample_second_ray():
    v = check_orthant_linear([[-1.0, -0.5], [1.0, -1.0]])
    assert v.decision is Decision.NOT_INVARIANT
    assert np.allclose(v.counterexample.point, [0.0, 1.0])
    assert v.counterexample.violation == pytest.approx(-0.5)


def test_orthant_reports_lowest_ray_then_row():
    # violations at (2,0), (1,0) and (0,1)
    v = check_orthant_linear([[-1.0, -0.5, 0.0], [-2.0, -1.0, 1.0], [-3.0, 0.0, -1.0]])
    assert v.notes["entry"] == [1, 0]
    assert np.array_equal(v.counterexample.point, [1.0, 0.0, 0.0])
    assert v.counterexample.violation == -2.0
    # reference: scan rays (columns) in order, rows in order within a ray
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = rng.integers(-1, 3, size=(4, 4)).astype(float)
        off = [(j, i) for i in range(4) for j in range(4) if j != i]
        first = next(([j, i] for j, i in off if a[j, i] < 0), None)
        v = check_orthant_linear(a)
        if first is None:
            assert v.certificate.data["min_offdiagonal"] == min(a[j, i] for j, i in off)
        else:
            assert v.notes["entry"] == first


def test_orthant_diagonal_always_invariant():
    assert check_orthant_linear(np.diag([5.0, -7.0, 0.0])).decision is Decision.INVARIANT


def test_metzler_equivalence_scan():
    rng = np.random.default_rng(211)
    for _ in range(100):
        a = rng.uniform(-1.0, 1.0, size=(5, 5))
        verdict = check_orthant_linear(a).decision
        expect = (Decision.INVARIANT if metzler_violation(a, tol=0.0) is None
                  else Decision.NOT_INVARIANT)
        assert verdict is expect


@pytest.mark.parametrize("a", [[[0.0, -1e-11], [0.0, 0.0]], [[-1.0, -1e-11], [0.0, -1.0]]],
                         ids=["zero-diagonal", "stable-diagonal"])
def test_orthant_sign_test_is_exact(a):
    # neither A is Metzler: the ray e_2 leaves the orthant through x1 = 0
    # at rate -1e-11, however small
    v = check_orthant_linear(a)
    assert v.decision is Decision.NOT_INVARIANT
    assert v.notes["entry"] == [0, 1]
    assert np.array_equal(v.counterexample.point, [0.0, 1.0])
    assert v.counterexample.violation == -1e-11
    assert check(orthant_h(2), LinearSystem(a)).decision is Decision.NOT_INVARIANT


def test_orthant_negative_zero_is_metzler():
    v = check_orthant_linear([[0.0, -0.0], [-0.0, 0.0]])
    assert v.decision is Decision.INVARIANT
    assert v.certificate.data["min_offdiagonal"] == 0.0


def test_triangle_contraction_invariant():
    v = check_vpolytope(TRIANGLE, LinearSystem(-np.eye(2)))
    assert v.decision is Decision.INVARIANT
    assert len(v.certificate.data["vertices"]) == 3


def test_triangle_constant_field_not_invariant():
    sys = GeneralSystem(lambda t, x: np.array([-1.0, 0.0]))
    v = check_vpolytope(TRIANGLE, sys)
    assert v.decision is Decision.NOT_INVARIANT
    assert np.allclose(v.counterexample.point, [0.0, 0.0])
    assert v.counterexample.violation > 1e-9


def test_single_point_equilibrium_invariant():
    point = VPolytope([[0.0, 0.0]])
    v = check_vpolytope(point, LinearSystem(np.zeros((2, 2))))
    assert v.decision is Decision.INVARIANT


def test_vcone_swap_field_invariant():
    v = check_vcone(orthant_v(2), LinearSystem([[0.0, 1.0], [1.0, 0.0]]))
    assert v.decision is Decision.INVARIANT


def test_vcone_negative_swap_not_invariant():
    v = check_vcone(orthant_v(2), LinearSystem([[0.0, -1.0], [-1.0, 0.0]]))
    assert v.decision is Decision.NOT_INVARIANT
    assert np.allclose(v.counterexample.point, [1.0, 0.0])


def test_vcone_scaling_field_invariant():
    rays = VCone([[1.0, 2.0], [2.0, 1.0]])
    v = check_vcone(rays, LinearSystem(-3.0 * np.eye(2)))
    assert v.decision is Decision.INVARIANT


def test_ellipsoid_rotation_invariant():
    v = check_ellipsoid_linear(Ellipsoid(np.eye(2)), [[0.0, 1.0], [-1.0, 0.0]])
    assert v.decision is Decision.INVARIANT
    assert v.certificate.data["eta"] == pytest.approx(0.0, abs=1e-9)


def test_ellipsoid_contraction_eta():
    v = check_ellipsoid_linear(Ellipsoid(np.diag([1.0, 4.0])), -np.eye(2))
    assert v.decision is Decision.INVARIANT
    assert v.certificate.data["eta"] == pytest.approx(-2.0, abs=1e-9)


def test_ellipsoid_saddle_not_invariant():
    v = check_ellipsoid_linear(Ellipsoid(np.eye(2)), np.diag([1.0, -1.0]))
    assert v.decision is Decision.NOT_INVARIANT
    assert abs(v.counterexample.point[0]) == pytest.approx(1.0, abs=1e-8)
    assert v.counterexample.violation == pytest.approx(1.0, abs=1e-8)


def test_ellipsoid_scale_invariance():
    a = np.array([[0.3, 1.2], [-0.7, -0.9]])
    base = check_ellipsoid_linear(Ellipsoid(np.diag([1.0, 2.0])), a).decision
    for c in (0.1, 10.0):
        scaled = check_ellipsoid_linear(Ellipsoid(c * np.diag([1.0, 2.0])), a).decision
        assert scaled is base


def test_lorenz_identity_field_invariant():
    v = check_lorenz_linear(ICE3, np.eye(3))
    assert v.decision is Decision.INVARIANT
    assert v.certificate.data["eta"] == pytest.approx(2.0, abs=1e-6)
    assert v.certificate.data["witness_max_eig"] <= 1e-9


def test_lorenz_axis_weighted_invariant():
    v = check_lorenz_linear(ICE3, np.diag([1.0, 1.0, 3.0]))
    assert v.decision is Decision.INVARIANT
    assert v.certificate.data["witness_max_eig"] <= 1e-9


def test_lorenz_flank_weighted_not_invariant():
    v = check_lorenz_linear(ICE3, np.diag([3.0, 3.0, 1.0]))
    assert v.decision is Decision.NOT_INVARIANT
    x = v.counterexample.point
    assert v.counterexample.violation > 0.0
    assert x @ np.diag([1.0, 1.0, -1.0]) @ np.diag([3.0, 3.0, 1.0]) @ x > 0.0


def test_lorenz_large_field_terminates():
    # eta* = 2e6: the eta-search tolerance lies below the float spacing there
    v = check(LorenzCone(np.diag([1.0, 1.0, -1.0])), LinearSystem(1e6 * np.eye(3)))
    assert v.decision is Decision.INVARIANT
    assert v.certificate.data["eta"] == pytest.approx(2e6, rel=1e-12)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _narrow_cap(rng, n, eps):
    """A random cone x'Qx <= 0 whose boundary flux is positive only near the
    unit boundary ray d, where it peaks at eps: A = Q^-1 (S - I + (1+eps)dd')
    + cI gives x'QAx = (1+eps)(d'x)^2 - |x|^2 on the surface."""
    u = _orthogonal(rng, n)
    w = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [-rng.uniform(0.5, 2.0)]])
    q = u @ np.diag(w) @ u.T
    y = rng.normal(size=n - 1)
    y *= np.sqrt(-w[-1] / np.sum(w[:-1] * y * y))
    d = u @ np.append(y, 1.0)
    d /= np.linalg.norm(d)
    skew = rng.normal(size=(n, n))
    a = (np.linalg.solve(q, skew - skew.T - np.eye(n) + (1.0 + eps) * np.outer(d, d))
         + rng.uniform(-1.0, 1.0) * np.eye(n))
    return LorenzCone(q), a


def _assert_boundary_counterexample(cone, a, v):
    x = v.counterexample.point
    assert membership(cone, x) is Membership.BOUNDARY
    assert cone.u_n @ x >= 0.0
    assert x @ cone.Q @ a @ x > 0.0
    assert v.counterexample.violation == pytest.approx(x @ cone.Q @ a @ x, rel=1e-9)


def test_lorenz_narrow_cap_always_decided():
    # the flux is positive only in a cap around one boundary ray
    rng = np.random.default_rng(601)
    for trial in range(150):
        eps = 10.0 ** rng.uniform(-6.0, 0.0)
        cone, a = _narrow_cap(rng, int(rng.integers(3, 15)), eps)
        v = check_lorenz_linear(cone, a)
        assert v.decision is Decision.NOT_INVARIANT, (trial, eps)
        _assert_boundary_counterexample(cone, a, v)
        assert v.counterexample.violation >= 0.25 * v.notes["certificate_gap"]


def test_lorenz_wedges_match_two_ray_closed_form():
    # a 2-D cone is the wedge between two boundary rays; it is invariant
    # exactly when the flux at both rays is nonpositive
    rng = np.random.default_rng(602)
    for trial in range(300):
        u = _orthogonal(rng, 2)
        w = np.array([rng.uniform(0.5, 2.0), -rng.uniform(0.5, 2.0)])
        cone = LorenzCone(u @ np.diag(w) @ u.T)
        a = rng.normal(size=(2, 2))
        rays = [u @ [s * np.sqrt(-w[1] / w[0]), 1.0] for s in (1.0, -1.0)]
        top = max(r @ cone.Q @ a @ r / (r @ r) for r in rays)
        v = check_lorenz_linear(cone, a)
        if top <= 0.0:
            assert v.decision is Decision.INVARIANT, (trial, top)
        else:
            assert v.decision is Decision.NOT_INVARIANT, (trial, top)
            _assert_boundary_counterexample(cone, a, v)


def _search(cone, a):
    """check_lorenz_linear's eta search alone, as it runs when the pencil's
    spectrum gives no certificate: on A and M scaled as the decider scales them."""
    return checkers._lorenz_search(cone, *checkers._pencil(cone, a))


def test_lorenz_unconfirmed_ray_is_numerical_failure(monkeypatch):
    # at eta = 10 the top eigenvector of A'Q + QA - eta*Q for A = I is the
    # cone axis, so no boundary ray with outward flux can be built from it
    monkeypatch.setattr(checkers, "minimize_scalar_convex",
                        lambda f, bracket, tol: (10.0, f(10.0)[0]))
    with pytest.raises(NumericalFailure):
        _search(ICE3, np.eye(3))


def test_lorenz_scaled_identity_is_never_refuted():
    # A = c*I only rescales states, so every cone is invariant. Near c = 1e8
    # the rounding in A'Q + QA - eta*Q exceeds the pencil tolerance and the
    # built ray's flux is noise of size eps*|QA|, which must not refute.
    rng = np.random.default_rng(604)
    for c in (1e7, 1e8):
        for trial in range(40):
            t = np.eye(3) if trial == 0 else _orthogonal(rng, 3)
            cone = LorenzCone(t.T @ ICE3.Q @ t, t.T @ ICE3.u_n)
            try:
                v = check_lorenz_linear(cone, c * np.eye(3))
            except NumericalFailure:
                continue
            assert v.decision is Decision.INVARIANT, (c, trial)


def _random_cone(rng, n):
    """A cone x'Qx <= 0 with Q = U diag(w) U', w > 0 but for one negative entry."""
    u = _orthogonal(rng, n)
    return LorenzCone(u @ np.diag(np.append(rng.uniform(0.5, 2.0, n - 1),
                                            -rng.uniform(0.5, 2.0))) @ u.T)


def _skew_field(rng, cone, sign):
    """A = Q^-1 (S + sign P) + cI: eta = 2c certifies sign -1, and under
    sign +1 every boundary ray has outward flux x'Px > 0."""
    n = cone.dim
    skew, b = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    return (np.linalg.solve(cone.Q, skew - skew.T + sign * (b @ b.T + 0.1 * np.eye(n)))
            + rng.uniform(-1.0, 1.0) * np.eye(n))


def _lorenz_battery():
    """Seeded cones (n 3-10) under A = Q^-1 (S -+ P) + cI, where eta = 2c
    certifies the minus sign and every boundary ray has outward flux under
    the plus sign; narrow caps and random fields; and the rotated ice-cream
    cones under c*I of test_lorenz_scaled_identity_is_never_refuted."""
    rng = np.random.default_rng(610)
    for trial in range(60):
        n = int(rng.integers(3, 11))
        u = _orthogonal(rng, n)
        w = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [-rng.uniform(0.5, 2.0)]])
        q = u @ np.diag(w) @ u.T
        skew = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        sign = -1.0 if trial % 2 else 1.0
        a = (np.linalg.solve(q, skew - skew.T + sign * (b @ b.T + 0.1 * np.eye(n)))
             + rng.uniform(-1.0, 1.0) * np.eye(n))
        yield False, LorenzCone(q), a
    for _ in range(30):
        yield (False, *_narrow_cap(rng, int(rng.integers(3, 11)), 10.0 ** rng.uniform(-6.0, 0.0)))
    for _ in range(30):
        n = int(rng.integers(3, 11))
        u = _orthogonal(rng, n)
        w = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [-rng.uniform(0.5, 2.0)]])
        yield False, LorenzCone(u @ np.diag(w) @ u.T), rng.normal(size=(n, n))
    rng = np.random.default_rng(604)
    for c in (1e7, 1e8):
        for trial in range(40):
            t = np.eye(3) if trial == 0 else _orthogonal(rng, 3)
            yield True, LorenzCone(t.T @ ICE3.Q @ t, t.T @ ICE3.u_n), c * np.eye(3)


def _lorenz_with_search(monkeypatch, cone, a, search):
    """The eta search's outcome (_search) under the given minimizer, and phi*."""
    seen = {}

    def recorded(f, bracket, tol):
        seen["eta"], seen["phi"] = search(f, bracket, tol)
        return seen["eta"], seen["phi"]

    monkeypatch.setattr(checkers, "minimize_scalar_convex", recorded)
    try:
        return _search(cone, a), seen["phi"]
    except NumericalFailure:
        return None, seen["phi"]


def test_lorenz_bisection_matches_golden_section_reference(monkeypatch):
    search = checkers.minimize_scalar_convex

    def golden(f, bracket, tol):
        return golden_section_min(lambda e: f(e)[0], bracket, tol)

    for trial, (scaled, cone, a) in enumerate(_lorenz_battery()):
        v_ref, phi_ref = _lorenz_with_search(monkeypatch, cone, a, golden)
        v, phi = _lorenz_with_search(monkeypatch, cone, a, search)
        m = a.T @ cone.Q + cone.Q @ a
        m = 0.5 * (m + m.T)
        assert phi <= phi_ref + 1e-12 * (1.0 + np.linalg.norm(m, 2)), trial
        if v_ref is None:
            # every scaled cone is invariant; a search that lands on eta = 2c
            # exactly may certify where the reference's phi* was rounding noise
            assert v is None or (scaled and v.decision is Decision.INVARIANT), trial
            continue
        assert v is not None and v.decision is v_ref.decision, trial
        if v.decision is Decision.INVARIANT:
            # the decider certifies A scaled by 2^-e, so for the cones under
            # c = 1e7 and 1e8 its tolerance holds at A's scale 2^e, where
            # the residual left by rounding reaches about 1e-3
            eta = v.certificate.data["eta"]
            bound = math.ldexp(checkers._PENCIL_TOL, pow2_exponent(a) if scaled else 0)
            assert np.max(np.linalg.eigvalsh(m - eta * cone.Q)) <= bound, trial
        else:
            _assert_boundary_counterexample(cone, a, v)


@pytest.mark.parametrize("seed", [None, 612])
def test_lorenz_eta_search_eigen_solve_budget(monkeypatch, seed):
    # each eigen-solve of the search halves the bracket 2*beta until it is
    # at most tau wide, and one more evaluates the final midpoint
    if seed is None:
        cone, a = ICE3, np.eye(3)
    else:
        rng = np.random.default_rng(seed)
        u = _orthogonal(rng, 10)
        cone = LorenzCone(u @ np.diag(np.append(rng.uniform(0.5, 2.0, 9), -1.0)) @ u.T)
        a = rng.normal(size=(10, 10))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda x: calls.append(x.shape) or eigh(x))
    search = checkers.minimize_scalar_convex
    seen = {}

    def counted(f, bracket, tol):
        seen.update(bracket=bracket, tol=tol, before=len(calls))
        out = search(f, bracket, tol)
        seen["solves"] = len(calls) - seen["before"]
        return out

    monkeypatch.setattr(checkers, "minimize_scalar_convex", counted)
    _search(cone, a)
    lo, hi = seen["bracket"]
    assert 0 < seen["solves"] <= math.ceil(math.log2((hi - lo) / seen["tol"])) + 2


def _counted_search(search):
    """search wrapped to record the number of f calls of its last run."""
    seen = {}

    def counted(f, bracket, tol):
        seen["calls"] = 0

        def g(eta):
            seen["calls"] += 1
            return f(eta)

        return search(g, bracket, tol)

    return counted, seen


def test_lorenz_newton_search_needs_fewer_eigen_solves_than_bisection(monkeypatch):
    newton, seen = _counted_search(checkers.minimize_scalar_convex)
    bisect, seen_ref = _counted_search(bisection_min)
    solves = []
    for trial, (scaled, cone, a) in enumerate(_lorenz_battery()):
        v, _ = _lorenz_with_search(monkeypatch, cone, a, newton)
        v_ref, _ = _lorenz_with_search(monkeypatch, cone, a, bisect)
        assert (v is None) == (v_ref is None), trial
        assert v is None or v.decision is v_ref.decision, trial
        assert seen["calls"] <= seen_ref["calls"], trial
        if not scaled:
            solves.append(seen["calls"])
    # bisection takes about 46 on each of these 120 cones, the search 12.3
    assert len(solves) == 120 and np.mean(solves) <= 13.0


@pytest.mark.parametrize("seed", [None, 625])
def test_lorenz_kink_takes_the_bisection_path_bit_for_bit(monkeypatch, seed):
    # lorenz_expanding (seed None) and a rotated copy: A = I, so M = 2Q and
    # M - eta*Q = (2 - eta) Q has a top eigenvalue repeated (to rounding once
    # rotated) below eta = 2 and uncoupled to the rest (to rounding) above it
    t = np.eye(3) if seed is None else _orthogonal(np.random.default_rng(seed), 3)
    cone = LorenzCone(t.T @ ICE3.Q @ t, t.T @ ICE3.u_n)
    curvatures = {}

    def recorded(f, bracket, tol):
        def g(eta):
            out = f(eta)
            curvatures[eta] = out[2]
            return out

        return bisection_min(g, bracket, tol)

    v = _search(cone, np.eye(3))
    monkeypatch.setattr(checkers, "minimize_scalar_convex", recorded)
    v_ref = _search(cone, np.eye(3))
    assert v.certificate.data == v_ref.certificate.data
    below = [k for eta, k in curvatures.items() if eta < 2.0 or seed is None]
    assert len(below) > 10 and set(below) == {0.0}


def test_lorenz_pencil_lapack_failure_is_no_convergence(monkeypatch):
    # the spectrum's eigvals, the certificate's eigvalsh and, on a cone the
    # spectrum cannot certify, the eta search's eigh all call LAPACK
    # directly, not through sym_eig, and each maps LAPACK's error
    def failing(x):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def no_sym_eig(m):
        raise AssertionError("the pencil went through sym_eig")

    monkeypatch.setattr(checkers, "sym_eig", no_sym_eig)
    for name, a in [("eigvals", np.eye(3)), ("eigvalsh", np.eye(3)),
                    ("eigh", np.diag([3.0, 3.0, 1.0]))]:
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, name, failing)
            with pytest.raises(NoConvergence):
                check_lorenz_linear(ICE3, a)


def _spectral_battery():
    """_lorenz_battery, then 400 seeded ops (n 2-8) of each of four kinds:
    near-skew A = Q^-1 S + 10^-k R (M = 0 at R = 0), Gaussian A, A
    invariant by construction and near-scalar A = cI + 1e-12 R; then the
    degenerate pencils, whose eigenvalues are all repeated or zero (A = +-I,
    A = 0, a Lorentz boost and A = Q^-1 S); then half-lines (n = 1, invariant
    under any A) and 2-D wedges."""
    yield from _lorenz_battery()
    rng = np.random.default_rng(640)
    for kind in range(4):
        for _ in range(400):
            cone = _random_cone(rng, int(rng.integers(2, 9)))
            n, r = cone.dim, rng.normal(size=(cone.dim, cone.dim))
            skew = r - r.T
            if kind == 0:
                a = (np.linalg.solve(cone.Q, skew)
                     + 10.0 ** -rng.uniform(1.0, 12.0) * rng.normal(size=(n, n)))
            elif kind == 1:
                a = r
            elif kind == 2:
                a = _skew_field(rng, cone, -1.0)
            else:
                a = rng.uniform(-2.0, 2.0) * np.eye(n) + 1e-12 * r
            yield False, cone, a
    boost = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    for cone in (ICE3, _random_cone(rng, 3), _random_cone(rng, 6)):
        n, r = cone.dim, rng.normal(size=(cone.dim, cone.dim))
        for a in (np.eye(n), -np.eye(n), np.zeros((n, n)), np.linalg.solve(cone.Q, r - r.T)):
            yield False, cone, a
    for c in (0.0, 1.0, -1.0):
        yield False, ICE3, boost + c * np.eye(3)
    for _ in range(40):
        yield False, LorenzCone([[-rng.uniform(0.5, 2.0)]]), rng.normal(size=(1, 1))
    for _ in range(100):
        yield False, _random_cone(rng, 2), rng.normal(size=(2, 2))


def _outcome(decide, cone, a):
    try:
        return decide(cone, a)
    except NumericalFailure:
        return None


def test_lorenz_spectral_certificate_matches_the_search():
    # the spectrum's eta only ever certifies, and only where the search
    # certifies too; everything else is the search's verdict bit for bit
    spectral = 0
    for trial, (scaled, cone, a) in enumerate(_spectral_battery()):
        v, v_ref = _outcome(check_lorenz_linear, cone, a), _outcome(_search, cone, a)
        if v_ref is None or v_ref.decision is Decision.NOT_INVARIANT:
            assert (v is None) == (v_ref is None), trial
            if v is not None:
                assert v.decision is v_ref.decision and v.notes == v_ref.notes, trial
                assert np.array_equal(v.counterexample.point, v_ref.counterexample.point), trial
                assert v.counterexample.violation == v_ref.counterexample.violation, trial
            continue
        assert v is not None and v.decision is Decision.INVARIANT, trial
        spectral += v.certificate.data != v_ref.certificate.data
        # the certificate holds at A's own scale 2^e, whatever e is
        m = a.T @ cone.Q + cone.Q @ a
        m = 0.5 * (m + m.T)
        bound = math.ldexp(checkers._PENCIL_TOL, pow2_exponent(a))
        assert np.max(np.linalg.eigvalsh(m - v.certificate.data["eta"] * cone.Q)) <= bound, trial
    assert spectral > 500


def test_lorenz_spectral_certificate_budget(monkeypatch):
    # an invariant cone costs one eigvals and one eigvalsh, and no search; a
    # refuted one makes one search over the bracket |eta| <= 10(1 + r)/min|w|,
    # r the Gershgorin radius of M
    rng = np.random.default_rng(641)
    cases = [(ICE3, np.eye(3), True), (ICE3, np.diag([3.0, 3.0, 1.0]), False)]
    for n in (3, 10, 14):
        cone = _random_cone(rng, n)
        cases += [(cone, _skew_field(rng, cone, -1.0), True),
                  (cone, _skew_field(rng, cone, 1.0), False)]
    calls = {}
    for name in ("eigvals", "eigvalsh", "eigh"):
        def spy(x, name=name, solve=getattr(np.linalg, name)):
            calls[name] += 1
            return solve(x)

        monkeypatch.setattr(np.linalg, name, spy)
    search = checkers.minimize_scalar_convex

    def recorded(f, bracket, tol):
        calls["brackets"].append(bracket)
        return search(f, bracket, tol)

    monkeypatch.setattr(checkers, "minimize_scalar_convex", recorded)
    for trial, (cone, a, invariant) in enumerate(cases):
        calls.update(eigvals=0, eigvalsh=0, eigh=0, brackets=[])
        v = check_lorenz_linear(cone, a)
        assert (v.decision is Decision.INVARIANT) is invariant, trial
        assert calls["eigvals"] == 1 and calls["eigvalsh"] == 1, trial
        if invariant:
            assert calls["eigh"] == 0 and calls["brackets"] == [], trial
            continue
        _, m, _ = checkers._pencil(cone, a)
        beta = 10.0 * (1.0 + np.max(np.sum(np.abs(m), axis=1))) / np.min(np.abs(cone.eigenvalues))
        assert calls["brackets"] == [(-beta, beta)], trial


def test_ellipsoid_lapack_failure_is_no_convergence(monkeypatch):
    # the pencil's eigh and the certificate's eigvalsh both map LAPACK's error
    def failing(x):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    e = Ellipsoid(np.diag([1.0, 4.0]))
    for name in ("eigh", "eigvalsh"):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, name, failing)
            with pytest.raises(NoConvergence):
                check_ellipsoid_linear(e, -np.eye(2))


@pytest.mark.parametrize("name, s", [("check_hpoly_linear", UNIT_BOX),
                                     ("check_ellipsoid_linear", Ellipsoid(np.eye(2))),
                                     ("check_lorenz_linear", ICE3)])
def test_check_dispatches_through_module_globals(monkeypatch, name, s):
    # wrappers patched onto the module (the benchmark's tracer) must see
    # the calls that check() makes
    monkeypatch.setattr(checkers, name, lambda *args: name)
    assert check(s, LinearSystem(np.eye(s.dim))) == name


def test_quadratic_verdicts_survive_orthogonal_change_of_coordinates():
    # x = T y maps (Q, A) to (T'QT, T'AT) and cannot change the answer
    rng = np.random.default_rng(603)
    for trial in range(60):
        n = int(rng.integers(3, 9))
        t = _orthogonal(rng, n)
        # a negative eps makes the flux negative on the whole surface
        cone, a = _narrow_cap(rng, n, (-1.0) ** trial * 10.0 ** rng.uniform(-6.0, 0.0))
        moved = LorenzCone(t.T @ cone.Q @ t, t.T @ cone.u_n)
        assert (check_lorenz_linear(moved, t.T @ a @ t).decision
                is check_lorenz_linear(cone, a).decision), trial
        p = rng.normal(size=(n, n))
        q = p @ p.T + np.eye(n)
        a = rng.normal(size=(n, n)) - rng.uniform(0.0, 3.0) * np.eye(n)
        assert (check_ellipsoid_linear(Ellipsoid(t.T @ q @ t), t.T @ a @ t).decision
                is check_ellipsoid_linear(Ellipsoid(q), a).decision), trial


def test_sampled_quartic_contraction_unknown():
    disk = Ellipsoid(np.eye(2))
    sys = GeneralSystem(lambda t, x: -x ** 3, vectorized=True)
    v = check_nonlinear_sampled(disk, sys, 0.0, 10000, seed=4)
    assert v.decision is Decision.UNKNOWN
    assert v.notes["samples_checked"] == 10000


@pytest.mark.parametrize("q, distinct", [
    ([[-1.0]], 1),                   # the half-line x >= 0: every sample is its apex
    ([[1.0, 0.0], [0.0, -1.0]], 3),  # two boundary rays: the apex and a unit point on each
], ids=["half-line", "2d-lorenz"])
def test_sampled_check_counts_distinct_points(q, distinct):
    sys = GeneralSystem(lambda t, x: -x, vectorized=True)
    v = check_nonlinear_sampled(LorenzCone(q), sys, 0.0, 10000, seed=0)
    assert v.decision is Decision.UNKNOWN
    assert v.notes["samples_checked"] == distinct


# The cone I - 2aa' with a = (1, 2, 2)/3: x' = -x keeps it invariant. Its axis
# typed to 6 digits, or tilted off a within the 1 - 1e-6 cosine check, must
# still give one axis to the samples, the slack, the decider and the falsifier.
_AXIS = np.array([1.0, 2.0, 2.0]) / 3.0
_AXIS_CONE_Q = np.eye(3) - 2.0 * np.outer(_AXIS, _AXIS)


def test_lorenz_axis_typed_to_six_digits_gives_one_verdict():
    cone = LorenzCone(_AXIS_CONE_Q, u_n=[0.333333, 0.666667, 0.666667])
    assert check(cone, LinearSystem(-np.eye(3))).decision is Decision.INVARIANT
    sys = GeneralSystem(lambda t, x: -x, vectorized=True)
    assert check(cone, sys, n_samples=200).decision is Decision.UNKNOWN


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("tilt", [1e-7, 1e-5, 1e-3])
def test_lorenz_axis_is_the_eigenvector_on_the_given_side(tilt, sign):
    off = np.array([2.0, 1.0, -2.0]) / 3.0  # a unit vector orthogonal to the axis
    cone = LorenzCone(_AXIS_CONE_Q, u_n=sign * (np.cos(tilt) * _AXIS + np.sin(tilt) * off))
    assert np.array_equal(cone.u_n, sign * cone.eigenvectors[:, -1])
    assert np.max(np.abs(cone.u_n - sign * _AXIS)) <= 1e-15
    x = np.column_stack([bp.point for bp in sample_boundary(cone, 200, seed=0)])
    assert np.all(membership(cone, x) == Membership.BOUNDARY)
    assert falsify(cone, LinearSystem(-np.eye(3)), 200, horizon=1.0, step=0.01, seed=0) is None


def test_sampled_radial_growth_refuted():
    disk = Ellipsoid(np.eye(2))
    sys = GeneralSystem(lambda t, x: x.copy())
    v = check_nonlinear_sampled(disk, sys, 0.0, 100, seed=4)
    assert v.decision is Decision.NOT_INVARIANT


def test_sampled_orthant_swap_unknown():
    sys = GeneralSystem(lambda t, x: np.array([x[1], x[0]]))
    v = check_nonlinear_sampled(orthant_h(2), sys, 0.0, 300, seed=6)
    assert v.decision is Decision.UNKNOWN


def test_dispatch_general_vpolytope_reports_both():
    sys = GeneralSystem(lambda t, x: -x)
    v = check(TRIANGLE, sys, n_samples=100, seed=8)
    assert v.decision is Decision.UNKNOWN
    assert v.notes.get("vertex_conditions") == "passed"


def test_dispatch_orthant_family():
    v = check(orthant_h(2), LinearSystem([[-1.0, 2.0], [0.0, -3.0]]))
    assert v.decision is Decision.INVARIANT
    assert v.certificate.kind == "metzler"
    # the sign test belongs to the orthant alone: the disc is invariant
    # under a rotation whose off-diagonal entry is negative
    disc = check(Ellipsoid(np.eye(2)), LinearSystem([[0.0, -1.0], [1.0, 0.0]]))
    assert disc.decision is Decision.INVARIANT
    assert disc.certificate.kind == "lyapunov-pencil"
    with pytest.raises(InputError, match="dimension"):
        check(orthant_h(3), LinearSystem(-np.eye(2)))


@pytest.mark.parametrize("s", [TRIANGLE, orthant_v(2), UNIT_BOX, ICE3],
                         ids=lambda s: type(s).__name__)
def test_wrong_system_dimension_is_input_error(s):
    # the vertex and ray deciders, the falsifier's RK4 matrix and its extra
    # starts would otherwise fail in numpy's matmul
    a = -np.eye(s.dim + 1)
    with pytest.raises(InputError, match="dimension"):
        check(s, LinearSystem(a))
    with pytest.raises(InputError, match="dimension"):
        falsify(s, LinearSystem(a), 4, horizon=1.0, step=0.1, seed=0)
    with pytest.raises(InputError, match="dimension"):
        falsify(s, LinearSystem(-np.eye(s.dim)), 4, horizon=1.0, step=0.1, seed=0,
                extra_starts=[np.zeros(s.dim + 1)])


_WRONG_DIM = LinearSystem(-np.eye(3))  # every set below lives in R^2


@pytest.mark.parametrize("decide", [
    lambda: check(UNIT_BOX, _WRONG_DIM),
    lambda: check_hpoly_linear(UNIT_BOX, _WRONG_DIM.a),
    lambda: check_vpolytope(TRIANGLE, _WRONG_DIM),
    lambda: check_vcone(VCone(np.eye(2)), _WRONG_DIM),
    lambda: check_ellipsoid_linear(Ellipsoid(np.eye(2)), _WRONG_DIM.a),
    lambda: check_lorenz_linear(LorenzCone(np.diag([1.0, -1.0])), _WRONG_DIM.a),
    lambda: check_nonlinear_sampled(HPolyhedron(np.eye(2), np.ones(2)), _WRONG_DIM, 0.0, 10, 0),
    lambda: falsify(UNIT_BOX, _WRONG_DIM, 4, horizon=1.0, step=0.1, seed=0),
    lambda: integrate(_WRONG_DIM, [1.0, 0.0], 0.0, 1.0, 0.1),
], ids=["check", "hpolyhedron", "vpolytope", "vcone", "ellipsoid", "lorenz", "sampled",
        "falsify", "integrate"])
def test_every_decider_rejects_a_system_of_another_dimension(decide):
    # the vertex, ray and sampled deciders and the integrator raised numpy's
    # matmul ValueError; LinearSystem.field now holds the rule for all of them
    with pytest.raises(InputError, match="system dimension does not match the set"):
        decide()


def test_dispatch_unsupported_set_is_input_error():
    with pytest.raises(InputError, match="unsupported set type"):
        check(object(), LinearSystem(-np.eye(2)))
    # a general system reads the same decider table
    with pytest.raises(InputError, match="unsupported set type"):
        check(object(), GeneralSystem(lambda t, x: -x))


def test_cube_h_v_checker_agreement():
    cube_h = HPolyhedron(np.vstack([np.eye(3), -np.eye(3)]),
                         np.concatenate([np.ones(3), np.zeros(3)]))
    cube_v = VPolytope([[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)])
    rng = np.random.default_rng(301)
    for _ in range(20):
        a = rng.normal(size=(3, 3))
        dh = check_hpoly_linear(cube_h, a).decision
        dv = check_vpolytope(cube_v, LinearSystem(a)).decision
        assert dh is dv


def test_vertex_certificate_resubstitutes():
    v = check_vpolytope(TRIANGLE, LinearSystem(-np.eye(2)))
    x_cols = TRIANGLE.vertices.T
    for rec in v.certificate.data["vertices"]:
        i = rec["index"]
        alpha = np.array(rec["alpha"])
        f = -TRIANGLE.vertices[i]
        assert np.max(np.abs(x_cols @ alpha - f)) <= 1e-8
        assert abs(np.sum(alpha)) <= 1e-8
        assert min(alpha[j] for j in range(3) if j != i) >= -1e-10


def test_ray_certificate_resubstitutes():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = check_vcone(orthant_v(2), LinearSystem(a))
    r_cols = np.eye(2)
    for rec in v.certificate.data["rays"]:
        i = rec["index"]
        alpha = np.array(rec["alpha"])
        f = a @ r_cols[:, i]
        assert np.max(np.abs(r_cols @ alpha - f)) <= 1e-8
        assert min(alpha[j] for j in range(2) if j != i) >= -1e-10


def test_decomposition_coefficients_keep_their_sign_exactly():
    # rounding in the simplex's pivots can leave a basic value just below 0;
    # unclipped, this certificate held 502 alpha_j < 0 (j not the vertex),
    # down to -5.1e-14
    n = 20
    v = np.vstack([np.eye(n), -np.eye(n), np.random.default_rng(0).normal(size=(n, n))])
    res = check_vpolytope(VPolytope(v), LinearSystem(-np.eye(n)))
    assert res.decision is Decision.INVARIANT
    for rec in res.certificate.data["vertices"]:
        i, alpha = rec["index"], np.array(rec["alpha"])
        assert np.all(np.delete(alpha, i) >= 0.0)
        assert np.max(np.abs(v.T @ alpha + v[i])) <= 1e-8
        assert abs(np.sum(alpha)) <= 1e-8


def test_ellipsoid_certificate_rayleigh_revalidation():
    q = np.diag([1.0, 4.0])
    a = np.array([[-1.0, 0.5], [-0.5, -2.0]])
    v = check_ellipsoid_linear(Ellipsoid(q), a)
    assert v.decision is Decision.INVARIANT
    eta = v.certificate.data["eta"]
    m = a.T @ q + q @ a - eta * q
    rng = np.random.default_rng(401)
    for _ in range(1000):
        x = rng.normal(size=2)
        x /= np.linalg.norm(x)
        assert x @ m @ x <= 1e-8


def test_ellipsoid_decides_without_cholesky_or_solve(monkeypatch):
    # the pencil is reduced through the eigenpairs the ellipsoid holds
    def refuse(*args, **kwargs):
        raise AssertionError("the ellipsoid check factored or solved")

    e = Ellipsoid(np.diag([1.0, 4.0]))
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    assert check_ellipsoid_linear(e, -np.eye(2)).decision is Decision.INVARIANT
    assert check_ellipsoid_linear(e, np.eye(2)).decision is Decision.NOT_INVARIANT


def _spread_ellipsoid_battery():
    """(Q, A, invariant) with Q's eigenvalues spread over 1e-4..1e4, n = 2..16,
    and A = Q^-1 (S -+ P): S = Q^1/2 K Q^1/2 skew and P = Q^1/2 W Q^1/2 with
    W's eigenvalues in [0.5, 2], so the flux x'QAx = -+x'Px decides, and the
    pencil's eigenvalues are -+2 times W's."""
    rng = np.random.default_rng(611)
    for trial in range(160):
        n = 2 + trial % 15
        u = _orthogonal(rng, n)
        d = np.logspace(-4.0, 4.0, n)[rng.permutation(n)]
        half, inv_half = u * np.sqrt(d) @ u.T, u / np.sqrt(d) @ u.T
        k = rng.normal(size=(n, n))
        v = _orthogonal(rng, n)
        w = v * rng.uniform(0.5, 2.0, n) @ v.T
        invariant = trial % 2 == 0
        a = inv_half @ (k - k.T + (-w if invariant else w)) @ half
        yield u * d @ u.T, a, invariant


def test_ellipsoid_spread_spectrum_battery():
    # at cond(Q) = 1e8 the rounding of M moves the pencil's top eigenvalue
    # by up to about 2e-6 relative, in this reduction as in a Cholesky one
    for trial, (q, a, invariant) in enumerate(_spread_ellipsoid_battery()):
        v = check_ellipsoid_linear(Ellipsoid(q), a)
        m = a.T @ q + q @ a
        lam_oracle = power_iteration_gen_eig_max(m, q)
        if invariant:
            assert v.decision is Decision.INVARIANT, trial
            data = v.certificate.data
            assert data["eta"] == pytest.approx(lam_oracle, rel=1e-5), trial
            top = float(np.max(np.linalg.eigvalsh(m - data["eta"] * q)))
            assert top <= 1e-10 * np.max(np.abs(m)), trial
            assert abs(top - data["witness_max_eig"]) <= 1e-10 * np.max(np.abs(m)), trial
            x = np.array(data["eigenvector"])
        else:
            assert v.decision is Decision.NOT_INVARIANT, trial
            assert v.notes["pencil_max_eig"] == pytest.approx(lam_oracle, rel=1e-5), trial
            x = v.counterexample.point
            # on x'Qx = 1 to the rounding of terms of size |x|^2 |Q|
            assert abs(float(x @ q @ x) - 1.0) <= 1e-14 * float(x @ x) * np.max(np.abs(q)), trial
            flux = float(x @ q @ (a @ x))
            assert flux > 0.0 and v.counterexample.violation == pytest.approx(flux, rel=1e-7), trial
        assert x[np.argmax(np.abs(x))] > 0.0, trial


def test_lorenz_verdicts_sound_against_dense_boundary_scan():
    # any certificate must dominate a dense flux scan of the surface, and
    # any counterexample must be confirmed by it
    rng = np.random.default_rng(501)
    from invarcheck.sets import sample_boundary

    for trial in range(12):
        n = int(rng.choice([3, 4]))
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        w = np.concatenate([rng.uniform(0.5, 3.0, n - 1), [-rng.uniform(0.5, 3.0)]])
        cone = LorenzCone(basis @ np.diag(w) @ basis.T)
        a = rng.normal(size=(n, n))
        if trial % 3 == 0:
            a = a - (1.0 + np.max(np.abs(np.linalg.eigvals(a)))) * np.eye(n)
        v = check_lorenz_linear(cone, a)
        pts = np.array([bp.point for bp in sample_boundary(cone, 5000, seed=900 + trial)[1:]])
        max_flux = float(np.max(np.einsum("ij,jk,ik->i", pts, cone.Q @ a, pts)))
        if v.decision is Decision.INVARIANT:
            assert max_flux <= 1e-7, (trial, max_flux)
        elif v.decision is Decision.NOT_INVARIANT:
            assert max_flux >= -1e-7, (trial, max_flux)


def test_invariant_verdicts_survive_falsification():
    cases = [
        (UNIT_BOX, -np.eye(2)),
        (Ellipsoid(np.diag([1.0, 4.0])), np.array([[0.0, 2.0], [-0.5, 0.0]])),
        (orthant_h(2), np.array([[-1.0, 2.0], [0.0, -3.0]])),
    ]
    for s, a in cases:
        sys = LinearSystem(a)
        verdict = check(s, sys)
        if verdict.decision is Decision.INVARIANT:
            assert falsify(s, sys, 100, horizon=3.0, step=1e-3, seed=13) is None


def test_counterexamples_produce_exits():
    cases = [
        (UNIT_BOX, np.eye(2)),
        (Ellipsoid(np.eye(2)), np.diag([1.0, -1.0])),
    ]
    for s, a in cases:
        sys = LinearSystem(a)
        verdict = check(s, sys)
        assert verdict.decision is Decision.NOT_INVARIANT
        hit = falsify(s, sys, 4, horizon=1.0, step=1e-3, seed=17,
                      extra_starts=[verdict.counterexample.point])
        assert hit is not None and hit[1] <= 1.0


@pytest.mark.parametrize("s, name", [
    (VPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]), "vertex 1 [1.0, -1.0]"),
    (orthant_v(2), "ray 1 [0.0, 1.0]"),
], ids=["vpolytope", "vcone"])
def test_field_not_finite_at_a_generator_is_an_input_error(s, name):
    # the field is -x, which passes at generator 0, and NaN at generator 1
    def field(t, x):
        return np.full(2, np.nan) if np.array_equal(x, s.columns[:2, 1]) else -x

    with pytest.raises(InputError, match=rf"^the field is not finite at {re.escape(name)}$"):
        check(s, GeneralSystem(field))


@pytest.mark.parametrize("s, name", [
    (VPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0], [-1.0, 1.0]]), "vertex"),
    (orthant_v(2), "ray"),
], ids=["vpolytope", "vcone"])
def test_refutation_before_a_field_not_finite_wins(s, name):
    # the field (x2, -x1) leaves at generator 0 and is NaN at generator 1:
    # the generators before the first non-finite field are decided first
    def field(t, x):
        return np.full(2, np.nan) if np.array_equal(x, s.columns[:2, 1]) else np.array([x[1], -x[0]])

    verdict = check(s, GeneralSystem(field))
    assert verdict.decision is Decision.NOT_INVARIANT
    assert verdict.notes == {name: 0}


def test_desk_scale_v_polytope_refuted_at_vertex_0_in_one_stack(monkeypatch):
    # +-e_i and 40 Gaussian points in R^40 under x' = x: vertex 0's LP is
    # infeasible, so the first stack of vertex LPs is the only one solved
    n = 40
    v = np.vstack([np.eye(n), -np.eye(n), np.random.default_rng(0).normal(size=(n, n))])
    stacks = []
    phase_one_stack = solvers._phase_one_stack

    def counted(columns, rhs, free):
        stacks.append(free.size)
        return phase_one_stack(columns, rhs, free)

    monkeypatch.setattr(solvers, "_phase_one_stack", counted)
    verdict = check(VPolytope(v), LinearSystem(np.eye(n)))
    assert verdict.decision is Decision.NOT_INVARIANT
    assert verdict.notes == {"vertex": 0}
    assert len(stacks) == 1 and 1 < stacks[0] < v.shape[0]
