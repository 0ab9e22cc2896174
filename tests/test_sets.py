import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from invarcheck.checkers import check
from invarcheck.dynamics import falsify

from invarcheck.errors import DimensionMismatch, EmptyBoundary, InputError, NotMember
from invarcheck.numerics import _MAX_DIM
from invarcheck.sets import (
    DEFAULT_TOL,
    BoundaryPoint,
    Ellipsoid,
    HPolyhedron,
    LorenzCone,
    Membership,
    Orthant,
    VCone,
    VPolytope,
    active_constraints,
    membership,
    orthant_h,
    orthant_v,
    outside_violation_batch,
    sample_boundary,
)
from invarcheck.systems import GeneralSystem, LinearSystem
from invarcheck.tangent import cone_test, tangent_cone_at

from oracles import facets_by_subsets, membership_lp_by_hand

UNIT_BOX = HPolyhedron(
    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
    [1.0, 1.0, 0.0, 0.0],
)
TRIANGLE = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
ICE3 = LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 0.0, 1.0])


def test_ellipsoid_center_inside():
    assert membership(Ellipsoid(np.eye(2)), [0.0, 0.0]) is Membership.INSIDE


def test_box_face_point_boundary_with_active_facet():
    assert membership(UNIT_BOX, [1.0, 0.5]) is Membership.BOUNDARY
    assert active_constraints(UNIT_BOX, [1.0, 0.5]) == [0]


def test_lorenz_345_boundary():
    # 9 + 16 - 25 = 0 and the branch inequality holds
    assert membership(ICE3, [3.0, 4.0, 5.0]) is Membership.BOUNDARY
    assert membership(ICE3, [3.0, 4.0, -5.0]) is Membership.OUTSIDE
    assert membership(ICE3, [0.0, 0.0, 1.0]) is Membership.INSIDE


def test_box_corner_and_interior_active_sets():
    assert active_constraints(UNIT_BOX, [1.0, 1.0]) == [0, 1]
    assert active_constraints(UNIT_BOX, [0.5, 0.5]) == []


def test_halfspace_binding_rule_is_one_rule():
    # active_constraints and tangent_test read the same rows at every point,
    # also at points moved inward to just within and just beyond the band
    rng = np.random.default_rng(31)
    p = HPolyhedron(np.vstack([np.eye(3), -np.eye(3), rng.normal(size=(3, 3))]),
                    np.concatenate([np.ones(6), rng.uniform(0.5, 1.5, 3)]))
    x = np.column_stack([bp.point for bp in sample_boundary(p, 60, seed=3)])
    x *= 1.0 - rng.choice([0.0, 1e-9, 5e-9, 3e-8, 1e-7], size=60)
    y = rng.normal(size=(3, 60))
    inside, _ = p.tangent_test(x, y, 1e-8)
    counts = set()
    for k in range(60):
        rows = active_constraints(p, x[:, k])
        counts.add(len(rows))
        flux = p.G[rows] @ y[:, k]
        scale = 1.0 + np.linalg.norm(p.G[rows], axis=1) * np.linalg.norm(y[:, k])
        assert inside[k] == np.all(flux <= 1e-8 * scale)
    assert {0, 1} <= counts


def test_orthant_face_active_set():
    assert active_constraints(orthant_h(2), [0.0, 2.0]) == [0]


def test_orthant_rows_hold_no_negative_zero():
    # a -0.0 off the diagonal would print as a normal [-1.0, -0.0]
    g = orthant_h(3).G
    assert np.array_equal(g, -np.eye(3))
    assert not np.any(np.signbit(g[~np.eye(3, dtype=bool)]))


@pytest.mark.parametrize("n", range(1, 13))
def test_orthant_anchors_are_the_facet_lp_anchors(n):
    # the orthant returns 1 - e_i without solving facet i's anchor LP; the
    # halfspace form of the same rows solves it and finds the same bits
    lp_form = HPolyhedron(-np.eye(n), np.zeros(n))
    for i in range(n):
        anchor = Orthant(n)._facet_anchor(i, DEFAULT_TOL)
        assert anchor.tobytes() == lp_form._facet_anchor(i, DEFAULT_TOL).tobytes()
        assert anchor.tobytes() == (1.0 - np.eye(n)[i]).tobytes()
    # so the samples are those of the halfspace form with the orthant's rows
    rows = HPolyhedron(Orthant(n).G, np.zeros(n))
    for seed in range(3):
        drawn = Orthant(n).sample(50, np.random.default_rng(seed), DEFAULT_TOL)
        assert drawn.tobytes() == rows.sample(50, np.random.default_rng(seed), DEFAULT_TOL).tobytes()


@pytest.mark.parametrize("s", [TRIANGLE, VCone([[1.0, 0.0], [0.0, 1.0]]), Ellipsoid(np.eye(2)),
                               ICE3], ids=lambda s: type(s).__name__)
def test_active_constraints_of_a_set_without_rows_is_an_input_error(s):
    with pytest.raises(InputError, match=f"halfspace form, not of a {type(s).__name__}"):
        active_constraints(s, np.zeros(s.dim))


_COUNTS = {
    "sample-float": lambda: sample_boundary(UNIT_BOX, 2.5, 0),
    "sample-bool": lambda: sample_boundary(UNIT_BOX, True, 0),
    "sample-zero": lambda: sample_boundary(UNIT_BOX, 0, 0),
    "check-float": lambda: check(UNIT_BOX, GeneralSystem(lambda t, x: -x), n_samples=2.5),
    "falsify-float": lambda: falsify(UNIT_BOX, LinearSystem(-np.eye(2)), 2.5, 1.0, 0.1, 0),
    "orthant-float": lambda: orthant_h(2.5),
    "orthant-bool": lambda: orthant_h(True),
    "orthant-zero": lambda: orthant_h(0),
    "orthant_v-float": lambda: orthant_v(2.5),
    "orthant_v-bool": lambda: orthant_v(True),
}


@pytest.mark.parametrize("call", _COUNTS.values(), ids=_COUNTS)
def test_counts_are_positive_integers(call):
    # a float or bool count would reach numpy as an IndexError or TypeError
    with pytest.raises(InputError, match="expected a positive integer"):
        call()


@pytest.mark.parametrize("n", [10**400, 2**63, _MAX_DIM + 1], ids=["1e400", "2^63", "max+1"])
@pytest.mark.parametrize("build", [orthant_h, orthant_v])
def test_orthant_dimension_numpy_cannot_size_is_an_input_error(build, n):
    # refused before any array is built; a dimension numpy can size but
    # memory cannot hold would allocate, so it is not tried
    with pytest.raises(InputError, match=rf"^n: expected at most {_MAX_DIM}, .* {int(n).bit_length()} bits$"):
        build(n)


def test_numpy_integer_counts_are_counts():
    assert len(sample_boundary(UNIT_BOX, np.int64(3), 0)) == 3
    assert orthant_h(np.int64(2)).dim == orthant_v(np.int64(2)).dim == 2


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        membership(UNIT_BOX, [1.0, 2.0, 3.0])


def test_vpolytope_membership_lp():
    assert membership(TRIANGLE, [0.2, 0.2]) is Membership.INSIDE
    assert membership(TRIANGLE, [0.5, 0.5]) is Membership.BOUNDARY
    assert membership(TRIANGLE, [0.6, 0.6]) is Membership.OUTSIDE
    assert membership(TRIANGLE, [0.0, 0.0]) is Membership.BOUNDARY


def test_vcone_membership():
    cone = orthant_v(2)
    assert membership(cone, [1.0, 2.0]) is Membership.INSIDE
    assert membership(cone, [0.0, 2.0]) is Membership.BOUNDARY
    assert membership(cone, [-0.5, 1.0]) is Membership.OUTSIDE
    assert membership(cone, [0.0, 0.0]) is Membership.BOUNDARY
    line = VCone([[1.0, 1.0]])
    assert membership(line, [2.0, 2.0]) is Membership.INSIDE
    assert membership(line, [0.0, 0.0]) is Membership.BOUNDARY


def test_degenerate_polytope_rejected():
    with pytest.raises(InputError):
        VPolytope([[1.0, 1.0], [1.0, 1.0]])


def test_coinciding_vertices_name_the_first_pair():
    # within 1e-9 in the max norm: pairs (1, 3) and (2, 4) coincide, and
    # the error names the first
    vs = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1e-10], [0.0, 1.0]]
    with pytest.raises(InputError, match="vertices 1 and 3 coincide"):
        VPolytope(vs)
    with pytest.raises(InputError, match="vertices 2 and 3 coincide"):
        VPolytope([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [5.0, 5.0 + 5e-10]])
    VPolytope([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [5.0, 5.0 + 2e-9]])


@pytest.mark.parametrize("pair_cells", [1, 1 << 20], ids=["one row a block", "one block"])
def test_two_coinciding_pairs_name_the_lowest_first_vertex(monkeypatch, pair_cells):
    # pairs (0, 5) and (1, 2) coincide: the lowest first vertex wins, not the
    # lowest second one, however the rows are cut into blocks
    monkeypatch.setattr("invarcheck.sets._PAIR_CELLS", pair_cells)
    vs = [[0.0, 0.0], [1.0, 0.0], [1.0, 5e-10], [0.0, 1.0], [2.0, 2.0], [-5e-10, 0.0]]
    with pytest.raises(InputError, match="^vertices 0 and 5 coincide$"):
        VPolytope(vs)
    # vertex 1 coincides with 3 and 4: the lowest second vertex is named
    with pytest.raises(InputError, match="^vertices 1 and 3 coincide$"):
        VPolytope([[3.0, 3.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1e-10], [1.0, -1e-10]])


def test_duplicate_check_on_the_ten_cube_stays_in_bounded_memory():
    cube = np.array(list(itertools.product((0.0, 1.0), repeat=10)))
    tracemalloc.start()
    VPolytope(cube)
    with pytest.raises(InputError, match="^vertices 37 and 1024 coincide$"):
        VPolytope(np.vstack([cube, cube[37]]))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # one block of _PAIR_CELLS float differences is 8 MB
    assert peak < 32 * 2 ** 20


def test_zero_ray_rejected():
    with pytest.raises(InputError):
        VCone([[0.0, 0.0]])


def test_ellipsoid_requires_spd():
    with pytest.raises(InputError):
        Ellipsoid(np.diag([1.0, -1.0]))


def test_lorenz_inertia_rejection_property():
    rng = np.random.default_rng(41)
    accepted = rejected = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m = rng.normal(size=(n, n))
        m = m + m.T
        w = np.linalg.eigvalsh(m)
        good = int(np.sum(w < -1e-10)) == 1 and int(np.sum(np.abs(w) <= 1e-10)) == 0
        try:
            LorenzCone(m)
            assert good
            accepted += 1
        except InputError:
            assert not good
            rejected += 1
    assert accepted > 3 and rejected > 3


def test_lorenz_wrong_axis_rejected():
    with pytest.raises(InputError):
        LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[1.0, 0.0, 0.0])


def test_lorenz_zero_axis_rejected():
    with pytest.raises(InputError, match="u_n is numerically zero"):
        LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 1e-13, 0.0])


def test_lorenz_axis_stores_no_negative_zero():
    cone = LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 1e-9, -2.0])
    assert cone.u_n.tolist() == [0.0, 0.0, -1.0]
    assert not np.any(np.signbit(cone.u_n[:2]))


@pytest.mark.parametrize("family", [Ellipsoid, LorenzCone])
def test_quadric_shape_errors_name_q(family):
    with pytest.raises(InputError, match="Q is not symmetric"):
        family([[1.0, 0.5], [0.0, -1.0]])
    with pytest.raises(DimensionMismatch, match="Q: expected a square matrix"):
        family([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def test_ellipsoid_samples_on_unit_circle():
    pts = sample_boundary(Ellipsoid(np.eye(2)), 4, seed=7)
    assert len(pts) == 4
    for bp in pts:
        assert np.linalg.norm(bp.point) == pytest.approx(1.0, abs=1e-10)


def test_triangle_samples_include_vertices():
    pts = sample_boundary(TRIANGLE, 6, seed=3)
    got = np.array([bp.point for bp in pts[:3]])
    assert np.allclose(got, TRIANGLE.vertices)
    for bp in pts:
        assert membership(TRIANGLE, bp.point) is Membership.BOUNDARY


def test_lorenz_samples_on_surface():
    pts = sample_boundary(ICE3, 40, seed=11)
    assert not np.any(pts[0].point)
    for bp in pts[1:]:
        x = bp.point
        assert abs(x[0] ** 2 + x[1] ** 2 - x[2] ** 2) <= 1e-8
        assert x[2] >= 0.0
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)


def test_half_line_samples_are_its_apex():
    # LorenzCone([[-1]]) is the half-line x >= 0, whose boundary is its apex
    pts = sample_boundary(LorenzCone([[-1.0]]), 3, 0)
    assert [bp.point.tolist() for bp in pts] == [[0.0]] * 3


def test_samples_reclassify_boundary_all_families():
    sets = [
        UNIT_BOX,
        TRIANGLE,
        orthant_v(3),
        Ellipsoid(np.diag([1.0, 4.0])),
        ICE3,
        orthant_h(3),
    ]
    for s in sets:
        for bp in sample_boundary(s, 12, seed=5):
            assert membership(s, bp.point) is Membership.BOUNDARY, (type(s).__name__, bp.point)


def test_sampling_deterministic():
    a = sample_boundary(UNIT_BOX, 10, seed=9)
    b = sample_boundary(UNIT_BOX, 10, seed=9)
    for p, q in zip(a, b):
        assert np.array_equal(p.point, q.point)


def test_membership_invariant_under_row_permutation():
    rng = np.random.default_rng(13)
    perm = [2, 0, 3, 1]
    shuffled = HPolyhedron(UNIT_BOX.G[perm], UNIT_BOX.b[perm])
    vperm = [1, 2, 0]
    tri2 = VPolytope(TRIANGLE.vertices[vperm])
    for _ in range(200):
        x = rng.uniform(-0.5, 1.5, size=2)
        assert membership(UNIT_BOX, x) is membership(shuffled, x)
        assert membership(TRIANGLE, x) is membership(tri2, x)


def test_cube_h_vs_v_membership_oracle():
    cube_h = HPolyhedron(np.vstack([np.eye(3), -np.eye(3)]),
                         np.concatenate([np.ones(3), np.zeros(3)]))
    cube_v = VPolytope([[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)])
    rng = np.random.default_rng(23)
    for _ in range(1000):
        x = rng.uniform(-0.5, 1.5, size=3)
        assert membership(cube_h, x) is membership(cube_v, x), x


def test_empty_polyhedron_boundary():
    empty = HPolyhedron([[1.0], [-1.0]], [-1.0, -2.0])  # x <= -1 and x >= 2
    with pytest.raises(EmptyBoundary):
        sample_boundary(empty, 3, seed=0)


def test_a_zero_row_binds_nowhere():
    # the strip |x1| <= 1 with the row 0 x <= 0 is the strip without it: no
    # point is on that row, it takes no anchor and caps no anchor's margin
    strip = HPolyhedron([[0, 0], [1, 0], [-1, 0]], [0, 1, 1])
    plain = HPolyhedron([[1, 0], [-1, 0]], [1, 1])
    for x in itertools.product(np.linspace(-1.5, 1.5, 7), [-1.0, 0.0, 2.0]):
        assert membership(strip, x) is membership(plain, x), x
        assert [i - 1 for i in active_constraints(strip, x)] == active_constraints(plain, x), x
    assert membership(strip, [0.5, 0.0]) is Membership.INSIDE
    assert np.array_equal(strip._facet_anchor(1, DEFAULT_TOL), plain._facet_anchor(0, DEFAULT_TOL))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = np.array([bp.point for bp in sample_boundary(strip, 8, seed=0)])
        contracting = GeneralSystem(lambda t, x: -x, vectorized=True)
        assert check(strip, contracting, n_samples=50).decision.value == "unknown"
        assert falsify(strip, contracting, 50, horizon=0.5, step=0.1, seed=0) is None
    assert np.array_equal(np.abs(points[:, 0]), np.ones(8))
    # 0 x <= -1 holds nowhere: the set stays empty
    empty = HPolyhedron([[0, 0], [1, 0], [-1, 0]], [-1, 1, 1])
    assert membership(empty, [0.5, 0.0]) is Membership.OUTSIDE
    assert active_constraints(empty, [1.0, 0.0]) == [1]
    with pytest.raises(EmptyBoundary):
        sample_boundary(empty, 3, seed=0)


def test_tangent_test_rejects_a_point_outside_the_polyhedron():
    with pytest.raises(NotMember, match="outside the polyhedron"):
        UNIT_BOX.tangent_test(np.array([[1.0, 2.0], [0.0, 0.0]]), np.zeros((2, 2)), DEFAULT_TOL)


def test_outside_violation_measures():
    assert outside_violation_batch(UNIT_BOX, [[0.5], [0.5]])[0] == 0.0
    # slack/(1+|b|)
    assert outside_violation_batch(UNIT_BOX, [[1.5], [0.5]])[0] == pytest.approx(0.25)
    assert outside_violation_batch(Ellipsoid(np.eye(2)), [[2.0], [0.0]])[0] == pytest.approx(3.0)
    assert outside_violation_batch(ICE3, [[1.0], [0.0], [0.0]])[0] > 0.0


def _lp_membership(s, x, tol=DEFAULT_TOL):
    """The class the membership LP (_lp) gives x: the reference the facet
    rule is held against, as the LP path above the facet cap decides."""
    delta, infeas = s._lp(np.asarray(x, dtype=float))
    band = tol * s._scale(x)
    if infeas > band:
        return Membership.OUTSIDE
    return Membership.BOUNDARY if delta <= band else Membership.INSIDE


def test_batch_violation_matches_scalar_lp_path():
    # square (non-simplicial) polytope: facet violation against the membership LP
    square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    rng = np.random.default_rng(31)
    xs = rng.uniform(-0.5, 1.5, size=(2, 40))
    batch = outside_violation_batch(square, xs)
    for k in range(40):
        inside = _lp_membership(square, xs[:, k]) is not Membership.OUTSIDE
        assert (batch[k] == 0.0) == inside


def test_batch_simplicial_path_agrees_with_lp():
    rng = np.random.default_rng(37)
    xs = rng.uniform(-0.6, 1.2, size=(2, 60))
    batch = outside_violation_batch(TRIANGLE, xs)
    for k in range(60):
        outside = _lp_membership(TRIANGLE, xs[:, k]) is Membership.OUTSIDE
        assert (batch[k] > 1e-9) == outside
    cone = orthant_v(2)
    batch_c = outside_violation_batch(cone, xs)
    for k in range(60):
        outside = _lp_membership(cone, xs[:, k]) is Membership.OUTSIDE
        assert (batch_c[k] > 1e-9) == outside


@pytest.mark.parametrize("s", [
    VCone([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
    VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]]),
], ids=["cone-interior-ray", "triangle-interior-vertex"])
def test_interior_generators_not_sampled(s):
    pts = sample_boundary(s, 5, seed=0)
    for bp in pts:
        assert membership(s, bp.point) is Membership.BOUNDARY, bp.point


def _random_forms(rng, dims=(2, 3)):
    """V-forms of every kind the facet enumeration must get right."""
    forms = []
    for n in dims:
        for _ in range(4):
            # full-dimensional, with interior vertices and edge midpoints
            vs = rng.normal(size=(n + 3, n))
            vs = np.vstack([vs, vs.mean(axis=0), 0.5 * (vs[0] + vs[1])])
            forms.append(VPolytope(vs))
            # flat: vertices in a random hyperplane
            w = np.linalg.qr(rng.normal(size=(n, n)))[0][:, :n - 1]
            forms.append(VPolytope(rng.normal(size=n) + rng.normal(size=(n + 2, n - 1)) @ w.T))
            # pointed cone with redundant rays
            rays = np.abs(rng.normal(size=(n + 1, n))) + 0.1
            forms.append(VCone(np.vstack([rays, rays[0] + rays[1], rays.sum(axis=0)])))
            # cone with a lineality space
            r = rng.normal(size=n)
            forms.append(VCone(np.vstack([r, -r, rng.normal(size=(n - 1, n))])))
        forms.append(VPolytope([rng.normal(size=n)]))
        forms.append(VCone([rng.normal(size=n)]))
    return forms


def test_facet_violation_and_samples_match_lp():
    rng = np.random.default_rng(41)
    band = 1e-8
    for s in _random_forms(rng):
        gens = s.vertices if isinstance(s, VPolytope) else s.rays
        # points around the set, and points in the span of the generators
        xs = np.vstack([2.0 * rng.normal(size=(30, s.dim)),
                        rng.dirichlet(np.ones(len(gens)), size=30) @ gens
                        + 0.3 * rng.normal(size=(30, len(gens))) @ gens / len(gens)])
        viol = outside_violation_batch(s, xs.T)
        for x, v in zip(xs, viol):
            outside = _lp_membership(s, x) is Membership.OUTSIDE
            assert outside == (v > band), (s.TAG, gens.tolist(), x.tolist(), v)
        pts = sample_boundary(s, 25, seed=int(rng.integers(1000)))
        if isinstance(s, VPolytope) and len(gens) == 1:
            # one vertex has no relative boundary: the samples repeat it
            assert all(np.array_equal(bp.point, gens[0]) for bp in pts)
            continue
        for bp in pts:
            assert _lp_membership(s, bp.point) is Membership.BOUNDARY, (s.TAG, gens.tolist(), bp)
            assert membership(s, bp.point) is Membership.BOUNDARY, (s.TAG, gens.tolist(), bp)


def _cube(d):
    return np.array(list(itertools.product([-1.0, 1.0], repeat=d)))


def _cross(d):
    return np.vstack([np.eye(d), -np.eye(d)])


@pytest.mark.parametrize("family, d, facets, size", [
    *[("cube", d, 2 * d, 2 ** (d - 1)) for d in range(1, 9)],
    *[("cross-polytope", d, 2 ** d, d) for d in range(1, 10)],
    *[("simplex", d, d + 1, d) for d in range(1, 9)]])
def test_double_description_finds_the_known_facets(family, d, facets, size):
    # every facet of a d-cube holds 2^(d-1) vertices, of a cross-polytope d
    # and of a simplex d; each is met by no other vertex
    vs = {"cube": _cube, "cross-polytope": _cross,
          "simplex": lambda d: np.vstack([np.zeros(d), np.eye(d)])}[family](d)
    f = VPolytope(vs)._facets
    assert f.normals.shape == (facets, d + 1) and f.eq.shape == (0, d + 1)
    assert all(on.size == size for on in f.on)
    vals = f.normals @ VPolytope(vs).columns
    assert np.allclose(vals.max(axis=1), 1.0) and np.all(vals >= -1e-12)
    assert all(np.array_equal(np.flatnonzero(np.abs(v) <= 1e-12), on) for v, on in zip(vals, f.on))


def _same_facets(s, reference):
    """The form's facets against {on: normal} from facets_by_subsets."""
    f = s._facets
    assert sorted(tuple(on.tolist()) for on in f.on) == sorted(reference), s.columns.T.tolist()
    for on, h in zip(f.on, f.normals):
        assert np.allclose(h, reference[tuple(on.tolist())], rtol=1e-9, atol=1e-9)


def test_double_description_matches_the_subset_enumeration():
    # the facets, their normals and the columns on each, against every
    # (r-1)-subset of the columns; the 40 points in R^3 have 9,880 subsets
    rng = np.random.default_rng(71)
    forms = _random_forms(rng, dims=(2, 3, 4, 5))
    forms.append(VPolytope(np.random.default_rng(0).normal(size=(40, 3))))
    # cones that are a subspace: no facets, and a plane's one equality row
    forms += [VCone(_cross(3)), VCone(_cross(3)[[0, 1, 3, 4]])]
    for s in forms:
        _same_facets(s, facets_by_subsets(s.columns))
        assert np.allclose(np.abs(s._facets.eq @ s.columns), 0.0, atol=1e-12)


def test_double_description_does_not_depend_on_the_generator_order():
    rng = np.random.default_rng(72)
    for s in _random_forms(rng, dims=(2, 3, 4)) + [VPolytope(_cube(4)), VCone(_cross(3))]:
        gens = s.vertices if isinstance(s, VPolytope) else s.rays
        perm = rng.permutation(len(gens))
        t = type(s)(gens[perm])
        on = {tuple(sorted(perm[f].tolist())): h for f, h in zip(t._facets.on, t._facets.normals)}
        _same_facets(s, on)


def test_double_description_gives_up_early_above_the_ray_cap():
    # 40 Gaussian points in R^8 have 6,713 facets; the enumeration stops
    # at the cap without building the rays or pair tables past it
    s = VPolytope(np.random.default_rng(0).normal(size=(40, 8)))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert s._facets is None
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < 2.0 and peak < 64e6, (seconds, peak)


def test_facet_cap_falls_back_to_lp(monkeypatch):
    # every LP reaches the core through solvers, so a spy there sees them all
    import invarcheck.solvers as solvers_mod

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    real = solvers_mod.simplex_standard
    monkeypatch.setattr(solvers_mod, "simplex_standard", counted)
    xs = np.random.default_rng(43).normal(scale=0.11, size=(11, 12))
    small = VPolytope(_cross(4))  # 16 facets
    outside_violation_batch(small, xs[:4])
    assert calls == []
    big = VPolytope(_cross(11))  # 2,048 facets, above the cap
    viol = outside_violation_batch(big, xs)
    assert len(calls) == 12
    for x, v in zip(xs.T, viol):
        assert (membership(big, x) is Membership.OUTSIDE) == (v > 0.0)
    assert (np.abs(xs).sum(axis=0) > 1.0).any() and (np.abs(xs).sum(axis=0) < 1.0).any()
    for bp in sample_boundary(big, 30, seed=4):
        assert membership(big, bp.point) is Membership.BOUNDARY


def _l1_points(rng, n, radii, count=4):
    """count points of l1 norm r for each r in radii, random signs and
    weights (radius 1 is the cross-polytope's boundary), as columns, then
    the vertices e_1 and -e_n."""
    w = rng.dirichlet(np.ones(n), size=(len(radii) * count)).T
    x = rng.choice([-1.0, 1.0], size=w.shape) * w * np.repeat(radii, count)
    return np.hstack([x, np.eye(n)[:, :1], -np.eye(n)[:, -1:]])


def _above_cap_forms(rng):
    """Three V-forms in R^11 above the facet cap, each with points of every
    class: name -> (form, points as columns)."""
    inner = _l1_points(rng, 10, [0.5, 1.0, 1.5])
    return {
        "cross-polytope-R11": (VPolytope(_cross(11)), _l1_points(rng, 11, [0.5, 1.0, 1.5])),
        # the cone over the R^10 cross-polytope: (y, t) with |y|_1 <= t;
        # the points at t = -1 are outside
        "cross-cone-R11": (VCone(np.hstack([_cross(10), np.ones((20, 1))])),
                           np.vstack([np.hstack([inner, inner[:, :4]]),
                                      np.repeat([1.0, -1.0], [inner.shape[1], 4])[None, :]])),
        # the R^10 cross-polytope in the hyperplane x_11 = 0, and off it
        "flat-cross-R11": (VPolytope(np.hstack([_cross(10), np.zeros((20, 1))])),
                           np.vstack([np.hstack([inner, inner]),
                                      np.repeat([0.0, 0.3], inner.shape[1])[None, :]])),
    }


def test_lp_rows_above_the_facet_cap_are_the_membership_lp():
    # above the cap a V-form's slack rows are minus the membership LP's
    # margin and its infeasibility: one batch membership call classifies
    # every point as that LP does alone, and the violation is the LP's
    # infeasibility; every class occurs on each form, and points off the
    # span of the flat polytope are outside
    forms = _above_cap_forms(np.random.default_rng(67))
    for name, (s, x) in forms.items():
        assert s._facets is None, name
        cls = membership(s, x)
        assert list(cls) == [_lp_membership(s, x[:, k]) for k in range(x.shape[1])], name
        assert set(cls) == set(Membership), name
        viol = outside_violation_batch(s, x)
        assert np.array_equal(viol, [s._lp(x[:, k])[1] for k in range(x.shape[1])]), name
        assert np.array_equal(cls == Membership.OUTSIDE, viol > DEFAULT_TOL * s._scale(x)), name
    flat, x = forms["flat-cross-R11"]
    off = x[-1] != 0.0
    assert np.all(membership(flat, x)[off] == Membership.OUTSIDE)


def test_membership_lp_through_the_builder_matches_its_hand_layout():
    # the builder lays out a V-polytope's membership LP as it was laid out by
    # hand, so the values are the same bits; a V-cone's cap row now leads and
    # starts on its slack, so its values may move in the last digits, but no
    # class does. The forms' points at four seeds, every class at each
    for seed in (67, 71, 72, 73):
        for name, (s, x) in _above_cap_forms(np.random.default_rng(seed)).items():
            classes = set()
            for k in range(x.shape[1]):
                got, want = s._lp(x[:, k]), membership_lp_by_hand(s, x[:, k])
                if isinstance(s, VPolytope):
                    assert got == want, (seed, name, k)
                else:
                    assert np.allclose(got, want, rtol=1e-12, atol=0.0), (seed, name, k, got, want)
                band = DEFAULT_TOL * s._scale(x[:, k])
                cls = [(f > band, d <= band) for d, f in (got, want)]
                assert cls[0] == cls[1], (seed, name, k)
                classes.add(cls[0])
            assert len(classes) == 3, (seed, name)
    # the cross-cone with -e_11 added is all of R^11, yet above the cap at a
    # stage of the enumeration: its margin is bounded by the cap row alone,
    # so every point is inside at delta = cap(x)
    whole = VCone(np.vstack([np.hstack([_cross(10), np.ones((20, 1))]), -np.eye(11)[10:]]))
    assert whole._facets is None
    for x in np.random.default_rng(74).normal(size=(20, 11)):
        got, want = whole._lp(x), membership_lp_by_hand(whole, x)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), (x, got, want)
        assert got[0] == pytest.approx(whole._cap(x), rel=1e-12) and got[1] == 0.0


UNIT_SQUARE = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def test_membership_tangent_test_and_cone_agree_near_a_square_facet():
    # 1.5e-8 inside the facet x1 <= 1, beyond the band 1e-8: no facet binds,
    # so the point is inside, tangent_test passes the outward (1, 0) and the
    # tangent cone holds it; at 0.5e-8 the facet binds and both refute (1, 0)
    x, y = np.array([1.0 - 1.5e-8, 0.5]), np.array([1.0, 0.0])
    assert membership(UNIT_SQUARE, x, 1e-8) is Membership.INSIDE
    assert UNIT_SQUARE.tangent_test(x[:, None], y[:, None], 1e-8)[0][0]
    assert cone_test(tangent_cone_at(UNIT_SQUARE, x, 1e-8), y, 1e-8)[0]
    x = np.array([1.0 - 0.5e-8, 0.5])
    assert membership(UNIT_SQUARE, x, 1e-8) is Membership.BOUNDARY
    assert not UNIT_SQUARE.tangent_test(x[:, None], y[:, None], 1e-8)[0][0]
    assert cone_test(tangent_cone_at(UNIT_SQUARE, x, 1e-8), y, 1e-8) == (False, 0.5)


@pytest.mark.parametrize("s", [UNIT_SQUARE, TRIANGLE, VPolytope(_cube(3))],
                         ids=["square", "triangle", "cube"])
def test_facet_samples_are_boundary_at_zero_tolerance(s):
    # a face point's facet value is rounding alone; the band's floor
    # _FACE_TOL*|lift(x)| keeps it on the facet, as tangent_test reads it
    x = np.column_stack([bp.point for bp in sample_boundary(s, 1000, 0, tol=0.0)])
    assert np.all(membership(s, x, 0.0) == Membership.BOUNDARY)
    assert all(membership(s, p, 0.0) is Membership.BOUNDARY for p in x.T)


def test_faceted_membership_and_tangent_cone_solve_no_lp(monkeypatch):
    # the cone holds the facet rows, so building and testing it solves no LP
    import invarcheck.solvers as solvers_mod
    import invarcheck.tangent as tangent_mod

    def refuse(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(solvers_mod, "simplex_standard", refuse)
    monkeypatch.setattr(tangent_mod, "phase_one_feasibility", refuse)
    for s, x in [(UNIT_SQUARE, [1.0, 0.5]), (TRIANGLE, [0.0, 0.0]), (orthant_v(3), [0.0, 1.0, 2.0]),
                 (VPolytope(_cross(4)), [0.5, 0.5, 0.0, 0.0])]:
        assert membership(s, x) is Membership.BOUNDARY
        assert membership(s, np.array(x)[:, None])[0] is Membership.BOUNDARY
        t = tangent_cone_at(s, x)
        assert t.kind == "halfspaces"
        cone_test(t, np.ones(len(x)))


def _band_edge_points(s, rng, tol, count=40):
    """Face samples moved across the facet each is on to about its band
    edge, within the form's span: the facet's slack lands on -band, 0 or
    +band, each times 1 - 1e-6, 1 or 1 + 1e-6. Returns the points and the
    projection onto the span's directions."""
    f, n = s._facets, s.dim
    e = f.eq[:, :n]
    proj = np.eye(n) - np.linalg.pinv(e) @ e if e.size else np.eye(n)
    x0 = np.column_stack([bp.point for bp in sample_boundary(s, count, 1, tol)])
    slack = s._slack(x0)[:f.normals.shape[0]]
    i = slack.argmax(axis=0)  # the facet each sample is on
    out = -(proj @ f.normals[i, :n].T)  # lowers facet i's value at the rate below
    rate = np.einsum("ij,ji->i", f.normals[i, :n], out)
    c = rng.choice([-1.0, 0.0, 1.0], size=count) * rng.choice([1 - 1e-6, 1.0, 1 + 1e-6], size=count)
    return x0 + out * ((slack[i, np.arange(count)] - c * s._band(x0, tol)) / rate), proj


def test_vform_membership_violation_and_tangent_test_read_one_band():
    # on every form with facets, at points around a facet's band edge:
    # outside exactly when violation exceeds the band, and not inside
    # exactly when some facet binds in tangent_test, which then refutes the
    # direction out of that facet
    rng = np.random.default_rng(59)
    forms = [f for f in _random_forms(rng) if len(f._points) > 1 and f._facets.normals.size]
    forms += [UNIT_SQUARE, VPolytope(_cube(3)), orthant_v(3)]
    classes = set()
    for s in forms:
        for tol in (0.0, 1e-8, 1e-4):
            x, proj = _band_edge_points(s, rng, tol)
            cls = membership(s, x, tol)
            classes.update(cls.tolist())
            assert np.array_equal(cls == Membership.OUTSIDE,
                                  outside_violation_batch(s, x) > s._band(x, tol))
            binds = np.zeros(x.shape[1], bool)
            for g in s._facets.normals[:, :s.dim]:
                y = -(proj @ g)
                if np.linalg.norm(y) > 1e-3 * np.linalg.norm(g):
                    y = np.repeat((y / np.linalg.norm(y))[:, None], x.shape[1], axis=1)
                    binds |= ~s.tangent_test(x, y, tol)[0]
            assert np.array_equal(cls != Membership.INSIDE, binds), (s.TAG, tol)
    assert classes == set(Membership)


def test_facet_membership_matches_the_lp_away_from_the_band():
    # points around each form, in its span and on its boundary; a point with
    # a slack within a factor 100 of the band is left out, since there the
    # LP's margin and the facet values may judge apart
    rng = np.random.default_rng(61)
    checked = total = 0
    for tol in (1e-8, 1e-4):
        for s in _random_forms(rng):
            gens = s.vertices if isinstance(s, VPolytope) else s.rays
            xs = np.vstack([2.0 * rng.normal(size=(20, s.dim)),
                            rng.dirichlet(np.ones(len(gens)), size=20) @ gens
                            + 0.3 * rng.normal(size=(20, len(gens))) @ gens / len(gens),
                            [bp.point for bp in sample_boundary(s, 20, 1, tol)]]).T
            slack, band = np.abs(s._slack(xs)), s._band(xs, tol)
            far = ~np.any((slack > band / 100) & (slack < 100 * band), axis=0)
            cls = membership(s, xs, tol)
            for k in np.flatnonzero(far):
                assert cls[k] is _lp_membership(s, xs[:, k], tol), (s.TAG, xs[:, k].tolist())
            checked, total = checked + int(far.sum()), total + far.size
    assert checked > 0.9 * total


@pytest.mark.parametrize("s", [
    UNIT_BOX,
    orthant_h(3),
    TRIANGLE,
    VCone([[1.0, 0.2, 0.1], [0.3, 1.0, 0.0], [0.0, 0.4, 1.0]]),
    Ellipsoid([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 3.0]]),
    ICE3,
], ids=lambda s: type(s).__name__)
def test_membership_of_columns_matches_each_point(s):
    # boundary samples, points pushed in and out of the set, and the origin
    rng = np.random.default_rng(4)
    x = np.column_stack([bp.point for bp in sample_boundary(s, 30, seed=3)])
    x = np.hstack([x, 0.5 * x, 1.5 * x + rng.normal(scale=0.1, size=x.shape),
                   np.zeros((s.dim, 1))])
    classes = membership(s, x)
    assert list(classes) == [membership(s, x[:, k]) for k in range(x.shape[1])]
    assert set(classes) == set(Membership)
    with pytest.raises(DimensionMismatch):
        membership(s, np.zeros((s.dim + 1, 2)))


SQUARE = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0] * 4)
_EXPANDING = GeneralSystem(lambda t, x: x)
_DECAY = LinearSystem(-np.eye(2))  # the exact decider reads none of the options
_TOL_ENTRY_POINTS = {
    "sample_boundary": lambda tol: sample_boundary(SQUARE, 10, 0, tol),
    "membership": lambda tol: membership(SQUARE, [5.0, 5.0], tol),
    "active_constraints": lambda tol: active_constraints(SQUARE, [1.0, 0.5], tol),
    "tangent_cone_at": lambda tol: tangent_cone_at(SQUARE, [1.0, 0.5], tol),
    "cone_test": lambda tol: cone_test(tangent_cone_at(SQUARE, [1.0, 0.5]), [1.0, 0.0], tol),
    "check": lambda tol: check(SQUARE, _EXPANDING, n_samples=10, tol=tol),
    "check_linear": lambda tol: check(SQUARE, _DECAY, tol=tol),
    "falsify": lambda tol: falsify(SQUARE, _EXPANDING, 10, 0.1, 0.01, 0, tol=tol),
}
_SEED_ENTRY_POINTS = {
    "sample_boundary": lambda seed: sample_boundary(SQUARE, 10, seed),
    "check": lambda seed: check(SQUARE, _EXPANDING, n_samples=10, seed=seed),
    "check_linear": lambda seed: check(SQUARE, _DECAY, seed=seed),
    "falsify": lambda seed: falsify(SQUARE, _EXPANDING, 10, 0.1, 0.01, seed),
}


@pytest.mark.parametrize("entry, knob, value",
                         [(e, "tol", v) for e in _TOL_ENTRY_POINTS
                          for v in (math.nan, math.inf, -1.0)]
                         + [(e, "seed", -1) for e in _SEED_ENTRY_POINTS])
def test_bad_tolerance_or_seed_is_an_input_error(entry, knob, value):
    # each of these was accepted or misread before: tol = nan put (5, 5)
    # inside the square and an outward direction in its tangent cone, and
    # the linear check and active_constraints read no rule at all
    call = (_TOL_ENTRY_POINTS if knob == "tol" else _SEED_ENTRY_POINTS)[entry]
    with pytest.raises(InputError, match=f"^{knob}: "):
        call(value)
    call(DEFAULT_TOL if knob == "tol" else 0)  # a good value goes through


# entry -> (the name of its parameter, a call with that value, a good value)
_COUNT_AND_T0_ENTRY_POINTS = {
    "check-count": ("n_samples", lambda n: check(SQUARE, _EXPANDING, n_samples=n), 10),
    "check_linear-count": ("n_samples", lambda n: check(SQUARE, _DECAY, n_samples=n), 10),
    "falsify-count": ("n_starts", lambda n: falsify(SQUARE, _EXPANDING, n, 0.1, 0.01, 0), 10),
    "check-t0": ("t0", lambda t0: check(SQUARE, _EXPANDING, t0=t0, n_samples=10), 0.0),
    "check_linear-t0": ("t0", lambda t0: check(SQUARE, _DECAY, t0=t0), 0.0),
    "falsify-t0": ("t0", lambda t0: falsify(SQUARE, _EXPANDING, 10, 0.1, 0.01, 0, t0=t0), 0.0),
}


@pytest.mark.parametrize("entry, value",
                         [(e, v) for e in _COUNT_AND_T0_ENTRY_POINTS if e.endswith("count")
                          for v in (0, 2.5, True)]
                         + [(e, v) for e in _COUNT_AND_T0_ENTRY_POINTS if e.endswith("t0")
                            for v in (math.nan, math.inf)])
def test_bad_count_or_t0_is_an_input_error_naming_the_parameter(entry, value):
    # the linear check read neither, a sampled check read no t0, and falsify
    # named its sample count "count"
    name, call, good = _COUNT_AND_T0_ENTRY_POINTS[entry]
    with pytest.raises(InputError, match=f"^{name}: "):
        call(value)
    call(good)


_BAND_TOLS = (0.0, 1e-12, 1e-8, 1e-4)


def _ulp_moves(rng, x_on, copies=6):
    """x_on (n x N) and copies of it with each coordinate moved by -3..3 ulps."""
    x = np.tile(x_on, copies)
    steps = rng.integers(-3, 4, size=x.shape)
    for _ in range(3):
        x = np.where(steps > 0, np.nextafter(x, np.inf),
                     np.where(steps < 0, np.nextafter(x, -np.inf), x))
        steps -= np.sign(steps)
    return np.hstack([x_on, x])


@pytest.mark.parametrize("tol", _BAND_TOLS)
def test_halfspace_band_violation_and_binding_are_one_rule(tol):
    # points placed on a row's band edge (non-power-of-two 1 + |b|) and moved
    # by a few ulps: outside exactly when the violation exceeds tol, and a
    # row binds exactly when its scaled slack is within tol
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        g = rng.normal(size=(2 * n + 1, n))
        b = rng.uniform(0.1, 3.0, size=2 * n + 1) * 1.37
        p = HPolyhedron(g, b)
        rows = rng.integers(len(b), size=12)
        x0 = 0.2 * rng.normal(size=(n, 12))
        target = b[rows] + rng.choice([-1.0, 1.0], size=12) * tol * (1.0 + b[rows])
        x = _ulp_moves(rng, x0 + g[rows].T * (target - np.sum(g[rows].T * x0, axis=0))
                       / np.sum(g[rows] ** 2, axis=1))
        slack = (g @ x - b[:, None]) / (1.0 + np.abs(b))[:, None]
        viol = outside_violation_batch(p, x)
        assert np.array_equal(viol, np.maximum(slack.max(axis=0), 0.0))
        assert np.array_equal(membership(p, x, tol) == Membership.OUTSIDE, viol > tol)
        assert np.array_equal(p._binding(x, tol), np.abs(slack) <= tol)
        for k in range(0, x.shape[1], 7):
            # one point's product may round apart from the batch's: its own slack
            one = (g @ x[:, k] - b) / (1.0 + np.abs(b))
            assert (active_constraints(p, x[:, k], tol)
                    == np.flatnonzero(np.abs(one) <= tol).tolist())
            assert (membership(p, x[:, k], tol) is Membership.OUTSIDE) == (one.max() > tol)


@pytest.mark.parametrize("tol", _BAND_TOLS)
def test_quadric_band_and_violation_are_one_rule(tol):
    # an ellipsoid's band is 2*tol on x'Qx - 1, a Lorenz cone's tol on each
    # of its two scaled conditions; points on the surface, scaled to the
    # band edge, reflected onto the other branch and moved by a few ulps
    rng = np.random.default_rng(59)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a = rng.normal(size=(n, n))
        ell = Ellipsoid(a @ a.T + 0.2 * np.eye(n))
        u = np.linalg.qr(rng.normal(size=(n, n)))[0]
        cone = LorenzCone(u @ np.diag(np.concatenate([rng.uniform(0.3, 3.0, n - 1),
                                                      [-rng.uniform(0.3, 3.0)]])) @ u.T)
        on = np.array([bp.point for bp in sample_boundary(ell, 20, seed=3)]).T
        x = _ulp_moves(rng, on * np.sqrt(1.0 + rng.choice([-2.0, 2.0], size=20) * tol))
        assert np.array_equal(membership(ell, x, tol) == Membership.OUTSIDE,
                              outside_violation_batch(ell, x) > 2.0 * tol)
        on = np.array([bp.point for bp in sample_boundary(cone, 20, seed=3)]).T
        axial = np.outer(cone.u_n, cone.u_n @ on)
        q_off = np.sum((on - axial) * (cone.Q @ (on - axial)), axis=0)
        eps = rng.choice([-1.0, 1.0], size=20) * tol * (1.0 + np.sum(on * on, axis=0))
        edge = axial + (on - axial) * (1.0 + eps / (2.0 * np.where(q_off > 0, q_off, 1.0)))
        x = _ulp_moves(rng, np.hstack([edge, -edge, 1e-6 * rng.normal(size=(n, 20))]))
        assert np.array_equal(membership(cone, x, tol) == Membership.OUTSIDE,
                              outside_violation_batch(cone, x) > tol)


@pytest.mark.parametrize("s", [
    UNIT_BOX, orthant_h(3), TRIANGLE, orthant_v(3), Ellipsoid(np.diag([1.0, 4.0])), ICE3,
    VPolytope([[1.0, 2.0]]), VCone([[1.0, 1.0]]),
    VPolytope(_cross(11)),
], ids=["hpolyhedron", "orthant", "vpolytope", "vcone", "ellipsoid", "lorenz",
        "one-vertex", "one-ray", "vpolytope-without-facets"])
@pytest.mark.parametrize("count", [1, 7])
def test_every_sampler_returns_one_array_that_sample_boundary_wraps(s, count):
    rows = s.sample(count, np.random.default_rng(5), DEFAULT_TOL)
    assert isinstance(rows, np.ndarray) and rows.dtype == float
    assert rows.shape == (count, s.dim)
    pts = sample_boundary(s, count, seed=5)
    assert all(type(bp) is BoundaryPoint for bp in pts)
    assert np.array_equal(np.array([bp.point for bp in pts]), rows)
