import json
from pathlib import Path

import numpy as np
import pytest

from invarcheck.checkers import Decision, check
from invarcheck.cli import set_from_dict
from invarcheck.errors import DimensionMismatch, NotMember
from invarcheck.sets import (
    Ellipsoid,
    HPolyhedron,
    LorenzCone,
    VCone,
    VPolytope,
    orthant_h,
    orthant_v,
    sample_boundary,
)
from invarcheck.solvers import nnls
from invarcheck.systems import GeneralSystem
from invarcheck.tangent import (
    FULLSPACE,
    GENERATED,
    HALFSPACES,
    QUADRATIC,
    SELF_CONE,
    cone_contains,
    cone_test,
    tangent_cone_at,
)

from oracles import dist_to_polytope_bruteforce, dist_to_quadric_sublevel, project_box
from test_sampled import _battery_sets

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

UNIT_BOX = HPolyhedron(
    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
    [1.0, 1.0, 0.0, 0.0],
)
TRIANGLE = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
ICE3 = LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 0.0, 1.0])


def test_box_single_facet():
    t = tangent_cone_at(UNIT_BOX, [1.0, 0.5])
    assert t.kind == HALFSPACES
    assert np.allclose(t.normals, [[1.0, 0.0]])
    assert cone_contains(t, [-1.0, 7.0])
    assert not cone_contains(t, [0.5, 0.0])


def test_box_corner_two_facets():
    t = tangent_cone_at(UNIT_BOX, [1.0, 1.0])
    assert t.normals.shape == (2, 2)
    assert cone_contains(t, [-0.3, -0.4])
    assert not cone_contains(t, [0.1, -1.0])


def test_box_interior_fullspace():
    t = tangent_cone_at(UNIT_BOX, [0.5, 0.5])
    assert t.kind == FULLSPACE
    assert cone_contains(t, [100.0, -100.0])


def test_orthant_h_face():
    t = tangent_cone_at(orthant_h(2), [0.0, 3.0])
    # the active row is -x1 <= 0, so the cone is y1 >= 0
    assert cone_contains(t, [1.0, -5.0])
    assert not cone_contains(t, [-1.0, 0.0])


def test_tangent_h_rejects_outside_point():
    with pytest.raises(NotMember):
        tangent_cone_at(UNIT_BOX, [2.0, 0.0])


@pytest.mark.parametrize("s,outside,interior", [
    (UNIT_BOX, [2.0, 0.0], [0.5, 0.5]),
    (orthant_h(2), [-1.0, 1.0], [1.0, 1.0]),
    (TRIANGLE, [5.0, 5.0], [0.25, 0.25]),
    (orthant_v(2), [-1.0, 1.0], [1.0, 1.0]),
    (Ellipsoid(np.eye(2)), [5.0, 5.0], [0.1, 0.2]),
    (ICE3, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
    (ICE3, [0.0, 0.0, -1.0], [0.1, 0.0, 1.0]),
], ids=["hpolyhedron", "orthant", "vpolytope", "vcone", "ellipsoid", "lorenz", "lorenz-branch"])
def test_every_family_rejects_an_outside_point(s, outside, interior):
    # the one membership check runs before the family's cone is built; a
    # point inside the set still gets its cone (the whole space on an H-form)
    with pytest.raises(NotMember, match="outside the set"):
        tangent_cone_at(s, outside)
    t = tangent_cone_at(s, interior)
    if isinstance(s, HPolyhedron):
        assert t.kind == FULLSPACE and t.normals.shape == (0, 2)


def test_polytope_simplex_corner():
    # the facets through the vertex bind: their outward rows, exact and
    # without -0.0, as the batch test reads them
    t = tangent_cone_at(TRIANGLE, [0.0, 0.0])
    assert t.kind == HALFSPACES
    assert _same_bits(t.normals, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert cone_contains(t, [2.0, 3.0])
    assert not cone_contains(t, [-1.0, 0.0])


def test_polytope_segment_endpoint():
    # the endpoint's facet, and the equality row of the segment's line both ways
    seg = VPolytope([[0.0, 0.0], [2.0, 0.0]])
    t = tangent_cone_at(seg, [2.0, 0.0])
    assert t.kind == HALFSPACES
    assert t.normals.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    assert cone_contains(t, [-1.0, 0.0])
    assert not cone_contains(t, [1.0, 0.0])
    assert not cone_contains(t, [-1.0, 0.5])


def test_polytope_square_corner_rows():
    square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    t = tangent_cone_at(square, [1.0, 1.0])
    assert t.kind == HALFSPACES
    assert sorted(map(tuple, t.normals.tolist())) == [(0.0, 1.0), (1.0, 0.0)]


def test_vcone_orthant_edge():
    t = tangent_cone_at(orthant_v(2), [1.0, 0.0])
    # free coefficient on e1, nonnegative on e2: the upper halfplane
    assert cone_contains(t, [-3.0, 0.5])
    assert cone_contains(t, [5.0, 0.0])
    assert not cone_contains(t, [0.0, -0.1])


def test_vcone_orthant_general_n():
    cone = orthant_v(3)
    t = tangent_cone_at(cone, [0.0, 1.0, 0.0])
    assert cone_contains(t, [0.2, -9.0, 0.0])
    assert not cone_contains(t, [-0.2, 1.0, 0.0])


def test_vcone_single_ray_line():
    t = tangent_cone_at(VCone([[1.0, 1.0]]), [1.0, 1.0])
    assert cone_contains(t, [-2.0, -2.0])
    assert cone_contains(t, [3.0, 3.0])
    assert not cone_contains(t, [1.0, 0.0])


def test_quadratic_circle_point():
    t = tangent_cone_at(Ellipsoid(np.eye(2)), [1.0, 0.0])
    assert t.kind == QUADRATIC
    assert np.allclose(t.normals[0], [1.0, 0.0])
    assert cone_contains(t, [-1.0, 4.0])
    assert not cone_contains(t, [1.0, 0.0])


def test_quadratic_scaled_ellipse():
    t = tangent_cone_at(Ellipsoid(np.diag([1.0, 4.0])), [0.0, 0.5])
    assert np.allclose(t.normals[0], [0.0, 2.0])


def test_quadratic_lorenz_345():
    t = tangent_cone_at(ICE3, [3.0, 4.0, 5.0])
    assert np.allclose(t.normals[0], [3.0, 4.0, -5.0])
    assert cone_contains(t, [0.0, 0.0, 1.0])
    assert not cone_contains(t, [1.0, 0.0, 0.0])


def test_apex_dispatch_is_cone_itself():
    bp = sample_boundary(ICE3, 1, seed=0)[0]
    assert not np.any(bp.point)
    t = tangent_cone_at(ICE3, bp.point)
    assert t.kind == SELF_CONE
    assert cone_contains(t, [0.0, 0.0, 2.0])
    assert not cone_contains(t, [1.0, 0.0, 0.0])


def _shipped_set(name):
    return set_from_dict(json.loads((PROBLEMS / name).read_text(encoding="utf-8"))["set"])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _cross(n):
    return np.vstack([np.eye(n), -np.eye(n)])


# 1,024 facets each: above the facet cap, so their tangent cones are generated
CROSS10 = VPolytope(_cross(10))
CROSS_CONE11 = VCone(np.hstack([_cross(10), np.ones((20, 1))]))


def test_vertex_cones_are_the_edges_out_of_the_vertex():
    # above the facet cap the cone at any point x is generated by V - x, bit
    # for bit: at vertex i, the differences to the other vertices (a superset
    # of the edges out of it) and its own zero row
    s = CROSS10
    assert s._facets is None
    v = s.vertices
    for i in (0, 7, 13):
        for x in (v[i], v[i] + 1e-10):
            t = tangent_cone_at(s, x)
            assert t.kind == GENERATED and t.free_generator is None
            assert _same_bits(t.generators, v - x), i
        t = tangent_cone_at(s, v[i])
        assert cone_contains(t, -v[i]) and cone_contains(t, v[(i + 1) % 20] - v[i])
        assert not cone_contains(t, v[i])


def test_ray_cones_free_their_ray():
    # above the facet cap the cone at x is all rays plus x sign-free, bit for
    # bit: along ray i, the ray enters both ways
    s = CROSS_CONE11
    assert s._facets is None
    r = s.rays
    for i in (0, 7, 13):
        for x in (r[i], 2.5 * r[i]):
            t = tangent_cone_at(s, x)
            assert t.kind == GENERATED
            assert _same_bits(t.generators, r) and _same_bits(t.free_generator, x)
        t = tangent_cone_at(s, r[i])
        assert cone_contains(t, r[i]) and cone_contains(t, -r[i])
        assert not cone_contains(t, -r[(i + 10) % 20])


def test_edge_points_get_the_general_cone():
    # on a form with facets an edge point gets the rows of the facets through
    # it; above the cap, the same generated cone as at a vertex
    triangle = _shipped_set("vpolytope_triangle.json")
    t = tangent_cone_at(triangle, [0.5, 0.5])
    assert t.kind == HALFSPACES and np.allclose(t.normals, [[0.5 ** 0.5, 0.5 ** 0.5]])
    assert cone_contains(t, [-1.0, 1.0]) and not cone_contains(t, [1.0, 1.0])
    x = 0.5 * (CROSS10.vertices[0] + CROSS10.vertices[1])
    t = tangent_cone_at(CROSS10, x)
    assert t.kind == GENERATED and _same_bits(t.generators, CROSS10.vertices - x)
    assert cone_contains(t, -x) and not cone_contains(t, x)


def test_tangent_cone_agrees_with_the_batch_test_on_every_vertex_and_ray_form():
    # the cone of a form with facets holds the rows tangent_test reads at the
    # point, so the two decide every sample alike
    forms = [s for s in _battery_sets(np.random.default_rng(2024))
             if isinstance(s, (VPolytope, VCone))]
    forms += [_shipped_set("vpolytope_triangle.json"), _shipped_set("vcone_exchange.json")]
    rng = np.random.default_rng(83)
    flags = []
    for s in forms:
        x = np.column_stack([bp.point for bp in sample_boundary(s, 300, seed=5)])
        y = rng.normal(size=x.shape)
        batch = s.tangent_test(x, y, 1e-8)[0]
        for k in range(x.shape[1]):
            assert cone_test(tangent_cone_at(s, x[:, k]), y[:, k])[0] == batch[k], (s.TAG, k)
        flags += batch.tolist()
    assert len(forms) == 34 and len(flags) == 10200 and 0 < sum(flags) < len(flags)


def test_rounding_does_not_refute_at_the_apex_at_zero_tolerance():
    # c lies on the cone's surface, so x' = c keeps the cone invariant; its
    # violation at the apex, 7.4e-17, is rounding and must not refute
    c = np.array([-0.3795520407796806, -0.925170388814936, 1.0])
    v = check(ICE3, GeneralSystem(lambda t, x: c + 0 * x), n_samples=50, seed=0, tol=0.0)
    assert v.decision is Decision.UNKNOWN
    inside, residual = cone_test(tangent_cone_at(ICE3, [0.0, 0.0, 0.0], 0.0), c, 0.0)
    assert inside is True and residual < 1e-15
    out = np.array([1.0, 0.0, 0.0])
    v = check(ICE3, GeneralSystem(lambda t, x: out + 0 * x), n_samples=50, seed=0, tol=0.0)
    assert v.decision is Decision.NOT_INVARIANT
    assert not np.any(v.counterexample.point) and v.counterexample.violation == 0.5
    assert cone_test(tangent_cone_at(ICE3, [0.0, 0.0, 0.0], 0.0), out, 0.0) == (False, 0.5)


def test_positive_homogeneity():
    rng = np.random.default_rng(51)
    cones = [
        tangent_cone_at(UNIT_BOX, [1.0, 1.0]),
        tangent_cone_at(TRIANGLE, [0.0, 0.0]),
        tangent_cone_at(orthant_v(2), [0.0, 1.0]),
        tangent_cone_at(Ellipsoid(np.eye(2)), [1.0, 0.0]),
    ]
    for t in cones:
        for _ in range(40):
            y = rng.normal(size=2)
            base = cone_contains(t, y, 1e-8)
            for lam in (0.5, 2.0, 10.0):
                assert cone_contains(t, lam * y, 1e-8) == base


def test_square_corner_h_equals_v():
    square_v = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    th = tangent_cone_at(UNIT_BOX, [1.0, 1.0])
    tv = tangent_cone_at(square_v, [1.0, 1.0])
    rng = np.random.default_rng(61)
    for _ in range(1000):
        y = rng.normal(size=2)
        a = cone_contains(th, y, 1e-8)
        b = cone_contains(tv, y, 1e-8)
        if a != b:
            # disagreements may only happen within the tolerance band
            margin = max(abs(y[0]), abs(y[1])) * 1e-7
            assert min(abs(y[0]), abs(y[1])) <= margin, y
            continue
        assert a == b


def _dist_oracle(s, p):
    if isinstance(s, HPolyhedron):  # the unit box in these tests
        return float(np.linalg.norm(project_box(0.0, 1.0, p) - p))
    if isinstance(s, VPolytope):
        return dist_to_polytope_bruteforce(s.vertices, p)
    if isinstance(s, VCone):
        beta = nnls(s.rays.T, p)
        return float(np.linalg.norm(s.rays.T @ beta - p))
    if isinstance(s, Ellipsoid):
        return dist_to_quadric_sublevel(s.Q, 1.0, p)
    if isinstance(s, LorenzCone):
        return dist_to_quadric_sublevel(s.Q, 0.0, p, branch_vec=s.u_n)
    raise AssertionError


def test_limit_definition_consistency():
    # cone membership must match the finite-t distance-quotient behaviour of
    # the underlying set, outside the indeterminate band
    sets = [
        UNIT_BOX,
        TRIANGLE,
        orthant_v(2),
        Ellipsoid(np.diag([1.0, 4.0])),
        ICE3,
    ]
    rng = np.random.default_rng(71)
    checked = 0
    for s in sets:
        pts = sample_boundary(s, 4, seed=17)
        for bp in pts:
            if isinstance(s, LorenzCone) and LorenzCone.at_apex(bp.point):
                continue
            t_cone = tangent_cone_at(s, bp.point)
            for _ in range(4):
                y = rng.normal(size=s.dim)
                y /= np.linalg.norm(y)
                quotients = [
                    _dist_oracle(s, bp.point + step * y) / step
                    for step in (1e-2, 1e-3, 1e-4)
                ]
                m_max, m_min = max(quotients), min(quotients)
                if m_max <= 1e-4:
                    assert cone_contains(t_cone, y, 1e-7), (type(s).__name__, bp.point, y)
                    checked += 1
                elif m_min >= 1e-2:
                    assert not cone_contains(t_cone, y, 1e-7), (type(s).__name__, bp.point, y)
                    checked += 1
    assert checked >= 40


@pytest.mark.parametrize("s, point", [
    (UNIT_BOX, [1.0, 1.0]),
    (UNIT_BOX, [0.5, 0.5]),
    (TRIANGLE, [1.0, 0.0]),
    (TRIANGLE, [0.5, 0.0]),
    (orthant_v(2), [1.0, 0.0]),
    (Ellipsoid(np.eye(2)), [1.0, 0.0]),
    (ICE3, [0.6, 0.8, 1.0]),
    (ICE3, [0.0, 0.0, 0.0]),
], ids=["box-corner", "box-interior", "vertex", "polytope-edge", "ray", "ellipsoid",
        "lorenz-surface", "lorenz-apex"])
def test_points_and_directions_of_another_size_are_dimension_mismatches(s, point):
    # every family, and every cone kind, checks the size once at the entry
    # point instead of failing inside numpy
    wrong = [0.5] * (len(point) + 1)
    with pytest.raises(DimensionMismatch):
        tangent_cone_at(s, wrong)
    t = tangent_cone_at(s, point)
    for y in (wrong, wrong[:-2]):
        with pytest.raises(DimensionMismatch):
            cone_test(t, y)
        with pytest.raises(DimensionMismatch):
            cone_contains(t, y)
    assert cone_contains(t, np.zeros(len(point)))
