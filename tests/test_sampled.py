"""The sampled Nagumo check, which decides all samples in one batch.

The reference is the per-sample loop it replaced (oracles.sampled_nagumo_per_sample).
"""

import itertools
import math

import numpy as np
import pytest

from invarcheck import tangent
from invarcheck.checkers import Decision, check, check_nonlinear_sampled
from invarcheck.sets import (
    DEFAULT_TOL,
    BoundaryPoint,
    Ellipsoid,
    HPolyhedron,
    LorenzCone,
    Orthant,
    VCone,
    VPolytope,
    orthant_v,
    sample_boundary,
)
from invarcheck.systems import GeneralSystem, LinearSystem

from oracles import sampled_nagumo_per_sample


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _battery_sets(rng):
    """Every family in dimensions 1 to 4, with degenerate vertex and ray forms:
    flat polytopes, segments, one vertex, one ray, cones with a line, a
    subspace cone."""
    out = [HPolyhedron([[1.0], [-1.0]], [1.0, 1.0]), VPolytope([[-1.0], [2.0]])]
    for n in (2, 3, 4):
        g = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(3, n))])
        out.append(HPolyhedron(g, np.concatenate([np.ones(2 * n), rng.uniform(0.5, 1.5, 3)])))
        out.append(HPolyhedron(rng.normal(size=(n, n)), np.zeros(n)))  # a simplicial cone
        out.append(HPolyhedron(rng.normal(size=(1, n)), [0.5]))  # a halfspace
        out.append(Orthant(n))
        out.append(VPolytope(rng.normal(size=(n + 1, n))))  # a simplex
        out.append(VPolytope(rng.normal(size=(n + 4, n))))  # interior points too
        out.append(VPolytope(rng.normal(size=(2, n))))  # a segment
        out.append(VPolytope(rng.normal(size=(1, n))))  # one vertex
        if n >= 3:
            out.append(VPolytope(rng.normal(size=(3, n))))  # a flat triangle
            out.append(VPolytope(rng.normal(size=(n, n)) @ np.diag([1.0] * (n - 1) + [0.0])))
        axis = _rotation(rng, n)[:, 0]
        out.append(VCone(rng.normal(size=(n + 2, n)) * 0.4 + axis))  # pointed
        out.append(VCone([axis]))  # one ray
        e = np.eye(n)
        out.append(VCone(np.vstack([e[0], -e[0], e[1:]]) @ _rotation(rng, n).T))  # has a line
        out.append(VCone(np.vstack([e[0], -e[0]])))  # a line, no relative boundary
        out.append(orthant_v(n))
        rot = _rotation(rng, n)
        out.append(Ellipsoid(rot @ np.diag(rng.uniform(0.3, 3.0, n)) @ rot.T))
        w = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [-rng.uniform(0.5, 2.0)]])
        out.append(LorenzCone(rot @ np.diag(w) @ rot.T))
    return out


def _battery_fields(rng, n):
    a = rng.normal(size=(n, n))
    b = rng.normal(size=n)
    return [
        LinearSystem(a),
        GeneralSystem(lambda t, x: -x, vectorized=True),
        GeneralSystem(lambda t, x: 0.3 * x - x * x[::-1] + b.reshape((-1,) + (1,) * (x.ndim - 1)),
                      vectorized=True),
    ]


def _scaled(s, c):
    """The vertex or ray form s scaled by c; its tangent cone at c x is the
    one of s at x."""
    return VPolytope(s.vertices * c) if isinstance(s, VPolytope) else VCone(s.rays * c)


def test_batch_matches_per_sample_loop_on_every_family():
    # same decision per sample wherever neither residual lies just past tol
    # (within 10 tol of it), and the same first counterexample. Vertex and
    # ray forms are also tested scaled by 1e-3 and 1e4, against the
    # reference on the unscaled form at x / c, since the reference LP's
    # pivot tolerances are absolute
    tol = DEFAULT_TOL
    rng = np.random.default_rng(2024)
    compared = ambiguous = refuted = passed = 0
    for s in _battery_sets(rng):
        for f, sys in enumerate(_battery_fields(rng, s.dim)):
            for c in (1.0, 1e-3, 1e4) if isinstance(s, (VPolytope, VCone)) else (1.0,):
                t = s if c == 1.0 else _scaled(s, c)
                samples = sample_boundary(t, 80, seed=f, tol=tol)
                x = np.column_stack([bp.point for bp in samples])
                y = sys.field(0.0, x)
                ref = sampled_nagumo_per_sample(
                    s, GeneralSystem(lambda _, z: sys.field(0.0, c * z)), 0.0,
                    [BoundaryPoint(bp.point / c) for bp in samples], tol)
                inside, residual = t.tangent_test(x, y, tol)
                first = None
                for k, ((ref_in, ref_r), new_in, new_r) in enumerate(zip(ref, inside, residual)):
                    if any(0.5 * tol < r <= 11 * tol for r in (ref_r, new_r)):
                        ambiguous += 1
                        if first is None:
                            first = "ambiguous"
                        continue
                    compared += 1
                    passed += ref_in
                    assert bool(new_in) == ref_in, (type(t).__name__, c, samples[k], ref_r, new_r)
                    if not ref_in and first is None:
                        first = k
                verdict = check_nonlinear_sampled(t, sys, 0.0, 80, f, tol)
                if first == "ambiguous":
                    continue
                if first is None:
                    assert verdict.decision is Decision.UNKNOWN, type(t).__name__
                else:
                    refuted += 1
                    assert verdict.decision is Decision.NOT_INVARIANT
                    assert np.array_equal(verdict.counterexample.point, samples[first].point)
    assert compared >= 27000 and ambiguous <= compared // 100
    assert refuted >= 240 and passed >= 12000


def test_five_cube_sampled_check_runs_on_facets(monkeypatch):
    # 32 vertices in R^5 but 10 facets: the default sampled check reads them
    # and solves no LP per sample
    s = VPolytope(np.array(list(itertools.product([-1.0, 1.0], repeat=5))))
    calls = []
    real = tangent._cone_at
    monkeypatch.setattr(tangent, "_cone_at",
                        lambda *args: calls.append(1) or real(*args))
    v = check(s, GeneralSystem(lambda t, x: -x ** 3, vectorized=True))
    assert v.decision is Decision.UNKNOWN and calls == []
    assert s._facets is not None and s._facets.normals.shape == (10, 6)


def test_vertex_form_above_the_facet_cap_takes_the_lp_path(monkeypatch):
    # the cross-polytope in R^11 has 2,048 facets, more than the facet
    # enumeration holds: each sample is decided by its own LP
    s = VPolytope(np.vstack([np.eye(11), -np.eye(11)]))
    assert s._facets is None
    calls = []
    real = tangent._cone_at
    monkeypatch.setattr(tangent, "_cone_at",
                        lambda *args: calls.append(1) or real(*args))
    contracting = GeneralSystem(lambda t, x: -x, vectorized=True)
    v = check_nonlinear_sampled(s, contracting, 0.0, 25, seed=0)
    assert v.decision is Decision.UNKNOWN and len(calls) == 25
    samples = sample_boundary(s, 25, seed=0)
    assert all(inside for inside, _ in
               sampled_nagumo_per_sample(s, contracting, 0.0, samples, DEFAULT_TOL))
    expanding = GeneralSystem(lambda t, x: x, vectorized=True)
    v = check_nonlinear_sampled(s, expanding, 0.0, 25, seed=0)
    ref = sampled_nagumo_per_sample(s, expanding, 0.0, samples, DEFAULT_TOL)
    k = next(k for k, (inside, _) in enumerate(ref) if not inside)
    assert v.decision is Decision.NOT_INVARIANT
    assert np.array_equal(v.counterexample.point, samples[k].point)
    assert v.counterexample.violation == pytest.approx(
        ref[k][1] * (1.0 + np.linalg.norm(samples[k].point)), rel=1e-12)


def test_unvectorised_field_takes_a_batch_column_by_column():
    # -x ||x|| on a 2 x 3 batch: each column's own norm, not the batch's
    # Frobenius norm, which the evaluator computes if handed the whole batch
    sys = GeneralSystem(lambda t, x: -x * np.linalg.norm(x))
    x = np.array([[1.0, 0.0, 3.0], [2.0, -1.0, 4.0]])
    columns = np.column_stack([sys.field(0.0, x[:, k]) for k in range(3)])
    assert np.array_equal(sys.field(0.0, x), columns)
    assert np.array_equal(columns, [[-5.0 ** 0.5, 0.0, -15.0], [-2.0 * 5.0 ** 0.5, 1.0, -20.0]])


@pytest.mark.parametrize("s", [
    HPolyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 1.0, 1.0, 1.0]),
    Orthant(2),
    VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    VCone([[1.0, 0.2], [0.3, 1.0]]),
    Ellipsoid([[2.0, 0.3], [0.3, 1.0]]),
    LorenzCone([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
], ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("c", [-1.0, 0.5])
def test_unvectorised_system_gets_the_vectorised_verdict(s, c):
    def field(t, x):
        return c * x + np.roll(x, 1, axis=0) * 0.7 - x * x * 0.1

    one = GeneralSystem(field)
    batch = GeneralSystem(field, vectorized=True)
    v1 = check_nonlinear_sampled(s, one, 0.0, 200, seed=5)
    v2 = check_nonlinear_sampled(s, batch, 0.0, 200, seed=5)
    assert v1.decision == v2.decision
    assert v1.notes == v2.notes
    if v1.counterexample is not None:
        assert np.array_equal(v1.counterexample.point, v2.counterexample.point)
        assert v1.counterexample.violation == v2.counterexample.violation


@pytest.mark.parametrize("width", [1e-3, 1.0, 1e4])
def test_vertex_form_refutation_does_not_depend_on_the_set_size(width):
    # a square whose field leaves through the right facet at speed 1e-4 but
    # is tangent at the vertices, so only the sampled check can refute it
    square = VPolytope(width * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))

    def field(t, x):
        return np.stack([1e-4 * (1.0 - (x[1] / width) ** 2), 0.0 * x[0]])

    v = check(square, GeneralSystem(field, vectorized=True), n_samples=50, seed=0)
    assert v.decision is Decision.NOT_INVARIANT
    point = v.counterexample.point
    assert point[0] == pytest.approx(width)
    flux = field(0.0, point)[0]
    assert v.counterexample.violation == pytest.approx(flux / (1.0 + flux), rel=1e-12)


@pytest.mark.parametrize("tol, decision", [
    (0.0, Decision.NOT_INVARIANT), (1e-12, Decision.NOT_INVARIANT),
    (1e-8, Decision.NOT_INVARIANT), (1e-3, Decision.UNKNOWN)])
def test_face_samples_bind_their_facet_at_every_tolerance(tol, decision):
    # a face sample binds its facet even at tol = 0, where only the _FACE_TOL
    # floor absorbs the rounding of its facet value: the square's field
    # leaves the right facet at speed 1e-4, below a tolerance of 1e-3
    square = VPolytope([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])

    def field(t, x):
        return np.stack([1e-4 * (1.0 - x[1] ** 2), 0.0 * x[0]])

    v = check(square, GeneralSystem(field, vectorized=True), n_samples=50, seed=0, tol=tol)
    assert v.decision is decision
    # points of the right facet, a few rounding steps inside, where every
    # facet value is positive: the floor still binds the right facet there
    right = np.array([[1.0 - 4e-16] * 5, np.linspace(-0.9, 0.6, 5)])
    assert np.all(np.min(square._facets.normals @ np.vstack([right, np.ones(5)]), axis=0) > 0.0)
    inside, _ = square.tangent_test(right, np.tile([[1.0], [0.0]], 5), tol)
    assert not np.any(inside)


def test_sampled_check_reports_the_first_of_several_refutations():
    # the box under x' = x refutes at every sample; the first one wins
    box = HPolyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0] * 4)
    v = check_nonlinear_sampled(box, GeneralSystem(lambda t, x: x, vectorized=True),
                                0.0, 50, seed=1)
    first = sample_boundary(box, 50, seed=1)[0]
    assert np.array_equal(v.counterexample.point, first.point)


def test_halfspace_residuals_match_one_row_at_a_time():
    # cone_test is the one-sample case of the batch formula: on halfspace and
    # quadratic cones it gives the row-by-row residual up to rounding
    rng = np.random.default_rng(8)
    for n, m in itertools.product((2, 3, 5), (1, 2, 4)):
        rows = rng.normal(size=(m, n))
        for _ in range(20):
            y = rng.normal(size=n)
            inside, worst = tangent.cone_test(tangent.TangentCone(tangent.HALFSPACES,
                                                                  normals=rows), y)
            ratios = [float(g @ y) / (1.0 + np.linalg.norm(g) * np.linalg.norm(y)) for g in rows]
            assert worst == pytest.approx(max(0.0, *ratios), rel=1e-12, abs=1e-15)
            assert inside == (max(ratios) <= DEFAULT_TOL)


@pytest.mark.parametrize("form", ["vpolytope", "hpolyhedron"])
@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
def test_rounding_does_not_refute_at_zero_tolerance(theta, form):
    # x' = R diag(-1, 0) R' x on the square R[-1, 1]^2 is invariant: it is
    # tangent to two facets and enters through the other two. At tol = 0
    # the rounding of R leaves fluxes of 1e-17 to 2e-16 on the tangent
    # facets, which must not refute
    r = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    m = r @ np.diag([-1.0, 0.0]) @ r.T
    if form == "vpolytope":
        s = VPolytope(np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) @ r.T)
    else:
        s = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]) @ r.T, np.ones(4))
    v = check(s, GeneralSystem(lambda t, x: m @ x), tol=0.0)
    assert v.decision is Decision.UNKNOWN
