"""Exact verdicts under a uniform scale of A.

Scaling A by c > 0 only rescales time, so the set is invariant under c*A
exactly when it is under A. The exact deciders decide on A scaled by a
power of two into [1, 2) and scale every value linear in A back, so at
c = 2^k each such value is exactly 2^k times its value at c = 1, and every
other reported value is the same.
"""

import math

import numpy as np
import pytest

from invarcheck.checkers import Decision, check
from invarcheck.expressions import build_expression_system
from invarcheck.sets import Ellipsoid, HPolyhedron, LorenzCone, VCone, VPolytope
from invarcheck.systems import LinearSystem

SCALES = (2.0 ** -40, 1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e12)
_LINEAR_KEYS = {"optimum", "violation", "alpha", "eta", "witness_max_eig", "min_offdiagonal",
                "pencil_max_eig", "certificate_gap"}


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, n):
    u = _orthogonal(rng, n)
    return u @ np.diag(rng.uniform(0.5, 2.0, n)) @ u.T


def _dominant(rng, n, invariant, axis):
    """A whose log-norm in the inf-norm (axis=1) or 1-norm (axis=0) is
    negative, or positive in exactly one row or column."""
    a = rng.normal(size=(n, n)) / np.sqrt(n)
    np.fill_diagonal(a, 0.0)
    margin = rng.uniform(0.1, 1.0, n)
    if not invariant:
        margin[rng.integers(n)] *= -1.0
    np.fill_diagonal(a, -(np.sum(np.abs(a), axis=axis) + margin))
    return a


def _family_cases():
    """(name, set, A, decision at c = 1): one seeded case of each verdict
    for the H-form, the inf-ball, the cross-polytope, the redundant V-cone,
    the ellipsoid and the Lorenz cone."""
    rng = np.random.default_rng(31)
    for invariant in (True, False):
        want = Decision.INVARIANT if invariant else Decision.NOT_INVARIANT
        n = 4
        # random facets around the origin: -cI contracts toward it, +cI leaves
        g = rng.normal(size=(3 * n, n))
        c = rng.uniform(0.5, 2.0)
        a = (-c if invariant else c) * np.eye(n)
        yield "hpolyhedron", HPolyhedron(g, np.ones(3 * n)), a, want
        t = _orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n))
        ti = np.linalg.inv(t)
        a = t @ _dominant(rng, n, invariant, axis=1) @ ti
        yield "inf-ball", HPolyhedron(np.vstack([ti, -ti]), np.ones(2 * n)), a, want
        a = t @ _dominant(rng, n, invariant, axis=0) @ ti
        yield "cross-polytope", VPolytope(np.vstack([t.T, -t.T])), a, want
        # the cone T R+^n with redundant rays on its faces, under T M T^-1,
        # M Metzler exactly when invariant
        m = np.abs(rng.normal(size=(n, n)))
        np.fill_diagonal(m, rng.normal(size=n))
        if not invariant:
            m[0, 1] = -0.5
        rays = np.vstack([t.T, t @ [1.0, 1.0, 0.0, 0.0], t @ [0.0, 0.5, 0.0, 1.0]])
        yield "vcone", VCone(rays), t @ m @ ti, want
        q = _spd(rng, n)
        skew = rng.normal(size=(n, n))
        sign = -1.0 if invariant else 1.0
        a = np.linalg.solve(q, skew - skew.T + sign * _spd(rng, n))
        yield "ellipsoid", Ellipsoid(q), a, want
        u = _orthogonal(rng, n)
        q = u @ np.diag(np.concatenate([rng.uniform(0.5, 2.0, n - 1), [-1.0]])) @ u.T
        a = np.linalg.solve(q, skew - skew.T + sign * _spd(rng, n)) + 0.3 * np.eye(n)
        yield "lorenz", LorenzCone(q), a, want


def _defect_cases():
    """The uniform-scale cases that used to be called invariant at small c."""
    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0] * 4)
    triangle = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    yield "box under I", box, np.eye(2), Decision.NOT_INVARIANT
    disc = Ellipsoid(np.eye(2))
    yield "disc under diag(1, -1)", disc, np.diag([1.0, -1.0]), Decision.NOT_INVARIANT
    yield "triangle under I", triangle, np.eye(2), Decision.NOT_INVARIANT


CASES = list(_defect_cases()) + list(_family_cases())


def _report(v) -> dict:
    """A verdict as plain data: decision, certificate data, counterexample, notes."""
    cx = v.counterexample
    return {"decision": v.decision.value,
            "certificate": None if v.certificate is None else v.certificate.data,
            "counterexample": None if cx is None else
            {"point": [float(x) for x in cx.point], "violation": float(cx.violation)},
            "notes": v.notes}


def _times(data, factor, key=None):
    """data with every value under a key linear in A multiplied by factor."""
    if isinstance(data, dict):
        return {k: _times(v, factor, k) for k, v in data.items()}
    if isinstance(data, list):
        return [_times(v, factor, key) for v in data]
    return data * factor if key in _LINEAR_KEYS and not isinstance(data, str) else data


@pytest.mark.parametrize("name, s, a, want", CASES, ids=[c[0] for c in CASES])
def test_decision_does_not_move_under_a_uniform_scale_of_a(name, s, a, want):
    assert check(s, LinearSystem(a)).decision is want
    for c in SCALES:
        assert check(s, LinearSystem(c * a)).decision is want, c


@pytest.mark.parametrize("name, s, a, want", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("k", [-40, -7, 3, 30])
def test_power_of_two_scale_scales_every_linear_value_exactly(name, s, a, want, k):
    base = _report(check(s, LinearSystem(a)))
    scaled = _report(check(s, LinearSystem(math.ldexp(1.0, k) * a)))
    assert scaled == _times(base, math.ldexp(1.0, k))


def test_ellipsoid_decision_does_not_move_under_a_uniform_scale_of_q():
    # c*Q has the pencil (c M, c Q) of Q, so the same eigenvalues: the
    # positive-definiteness floor is relative, and a ball of radius 1e6
    # (c = 1e-12) is an ellipsoid like any other
    rng = np.random.default_rng(37)
    for trial in range(150):
        n = int(rng.integers(2, 9))
        q, a = _spd(rng, n), rng.normal(size=(n, n))
        base = check(Ellipsoid(q), LinearSystem(a))
        key = "pencil_max_eig" if base.certificate is None else "eta"
        value = (base.notes if base.certificate is None else base.certificate.data)[key]
        for c in SCALES:
            v = check(Ellipsoid(c * q), LinearSystem(a))
            assert v.decision is base.decision, (trial, c)
            got = (v.notes if v.certificate is None else v.certificate.data)[key]
            assert got == pytest.approx(value, rel=1e-12, abs=1e-12), (trial, c)


@pytest.mark.parametrize("c", [1e-8, 1e-9, 1e-10, 1e-12])
def test_uniform_scale_defects_are_refuted(c):
    for _, s, a, want in _defect_cases():
        assert check(s, LinearSystem(c * a)).decision is want


def test_a_single_small_entry_is_seen_at_its_power_of_two_scale():
    # each A has one nonzero entry, which the scaling brings to [1, 2): the
    # half-plane's facet flux is unbounded, and the cone's A is not Metzler
    half_plane = HPolyhedron([[1.0, 0.0]], [1.0])
    v = check(half_plane, LinearSystem([[0.0, 1e-15], [0.0, 0.0]]))
    assert v.decision is Decision.NOT_INVARIANT
    cone = HPolyhedron(-np.eye(2), np.zeros(2))
    v = check(cone, LinearSystem([[0.0, -1e-11], [0.0, 0.0]]))
    assert v.decision is Decision.NOT_INVARIANT


def test_field_values_that_are_rounding_noise_are_not_scaled_up():
    # the square's faces are equilibria of sin(pi x), so it is invariant;
    # the field at each vertex is sin(pi) = 1.2e-16 outward, rounding noise
    # that a scale by the largest field value would blow up to [1, 2)
    square = VPolytope([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    sines = build_expression_system(["sin(3.141592653589793*x1)", "sin(3.141592653589793*x2)"])
    assert check(square, sines).decision is Decision.UNKNOWN
    # A kills the plane x1 + x2 = x3 that holds the cone, but A (0.1, 0.2,
    # 0.3) rounds to 5.6e-17 (1, 1, 1), out of that plane: the V-form
    # scales it by A's power of two, 1, so the noise stays noise
    cone = VCone([[0.1, 0.2, 0.3], [1.0, 0.0, 1.0]])
    a = np.array([[1.0, 1.0, -1.0]] * 3)
    assert np.all(a @ [0.1, 0.2, 0.3] > 0.0)
    for c in (1.0, 2.0 ** -40, 2.0 ** 30):
        assert check(cone, LinearSystem(c * a)).decision is Decision.INVARIANT, c
