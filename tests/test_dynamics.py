import io
import math

import numpy as np
import pytest

from invarcheck import dynamics
from invarcheck.checkers import Decision, check
from invarcheck.dynamics import MAX_STEPS, _step_grid, falsify, integrate
from invarcheck.errors import InputError
from invarcheck.sets import Ellipsoid, HPolyhedron, LorenzCone, VCone, orthant_h
from invarcheck.systems import GeneralSystem, LinearSystem

from oracles import taylor_expm


def test_zero_field_constant_trajectory():
    tr = integrate(LinearSystem(np.zeros((2, 2))), [1.0, 2.0], 0.0, 1.0, 0.1)
    assert not tr.diverged
    assert np.allclose(tr.states, [1.0, 2.0])
    assert tr.times[0] == 0.0 and tr.times[-1] == pytest.approx(1.0)


def test_scalar_decay_matches_closed_form():
    tr = integrate(LinearSystem([[-1.0]]), [1.0], 0.0, 1.0, 1e-3)
    assert tr.states[-1, 0] == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_rotation_returns_home():
    steps = 6000
    h = 2.0 * math.pi / steps
    tr = integrate(LinearSystem([[0.0, 1.0], [-1.0, 0.0]]), [1.0, 0.0], 0.0, 2.0 * math.pi, h)
    assert np.allclose(tr.states[-1], [1.0, 0.0], atol=1e-5)


def test_rk4_tracks_exact_linear_path():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        sys = LinearSystem(a)
        x0 = rng.normal(size=n)
        step = 1e-3 / (1.0 + np.max(np.sum(np.abs(a), axis=1)))
        approx = integrate(sys, x0, 0.0, 200 * step, step)
        # h||A||inf <= 1e-3, so the degree-12 series is exp(hA) to rounding
        prop = taylor_expm(step * a, 12)
        xe = x0
        assert len(approx.states) == 201
        for xa in approx.states:
            assert np.max(np.abs(xa - xe)) <= 1e-6 * (1.0 + np.max(np.abs(xe)))
            xe = prop @ xe


def test_falsify_linear_map_is_the_degree_4_taylor_polynomial(monkeypatch):
    # falsify builds one RK4 step of a linear field, applied to the identity,
    # and never evaluates the field again; that map is the degree-4 Taylor
    # polynomial of exp(hA)
    maps = []
    rk4_step = dynamics._rk4_step

    def recording_step(*args):
        maps.append(rk4_step(*args))
        return maps[-1]

    monkeypatch.setattr(dynamics, "_rk4_step", recording_step)
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        h = float(10.0 ** rng.uniform(-4.0, 0.0))
        maps.clear()
        falsify(Ellipsoid(np.eye(n)), LinearSystem(a), 1, h, h, seed=0)
        assert len(maps) == 1
        taylor = taylor_expm(h * a, 4)
        assert np.max(np.abs(maps[0] - taylor)) <= 1e-14 * (1.0 + np.max(np.abs(taylor)))


def test_rk4_order_via_step_halving():
    sys = LinearSystem([[-1.0]])
    exact = math.exp(-1.0)
    errors = []
    for h in (0.05, 0.025):
        tr = integrate(sys, [1.0], 0.0, 1.0, h)
        errors.append(abs(tr.states[-1, 0] - exact))
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def test_divergence_truncates():
    tr = integrate(LinearSystem([[5.0]]), [1.0], 0.0, 8.0, 0.01)
    assert tr.diverged
    assert tr.times[-1] < 8.0
    assert np.all(np.isfinite(tr.states))


def test_general_system_integration():
    sys = GeneralSystem(lambda t, x: -x ** 3)
    tr = integrate(sys, np.array([1.0, -1.0]), 0.0, 1.0, 1e-2)
    assert np.all(np.abs(tr.states[-1]) < 1.0)


def test_csv_dump(tmp_path):
    # every value in 17 significant digits, so the text reads back exactly
    tr = integrate(LinearSystem([[-1.0]]), [1.0], 0.0, 0.1, 0.05)
    text = ("t,x1\n0,1\n0.050000000000000003,0.95122942708333336\n"
            "0.10000000000000001,0.9048374229492866\n")
    buf = io.StringIO()
    tr.to_csv(buf)
    assert buf.getvalue() == text
    tr.to_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == text


def test_falsify_finds_exit_on_unstable_direction():
    disk = Ellipsoid(np.eye(2))
    hit = falsify(disk, LinearSystem(np.diag([1.0, -1.0])), 64, horizon=1.0, step=1e-3, seed=2)
    assert hit is not None
    x0, t_exit = hit
    assert t_exit <= 1.0
    # leaving requires an unstable first component
    assert abs(x0[0]) > 0.01


def test_falsify_contraction_no_exit():
    disk = Ellipsoid(np.eye(2))
    assert falsify(disk, LinearSystem(-np.eye(2)), 200, horizon=3.0, step=1e-3, seed=3) is None


def test_falsify_orthant_metzler_no_exit():
    sys = LinearSystem([[-1.0, 2.0], [0.0, -3.0]])
    assert falsify(orthant_h(2), sys, 100, horizon=3.0, step=1e-3, seed=5) is None


def test_falsify_deterministic():
    disk = Ellipsoid(np.eye(2))
    sys = LinearSystem(np.diag([1.0, -1.0]))
    a = falsify(disk, sys, 32, horizon=1.0, step=1e-2, seed=11)
    b = falsify(disk, sys, 32, horizon=1.0, step=1e-2, seed=11)
    assert a is not None and b is not None
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]


def test_falsify_extra_starts_take_priority():
    disk = Ellipsoid(np.eye(2))
    sys = LinearSystem(np.diag([1.0, -1.0]))
    hit = falsify(disk, sys, 8, horizon=1.0, step=1e-2, seed=7,
                  extra_starts=[np.array([1.0, 0.0])])
    assert hit is not None
    x0, _ = hit
    assert np.allclose(x0, [1.0, 0.0], atol=1e-6)


def test_falsify_rejects_extra_start_outside_set():
    # x'Qx = 0.01 > 0: the point lies outside the cone, which -I keeps invariant
    cone = LorenzCone(np.diag([1.0, 1.0, -1.0]))
    sys = LinearSystem(-np.eye(3))
    with pytest.raises(InputError, match="extra start 1"):
        falsify(cone, sys, 20, horizon=0.5, step=0.01, seed=2,
                extra_starts=[[0.0, 0.0, 1.0], [0.1, 0.1, 0.1]])


def test_extra_starts_are_nudged_from_what_binds_at_them():
    # like a sampled start, an extra start on a facet of a halfspace form is
    # pushed inward along that facet's normal, and one at the apex of a
    # Lorenz cone along the axis u_n
    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0] * 4)
    x0, _ = falsify(box, LinearSystem(np.eye(2)), 1, horizon=1.0, step=0.01, seed=0,
                    extra_starts=[[1.0, 0.5]])
    assert x0[0] == 1.0 - 1e-9 * (1.0 + math.hypot(1.0, 0.5)) and x0[1] == 0.5
    cone = LorenzCone(np.diag([1.0, 1.0, -1.0]))
    starts = dynamics._nudged_starts(cone, np.zeros((3, 1)), 1e-8)
    np.testing.assert_array_equal(starts[:, 0], 1e-9 * cone.u_n)


def test_integrate_caps_step_count():
    assert _step_grid(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
    with pytest.raises(InputError, match="cap"):
        integrate(LinearSystem(-np.eye(2)), [1.0, 0.0], 0.0, 1.0, 0.5 / MAX_STEPS)


def test_falsify_rejects_negative_step():
    # a negative step would integrate backward out of this invariant box
    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(InputError, match="step"):
        falsify(box, LinearSystem(-np.eye(2)), 10, horizon=1.0, step=-0.1, seed=0)


def test_falsify_integrates_each_distinct_start_once(monkeypatch):
    import invarcheck.dynamics as dyn

    widths = []

    def recorded(s, states):
        widths.append(states.shape[1])
        return real(s, states)

    real = dyn.outside_violation_batch
    monkeypatch.setattr(dyn, "outside_violation_batch", recorded)
    # a 2-ray cone in the plane has two boundary points, its rays
    cone = VCone([[1.0, 0.0], [0.0, 1.0]])
    assert falsify(cone, LinearSystem([[-1.0, 0.0], [0.0, -1.0]]), 50, 0.05, 0.01, seed=1) is None
    assert widths[0] == 50  # one nudge for all starts
    assert set(widths[1:]) == {2}  # then the two distinct starts, every step
    sys = LinearSystem([[1.0, 0.0], [0.0, -1.0]])
    stay, leave = [0.0, 0.5], [0.5, 0.5]
    disk = Ellipsoid(np.eye(2))
    single = falsify(disk, sys, 1, 1.0, 0.01, seed=3, extra_starts=[stay, leave])
    widths.clear()
    repeated = falsify(disk, sys, 1, 1.0, 0.01, seed=3,
                       extra_starts=[stay, stay, leave, stay, leave])
    assert widths[2] == 3  # stay, leave and the one boundary sample
    assert single is not None and repeated is not None
    assert np.allclose(single[0], leave, atol=1e-6)
    assert np.array_equal(single[0], repeated[0]) and single[1] == repeated[1]


def _nan_after(t, x):
    """-x up to t = 0.05, NaN from then on."""
    return np.full_like(x, np.nan) if t > 0.05 else -x


def test_field_turning_nan_truncates_and_drops_trajectories():
    tr = integrate(GeneralSystem(_nan_after), [0.5, 0.5], 0.0, 0.5, 0.01)
    assert tr.diverged
    assert tr.states.shape == (6, 2)
    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0] * 4)
    # finite at every start, so no input error; every trajectory turns NaN
    # at t = 0.05 and is dropped without an exit (and, under -W error, with
    # no floating-point warning)
    assert falsify(box, GeneralSystem(_nan_after, vectorized=True), 50, 0.5, 0.01, 0) is None


def _surface_tangent_cone():
    """A Lorenz cone and a linear field with A'Q + QA = 8.5384 Q: the flow
    runs along the cone's surface, and check certifies the cone."""
    u = np.array([[-0.4509, -0.1114, -0.8856], [-0.1666, -0.9642, 0.2061],
                  [-0.8769, 0.2405, 0.4163]])
    q = u @ np.diag([2379.066, 5.8327, -140.0102]) @ u.T
    q = 0.5 * (q + q.T)
    skew = np.array([[0.0, 0.0858, 0.0007], [-0.0858, 0.0, -2.3404], [-0.0007, 2.3404, 0.0]])
    return LorenzCone(q), LinearSystem(8.5384 * (np.linalg.solve(q, skew) + 0.5 * np.eye(3)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 102])
def test_falsify_does_not_contradict_check_on_a_surface_flow(seed):
    # without the inward push of the starts, RK4's drift along the surface
    # (x'Qx moves by more than the exit band) reports exits at t = 0.35-0.49
    cone, sys = _surface_tangent_cone()
    assert check(cone, sys).decision is Decision.INVARIANT
    assert falsify(cone, sys, 100, 0.5, 0.01, seed) is None

