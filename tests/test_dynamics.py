import collections
import io
import math

import numpy as np
import pytest

from invarcheck import dynamics
from invarcheck.checkers import Decision, check
from invarcheck.dynamics import MAX_STEPS, _step_grid, falsify, integrate
from invarcheck.errors import InputError
from invarcheck.expressions import build_expression_system
from invarcheck.sets import (
    Ellipsoid,
    HPolyhedron,
    LorenzCone,
    VCone,
    VPolytope,
    orthant_h,
    sample_boundary,
)
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
    # at the step h and at h/2, and never evaluates the field again; each
    # map is the degree-4 Taylor polynomial of exp(hA) at its step
    maps = []
    rk4_step = dynamics._rk4_step

    def recording_step(*args):
        maps.append((args[3], rk4_step(*args)))
        return maps[-1][1]

    monkeypatch.setattr(dynamics, "_rk4_step", recording_step)
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        a = rng.normal(size=(n, n))
        h = float(10.0 ** rng.uniform(-4.0, 0.0))
        maps.clear()
        falsify(Ellipsoid(np.eye(n)), LinearSystem(a), 1, h, h, seed=0)
        assert [step for step, _ in maps] == [h, 0.5 * h]
        for step, rk4_map in maps:
            taylor = taylor_expm(step * a, 4)
            assert np.max(np.abs(rk4_map - taylor)) <= 1e-14 * (1.0 + np.max(np.abs(taylor)))


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


def _record_steps(monkeypatch):
    """Patch falsify's steppers to count, per step size, the column-steps of
    its RK4 steps (one per column of each state a step advances), and to
    record the states of each step size's first step."""
    column_steps, firsts = collections.Counter(), {}
    real = dynamics._stepper

    def recording(sys, h):
        step = real(sys, h)

        def recorded(t, x):
            column_steps[h] += x.shape[1]
            firsts.setdefault(h, x.copy())
            return step(t, x)
        return recorded

    monkeypatch.setattr(dynamics, "_stepper", recording)
    return column_steps, firsts


def test_extra_starts_are_taken_as_given(monkeypatch):
    # an extra start on a facet of a halfspace form is the witness exactly as
    # given, and one at the apex of a Lorenz cone is stepped from the apex
    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0] * 4)
    x0, _ = falsify(box, LinearSystem(np.eye(2)), 1, horizon=1.0, step=0.01, seed=0,
                    extra_starts=[[1.0, 0.5]])
    assert x0.tolist() == [1.0, 0.5]
    _, firsts = _record_steps(monkeypatch)
    cone = LorenzCone(np.diag([1.0, 1.0, -1.0]))
    falsify(cone, LinearSystem(-np.eye(3)), 1, horizon=0.1, step=0.01, seed=0,
            extra_starts=[[0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(firsts[0.01][:, 0], np.zeros(3))


@pytest.mark.parametrize("s", [
    HPolyhedron([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]],
                [1.0, 1.0, 1.0, 1.0]),
    orthant_h(3),
    VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    VCone([[1.0, 0.2, 0.1], [0.3, 1.0, 0.0], [0.0, 0.4, 1.0]]),
    Ellipsoid([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 3.0]]),
    LorenzCone(np.diag([1.0, 1.0, -1.0])),
], ids=lambda s: type(s).__name__)
def test_falsify_starts_from_the_samples_as_drawn(s, monkeypatch):
    # no start is pushed inward: the first step starts from the boundary
    # samples exactly as sample_boundary draws them, each distinct one once
    column_steps, firsts = _record_steps(monkeypatch)
    assert falsify(s, LinearSystem(-np.eye(3)), 60, 0.05, 0.01, seed=2) is None
    drawn = np.column_stack([bp.point for bp in sample_boundary(s, 60, seed=2)])
    _, first = np.unique(drawn, axis=1, return_index=True)
    np.testing.assert_array_equal(firsts[0.01], drawn[:, np.sort(first)])
    assert column_steps[0.01] == 5 * first.size  # each distinct start, every step
    assert column_steps[0.005] == 0  # no candidate exit, so no half step


def test_exit_confirmation_costs_at_most_twice_the_search(monkeypatch):
    # only candidate exits are half-stepped, so a run without one takes no
    # half step; a candidate at step k takes 2k + 2 of them
    column_steps, _ = _record_steps(monkeypatch)
    disk = Ellipsoid(np.eye(2))
    assert falsify(disk, LinearSystem(-np.eye(2)), 200, 1.0, 0.01, seed=3) is None
    assert column_steps[0.01] == 200 * 100 and column_steps[0.005] == 0
    column_steps.clear()
    # 2,000 starts on the surface-flow cone: RK4's drift raises candidates,
    # and the half step confirms none of them
    cone, sys = _surface_tangent_cone()
    assert falsify(cone, sys, 2000, 2.0, 0.01, seed=0) is None
    assert 0 < column_steps[0.005] <= 2 * column_steps[0.01]


def test_only_candidate_exits_are_half_stepped(monkeypatch):
    # the apex never leaves the rotating cone; the drifting extra start is
    # the only candidate, half-stepped up to its own half step 2k + 2, far
    # fewer than the horizon's 200 half steps
    column_steps, _ = _record_steps(monkeypatch)
    cone = LorenzCone(np.diag([1.0, 1.0, -1.0]))
    sys = LinearSystem([[10.0, -10.0, 0.0], [10.0, 10.0, 0.0], [0.0, 0.0, 10.0]])
    assert falsify(cone, sys, 1, 1.0, 0.01, seed=0, extra_starts=[[0.6, 0.8, 1.0]]) is None
    assert 0 < column_steps[0.005] < 200


def test_the_first_group_with_an_exit_ends_the_search(monkeypatch):
    # the starts are searched in groups of at most _BLOCK_COLUMNS, in index
    # order: every start leaves the disk at once, so the first start wins
    # and no later group takes a step
    column_steps, firsts = _record_steps(monkeypatch)
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", 8)
    disk = Ellipsoid(np.eye(2))
    x0, t_exit = falsify(disk, LinearSystem(np.eye(2)), 40, 1.0, 0.01, seed=0)
    assert x0.tolist() == sample_boundary(disk, 40, seed=0)[0].point.tolist() and t_exit == 0.01
    assert firsts[0.01].shape[1] == 8 and column_steps[0.01] == 8
    assert column_steps[0.005] == 2 * 8


def test_integrate_caps_step_count():
    assert _step_grid(1.0, 1.0 / MAX_STEPS, 0.0) == MAX_STEPS
    with pytest.raises(InputError, match="cap"):
        integrate(LinearSystem(-np.eye(2)), [1.0, 0.0], 0.0, 1.0, 0.5 / MAX_STEPS)


@pytest.mark.parametrize("horizon, step, nsteps", [
    (0.55, 0.1, 5), (0.29, 0.1, 2), (0.3, 0.1, 3), (10.0, 1e-3, 10_000)])
def test_the_step_grid_does_not_pass_the_horizon(horizon, step, nsteps):
    # the largest whole number of steps within the horizon, up to the
    # rounding of horizon / step: 0.3 / 0.1 is 2.9999999999999996
    assert _step_grid(horizon, step, 0.0) == nsteps
    tr = integrate(LinearSystem(-np.eye(2)), [1.0, 0.0], 0.0, horizon, step)
    assert len(tr.times) == nsteps + 1
    assert tr.times[-1] <= horizon or tr.times[-1] == pytest.approx(horizon, rel=1e-15)


def test_the_step_cap_allows_for_rounding():
    # 0.9 / 9e-7 is 1000000.0000000001: MAX_STEPS steps, not past the cap
    assert _step_grid(0.9, 9e-7, 0.0) == MAX_STEPS
    with pytest.raises(InputError, match="cap"):
        _step_grid(1.0, 1.0 / (MAX_STEPS + 1), 0.0)


def test_falsify_reports_no_exit_past_the_horizon():
    # x <= 1 under x' = 20 (t - 0.25) from x = 1: x(t) = 1 + 5t(2t - 1),
    # outside only after t = 0.5, first at the step t = 0.6
    half_line, sys = HPolyhedron([[1.0]], [1.0]), build_expression_system(["20*(t - 0.25)"])
    assert falsify(half_line, sys, 1, 0.55, 0.1, seed=0) is None
    x0, t_exit = falsify(half_line, sys, 1, 0.65, 0.1, seed=0)
    assert x0.tolist() == [1.0] and t_exit == pytest.approx(0.6)


@pytest.mark.parametrize("t0", [math.nan, math.inf, -math.inf])
def test_non_finite_t0_is_input_error(t0):
    # integrate returned all-NaN (all-inf) times, and falsify accepted it
    with pytest.raises(InputError, match="t0"):
        integrate(LinearSystem(-np.eye(2)), [1.0, 0.0], t0, 1.0, 0.1)
    with pytest.raises(InputError, match="t0"):
        falsify(Ellipsoid(np.eye(2)), LinearSystem(-np.eye(2)), 4, 1.0, 0.1, seed=0, t0=t0)


def test_falsify_rejects_negative_step():
    # a negative step would integrate backward out of this invariant box
    box = HPolyhedron([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(InputError, match="step"):
        falsify(box, LinearSystem(-np.eye(2)), 10, horizon=1.0, step=-0.1, seed=0)


def test_falsify_integrates_each_distinct_start_once(monkeypatch):
    column_steps, firsts = _record_steps(monkeypatch)
    # a 2-ray cone in the plane has two boundary points, its rays
    cone = VCone([[1.0, 0.0], [0.0, 1.0]])
    assert falsify(cone, LinearSystem([[-1.0, 0.0], [0.0, -1.0]]), 50, 0.05, 0.01, seed=1) is None
    assert firsts[0.01].shape[1] == 2 and column_steps[0.01] == 2 * 5  # the two, every step
    sys = LinearSystem([[1.0, 0.0], [0.0, -1.0]])
    stay, leave = [0.0, 0.5], [0.5, 0.5]
    disk = Ellipsoid(np.eye(2))
    single = falsify(disk, sys, 1, 1.0, 0.01, seed=3, extra_starts=[stay, leave])
    firsts.clear()
    repeated = falsify(disk, sys, 1, 1.0, 0.01, seed=3,
                       extra_starts=[stay, stay, leave, stay, leave])
    assert firsts[0.01].shape[1] == 3  # stay, leave and the one boundary sample
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
    # RK4's drift along the surface moves x'Qx by more than the exit band
    # (candidate exits from t = 0.34 on), but the same starts integrated at
    # half the step stay within it, so no exit is confirmed
    cone, sys = _surface_tangent_cone()
    assert check(cone, sys).decision is Decision.INVARIANT
    assert falsify(cone, sys, 100, 0.5, 0.01, seed) is None


@pytest.mark.parametrize("step", [1e-2, 5e-3])
def test_falsify_confirms_no_drift_exit_on_a_rotating_cone(step):
    # the axis rotation R plus growth keeps the cone: check certifies it. At
    # these steps RK4's drift off the surface passes the exit band, but not
    # at half the step, so no exit is confirmed
    cone = LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 0.0, 1.0])
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sys = LinearSystem(10.0 * (rot + np.eye(3)))
    assert check(cone, sys).decision is Decision.INVARIANT
    assert falsify(cone, sys, 200, 1.0, step, seed=0) is None
