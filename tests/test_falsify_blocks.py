"""The falsifier's block loop, which classifies a block of steps per call.

The reference is the per-step loop it replaced (oracles.falsify_per_step):
on every case below both return the same (x0, t_exit), bit for bit, or both
None. Each case runs at the default size of a group of starts and of a
block, and at sizes that split the starts into several groups and force
blocks of one step.
"""

import numpy as np
import pytest

from invarcheck import dynamics
from invarcheck.dynamics import falsify
from invarcheck.expressions import build_expression_system
from invarcheck.numerics import distinct_columns
from invarcheck.sets import Ellipsoid, HPolyhedron, LorenzCone, Orthant, VCone, VPolytope
from invarcheck.systems import GeneralSystem, LinearSystem

from oracles import falsify_per_step
from test_dynamics import _surface_tangent_cone


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _sets(rng, n):
    """One set of every family in R^n."""
    rot = _rotation(rng, n)
    w = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [-rng.uniform(0.5, 2.0)]])
    return [
        HPolyhedron(np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(2, n))]),
                    np.concatenate([np.ones(2 * n), rng.uniform(0.5, 1.5, 2)])),
        Orthant(n),
        VPolytope(rng.normal(size=(n + 3, n))),
        VCone(rng.normal(size=(n + 2, n)) * 0.4 + rot[:, 0]),
        Ellipsoid(rot @ np.diag(rng.uniform(0.3, 3.0, n)) @ rot.T),
        LorenzCone(rot @ np.diag(w) @ rot.T),
    ]


def _fields(rng, n):
    """A linear field that leaves most sets, a contracting one, and a
    formula field of each kind."""
    coupling = " + ".join(f"{c:.3f}*x{i + 1}" for i, c in enumerate(rng.normal(size=n)))
    return [
        LinearSystem(rng.normal(size=(n, n))),
        LinearSystem(-np.eye(n) + 0.3 * rng.normal(size=(n, n))),
        build_expression_system([f"-x{i + 1} + 0.5*x{(i + 1) % n + 1}^2" for i in range(n)]),
        build_expression_system([f"0.2*x{i + 1} + sin(t)*({coupling})" for i in range(n)]),
    ]


def _battery():
    rng = np.random.default_rng(35)
    for n in (2, 3):
        for s in _sets(rng, n):
            for sys in _fields(rng, n):
                yield s, sys


BLOCK_COLUMNS = [dynamics._BLOCK_COLUMNS, 64, 5]


def _same(s, sys, *args, **kwargs):
    want = falsify_per_step(s, sys, *args, **kwargs)
    got = falsify(s, sys, *args, **kwargs)
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert np.array_equal(got[0], want[0]) and got[1] == want[1], (got, want)
    return got


@pytest.mark.parametrize("columns", BLOCK_COLUMNS)
def test_block_loop_matches_the_per_step_loop_on_every_family(columns, monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", columns)
    found = 0
    for k, (s, sys) in enumerate(_battery()):
        found += _same(s, sys, 40, 0.4, 0.01, seed=k) is not None
    assert 10 <= found < 48  # exits and runs without one


@pytest.mark.parametrize("columns", BLOCK_COLUMNS)
def test_block_loop_matches_on_extra_starts(columns, monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", columns)
    disk = Ellipsoid(np.eye(2))
    sys = LinearSystem([[1.0, 0.0], [0.0, -1.0]])
    stay, leave = [0.0, 1.0], [0.6, 0.8]
    for extra in ([stay], [leave], [stay, stay, leave, stay, leave], [leave, stay]):
        _same(disk, sys, 3, 1.0, 0.01, seed=3, extra_starts=extra)


@pytest.mark.parametrize("columns", BLOCK_COLUMNS)
def test_block_loop_matches_on_unconfirmed_drift(columns, monkeypatch):
    # RK4's drift along the cone's surface raises candidates that the half
    # step does not confirm
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", columns)
    cone, sys = _surface_tangent_cone()
    assert _same(cone, sys, 300, 2.0, 0.01, seed=0) is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("columns", BLOCK_COLUMNS)
def test_block_loop_matches_on_divergence_without_warnings(columns, monkeypatch):
    # states past the divergence bound or not finite end their trajectory,
    # and no floating-point warning fires on the way
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", columns)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    cycle = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    # both sets are invariant: every trajectory passes the bound without an exit
    cone = LorenzCone(np.diag([1.0, 1.0, -1.0]))
    assert _same(cone, LinearSystem(60.0 * np.eye(3) + 5.0 * rot), 50, 2.0, 0.005, seed=1) is None
    assert _same(Orthant(3), LinearSystem(60.0 * np.eye(3) + 5.0 * cycle), 50, 2.0, 0.05,
                 seed=1) is None
    _same(Ellipsoid(np.eye(3)), LinearSystem(60.0 * np.eye(3) + 5.0 * rot), 50, 2.0, 0.05, seed=1)
    blow_up = build_expression_system(["x1^2", "x2^2"])  # leaves no orthant, blows up
    assert _same(Orthant(2), blow_up, 50, 3.0, 0.01, seed=2) is None
    _same(HPolyhedron([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]), blow_up, 50, 3.0, 0.01, seed=2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("columns", BLOCK_COLUMNS)
def test_no_state_past_the_end_of_its_trajectory_is_stepped(columns, monkeypatch):
    # the start 1e-306 leaves x1 <= 1e11 at step 128, early in a block of
    # 128 steps, while the start (0, 1) stays: stepped on, both copies of
    # the leaving trajectory would overflow before that block ends
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", columns)
    s = HPolyhedron([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], [1e11, 0.0, 0.0])
    x0, t_exit = _same(s, LinearSystem(np.diag([800.0, -1.0])), 3, 3.0, 0.01, seed=0,
                       extra_starts=[[0.0, 1.0], [1e-306, 1.0]])
    assert x0.tolist() == [1e-306, 1.0] and t_exit == 1.29


@pytest.mark.parametrize("columns", BLOCK_COLUMNS)
def test_a_trajectory_past_the_bound_has_no_later_exit(columns, monkeypatch):
    # every trajectory passes the divergence bound inside the orthant by
    # t = 0.3, and only then does the field push it out
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", columns)
    sys = GeneralSystem(lambda t, x: 130.0 * x if t < 0.3 else np.full_like(x, -1e16),
                        vectorized=True)
    assert _same(Orthant(2), sys, 10, 1.0, 0.01, seed=0) is None


@pytest.mark.parametrize("columns", BLOCK_COLUMNS)
def test_a_half_copy_not_finite_at_its_last_half_step_confirms_nothing(columns, monkeypatch):
    # every start leaves the disk at the first step; the field is NaN only
    # at t = 0.0075, which the half step alone evaluates, so each half copy
    # turns non-finite at half step 2, the last that confirms a first-step exit
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", columns)
    sys = GeneralSystem(lambda t, x: np.full_like(x, np.nan) if 0.0074 < t < 0.0076 else x,
                        vectorized=True)
    assert _same(Ellipsoid(np.eye(2)), sys, 10, 1.0, 0.01, seed=0) is None


def _nan_where_large(t, x):
    """x, NaN in every column whose first coordinate passed 1.5."""
    return np.where(x[:1] > 1.5, np.nan, x)


def _nan_after(t, x):
    """diag(1, -1) x, NaN from t = 0.05 on in every column with |x2| > 0.9."""
    return np.where((np.abs(x[1:]) > 0.9) & (t > 0.05), np.nan, x * np.array([[1.0], [-1.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("columns", BLOCK_COLUMNS)
def test_block_loop_matches_on_a_field_turning_nan(columns, monkeypatch):
    monkeypatch.setattr(dynamics, "_BLOCK_COLUMNS", columns)
    cone = VCone([[1.0, 0.0], [0.2, 1.0]])  # x grows along the cone until it turns NaN
    assert _same(cone, GeneralSystem(_nan_where_large, vectorized=True), 30, 2.0, 0.01,
                 seed=4) is None
    # columns near (0, +-1) turn NaN while the others leave the disk
    disk = Ellipsoid(np.eye(2))
    for seed in range(4):
        _same(disk, GeneralSystem(_nan_after, vectorized=True), 60, 1.0, 0.01, seed=seed)


def test_block_loop_matches_with_more_starts_than_a_block_holds():
    # more starts than _BLOCK_COLUMNS: two groups, every block one step
    disk = Ellipsoid(np.diag([1.0, 4.0]))
    sys = LinearSystem([[0.5, 1.0], [-1.0, 0.1]])
    assert _same(disk, sys, dynamics._BLOCK_COLUMNS + 500, 0.05, 0.01, seed=6) is not None


def test_distinct_columns_match_numpy_unique():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 30))
        x = rng.integers(-1, 2, size=(n, m)).astype(float)
        x[rng.uniform(size=(n, m)) < 0.3] *= -1.0  # some -0.0 among the 0.0
        _, first = np.unique(x, axis=1, return_index=True)
        np.testing.assert_array_equal(distinct_columns(x), np.sort(first))
    signed = np.array([[0.0, -0.0, 1.0, 0.0], [-0.0, 0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(distinct_columns(signed), [0, 2])
