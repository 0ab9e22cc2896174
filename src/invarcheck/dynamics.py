"""Trajectory integration and simulation-based falsification.

The integrator is fixed-step classic Runge-Kutta, and so is the falsifier,
which for a linear field applies the RK4 step as one matrix. Both evaluate
the field through the system, whose own rule rejects a state of another
dimension, and take a finite t0 and a step grid checked in _step_grid. The
falsifier launches trajectories from the boundary samples as drawn and
reports the first start whose trajectory leaves the set beyond a strict
band, once the same start integrated at half the step confirms the exit:
RK4's drift along a surface the flow is tangent to shrinks about 16-fold at
half the step (Hairer, Norsett & Wanner, Solving ODEs I, 1993, II.4), a
real exit does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import _check_grid, _check_real, _check_sampling, as_point, as_vector
from .sets import DEFAULT_TOL, ConvexSet, outside_violation_batch, sample_boundary
from .systems import DynamicalSystem, LinearSystem, field_batch

MAX_STEPS = 1_000_000  # integration steps per trajectory; the defaults take 10,000
_EXIT_BAND = 1e-6      # a violation above this is a strict exit
_DIVERGENCE = 1e12     # a state norm above this ends the trajectory


@dataclass
class Trajectory:
    """Fixed-step trajectory; truncated with diverged=True if the state blew up."""

    times: np.ndarray
    states: np.ndarray
    step: float
    diverged: bool = False

    def to_csv(self, path) -> None:
        """Write one row per step: t, x1, ..., xn (to a path or a stream)."""
        header = "t," + ",".join(f"x{i + 1}" for i in range(self.states.shape[1]))
        np.savetxt(path, np.column_stack([self.times, self.states]), fmt="%.17g",
                   delimiter=",", header=header, comments="")


def _rk4_step(sys_field, t, x, h):
    k1 = sys_field(t, x)
    k2 = sys_field(t + 0.5 * h, x + (0.5 * h) * k1)
    k3 = sys_field(t + 0.5 * h, x + (0.5 * h) * k2)
    k4 = sys_field(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_grid(horizon: float, step: float, t0: float) -> int:
    """Step count of a fixed-step integration from t0; InputError unless t0
    and the grid keep their rules and the count is at most MAX_STEPS, so
    that every integration ends."""
    _check_real(t0, "t0")
    step, horizon = _check_grid(step, horizon, "step", "horizon")
    if not horizon / step <= MAX_STEPS:
        raise InputError(f"horizon / step is {horizon / step:.3g} steps, "
                         f"more than the cap of {MAX_STEPS}")
    return int(round(horizon / step))


def integrate(sys: DynamicalSystem, x0, t0: float, horizon: float, step: float) -> Trajectory:
    """Classic fixed-step RK4 from t0 over the horizon.

    Truncates with diverged=True when a state goes non-finite or its norm
    exceeds the divergence threshold. A linear system of another dimension
    than x0, or a t0 or grid that _step_grid rejects, is an InputError.
    """
    nsteps = _step_grid(horizon, step, t0)
    x = as_vector(x0, "x0").copy()
    times = [t0]
    states = [x.copy()]
    diverged = False
    for k in range(nsteps):
        x = _rk4_step(sys.field, t0 + k * step, x, step)
        if not np.all(np.isfinite(x)):
            diverged = True
            break
        times.append(t0 + (k + 1) * step)
        states.append(x.copy())
        if float(np.linalg.norm(x)) > _DIVERGENCE:
            diverged = True
            break
    return Trajectory(np.array(times), np.array(states), step, diverged)


def _stepper(sys: DynamicalSystem, h: float):
    """One RK4 step of size h as a function (t, x) -> x on the columns of x;
    a linear field's step is one matrix, the step applied to the identity."""
    if isinstance(sys, LinearSystem):
        a = sys.a
        rk4_map = _rk4_step(lambda t, x: a @ x, 0.0, np.eye(a.shape[0]), h)
        return lambda t, x: rk4_map @ x
    return lambda t, x: _rk4_step(lambda tt, xx: field_batch(sys, tt, xx), t, x, h)


def _step_out(s: ConvexSet, stepper, t, x):
    """The columns of x one step on from t (those not finite set to 0), per
    column whether it is finite, and whether its violation exceeds the band."""
    x = stepper(t, x)
    finite = np.all(np.isfinite(x), axis=0)
    if not np.all(finite):
        x[:, ~finite] = 0.0
    return x, finite, (outside_violation_batch(s, x) > _EXIT_BAND) & finite


def falsify(s: ConvexSet, sys: DynamicalSystem, n_starts: int, horizon: float,
            step: float, seed: int, extra_starts=None, t0: float = 0.0,
            tol: float = DEFAULT_TOL):
    """Search for a trajectory that leaves the set.

    Integrates from the boundary samples as drawn (and any extra starts as
    given, tried first), each distinct start once; returns (x0, t_exit) for
    the lowest-index start whose violation exceeds the strict exit band at
    step k, t_exit = (k + 1)*step, and whose exit is confirmed at half the
    step: the same start integrated from t0 with step/2 also exceeds the
    band at some half step up to t_exit. An exit that the half step does not
    confirm is RK4's drift, not an exit, and its start is dropped. Returns
    None if no exit is confirmed within the horizon.
    A bad n_starts, seed, tol, t0, step or horizon, a linear system or an
    extra start of another dimension than the set, an extra start already
    outside the set by more than that band, or a field that is not finite at
    a start raises InputError. A trajectory whose state turns non-finite or
    grows past the divergence threshold later on, at either step, is dropped
    without an exit. tol is the boundary band of the samples.
    Deterministic for a given seed.
    """
    _check_sampling(n_starts, seed, tol, "n_starts")
    nsteps = _step_grid(horizon, step, t0)
    sampled = [bp.point for bp in sample_boundary(s, n_starts, seed, tol)]
    extra = [as_point(s, p, f"extra_starts[{k}]")
             for k, p in enumerate(() if extra_starts is None else extra_starts)]
    viol = outside_violation_batch(s, np.column_stack(extra)) if extra else np.zeros(0)
    if np.any(viol > _EXIT_BAND):
        k = int(np.argmax(viol > _EXIT_BAND))
        raise InputError(f"extra start {k} lies outside the set (violation {viol[k]:.3e})")
    starts = np.column_stack(extra + sampled)
    # a start repeated later exits exactly when its first copy does, so only
    # first copies are integrated, in order, and the lowest index still wins
    _, first = np.unique(starts, axis=1, return_index=True)
    x0_all = starts[:, np.sort(first)]
    # a trajectory that is not finite from its first step would be dropped
    # unseen, so such a field is an input error, not "no exit"
    f0 = field_batch(sys, t0, x0_all)  # a linear system checks its dimension
    bad = np.flatnonzero(~np.all(np.isfinite(f0), axis=0))
    if bad.size:
        raise InputError("the field is not finite at start "
                         f"{[float(v) for v in x0_all[:, bad[0]]]}")
    full, half = _stepper(sys, step), _stepper(sys, 0.5 * step)

    n_cols = x0_all.shape[1]
    best, best_time = n_cols, math.inf  # columns with index >= best can no longer win
    cur = x0_all.copy()
    idx_map = np.arange(n_cols)
    div2 = _DIVERGENCE ** 2
    halved = None  # the live columns at step/2, from the first candidate exit on
    for k in range(nsteps):
        if idx_map.size == 0:
            break
        cur, finite, exited = _step_out(s, full, t0 + k * step, cur)
        if halved is None and np.any(exited):
            # start the half-step copy from t0; it then keeps pace, two half
            # steps a step, so it costs at most twice the search's own steps
            halved, seen, j0 = x0_all[:, idx_map], np.zeros(idx_map.size, bool), 0
        if halved is not None:
            for j in range(j0, 2 * k + 2):
                halved, ok, out = _step_out(s, half, t0 + 0.5 * j * step, halved)
                finite &= ok
                seen |= out
            j0 = 2 * k + 2
            confirmed = exited & seen & finite
            if np.any(confirmed):  # every live column is below best, so the first wins
                best, best_time = int(idx_map[confirmed][0]), (k + 1) * step
        keep = finite & ~exited & (np.einsum("ij,ij->j", cur, cur) <= div2)
        keep &= idx_map < best
        if not np.all(keep):
            cur = cur[:, keep]
            idx_map = idx_map[keep]
            if halved is not None:
                halved, seen = halved[:, keep], seen[keep]
    if best < n_cols:
        return x0_all[:, best].copy(), best_time
    return None
