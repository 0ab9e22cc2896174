"""Trajectory integration and simulation-based falsification.

The integrator is fixed-step classic Runge-Kutta, and so is the falsifier,
which for a linear field applies the RK4 step as one matrix. The falsifier
launches trajectories from boundary samples (nudged slightly inward) and
reports the first start whose trajectory leaves the set beyond a strict
band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import as_vector
from .sets import (
    DEFAULT_TOL,
    ConvexSet,
    inward_directions,
    outside_violation_batch,
    sample_boundary,
)
from .systems import DynamicalSystem, LinearSystem, field_batch

MAX_STEPS = 1_000_000  # integration steps per trajectory; the defaults take 10,000
_EXIT_BAND = 1e-6      # a violation above this is a strict exit
_INWARD_PUSH = 1e-9    # boundary starts get pushed inside by this, relative
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


def _step_grid(horizon: float, step: float) -> int:
    """Step count of a fixed-step integration; InputError unless
    0 < step <= horizon < inf (which also rejects NaN) and the count is at
    most MAX_STEPS, so that every integration ends."""
    if not 0.0 < step <= horizon < math.inf:
        raise InputError(f"need 0 < step <= horizon < inf, got step {step} "
                         f"and horizon {horizon}")
    if not horizon / step <= MAX_STEPS:
        raise InputError(f"horizon / step is {horizon / step:.3g} steps, "
                         f"more than the cap of {MAX_STEPS}")
    return int(round(horizon / step))


def integrate(sys: DynamicalSystem, x0, t0: float, horizon: float, step: float) -> Trajectory:
    """Classic fixed-step RK4 from t0 over the horizon.

    Truncates with diverged=True when a state goes non-finite or its norm
    exceeds the divergence threshold.
    """
    nsteps = _step_grid(horizon, step)
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


def _nudged_starts(s: ConvexSet, x, tol: float) -> np.ndarray:
    """Push boundary points (the columns of x) slightly inside, along the
    inward direction of what binds at each within the band tol. A point
    whose push leaves the set starts unpushed. The exit band, not the push,
    keeps a boundary start from exiting at once. The push gives each start
    a margin of about _INWARD_PUSH*|g| in every binding constraint g (for a
    quadric, |Qx| in x'Qx), which masks RK4's drift along a surface the
    flow is tangent to: without it, falsify reports exits from Lorenz cones
    that check certifies."""
    d = inward_directions(s, x, tol)
    cand = x + _INWARD_PUSH * (1.0 + np.linalg.norm(x, axis=0)) * d
    pushed = np.any(d != 0.0, axis=0) & (outside_violation_batch(s, cand) == 0.0)
    return np.where(pushed, cand, x)


def falsify(s: ConvexSet, sys: DynamicalSystem, n_starts: int, horizon: float,
            step: float, seed: int, extra_starts=None, t0: float = 0.0,
            tol: float = DEFAULT_TOL):
    """Search for a trajectory that leaves the set.

    Integrates from boundary samples (and any extra starts, tried first),
    each distinct start once; returns (x0, t_exit) for the lowest-index
    start whose violation exceeds the strict exit band within the horizon,
    or None if no exit is seen.
    A linear system or an extra start of another dimension than the set,
    an extra start already outside the set by more than that band, a step
    and horizon outside 0 < step <= horizon < inf, more than MAX_STEPS
    steps, a tol or seed that sample_boundary rejects, or a nonlinear field
    that is not finite at a start raises InputError. A trajectory whose
    state turns non-finite or grows past the divergence threshold later on
    is dropped without an exit.
    tol is the boundary band of the starts: every start, extra ones too, is
    nudged inward from what binds within it.
    Deterministic for a given seed.
    """
    if isinstance(sys, LinearSystem) and sys.a.shape[0] != s.dim:
        raise InputError("system dimension does not match the set")
    nsteps = _step_grid(horizon, step)
    sampled = [bp.point for bp in sample_boundary(s, n_starts, seed, tol)]
    extra = [as_vector(p, "x0") for p in (() if extra_starts is None else extra_starts)]
    if any(p.shape != (s.dim,) for p in extra):
        raise InputError("extra start dimension does not match the set")
    if extra:
        viol = outside_violation_batch(s, np.column_stack(extra))
        outside = np.flatnonzero(viol > _EXIT_BAND)
        if outside.size:
            k = int(outside[0])
            raise InputError(f"extra start {k} lies outside the set "
                             f"(violation {float(viol[k]):.3e})")
    starts = _nudged_starts(s, np.column_stack(extra + sampled), tol)
    # a start repeated later exits exactly when its first copy does, so only
    # first copies are integrated, in order, and the lowest index still wins
    _, first = np.unique(starts, axis=1, return_index=True)
    x0_all = starts[:, np.sort(first)]

    rk4_map = None
    if isinstance(sys, LinearSystem):
        # a linear field's RK4 step is one matrix, the step applied to the identity
        a = sys.a
        rk4_map = _rk4_step(lambda t, x: a @ x, t0, np.eye(a.shape[0]), step)
    else:
        # a trajectory that is not finite from its first step would be
        # dropped unseen, so such a field is an input error, not "no exit"
        f0 = field_batch(sys, t0, x0_all)
        bad = np.flatnonzero(~np.all(np.isfinite(f0), axis=0))
        if bad.size:
            raise InputError("the field is not finite at start "
                             f"{[float(v) for v in x0_all[:, bad[0]]]}")

    n_cols = x0_all.shape[1]
    best, best_time = n_cols, math.inf  # columns with index >= best can no longer win
    cur = x0_all.copy()
    idx_map = np.arange(n_cols)
    div2 = _DIVERGENCE ** 2
    for k in range(nsteps):
        if idx_map.size == 0:
            break
        t_now = t0 + k * step
        if rk4_map is not None:
            cur = rk4_map @ cur
        else:
            cur = _rk4_step(lambda tt, xx: field_batch(sys, tt, xx), t_now, cur, step)
        finite = np.all(np.isfinite(cur), axis=0)
        if not np.all(finite):
            cur[:, ~finite] = 0.0
        viol = outside_violation_batch(s, cur)
        exited = (viol > _EXIT_BAND) & finite
        if np.any(exited):  # every live column is below best, so the first exit wins
            best, best_time = int(idx_map[exited][0]), (k + 1) * step
        keep = finite & ~exited & (np.einsum("ij,ij->j", cur, cur) <= div2)
        keep &= idx_map < best
        if not np.all(keep):
            cur = cur[:, keep]
            idx_map = idx_map[keep]
    if best < n_cols:
        return x0_all[:, best].copy(), best_time
    return None
