"""Trajectory integration and simulation-based falsification.

The integrator and the falsifier take one fixed-step classic Runge-Kutta
step (_stepper), one matrix for a linear field. Both evaluate the field
through the system, whose own rule rejects a state of another dimension,
and take a finite t0 and a step grid checked in _step_grid. The
falsifier launches trajectories from the boundary samples as drawn and
reports the first start whose trajectory leaves the set beyond a strict
band, once the same start integrated at half the step confirms the exit:
RK4's drift along a surface the flow is tangent to shrinks about 16-fold at
half the step (Hairer, Norsett & Wanner, Solving ODEs I, 1993, II.4), a
real exit does not. Only candidate exits are integrated at half the step.
Both take the whole steps within the horizon (see _step_grid).
The falsifier advances its trajectories in blocks of steps, each block
classified in one call (see falsify); every trajectory is still the one a
step-by-step RK4 loop integrates, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import (_check_grid, _check_real, _check_sampling, as_point, as_vector,
                       distinct_columns)
from .sets import DEFAULT_TOL, ConvexSet, outside_violation_batch, sample_boundary
from .systems import DynamicalSystem, LinearSystem

MAX_STEPS = 1_000_000  # integration steps per trajectory; the defaults take 10,000
_EXIT_BAND = 1e-6      # a violation above this is a strict exit
_DIVERGENCE = 1e12     # a state norm above this ends the trajectory
_BLOCK_COLUMNS = 4096  # starts searched together, and state columns of one block
_NEVER = 4 * MAX_STEPS  # beyond every half-step index


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
    """Step count of a fixed-step integration from t0: the largest whole
    number of steps that does not pass the horizon, up to the rounding of
    horizon / step. InputError unless t0 and the grid keep their rules and
    the count is at most MAX_STEPS, so that every integration ends."""
    _check_real(t0, "t0")
    step, horizon = _check_grid(step, horizon, "step", "horizon")
    ratio = horizon / step
    # a quotient within its rounding (4 ulps) below a whole number is that number
    nsteps = ratio + 4 * math.ulp(ratio)
    if not nsteps < MAX_STEPS + 1:
        raise InputError(f"horizon / step is {ratio:.3g} steps, more than the cap of {MAX_STEPS}")
    return math.floor(nsteps)


def integrate(sys: DynamicalSystem, x0, t0: float, horizon: float, step: float) -> Trajectory:
    """Classic fixed-step RK4 from t0 over the horizon, by falsify's own step.

    Truncates with diverged=True when a state goes non-finite or its norm
    exceeds the divergence threshold. A linear system of another dimension
    than x0, or a t0 or grid that _step_grid rejects, is an InputError.
    """
    nsteps = _step_grid(horizon, step, t0)
    x = as_vector(x0, "x0").copy()
    if isinstance(sys, LinearSystem):
        sys.field(t0, x)  # checks the dimension, which its step matrix does not
    advance = _stepper(sys, step)
    times = [t0]
    states = [x.copy()]
    diverged = False
    for k in range(nsteps):
        x = advance(t0 + k * step, x)
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
    return lambda t, x: _rk4_step(sys.field, t, x, h)


def _not_finite(x):
    """The columns of x that are not finite; None when the sum of all squares
    is finite, which shows that none is."""
    if math.isfinite(np.einsum("ij,ij->", x, x)):
        return None
    return ~np.all(np.isfinite(x), axis=0)


def _past_bound(j, x):
    """The columns of x that are not finite or whose norm is past the
    divergence bound; None when the sum of all squares shows that none is."""
    if np.einsum("ij,ij->", x, x) <= 0.5 * _DIVERGENCE ** 2:
        return None
    return ~(np.einsum("ij,ij->j", x, x) <= _DIVERGENCE ** 2)


def _block(s: ConvexSet, stepper, t_of, x, count, ends):
    """count steps of the columns of x, step j from time t_of(j), classified
    in one call on the n x (count*N) array of their states. Returns the
    input of the next step and, per state (count x N), whether ends(j, state)
    ended its column there, whether it is finite (both None when no column
    ended, so that every state is finite) and whether it is finite and
    beyond the exit band. An ended column is 0 in the next step's input, so
    that no state past the end of its trajectory is stepped."""
    states, ended = [], None
    for j in range(count):
        x = stepper(t_of(j), x)
        states.append(x.copy())
        end = ends(j, x)
        if end is not None and np.any(end):
            if ended is None:
                ended = np.zeros((count, x.shape[1]), dtype=bool)
            ended[j] = end
            x = np.where(end, 0.0, x)
    # one step's states are the block itself, without a copy
    flat = states[0] if count == 1 else np.stack(states, axis=1).reshape(x.shape[0], -1)
    if ended is None:
        return x, None, None, (outside_violation_batch(s, flat) > _EXIT_BAND).reshape(count, -1)
    finite = np.all(np.isfinite(flat), axis=0)  # the violation sees the others as 0
    out = (outside_violation_batch(s, np.where(finite, flat, 0.0)) > _EXIT_BAND) & finite
    return x, ended, finite.reshape(count, -1), out.reshape(count, -1)


def _first(mask, base):
    """Per column, base plus the row of its first True in mask, else _NEVER."""
    return np.where(np.any(mask, axis=0), base + np.argmax(mask, axis=0), _NEVER)


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
    None if no exit is confirmed within the horizon, whose steps are the
    whole ones that fit in it (see _step_grid).
    A bad n_starts, seed, tol, t0, step or horizon, a linear system or an
    extra start of another dimension than the set, an extra start already
    outside the set by more than that band, or a field that is not finite at
    a start raises InputError. A trajectory whose state turns non-finite or
    grows past the divergence threshold later on, at either step, is dropped
    without an exit. tol is the boundary band of the samples.
    Deterministic for a given seed.

    The distinct starts are searched in near-equal groups of at most
    _BLOCK_COLUMNS, in index order, and the first group with a confirmed
    exit ends the search. A group's live trajectories advance in blocks of
    1, 2, 4, ... steps, so an early exit costs at most twice its steps. A
    block holds at most _BLOCK_COLUMNS state columns (one step when the
    group holds more than half as many), one n x count x N array classified
    in one call; a column's first step that is not finite, beyond the band
    or past the divergence bound ends it, and only that step can be its
    exit. An ended column is 0 in the next step's input, so nothing past the
    end of a trajectory is stepped. After each block, only its candidate
    exits are integrated from t0 at step/2, in blocks of the same size (see
    _confirm); a candidate at step k is confirmed when that run is finite
    through half step 2k + 2 and beyond the band at one of those half steps.
    A start that never becomes a candidate is never half-stepped.
    """
    _check_sampling(n_starts, seed, tol, "n_starts")
    nsteps = _step_grid(horizon, step, t0)
    sampled = [bp.point for bp in sample_boundary(s, n_starts, seed, tol)]
    extra = [as_point(s, p, f"extra_starts[{k}]")
             for k, p in enumerate(() if extra_starts is None else extra_starts)]
    starts = np.ascontiguousarray(np.array(extra + sampled).T)
    viol = outside_violation_batch(s, starts[:, :len(extra)]) if extra else np.zeros(0)
    if np.any(viol > _EXIT_BAND):
        k = int(np.argmax(viol > _EXIT_BAND))
        raise InputError(f"extra start {k} lies outside the set (violation {viol[k]:.3e})")
    # a start repeated later exits exactly when its first copy does, so only
    # first copies are integrated, in order, and the lowest index still wins
    x0_all = starts[:, distinct_columns(starts)]
    # a trajectory that is not finite from its first step would be dropped
    # unseen, so such a field is an input error, not "no exit"
    f0 = sys.field(t0, x0_all)  # a linear system checks its dimension
    bad = np.flatnonzero(~np.all(np.isfinite(f0), axis=0))
    if bad.size:
        raise InputError("the field is not finite at start "
                         f"{[float(v) for v in x0_all[:, bad[0]]]}")
    full, half = _stepper(sys, step), _stepper(sys, 0.5 * step)

    # the lowest-index confirmed start wins, so the starts are searched in
    # groups in index order, and the first group with an exit ends the search
    n_cols = x0_all.shape[1]
    for group in np.array_split(np.arange(n_cols), -(-n_cols // _BLOCK_COLUMNS)):
        hit = _search(s, full, half, x0_all[:, group], nsteps, step, t0)
        if hit is not None:
            return x0_all[:, group[hit[0]]].copy(), hit[1]
    return None


def _search(s: ConvexSet, full, half, x0, nsteps: int, step: float, t0: float):
    """falsify's search from the columns of x0, at most _BLOCK_COLUMNS:
    the index of the lowest column whose exit is confirmed and its t_exit,
    or None."""
    n_cols = x0.shape[1]
    best, best_time = n_cols, math.inf  # columns with index >= best can no longer win
    live, cur = np.arange(n_cols), x0
    k, length = 0, 1
    while k < nsteps and live.size:
        k0, count = k, min(length, nsteps - k, max(1, _BLOCK_COLUMNS // live.size))
        k, length = k0 + count, 2 * length
        cur, ended, _, exited = _block(s, full, lambda j: t0 + (k0 + j) * step, cur, count,
                                       _past_bound)
        stop = exited if ended is None else exited | ended
        if not np.any(stop):
            continue
        at = _first(stop, k0)  # each column's stopping step
        cand = np.flatnonzero(exited[np.minimum(at - k0, count - 1), np.arange(live.size)])
        if cand.size:  # every live column is below best, so the first confirmed wins
            c = _confirm(s, half, x0[:, live[cand]], 2 * at[cand] + 2, step, t0)
            if c is not None:
                best, best_time = int(live[cand[c]]), (int(at[cand[c]]) + 1) * step
        keep = (at == _NEVER) & (live < best)  # not stopped, and can still win
        live, cur = live[keep], cur[:, keep]
    return (best, best_time) if best < n_cols else None


def _confirm(s: ConvexSet, half, x0, last, step: float, t0: float):
    """The index of the first column of x0 whose exit is confirmed: from t0
    at step/2 it is finite through half step last (per column) and beyond
    the band at one of those half steps; None when none is."""
    # per column, its first half step beyond the band and its first one not finite
    seen, fail = np.full(last.size, _NEVER), np.full(last.size, _NEVER)
    x, hj, upto = x0, 0, int(last.max())

    def ends(j, x):  # a column is set to 0 past its last half step
        done, bad = last <= hj + j + 1, _not_finite(x)
        return done if bad is None else done | bad

    while hj < upto:
        count = min(upto - hj, max(1, _BLOCK_COLUMNS // last.size))
        x, _, finite, out = _block(s, half, lambda j: t0 + 0.5 * (hj + j) * step, x, count, ends)
        seen = np.minimum(seen, _first(out, hj + 1))
        if finite is not None:
            fail = np.minimum(fail, _first(~finite, hj + 1))
        hj += count
    confirmed = (seen <= last) & (fail > last)
    return int(np.argmax(confirmed)) if np.any(confirmed) else None
