"""Seeded instance generators for the three benchmark workloads.

Every instance carries the verdict its construction guarantees and an
``oracle`` record that ``oracles.py`` uses to re-check the program's output
with numpy alone. Instances are plain dicts of numpy arrays and strings, so
the program only ever sees the generated inputs.

Workloads (one op = build the set and system, or load a problem file, then
one ``check`` or ``falsify`` call):

- ``exact-lp``: linear ``check`` on polyhedral sets, n in 4..12; stresses the
  facet-LP and vertex/ray decomposition deciders (``solvers``).
- ``exact-quadratic``: linear ``check`` on ellipsoids (n 4..16) and Lorenz
  cones (n 4..14); stresses ``numerics`` (Jacobi, Cholesky, eta search) and
  never touches ``solvers``.
- ``probe``: ``check`` and ``falsify`` through ``cli.main`` on small problem
  files (n 2..4, every family, linear and expression systems) plus the
  files in ``problems/``; stresses boundary sampling, tangent cones, the
  falsifier, the formula compiler and thousands of tiny LPs.

A round holds one instance of every cell (family, n and verdict; for probe
also system and op) in a seeded order; Lorenz cones alternate their verdict
from round to round. A pass runs whole rounds, so it has the stated mix.
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("exact-lp", "exact-quadratic", "probe")

# every n in the stated ranges, so latency percentiles fall inside dense
# clusters rather than on the gap between two sizes
LP_DIMS = tuple(range(4, 13))
ELLIPSOID_DIMS = tuple(range(4, 17))
LORENZ_DIMS = tuple(range(4, 15))
PROBE_DIMS = (2, 3, 4)
PROBE_OPTIONS = {"n_samples": 200, "horizon": 0.25, "step": 0.01}
# flags that put the problems/ files on the same small budget as the generated ones
PROBE_FLAGS = ["--samples", "200", "--horizon", "0.25", "--step", "0.01"]

# verdicts of the shipped example problems, known in closed form
SHIPPED = {  # file: (n, verdict, oracle set, oracle system)
    "ellipsoid_rotation.json": (2, "invariant", {"kind": "ellipsoid", "Q": np.eye(2)},
                                {"kind": "linear", "A": np.array([[0.0, 1.0], [-1.0, 0.0]])}),
    "expression_cubic_decay.json": (2, "invariant", {"kind": "ellipsoid", "Q": np.eye(2)},
                                    {"kind": "cubic_decay"}),
    "hpolyhedron_box.json": (2, "invariant",
                             {"kind": "hpoly", "G": np.array([[1.0, 0], [0, 1], [-1, 0], [0, -1]]),
                              "b": np.array([1.0, 1, 0, 0])},
                             {"kind": "linear", "A": -np.eye(2)}),
    "lorenz_expanding.json": (3, "invariant",
                              {"kind": "lorenz", "Q": np.diag([1.0, 1.0, -1.0]),
                               "u": np.array([0.0, 0.0, 1.0])},
                              {"kind": "linear", "A": np.eye(3)}),
    "orthant_unstable.json": (2, "not_invariant", {"kind": "orthant", "T": np.eye(2)},
                              {"kind": "linear", "A": np.array([[-1.0, -0.5], [1.0, -1.0]])}),
    "vcone_exchange.json": (2, "invariant", {"kind": "orthant", "T": np.eye(2)},
                            {"kind": "linear", "A": np.array([[0.0, 1.0], [1.0, 0.0]])}),
    "vpolytope_triangle.json": (2, "invariant",
                                {"kind": "simplex", "V": np.array([[0.0, 0], [1, 0], [0, 1]])},
                                {"kind": "linear", "A": -np.eye(2)}),
}


# ---------------------------------------------------------------- primitives

def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _transform(rng, n):
    """Random T with singular values in [0.5, 2] (condition number <= 4)."""
    return _orthogonal(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) @ _orthogonal(rng, n).T


def _spd(rng, n):
    u = _orthogonal(rng, n)
    return u @ np.diag(rng.uniform(0.5, 2.0, n)) @ u.T


def _skew(rng, n):
    r = rng.normal(size=(n, n))
    return 0.5 * (r - r.T)


def _dominant(rng, n, invariant, axis):
    """A0 whose log-norm (axis=1: rows, the inf-norm; axis=0: columns, the
    1-norm) is negative, or positive in exactly one row/column."""
    a0 = rng.normal(size=(n, n)) / np.sqrt(n)
    np.fill_diagonal(a0, 0.0)
    off = np.sum(np.abs(a0), axis=axis)
    margin = rng.uniform(0.1, 1.0, n)
    if not invariant:
        margin[rng.integers(n)] *= -1.0
    np.fill_diagonal(a0, -(off + margin))
    return a0


def _metzler(rng, n, invariant):
    a0 = np.abs(rng.normal(size=(n, n)))
    np.fill_diagonal(a0, 2.0 * rng.normal(size=n))
    if not invariant:
        i, j = rng.choice(n, size=2, replace=False)
        a0[i, j] = -rng.uniform(0.2, 1.0)
    return a0


def _conj(t, a0):
    return t @ np.linalg.solve(t.T, a0.T).T  # T A0 T^-1


def _inst(workload, family, n, expect, op, set_, system, oracle_set, oracle_sys):
    return {"workload": workload, "family": family, "n": int(n), "expect": expect, "op": op,
            "set": set_, "system": system, "oracle": {"set": oracle_set, "system": oracle_sys}}


# ------------------------------------------------------------------ families

def hpoly_random(rng, n, invariant, workload="exact-lp"):
    """3n random facets with b = 1 (origin inside, often unbounded).

    A = -cI contracts toward the origin, so the star-shaped set is invariant.
    The refuting A is random plus a rank-one term that makes the outward
    flux at a known facet point p equal to at least 0.5.
    """
    g = rng.normal(size=(3 * n, n))
    b = np.ones(3 * n)
    if invariant:
        a = -rng.uniform(0.5, 2.0) * np.eye(n)
    else:
        while True:
            u = rng.normal(size=n)
            reach = g @ u
            if np.max(reach) > 1e-3:
                break
        j = int(np.argmax(reach))
        p = u / reach[j]
        a0 = rng.normal(size=(n, n)) / np.sqrt(n)
        flux0 = float(g[j] @ a0 @ p)
        alpha = max(0.0, -flux0) + 0.5 * (1.0 + abs(flux0))
        a = a0 + (alpha / (float(g[j] @ g[j]) * float(p @ p))) * np.outer(g[j], p)
    expect = "invariant" if invariant else "not_invariant"
    return _inst(workload, "hpoly-random", n, expect, "check",
                 {"type": "hpolyhedron", "G": g, "b": b}, {"type": "linear", "A": a},
                 {"kind": "hpoly", "G": g, "b": b}, {"kind": "linear", "A": a})


def linf_ball(rng, n, invariant, workload="exact-lp"):
    """{x : |T^-1 x|_inf <= 1} in H-form under T A0 T^-1, A0 row-dominant."""
    t = _transform(rng, n)
    ti = np.linalg.inv(t)
    a = _conj(t, _dominant(rng, n, invariant, axis=1))
    g = np.vstack([ti, -ti])
    b = np.ones(2 * n)
    expect = "invariant" if invariant else "not_invariant"
    return _inst(workload, "linf-ball", n, expect, "check",
                 {"type": "hpolyhedron", "G": g, "b": b}, {"type": "linear", "A": a},
                 {"kind": "hpoly", "G": g, "b": b}, {"kind": "linear", "A": a})


def cross_polytope(rng, n, invariant, workload="exact-lp"):
    """{x : |T^-1 x|_1 <= 1} in V-form (2n vertices) under T A0 T^-1, A0 column-dominant."""
    t = _transform(rng, n)
    a = _conj(t, _dominant(rng, n, invariant, axis=0))
    verts = np.vstack([t.T, -t.T])[rng.permutation(2 * n)]
    expect = "invariant" if invariant else "not_invariant"
    return _inst(workload, "cross-polytope", n, expect, "check",
                 {"type": "vpolytope", "vertices": verts}, {"type": "linear", "A": a},
                 {"kind": "l1", "T": t}, {"kind": "linear", "A": a})


def vcone_redundant(rng, n, invariant, workload="exact-lp"):
    """T R+^n generated by the columns of T plus redundant rays on its faces,
    under T A0 T^-1 with A0 Metzler (invariant) or not."""
    t = _transform(rng, n)
    a = _conj(t, _metzler(rng, n, invariant))
    extra = []
    for _ in range(max(1, n // 2)):
        size = int(rng.integers(2, max(3, n)))
        w = np.zeros(n)
        w[rng.choice(n, size=size, replace=False)] = rng.uniform(0.2, 1.0, size)
        extra.append(t @ w)
    rays = np.vstack([t.T, np.array(extra)])[rng.permutation(n + len(extra))]
    expect = "invariant" if invariant else "not_invariant"
    return _inst(workload, "vcone-redundant", n, expect, "check",
                 {"type": "vcone", "rays": rays}, {"type": "linear", "A": a},
                 {"kind": "orthant", "T": t}, {"kind": "linear", "A": a})


def ellipsoid(rng, n, invariant, workload="exact-quadratic"):
    """x'Qx <= 1 under A = Q^-1 (S -+ P): A'Q + QA = -+2P."""
    q = _spd(rng, n)
    sign = -1.0 if invariant else 1.0
    a = np.linalg.solve(q, _skew(rng, n) + sign * _spd(rng, n))
    expect = "invariant" if invariant else "not_invariant"
    return _inst(workload, "ellipsoid", n, expect, "check",
                 {"type": "ellipsoid", "Q": q}, {"type": "linear", "A": a},
                 {"kind": "ellipsoid", "Q": q}, {"kind": "linear", "A": a})


def lorenz(rng, n, invariant, workload="exact-quadratic"):
    """Ice-cream cone x'Qx <= 0 under A = Q^-1 (S -+ P) + cI.

    A'Q + QA - 2cQ = -+2P, so eta = 2c certifies the minus sign, and with
    the plus sign every boundary ray has outward flux x'Px > 0.
    """
    u = _orthogonal(rng, n)
    w = np.concatenate([rng.uniform(0.5, 2.0, n - 1), [-rng.uniform(0.5, 2.0)]])
    q = u @ np.diag(w) @ u.T
    axis = u[:, -1] * np.sign(u[np.argmax(np.abs(u[:, -1])), -1])
    sign = -1.0 if invariant else 1.0
    a = np.linalg.solve(q, _skew(rng, n) + sign * _spd(rng, n)) + rng.uniform(-1.0, 1.0) * np.eye(n)
    expect = "invariant" if invariant else "not_invariant"
    return _inst(workload, "lorenz", n, expect, "check",
                 {"type": "lorenz", "Q": q, "u_n": axis}, {"type": "linear", "A": a},
                 {"kind": "lorenz", "Q": q, "u": axis}, {"kind": "linear", "A": a})


# ------------------------------------------------------------------- probe

def _radial(n, contracting):
    """-g(x) x with g = 1 + |x|^2, or +g(x) x with g = 1.5 + 0.5 sin(x1) (no blow-up)."""
    if contracting:
        g = "(1 + " + " + ".join(f"x{i + 1}^2" for i in range(n)) + ")"
        return [f"-{g}*x{i + 1}" for i in range(n)]
    return [f"(1.5 + 0.5*sin(x1))*x{i + 1}" for i in range(n)]


def simplex(rng, n, invariant, workload="probe"):
    """A simplex around the origin in V-form under A = -+cI."""
    verts = np.vstack([np.eye(n), -np.ones(n) / n]) @ _transform(rng, n).T
    a = (-1.0 if invariant else 1.0) * rng.uniform(0.5, 2.0) * np.eye(n)
    expect = "invariant" if invariant else "not_invariant"
    return _inst(workload, "vpolytope-simplex", n, expect, "check",
                 {"type": "vpolytope", "vertices": verts}, {"type": "linear", "A": a},
                 {"kind": "simplex", "V": verts}, {"kind": "linear", "A": a})


def orthant(rng, n, invariant, workload="probe"):
    """The nonnegative orthant under a Metzler A (invariant) or not."""
    a = _metzler(rng, n, invariant)
    expect = "invariant" if invariant else "not_invariant"
    return _inst(workload, "orthant", n, expect, "check",
                 {"type": "orthant", "n": n}, {"type": "linear", "A": a},
                 {"kind": "orthant", "T": np.eye(n)}, {"kind": "linear", "A": a})


PROBE_FAMILIES = {"hpolyhedron": linf_ball, "vpolytope-simplex": simplex,
                  "vpolytope-cross": cross_polytope, "vcone-redundant": vcone_redundant,
                  "ellipsoid": ellipsoid, "lorenz": lorenz, "orthant": orthant}
CONES = ("vcone-redundant", "lorenz", "orthant")
# system variants: linear invariant, linear refuting, contracting radial field,
# expanding radial field (refutes the bounded sets, which hold the origin
# inside; cones stay invariant under any radial field)
PROBE_SYSTEMS = ("linear+", "linear-", "radial-in", "radial-out")


def probe_instance(rng, family, n, system, op):
    inst = PROBE_FAMILIES[family](rng, n, system == "linear+", "probe")
    inst["family"] = family
    inst["op"] = op
    inst["system_kind"] = "linear" if system.startswith("linear") else "expression"
    if inst["system_kind"] == "expression":
        contracting = system == "radial-in"
        inst["system"] = {"type": "expression", "formulas": _radial(n, contracting)}
        inst["oracle"]["system"] = {"kind": "radial", "sign": -1.0 if contracting else 1.0}
        invariant = contracting or family in CONES
        inst["expect"] = "invariant" if invariant else "not_invariant"
    inst["seed"] = int(rng.integers(2**31))
    return inst


# -------------------------------------------------------------------- pools

def _cells(workload, r=0):
    """The (maker, n, invariant) or probe (family, n, system, op) cells of round r."""
    if workload == "exact-lp":
        return [(f, n, inv) for f in (hpoly_random, linf_ball, cross_polytope, vcone_redundant)
                for n in LP_DIMS for inv in (True, False)]
    if workload == "exact-quadratic":
        # one Lorenz cone per n, its verdict alternating with n and the round:
        # a Lorenz check costs ~20 ellipsoid checks at equal n
        return ([(ellipsoid, n, inv) for n in ELLIPSOID_DIMS for inv in (True, False)]
                + [(lorenz, n, (n + r) % 2 == 0) for n in LORENZ_DIMS])
    if workload == "probe":
        # every system is checked; one falsify per set, its system rotating
        cells = []
        for fi, f in enumerate(PROBE_FAMILIES):
            for ni, n in enumerate(PROBE_DIMS):
                cells += [(f, n, s, "check") for s in PROBE_SYSTEMS]
                cells.append((f, n, PROBE_SYSTEMS[(fi + ni) % len(PROBE_SYSTEMS)], "falsify"))
        cells += [("shipped", name, None, op) for name in sorted(SHIPPED)
                  for op in ("check", "falsify")]
        return cells
    raise ValueError(f"unknown workload {workload!r}")


def round_size(workload):
    return len(_cells(workload))


def generate(workload, seed, rounds):
    """The first ``rounds`` rounds of the workload's instance stream for ``seed``."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    out = []
    for r in range(rounds):
        cells = _cells(workload, r)
        for k in rng.permutation(len(cells)):
            cell = cells[k]
            if workload == "probe":
                family, n, system, op = cell
                if family == "shipped":
                    dim, expect, oset, osys = SHIPPED[n]
                    inst = _inst("probe", "shipped", dim, expect, op, None, None, oset, osys)
                    inst["file"] = n
                    inst["system_kind"] = "expression" if osys["kind"] == "cubic_decay" else "linear"
                else:
                    inst = probe_instance(rng, family, n, system, op)
            else:
                make, n, inv = cell
                inst = make(rng, n, inv)
            out.append(inst)
    return out


def warmup_instance(workload, seed):
    """A fixed small instance run once during set-up."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed, 1])
    if workload == "exact-lp":
        return hpoly_random(rng, LP_DIMS[0], True)
    if workload == "exact-quadratic":
        return ellipsoid(rng, ELLIPSOID_DIMS[0], True)
    # a simplicial V-form: the falsify path without the rejection-sampling
    # hotspot, which the timed ops measure
    return probe_instance(rng, "vpolytope-simplex", PROBE_DIMS[0], "linear+", "falsify")


# ------------------------------------------------------------ serialisation

def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    return v


def problem_json(inst):
    """The problem file text for a generated probe instance."""
    return json.dumps({"schema": "nagumo/1", "set": _plain(inst["set"]),
                       "system": _plain(inst["system"]),
                       "options": dict(PROBE_OPTIONS, seed=inst["seed"])})


def write_problems(instances, directory, problems_dir):
    """Write each generated probe instance to its own file and record the
    path on the instance; shipped instances point into ``problems_dir``."""
    for k, inst in enumerate(instances):
        if inst.get("file") is not None:
            inst["path"] = os.path.join(problems_dir, inst["file"])
        elif inst["workload"] == "probe":
            path = os.path.join(directory, f"p{k:05d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(problem_json(inst))
            inst["path"] = path


def instance_bytes(inst):
    """Canonical byte form of an instance, for determinism tests."""
    return json.dumps(_plain({k: v for k, v in inst.items() if k != "path"}),
                      sort_keys=True).encode()
