"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math

import numpy as np

from invarcheck.checkers import (
    Decision,
    check,
    check_ellipsoid_linear,
    check_hpoly_linear,
    check_lorenz_linear,
    check_orthant_linear,
    check_vpolytope,
)
from invarcheck.cli import main as cli_main
from invarcheck.dynamics import falsify, integrate
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
from invarcheck.solvers import lp_feasible, nnls, qp_nearest
from invarcheck.systems import LinearSystem
from invarcheck.tangent import cone_contains, tangent_cone_at

from oracles import (
    dist_to_polytope_bruteforce,
    dist_to_quadric_sublevel,
    enumerate_qp_nearest,
    metzler_violation,
    power_iteration_gen_eig_max,
    project_box,
)


def _report(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_metzler_equivalence():
    rng = np.random.default_rng(1001)
    disagreements = 0
    for _ in range(500):
        a = rng.uniform(-1.0, 1.0, size=(5, 5))
        verdict = check_orthant_linear(a).decision
        expected = (Decision.INVARIANT if metzler_violation(a) is None
                    else Decision.NOT_INVARIANT)
        disagreements += verdict is not expected
    _report(1, "Metzler equivalence over 500 random 5x5 systems",
            disagreements == 0, f"({disagreements} disagreements)")


def test_criterion_2_lyapunov_equivalence():
    rng = np.random.default_rng(2002)
    disagreements = 0
    worst_gap = 0.0
    n_invariant = 0
    for trial in range(200):
        n = int(rng.choice([2, 3, 4]))
        b = rng.normal(size=(n, n))
        q = b @ b.T + 0.5 * np.eye(n)
        a = rng.normal(size=(n, n))
        if trial % 2 == 0:
            a = a - (1.0 + np.max(np.sum(np.abs(a), axis=1))) * np.eye(n)
        verdict = check_ellipsoid_linear(Ellipsoid(q), a)
        m = a.T @ q + q @ a
        lam_oracle = power_iteration_gen_eig_max(0.5 * (m + m.T), q)
        expected = Decision.INVARIANT if lam_oracle <= 1e-9 else Decision.NOT_INVARIANT
        disagreements += verdict.decision is not expected
        if verdict.decision is Decision.INVARIANT:
            lam_lib = verdict.certificate.data["eta"]
            n_invariant += 1
        else:
            lam_lib = verdict.notes["pencil_max_eig"]
        worst_gap = max(worst_gap, abs(lam_lib - lam_oracle))
    _report(2, "eigenvalue criterion matches the power-iteration oracle",
            disagreements == 0 and worst_gap <= 1e-7 and 20 < n_invariant < 180,
            f"({disagreements} disagreements, max |gap| {worst_gap:.2e}, "
            f"{n_invariant} invariant)")


def test_criterion_3_lp_qp_backend_agreement():
    rng = np.random.default_rng(3003)
    mismatches = 0
    worst_enum_gap = 0.0
    n_feasible = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        l1 = int(rng.integers(2, 9))
        x_mat = rng.normal(size=(n, l1))
        i = int(rng.integers(0, l1))
        if rng.random() < 0.5:
            coeff = rng.random(l1)
            coeff[i] = -np.sum(np.delete(coeff, i))
            f = x_mat @ coeff
        else:
            f = rng.normal(size=n)
        _, alpha = lp_feasible(VPolytope(x_mat.T).columns, np.append(f, 0.0), i)
        objective = qp_nearest(x_mat, f, i)[2]
        feasible = alpha is not None
        n_feasible += feasible
        if feasible != (objective <= 1e-9):
            mismatches += 1
        if l1 <= 6:
            obj_ref, _ = enumerate_qp_nearest(x_mat, f, i)
            worst_enum_gap = max(worst_enum_gap, abs(objective - obj_ref))
    _report(3, "LP feasibility iff QP distance zero; QP matches enumeration",
            mismatches == 0 and worst_enum_gap <= 1e-8 and 20 < n_feasible < 180,
            f"({mismatches} mismatches, enum gap {worst_enum_gap:.2e})")


def _battery():
    """50 (set, linear system) pairs spanning all five families."""
    box2 = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 0.0, 0.0]))
    boxc = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
    tri_h = HPolyhedron(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                        np.array([0.0, 0.0, 1.0]))
    halfplane = HPolyhedron(np.array([[1.0, 0.0]]), np.array([1.0]))
    rot2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    metzler3 = np.array([[-1.0, 2.0, 0.0], [0.0, -2.0, 1.0], [0.5, 0.0, -1.0]])
    pairs = [
        (box2, -np.eye(2)), (box2, np.array([[-1.0, 0.5], [0.0, -1.0]])),
        (box2, np.eye(2)), (boxc, rot2),
        (boxc, np.array([[-1.0, 0.3], [0.3, -1.0]])), (tri_h, -np.eye(2)),
        (halfplane, -np.eye(2)), (halfplane, np.eye(2)),
        (orthant_h(3), metzler3),
        (orthant_h(2), np.array([[-1.0, -0.5], [1.0, -1.0]])),
    ]
    tri2 = VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tetra = VPolytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    tri_off = VPolytope([[1.0, 1.0], [2.0, 1.0], [1.0, 2.0]])
    seg = VPolytope([[0.0], [1.0]])
    pairs += [
        (tri2, -np.eye(2)), (tri2, np.array([[0.0, -1.0], [-1.0, 0.0]])),
        (tetra, -np.eye(3)), (tetra, np.eye(3)),
        (tri_off, -np.eye(2)), (tri2, np.array([[-1.0, 0.0], [1.0, -1.0]])),
        (seg, np.array([[-1.0]])), (seg, np.array([[1.0]])),
        (tetra, np.array([[-1.0, 0.2, 0.0], [0.0, -1.0, 0.2], [0.2, 0.0, -1.0]])),
        (tri2, np.array([[0.0, 1.0], [-1.0, 0.0]])),
    ]
    wedge = VCone([[1.0, 0.0], [1.0, 1.0]])
    cone3 = VCone([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
    metzler3_bad = metzler3.copy()
    metzler3_bad[1, 0] = -0.5
    pairs += [
        (orthant_v(2), np.array([[0.0, 1.0], [1.0, 0.0]])),
        (orthant_v(2), np.array([[0.0, -1.0], [-1.0, 0.0]])),
        (orthant_v(3), metzler3), (orthant_v(3), metzler3_bad),
        (wedge, 0.5 * np.eye(2)), (wedge, np.array([[0.0, -1.0], [1.0, 0.0]])),
        (cone3, -2.0 * np.eye(3)), (cone3, np.diag([1.0, 1.0, -5.0])),
        (orthant_v(2), np.array([[-1.0, 3.0], [2.0, -1.0]])),
        (VCone([[1.0, 0.0], [0.7, 0.7]]), np.diag([-1.0, -2.0])),
    ]
    rng = np.random.default_rng(4004)
    pairs += [
        (Ellipsoid(np.eye(2)), rot2),
        (Ellipsoid(np.diag([1.0, 4.0])), -np.eye(2)),
        (Ellipsoid(np.eye(2)), np.diag([1.0, -1.0])),
    ]
    for k in range(7):
        n = int(rng.choice([2, 3]))
        b = rng.normal(size=(n, n))
        q = b @ b.T + 0.5 * np.eye(n)
        a = rng.normal(size=(n, n))
        if k % 2 == 0:
            a = a - (1.0 + np.max(np.sum(np.abs(a), axis=1))) * np.eye(n)
        pairs.append((Ellipsoid(q), a))
    ice3 = LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 0.0, 1.0])
    skew_axis = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    widecone = LorenzCone(np.diag([2.0, 0.5, -1.0]))
    theta = 0.5
    rot13 = np.array([[math.cos(theta), 0.0, math.sin(theta)],
                      [0.0, 1.0, 0.0],
                      [-math.sin(theta), 0.0, math.cos(theta)]])
    q_rot = rot13.T @ np.diag([1.0, 1.0, -1.0]) @ rot13
    a_rot = rot13.T @ np.diag([1.0, 1.0, 3.0]) @ rot13
    pairs += [
        (ice3, np.eye(3)), (ice3, np.diag([1.0, 1.0, 3.0])),
        (ice3, np.diag([3.0, 3.0, 1.0])),
        (widecone, np.diag([1.0, 0.5, 2.0])), (widecone, np.diag([2.0, 2.0, 1.0])),
        (LorenzCone(np.diag([1.0, 1.0, 1.0, -1.0])), 0.5 * np.eye(4)),
        (ice3, np.diag([5.0, 1.0, 1.0])), (ice3, -np.eye(3)),
        (ice3, skew_axis), (LorenzCone(q_rot), a_rot),
        # rotation about the axis and growth: the flow runs along the surface
        (ice3, 10.0 * (np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
                       + np.eye(3))),
    ]
    assert len(pairs) == 51
    return pairs


def test_criterion_4_checker_simulation_soundness():
    contradictions = []
    counts = {Decision.INVARIANT: 0, Decision.NOT_INVARIANT: 0, Decision.UNKNOWN: 0}
    for idx, (s, a) in enumerate(_battery()):
        sys = LinearSystem(a)
        verdict = check(s, sys, n_samples=2000, seed=idx)
        counts[verdict.decision] += 1
        if verdict.decision is Decision.INVARIANT:
            hit = falsify(s, sys, 1000, horizon=10.0, step=1e-3, seed=idx)
            if hit is not None:
                contradictions.append((idx, "invariant verdict but exit found", hit))
        elif verdict.decision is Decision.NOT_INVARIANT:
            cx = verdict.counterexample.point
            hit = falsify(s, sys, 1, horizon=1.0, step=1e-3, seed=idx,
                          extra_starts=[cx])
            if hit is None:
                contradictions.append((idx, "counterexample but no exit", None))
            else:
                x0, t_exit = hit
                scale = 1.0 + float(np.max(np.abs(cx)))
                if t_exit > 1.0 or np.max(np.abs(x0 - cx)) > 1e-3 * scale:
                    contradictions.append((idx, "exit not from the counterexample", hit))
    ok = (not contradictions and counts[Decision.INVARIANT] >= 15
          and counts[Decision.NOT_INVARIANT] >= 10)
    _report(4, "checker vs simulation soundness over the 51-pair battery", ok,
            f"(invariant {counts[Decision.INVARIANT]}, "
            f"not-invariant {counts[Decision.NOT_INVARIANT]}, "
            f"unknown {counts[Decision.UNKNOWN]}; contradictions {contradictions})")


def _distance(s, p):
    if isinstance(s, HPolyhedron):  # battery boxes only: [0,1]^2
        return float(np.linalg.norm(project_box(0.0, 1.0, p) - p))
    if isinstance(s, VPolytope):
        return dist_to_polytope_bruteforce(s.vertices, p)
    if isinstance(s, VCone):
        beta = nnls(s.rays.T, p)
        return float(np.linalg.norm(s.rays.T @ beta - p))
    if isinstance(s, Ellipsoid):
        return dist_to_quadric_sublevel(s.Q, 1.0, p, bisect_iters=120)
    if isinstance(s, LorenzCone):
        return dist_to_quadric_sublevel(s.Q, 0.0, p, branch_vec=s.u_n, bisect_iters=120)
    raise AssertionError


def test_criterion_5_tangent_limit_definition():
    box2 = HPolyhedron(np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 0.0, 0.0]))
    sets = [
        box2,
        VPolytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        orthant_v(2),
        Ellipsoid(np.diag([1.0, 4.0])),
        LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 0.0, 1.0]),
    ]
    rng = np.random.default_rng(5005)
    checked = 0
    disagreements = 0
    for s in sets:
        pts = [bp for bp in sample_boundary(s, 12, seed=55)
               if not (isinstance(s, LorenzCone) and LorenzCone.at_apex(bp.point))]
        for bp in pts:
            t_cone = tangent_cone_at(s, bp.point)
            for _ in range(5):
                y = rng.normal(size=s.dim)
                y /= np.linalg.norm(y)
                quotients = [
                    _distance(s, bp.point + t * y) / t for t in (1e-2, 1e-3, 1e-4)]
                if max(quotients) <= 1e-4:
                    checked += 1
                    disagreements += not cone_contains(t_cone, y, 1e-7)
                elif min(quotients) >= 1e-2:
                    checked += 1
                    disagreements += cone_contains(t_cone, y, 1e-7)
    _report(5, "tangent membership matches the finite-t distance quotients",
            checked >= 100 and disagreements == 0,
            f"({checked} decided triples, {disagreements} disagreements)")


def test_criterion_6_h_v_representation_consistency():
    cube_h = HPolyhedron(np.vstack([np.eye(3), -np.eye(3)]),
                         np.concatenate([np.ones(3), np.zeros(3)]))
    cube_v = VPolytope([[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)])
    rng = np.random.default_rng(6006)
    disagreements = 0
    invariants = 0
    for _ in range(100):
        if rng.random() < 0.3:
            # Metzler with dominant negative diagonal keeps the cube invariant
            a = rng.uniform(0.0, 1.0, size=(3, 3))
            np.fill_diagonal(a, 0.0)
            np.fill_diagonal(a, -(np.sum(a, axis=1) + rng.uniform(0.2, 1.0, size=3)))
        else:
            a = rng.normal(size=(3, 3))
        dh = check_hpoly_linear(cube_h, a).decision
        dv = check_vpolytope(cube_v, LinearSystem(a)).decision
        disagreements += dh is not dv
        invariants += dh is Decision.INVARIANT
    _report(6, "unit cube agrees between H-form and V-form checkers",
            disagreements == 0 and invariants > 0,
            f"({disagreements} disagreements, {invariants} invariant)")


def test_criterion_7_rk4_order():
    sys = LinearSystem([[-1.0]])
    exact = math.exp(-1.0)
    err = []
    for h in (0.05, 0.025):
        tr = integrate(sys, [1.0], 0.0, 1.0, h)
        err.append(abs(float(tr.states[-1, 0]) - exact))
    ratio = err[0] / err[1]
    _report(7, "RK4 step-halving error ratio in [12, 20]",
            12.0 <= ratio <= 20.0, f"(ratio {ratio:.3f})")


def test_criterion_8_lorenz_spot_checks():
    ice3 = LorenzCone(np.diag([1.0, 1.0, -1.0]), u_n=[0.0, 0.0, 1.0])
    examples = [
        (np.eye(3), Decision.INVARIANT),
        (np.diag([1.0, 1.0, 3.0]), Decision.INVARIANT),
        (np.diag([3.0, 3.0, 1.0]), Decision.NOT_INVARIANT),
    ]
    ok = True
    details = []
    rng = np.random.default_rng(8008)
    for a, expected in examples:
        verdict = check_lorenz_linear(ice3, a)
        ok &= verdict.decision is expected
        details.append(verdict.decision.value)
        if verdict.decision is Decision.INVARIANT:
            eta = verdict.certificate.data["eta"]
            m = a.T @ ice3.Q + ice3.Q @ a - eta * ice3.Q
            worst = -np.inf
            for _ in range(1000):
                x = rng.normal(size=3)
                x /= np.linalg.norm(x)  # keeps x'Qx in [-1, 1]
                worst = max(worst, float(x @ m @ x))
            ok &= worst <= 1e-8
            details.append(f"rayleigh<= {worst:.1e}")
    _report(8, "quadratic-cone worked examples and certificate re-validation",
            ok, f"({'; '.join(details)})")


def test_criterion_9_cli_determinism(capsys):
    from pathlib import Path

    problems = Path(__file__).resolve().parent.parent / "problems"
    expected_exit = {
        "hpolyhedron_box.json": 0,
        "vpolytope_triangle.json": 0,
        "vcone_exchange.json": 0,
        "ellipsoid_rotation.json": 0,
        "lorenz_expanding.json": 0,
        "orthant_unstable.json": 1,
        "expression_cubic_decay.json": 2,
    }
    ok = True
    details = []
    for name, want in sorted(expected_exit.items()):
        runs = []
        codes = []
        for _ in range(2):
            code = cli_main(["check", str(problems / name), "--no-timing"])
            out = capsys.readouterr().out
            runs.append(out)
            codes.append(code)
        identical = runs[0] == runs[1]
        right_code = codes == [want, want]
        json.loads(runs[0])  # must be valid JSON
        ok &= identical and right_code
        if not (identical and right_code):
            details.append(f"{name}: codes {codes}, identical {identical}")
    _report(9, "example problems give byte-identical reports and documented exits",
            ok, f"({'; '.join(details) if details else '7 files x 2 runs'})")
