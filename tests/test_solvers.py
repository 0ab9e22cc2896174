import numpy as np
import pytest

from invarcheck import solvers
from invarcheck.checkers import Decision, check
from invarcheck.errors import DimensionMismatch, NumericalFailure
from invarcheck.sets import HPolyhedron, VCone, VPolytope
from invarcheck.solvers import (
    lp_feasible,
    nnls,
    phase_one_feasibility,
    qp_nearest,
    simplex_standard,
    solve_inequality_lp,
)
from invarcheck.systems import LinearSystem

from oracles import (enumerate_lp, enumerate_qp_nearest, facet_vertex_flux, inequality_lp_with_equalities,
                     kkt_residuals)

TRIANGLE = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # columns are vertices


def vertex_lp(x_mat, f):
    """The vertex decomposition system of the columns of x_mat at field f:
    the polytope's own columns [X; 1'] and rhs [f; 0]."""
    return VPolytope(np.asarray(x_mat).T).columns, np.append(np.asarray(f, dtype=float), 0.0)


def test_vertex_constructor_invariants():
    columns, rhs = vertex_lp(TRIANGLE, [0.5, 0.5])
    assert np.array_equal(columns[:-1], TRIANGLE)
    assert np.allclose(columns[-1, :], 1.0)
    assert rhs[-1] == 0.0


def test_lp_feasible_triangle_origin_vertex():
    # hand solve: a2 = a3 = 0.5, free a1 = -(a2 + a3) = -1
    infeas, alpha = lp_feasible(*vertex_lp(TRIANGLE, [0.5, 0.5]), 0)
    assert infeas == 0.0 and alpha is not None
    assert np.allclose(alpha, [-1.0, 0.5, 0.5], atol=1e-9)


def test_lp_infeasible_triangle():
    # f = (-1, 0) forces a2 = -1 against the sign constraint
    infeas, alpha = lp_feasible(*vertex_lp(TRIANGLE, [-1.0, 0.0]), 0)
    assert alpha is None
    assert infeas > 1e-6


def test_lp_zero_field_feasible():
    infeas, alpha = lp_feasible(*vertex_lp(TRIANGLE, [0.0, 0.0]), 1)
    assert alpha is not None
    assert np.allclose(alpha, 0.0, atol=1e-10)


def test_lp_phase_one_path_wide_system():
    # 8 cube vertices in R^3: more columns than rows, simplex path
    cube = np.array([[i, j, k] for i in (0.0, 1.0) for j in (0.0, 1.0) for k in (0.0, 1.0)]).T
    columns, rhs = vertex_lp(cube, -cube[:, 0] + np.array([0.5, 0.5, 0.5]))
    _, alpha = lp_feasible(columns, rhs, 0)
    assert alpha is not None
    assert np.max(np.abs(columns @ alpha - rhs)) <= 1e-8
    others = [j for j in range(8) if j != 0]
    assert np.min(alpha[others]) >= -1e-10


def assert_primal_feasible(columns, rhs, free_index):
    # the feasibility LP's objective is constant, so a feasible primal is
    # optimal exactly when its equality rows and sign constraints hold
    _, alpha = lp_feasible(columns, rhs, free_index)
    assert alpha is not None
    scale = 1.0 + float(np.max(np.abs(rhs)))
    assert float(np.max(np.abs(columns @ alpha - rhs))) <= 1e-7 * scale
    assert not np.any(np.delete(alpha, free_index) < -1e-7)


def test_dual_check_triangle():
    assert_primal_feasible(*vertex_lp(TRIANGLE, [0.5, 0.5]), 0)


def test_dual_check_zero_case():
    assert_primal_feasible(*vertex_lp(TRIANGLE, [0.0, 0.0]), 0)


def test_qp_triangle_clipped_coefficient():
    # vertex (1,0), f=(-1,-1): unconstrained solve wants the coefficient of
    # (0,1)-(1,0) negative, so it is clipped to zero; objective from the
    # exhaustive oracle
    alpha, _, objective = qp_nearest(TRIANGLE, [-1.0, -1.0], 1)
    assert objective > 1e-9
    obj_ref, _ = enumerate_qp_nearest(TRIANGLE, np.array([-1.0, -1.0]), 1)
    assert objective == pytest.approx(obj_ref, abs=1e-10)
    assert objective == pytest.approx(0.5, abs=1e-10)  # frozen hand value
    assert abs(alpha[2]) <= 1e-12


def test_qp_generator_direction_exact():
    for j in (0, 2):
        f = TRIANGLE[:, j] - TRIANGLE[:, 1]
        alpha, _, objective = qp_nearest(TRIANGLE, f, 1)
        assert objective <= 1e-12
        expected = np.zeros(3)
        expected[j] = 1.0
        expected[1] = -1.0
        assert np.allclose(alpha, expected, atol=1e-9)


def test_qp_zero_field():
    alpha, _, objective = qp_nearest(TRIANGLE, [0.0, 0.0], 0)
    assert objective <= 1e-15
    assert np.allclose(alpha, 0.0, atol=1e-12)


def test_kkt_residuals_at_optimum():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        l1 = int(rng.integers(2, 8))
        x_mat, f, i = rng.normal(size=(n, l1)), rng.normal(size=n), int(rng.integers(0, l1))
        alpha, eta, _ = qp_nearest(x_mat, f, i)
        assert np.max(kkt_residuals(x_mat, f, i, alpha, eta)) <= 1e-7


def test_kkt_equality_residual_direct():
    f = np.array([0.5, 0.5])
    alpha, eta, _ = qp_nearest(TRIANGLE, f, 0)
    bad = alpha + np.array([0.1, 0.0, 0.0])
    assert kkt_residuals(TRIANGLE, f, 0, bad, eta)[1] == pytest.approx(0.1, abs=1e-12)


def test_kkt_complementarity_residual_direct():
    f = np.array([-1.0, -1.0])
    alpha, eta, _ = qp_nearest(TRIANGLE, f, 1)
    bumped = eta.copy()
    bumped += 0.3  # perturb every multiplier
    expected = abs(sum(bumped[j] * alpha[j] for j in range(3) if j != 1))
    assert kkt_residuals(TRIANGLE, f, 1, alpha, bumped)[3] == pytest.approx(expected, abs=1e-12)


def test_lp_qp_agreement_random():
    rng = np.random.default_rng(17)
    n_feasible = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        l1 = int(rng.integers(2, 9))
        x_mat = rng.normal(size=(n, l1))
        i = int(rng.integers(0, l1))
        if rng.random() < 0.5:
            # bias toward feasible: random cone point
            coeff = rng.random(l1)
            coeff[i] = -np.sum(np.delete(coeff, i))
            f = x_mat @ coeff
        else:
            f = rng.normal(size=n)
        _, alpha = lp_feasible(*vertex_lp(x_mat, f), i)
        objective = qp_nearest(x_mat, f, i)[2]
        feasible = alpha is not None
        n_feasible += feasible
        assert feasible == (objective <= 1e-9), (x_mat, f, i)
    assert 20 < n_feasible < 180  # both outcomes well represented


def test_qp_matches_bruteforce_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(120):
        n = int(rng.integers(2, 6))
        l1 = int(rng.integers(2, 7))
        x_mat = rng.normal(size=(n, l1))
        f = rng.normal(size=n)
        i = int(rng.integers(0, l1))
        objective = qp_nearest(x_mat, f, i)[2]
        obj_ref, _ = enumerate_qp_nearest(x_mat, f, i)
        assert objective == pytest.approx(obj_ref, abs=1e-8)


def test_simplex_determinism():
    rng = np.random.default_rng(8)
    x_mat = rng.normal(size=(3, 7))
    f = rng.normal(size=3)
    columns, rhs = vertex_lp(x_mat, f)
    infeas1, alpha1 = lp_feasible(columns, rhs, 2)
    infeas2, alpha2 = lp_feasible(columns, rhs, 2)
    assert (alpha1 is None) == (alpha2 is None)
    if alpha1 is not None:
        assert np.array_equal(alpha1, alpha2)
    assert infeas1 == infeas2


def test_simplex_standard_basics():
    # min -x1 - x2 s.t. x1 + x2 <= 1 via slack in standard form
    status, z, obj = simplex_standard([-1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [1.0])
    assert status == "optimal"
    assert obj == pytest.approx(-1.0)
    status, _, _ = simplex_standard([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    assert status == "infeasible"
    status, _, _ = simplex_standard([-1.0, 0.0], [[0.0, 1.0]], [1.0])
    assert status == "unbounded"


BEALE_COSTS = [0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0]
BEALE_ROWS = [[1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
              [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
              [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]]


@pytest.mark.parametrize("slacks", [(0, 1, 2), ()], ids=["slack-start", "artificial-start"])
def test_simplex_standard_beale_cycling_example(slacks):
    # Beale (1955): the textbook largest-coefficient rule cycles here from
    # the slack basis; Bland's rule must not
    status, z, obj = simplex_standard(BEALE_COSTS, BEALE_ROWS, [0.0, 0.0, 1.0], slacks=slacks)
    assert status == "optimal"
    assert obj == pytest.approx(-0.05, abs=1e-12)
    assert z[3] == pytest.approx(0.04, abs=1e-12) and z[5] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.array(BEALE_ROWS) @ z, [0.0, 0.0, 1.0], atol=1e-12)


def test_simplex_standard_drops_redundant_rows(monkeypatch):
    # min x1 + 2 x2 + 3 x3 over x1 + x2 + x3 = 1 and x1 = x2, with the first
    # row repeated and negated: phase two runs on the two independent rows
    rows = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, -1.0, -1.0], [1.0, -1.0, 0.0]]
    sizes = []
    iterate = solvers._simplex_iterate

    def recording(tab, basis, ncols, cost_row, raw):
        sizes.append(basis.size)
        return iterate(tab, basis, ncols, cost_row, raw)

    monkeypatch.setattr(solvers, "_simplex_iterate", recording)
    status, z, obj = simplex_standard([1.0, 2.0, 3.0], rows, [1.0, 1.0, -1.0, 0.0])
    assert status == "optimal"
    assert obj == pytest.approx(1.5, abs=1e-12)
    assert np.allclose(z, [0.5, 0.5, 0.0], atol=1e-12)
    assert sizes == [4, 2]


def test_lp_results_hold_no_negative_zero():
    # a ray cone from the probe workload; pivots that subtract 0 * row can
    # leave -0.0 in the tableau, which must not reach a result
    rays = np.array([[-0.8149659724787109, -1.061657553527163],
                     [-0.006919177981175939, 1.528415895539762],
                     [-0.5004895243518179, 0.6745062124832809]])
    f = -(1.0 + rays[1] @ rays[1]) * rays[1]
    infeas, alpha = lp_feasible(rays.T, f, 1)
    assert alpha is not None
    assert not np.any(np.signbit(np.append(alpha, infeas)) & (np.append(alpha, infeas) == 0.0))
    # max x2 over the square [-1, 1] x [-1, 0] is 0
    status, x, value = solve_inequality_lp(
        np.array([0.0, 1.0]), g_ub=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        h_ub=np.array([1.0, 0.0, 1.0, 1.0]))
    assert status == "optimal" and value == 0.0 and not np.signbit(value)
    assert not np.any(np.signbit(x) & (x == 0.0))


def test_inequality_lp_box_and_equality():
    # max x1 + x2 on the unit square with x2 = x1
    status, x, v = inequality_lp_with_equalities(
        np.array([1.0, 1.0]),
        np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
        np.array([1.0, 1.0, 0.0, 0.0]),
        np.array([[1.0, -1.0]]),
        np.array([0.0]),
    )
    assert status == "optimal"
    assert v == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)
    # max x1 over x1 >= 0 is unbounded
    status, _, _ = solve_inequality_lp(np.array([1.0]), g_ub=np.array([[-1.0]]),
                                       h_ub=np.array([0.0]))
    assert status == "unbounded"


def test_phase_one_acceptance_relative_to_rhs():
    # the box rows |x_i| <= 1e6 put the right-hand side near 1e6; phase one
    # then ends about 1e-9 above zero on a feasible LP, which an absolute
    # test rejects
    g = np.random.default_rng(0).normal(size=(6, 2))
    g_box = np.vstack([g, np.eye(2), -np.eye(2)])
    h_box = np.concatenate([np.ones(6), np.full(4, 1e6)])
    status, x, _ = inequality_lp_with_equalities(np.zeros(2), g_box, h_box, g[1:2], [1.0])
    assert status == "optimal"
    assert float(g[1] @ x) == pytest.approx(1.0, abs=1e-6)


def test_phase_one_free_split():
    # x free with x = -2 is the only solution of 1*x = -2
    opt, a = phase_one_feasibility(np.array([[1.0]]), np.array([-2.0]), free_indices=(0,))
    assert opt == 0.0
    assert a is not None and a[0] == pytest.approx(-2.0)


def test_inequality_lp_matches_vertex_enumeration():
    # free variables, equality rows and box rows |x_i| <= 4, on small
    # integer data so that degenerate and parallel constraints are common
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(100):
        n = int(rng.integers(2, 4))
        m_ub = int(rng.integers(1, 6))
        g = rng.integers(-3, 4, size=(m_ub, n)).astype(float)
        h = rng.integers(-2, 5, size=m_ub).astype(float)
        a_eq = b_eq = None
        if rng.random() < 0.4:
            a_eq = rng.integers(-3, 4, size=(int(rng.integers(1, 3)), n)).astype(float)
            b_eq = rng.integers(-3, 4, size=a_eq.shape[0]).astype(float)
        box = 4.0 if rng.random() < 0.3 else None
        c = rng.integers(-3, 4, size=n).astype(float)
        maximize = bool(rng.random() < 0.5)
        g_all, h_all = g, h
        if box is not None:
            g_all = np.vstack([g, np.eye(n), -np.eye(n)])
            h_all = np.concatenate([h, np.full(2 * n, box)])
        sense = -1.0 if maximize else 1.0
        # min c'x is -max (-c)'x
        if a_eq is None:
            status, x, value = solve_inequality_lp(-sense * c, g_all, h_all)
        else:
            status, x, value = inequality_lp_with_equalities(-sense * c, g_all, h_all, a_eq, b_eq)
        value = -sense * value
        ref_status, ref_value = enumerate_lp(sense * c, g, h, a_eq, b_eq, box=box)
        assert status == ref_status
        seen.add(status)
        if status == "optimal":
            assert value == pytest.approx(sense * ref_value, abs=1e-7)
            assert float(c @ x) == pytest.approx(value, abs=1e-7)
            assert np.all(g @ x <= h + 1e-7)
            if a_eq is not None:
                assert np.allclose(a_eq @ x, b_eq, atol=1e-7)
            if box is not None:
                assert np.all(np.abs(x) <= box + 1e-7)
    assert seen == {"optimal", "infeasible", "unbounded"}


def test_phase_one_matches_vertex_enumeration():
    # mixed free and sign-constrained columns; an infeasible system reports
    # its least L1 residual, which is itself an LP: with the rows signed so
    # that the rhs is nonnegative, min 1'(b - M a) subject to M a <= b
    rng = np.random.default_rng(43)
    seen = set()
    for _ in range(100):
        k = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        mat = rng.integers(-3, 4, size=(m, k)).astype(float)
        rhs = rng.integers(-3, 4, size=m).astype(float)
        free = [j for j in range(k) if rng.random() < 0.4]
        signed = [j for j in range(k) if j not in free]
        opt, a = phase_one_feasibility(mat, rhs, free)
        ref_status, _ = enumerate_lp(np.zeros(k), a_eq=mat, b_eq=rhs, signed=signed)
        assert (a is not None) == (ref_status != "infeasible")
        seen.add(a is not None)
        if a is not None:
            assert opt == 0.0
            assert np.allclose(mat @ a, rhs, atol=1e-8)
            assert np.all(a[signed] >= -1e-10)
        else:
            sign = np.where(rhs < 0, -1.0, 1.0)
            ms, bs = sign[:, None] * mat, sign * rhs
            _, low = enumerate_lp(-ms.sum(axis=0), ms, bs, signed=signed)
            assert opt == pytest.approx(low + bs.sum(), abs=1e-7)
            assert opt > 1e-9
    assert seen == {True, False}


def _count_pivots(monkeypatch, s, a):
    """The decision of check(s, x' = A x) and the number of pivots it took."""
    pivots = []
    pivot = solvers._pivot

    def counting(*args):
        pivots.append(args[2:])
        pivot(*args)

    monkeypatch.setattr(solvers, "_pivot", counting)
    return check(s, LinearSystem(a)).decision, len(pivots)


def test_facet_lp_pivot_budget(monkeypatch):
    # the rows of G x <= b with b >= 0 start phase one on their slacks and
    # row i, held at equality in place, on the only artificial: these 60
    # facet LPs take 109 pivots. From an all-artificial start they took
    # 11,498, and with a copy of row i as an extra equality row 169, one
    # more per LP to drive that copy's artificial out
    n = 20
    g = np.random.default_rng(0).normal(size=(3 * n, n))
    decision, pivots = _count_pivots(monkeypatch, HPolyhedron(g, np.ones(3 * n)), -np.eye(n))
    assert decision is Decision.INVARIANT
    assert pivots <= 120


def test_perturbed_facet_lp_pivot_budget(monkeypatch):
    # 120 Gaussian facets in R^40 under A = -I + 0.01 R: pricing by Bland's
    # rule alone takes 68,047 pivots over the 120 facet LPs, Dantzig's rule
    # 14,420
    n = 40
    rng = np.random.default_rng(0)
    g = rng.normal(size=(3 * n, n))
    a = -np.eye(n) + 0.01 * rng.normal(size=(n, n))
    decision, pivots = _count_pivots(monkeypatch, HPolyhedron(g, np.ones(3 * n)), a)
    assert decision is Decision.INVARIANT
    assert pivots < 25000


def test_desk_scale_v_polytope_phase_one_stays_nonnegative(monkeypatch):
    # +-e_i and 40 Gaussian points in R^40 hold the origin inside, so x' = -x
    # keeps them invariant. On Bland's rule with no rebuild of the tableau
    # the rank-1 updates drifted: a vertex LP's phase-one objective, a sum of
    # artificials, fell to -4.6e-3 and the LP hit the pivot cap. Every
    # phase-one objective of every stack of vertex LPs is recorded
    n = 40
    points = np.random.default_rng(0).normal(size=(n, n))
    lows = []
    pivot_stack = solvers._pivot_stack

    def recording(tab, basis, rows, enter):
        pivot_stack(tab, basis, rows, enter)
        lows.extend(-tab[:, -1, -1])  # each LP's phase-one cost row is its last

    monkeypatch.setattr(solvers, "_pivot_stack", recording)
    verdict = check(VPolytope(np.vstack([np.eye(n), -np.eye(n), points])),
                    LinearSystem(-np.eye(n)))
    assert verdict.decision is Decision.INVARIANT
    assert lows and min(lows) >= -solvers._FEASIBILITY_TOL


def _same_outcome(got, want):
    """Bit for bit, signs of zeros included."""
    (infeas, alpha), (ref_infeas, ref_alpha) = got, want
    if infeas != ref_infeas or np.signbit(infeas) != np.signbit(ref_infeas):
        return False
    if alpha is None or ref_alpha is None:
        return alpha is None and ref_alpha is None
    return np.array_equal(alpha, ref_alpha) and np.array_equal(np.signbit(alpha), np.signbit(ref_alpha))


def _decomposition_lps():
    """(columns, rhs) of every generator's decomposition LP: seeded
    cross-polytopes, simplices and redundant V-cones at n 2-12 under x' = -x
    (invariant), under a Gaussian A (refuting, mostly at generator 0), and
    under x' = -x with the Gaussian field at one generator (refuting inside
    a stack); then the degenerate vertex instance below under x' = -x, and
    the n=40 desk polytope under x' = -x but for x' = x at vertex 20."""
    rng = np.random.default_rng(29)
    sets = []
    for n in range(2, 13):
        t = np.linalg.qr(rng.normal(size=(n, n)))[0] @ np.diag(rng.uniform(0.5, 2.0, n))
        faces = rng.uniform(size=(n, max(1, n // 2))) * (rng.uniform(size=(n, max(1, n // 2))) < 0.5)
        sets += [VPolytope(np.vstack([t.T, -t.T])[rng.permutation(2 * n)]),
                 VPolytope(np.vstack([np.eye(n), -np.ones(n) / n]) @ t.T),
                 VCone(np.vstack([t.T, (t @ faces).T + 1e-3 * t[:, 0]]))]
    out = []
    for s in sets:
        gens = getattr(s, s.GENERATORS)
        rhs = np.zeros((s.columns.shape[0], gens.shape[0]))
        rhs[:s.dim] = -gens.T
        r = rng.normal(size=(s.dim, s.dim))
        mixed = rhs.copy()
        j = rng.integers(gens.shape[0])
        mixed[:s.dim, j] = r @ gens[j]
        out += [(s.columns, rhs), (s.columns, np.vstack([r @ gens.T, rhs[s.dim:]])), (s.columns, mixed)]
    for n, seed in ((13, 10), (40, 0)):
        v = np.vstack([np.eye(n), -np.eye(n), np.random.default_rng(seed).normal(size=(n, n))])
        out.append((VPolytope(v).columns, np.vstack([-v.T, np.zeros(v.shape[0])])))
    out[-1][1][:-1, 20] *= -1.0  # x' = x at vertex 20: 21 of the 120 LPs in three stacks
    return out


def test_stacked_decomposition_lps_match_one_lp_at_a_time(monkeypatch):
    # every generator's outcome on the stack is phase_one_feasibility's, bit
    # for bit, up to the first infeasible one; below n=40 (whose LPs already
    # span three stacks) again with a cell budget of three LPs per stack, and
    # each LP alone, the infeasible ones after the first too
    inside = 0
    for columns, rhs in _decomposition_lps():
        (m, n), k = columns.shape, rhs.shape[1]
        want = []
        for i in range(k):
            want.append(phase_one_feasibility(columns, rhs[:, i], (i,)))
            if want[-1][1] is None:
                inside += i > 0
                break
        for budget in (solvers._STACK_CELLS, 3 * (m + 2) * (n + m + 2))[:1 + (m < 40)]:
            monkeypatch.setattr(solvers, "_STACK_CELLS", budget)
            got = lp_feasible(columns, rhs, range(k))
            assert len(got) == len(want)
            assert all(_same_outcome(g, w) for g, w in zip(got, want))
        for i in range(k if m < 40 else 0):
            assert _same_outcome(lp_feasible(columns, rhs[:, i], i),
                                 phase_one_feasibility(columns, rhs[:, i], (i,)))
    assert inside >= 10


def test_stack_tail_matches_one_lp_at_a_time_where_phase_one_keeps_an_artificial(monkeypatch):
    # rays spanning a plane in R^3 leave one row redundant: its artificial
    # stays basic at zero, so those LPs leave the stack through
    # _after_phase_one, while full-rank columns read off their points in the
    # vectorised step; every outcome is phase_one_feasibility's, bit for bit
    rng = np.random.default_rng(41)
    after, stack_calls = solvers._after_phase_one, []

    def spied(*args):
        stack_calls.append(1)
        return after(*args)

    cases = []
    for _ in range(6):
        basis = rng.normal(size=(3, 2))
        flat = basis @ rng.normal(size=(2, 5))  # rank 2: one redundant row
        cases += [(flat, basis @ rng.normal(size=(2, 5))),
                  (flat, -flat),
                  (rng.normal(size=(3, 6)), rng.normal(size=(3, 6)))]
    for columns, rhs in cases:
        k = rhs.shape[1]
        want = []
        for i in range(k):
            want.append(phase_one_feasibility(columns, rhs[:, i], (i,)))
            if want[-1][1] is None:
                break
        monkeypatch.setattr(solvers, "_after_phase_one", spied)
        got = lp_feasible(columns, rhs, range(k))
        monkeypatch.setattr(solvers, "_after_phase_one", after)
        assert len(got) == len(want)
        assert all(_same_outcome(g, w) for g, w in zip(got, want))
    # the redundant row sent LPs through _after_phase_one, but not every LP
    assert 0 < len(stack_calls) < sum(rhs.shape[1] for _, rhs in cases)


def _facet_battery():
    """(G, b, costs) of seeded H-forms whose facet LPs hold rows with a
    negative rhs, a duplicated row, a vacuous row, a facet never attained
    and unbounded facets."""
    rng = np.random.default_rng(43)
    out = []
    for n in (2, 3, 5, 8):
        g = rng.normal(size=(2 * n + 2, n))
        shift = 3.0 * rng.normal(size=n)  # moves the origin out: some rhs < 0
        b = g @ shift + rng.uniform(0.5, 2.0, size=2 * n + 2)
        g = np.vstack([g, g[1], np.zeros(n), g[2]])
        b = np.append(b, [b[1], 1.0, b[2] + 5.0])  # duplicate, 0'x <= 1, never attained
        out.append((g, b, rng.normal(size=(g.shape[0], n))))
        cone = rng.normal(size=(n, n))  # a cone at the shift: unbounded facets
        out.append((cone, cone @ shift, rng.normal(size=(n, n))))
    return out


def test_facet_lp_holding_row_i_matches_the_inequality_lp_with_its_copy():
    # one standard form per H-form, facets solved in a shuffled order; row i
    # held at equality in place gives the copied-row LP's status and optimum,
    # and an argmax in the set, on facet i, whose flux is the optimum
    rng = np.random.default_rng(47)
    statuses, negative, vertex_checked = set(), False, 0
    for g, b, costs in _facet_battery():
        negative |= bool(np.any(b < 0))
        facet = solvers._facet_lp(g, b)
        for i in rng.permutation(g.shape[0]):
            status, x, value = facet(i, costs[i])
            want = inequality_lp_with_equalities(costs[i], g, b, g[i:i + 1], b[i:i + 1])
            assert status == want[0]
            statuses.add(status)
            vertices, flux = facet_vertex_flux(costs[i], g, b, i) if g.shape[1] <= 4 else (None, None)
            if status != "optimal":
                assert x is None and (status == "infeasible" or value == np.inf)
                if vertices is not None:
                    assert (not vertices) == (status == "infeasible")
                continue
            assert abs(value - want[2]) <= 1e-12 * max(1.0, abs(want[2]))
            scale = 1.0 + np.abs(b) + np.abs(g) @ np.abs(x)
            assert np.all(g @ x - b <= 1e-12 * scale)
            assert abs(g[i] @ x - b[i]) <= 1e-12 * scale[i]
            assert abs(costs[i] @ x - value) <= 1e-12 * max(1.0, abs(value))
            if vertices is not None:
                assert abs(flux - value) <= 1e-9 * max(1.0, abs(value))
                vertex_checked += 1
    assert negative and statuses == {"optimal", "infeasible", "unbounded"}
    assert vertex_checked > 0


def test_stack_stops_at_a_refutation_before_a_later_lp_exhausts_the_budget(monkeypatch):
    # vertex 0 of +-e_i and 13 Gaussian points in R^13 under x' = x refutes in
    # fewer pivots than vertex 2 under x' = -x needs. With the pivot budget
    # just above the refuting LP's, the later LP alone runs out of pivots,
    # but in a stack after the refuting LP it is never finished
    n = 13
    v = np.vstack([np.eye(n), -np.eye(n), np.random.default_rng(10).normal(size=(n, n))])
    columns = VPolytope(v).columns
    rhs = np.column_stack([np.append(v[0], 0.0), np.append(-v[2], 0.0)])
    budget = 1
    while True:
        monkeypatch.setattr(solvers, "_MAX_PIVOTS", budget)
        try:
            infeas, alpha = phase_one_feasibility(columns, rhs[:, 0], (0,))
            break
        except NumericalFailure:
            budget += 1
    assert alpha is None
    with pytest.raises(NumericalFailure):
        phase_one_feasibility(columns, rhs[:, 1], (2,))
    assert lp_feasible(columns, rhs, [0, 2]) == [(infeas, None)]


def test_lp_feasible_stack_checks_its_shapes():
    columns = VPolytope(TRIANGLE.T).columns
    assert lp_feasible(columns, np.zeros((3, 0)), []) == []
    with pytest.raises(DimensionMismatch, match="one free index per rhs column"):
        lp_feasible(columns, np.zeros((3, 2)), [0])
    with pytest.raises(DimensionMismatch, match="outside"):
        lp_feasible(columns, np.zeros((3, 2)), [0, 3])


def test_degenerate_vertex_lp_does_not_cycle():
    # vertex 15 (-e_3) of +-e_i and 13 Gaussian points in R^13 under x' = -x:
    # pricing by Dantzig's rule alone cycles here, phase one staying at 1.0
    # up to the pivot cap; falling back to Bland's rule ends the cycle
    n = 13
    v = np.vstack([np.eye(n), -np.eye(n), np.random.default_rng(10).normal(size=(n, n))])
    columns, rhs = vertex_lp(v.T, -v[15])
    infeas, alpha = lp_feasible(columns, rhs, 15)
    assert infeas == 0.0 and alpha is not None
    assert np.allclose(columns @ alpha, rhs, atol=1e-12)
    assert np.all(np.delete(alpha, 15) >= -1e-12)


def test_nnls_simple():
    d = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(nnls(d, [2.0, 3.0]), [2.0, 3.0])
    assert np.allclose(nnls(d, [-1.0, 2.0]), [0.0, 2.0])


def test_nnls_change_budget_enforced(monkeypatch):
    # an inner solve that never makes progress (every passive coefficient
    # comes back negative) adds and drops a column over and over: the budget
    # of max(30, 10*(k + 1)) = 50 changes for k = 4 stops it after 50 solves
    from invarcheck.errors import IterationLimit

    calls = []

    def stalled(a, b, rcond=None):
        calls.append(1)
        return -np.ones(a.shape[1]), None, None, None

    monkeypatch.setattr(np.linalg, "lstsq", stalled)
    with pytest.raises(IterationLimit):
        nnls(np.eye(4), [2.0, 3.0, 4.0, 5.0])
    assert len(calls) == 50
