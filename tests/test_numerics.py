import math

import numpy as np
import pytest

from invarcheck.errors import (
    BadBracket,
    InputError,
    NotPositiveDefinite,
    SingularMatrix,
)
from invarcheck.numerics import (
    as_matrix,
    as_vector,
    cholesky_lower,
    gen_eig_max_witness,
    gershgorin_radius,
    minimize_scalar_convex,
    solve_linear,
    sym_eig,
)
from invarcheck.sets import Ellipsoid

from oracles import bisection_min, grid_scan_min, power_iteration_gen_eig_max


def test_validation_rejects_nonfinite():
    with pytest.raises(InputError):
        as_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(InputError):
        as_vector([np.inf, 0.0])


def test_solve_identity():
    assert np.allclose(solve_linear(np.eye(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_solve_diagonal():
    assert np.allclose(solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]), [1.0, 2.0])


def test_solve_swap():
    # verified by substitution: A @ (7, 5) = (5, 7)
    x = solve_linear([[0.0, 1.0], [1.0, 0.0]], [5.0, 7.0])
    assert np.allclose(x, [7.0, 5.0])


def test_solve_residual_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 14))
        a = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        x = solve_linear(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))


def test_solve_singular_raises():
    # LAPACK's solve alone raises LinAlgError on the first two and solves the third
    for a in ([[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]],
              [[1.0, 1.0], [1.0, 1.0 + 1e-14]]):
        with pytest.raises(SingularMatrix):
            solve_linear(a, [1.0, 1.0])


@pytest.mark.parametrize("c", [1e-13, 1e13])
def test_solve_is_scale_invariant(c):
    # the singularity test is relative, so scaling A and b by c changes nothing
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(solve_linear(c * a, c * b), solve_linear(a, b), rtol=1e-12, atol=0.0)


def test_cholesky_reproduces_spd_matrices():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(1, 13))
        g = rng.normal(size=(n, n))
        q = g @ g.T + 0.1 * np.eye(n)
        low = cholesky_lower(q)
        assert np.array_equal(low, np.tril(low))
        assert np.max(np.abs(low @ low.T - q)) <= 1e-12 * np.max(np.abs(q))


@pytest.mark.parametrize("q", [
    np.diag([1.0, 1e-11]),  # positive definite, but its pivot is below the floor
    np.diag([1.0, -1.0]),
])
def test_cholesky_rejects_small_or_negative_pivot(q):
    with pytest.raises(NotPositiveDefinite):
        cholesky_lower(q)


def test_sym_eig_diagonal():
    r = sym_eig(np.diag([3.0, 1.0, -2.0]))
    assert np.allclose(r.eigenvalues, [3.0, 1.0, -2.0])


def test_sym_eig_swap_matrix():
    # characteristic polynomial lambda^2 - 1 = 0
    r = sym_eig([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(r.eigenvalues, [1.0, -1.0], atol=1e-12)


def test_sym_eig_scaled_identity():
    r = sym_eig(2.0 * np.eye(4))
    assert np.allclose(r.eigenvalues, [2.0, 2.0, 2.0, 2.0])
    assert np.allclose(r.eigenvectors.T @ r.eigenvectors, np.eye(4), atol=1e-10)


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(InputError):
        sym_eig([[0.0, 1.0], [0.0, 0.0]])


def test_sym_eig_reconstruction_property():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        m = rng.normal(size=(n, n))
        m = m + m.T
        if rng.random() < 0.3:
            m = np.round(m)  # provoke tied eigenvalues
        r = sym_eig(m)
        fro = np.linalg.norm(m, "fro")
        back = r.eigenvectors @ np.diag(r.eigenvalues) @ r.eigenvectors.T
        assert np.linalg.norm(m - back, "fro") <= 1e-10 * (1.0 + fro)
        assert np.max(np.abs(r.eigenvectors.T @ r.eigenvectors - np.eye(n))) <= 1e-10
        assert np.all(np.diff(r.eigenvalues) <= 1e-12)


def test_sym_eig_lapack_failure_is_no_convergence(monkeypatch):
    from invarcheck import numerics
    from invarcheck.errors import NoConvergence

    def failing_eigh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(numerics.np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergence):
        sym_eig([[0.0, 1.0], [1.0, 0.0]])


def _gen_eig(m, q):
    """gen_eig_max_witness on Q's eigenpairs as an ellipsoid holds them."""
    e = Ellipsoid(q)
    return gen_eig_max_witness(np.asarray(m, dtype=float), e.eigenvalues, e.eigenvectors)


def test_gen_eig_standard_case():
    assert _gen_eig(-2.0 * np.eye(2), np.eye(2))[0] == pytest.approx(-2.0, abs=1e-10)


def test_gen_eig_hand_pencil():
    # det(M - lambda Q) = (2 - lambda)(-2 - 4 lambda) = 0 -> lambda in {2, -1/2}
    lam, x = _gen_eig(np.diag([2.0, -2.0]), np.diag([1.0, 4.0]))
    assert lam == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(x, [1.0, 0.0], atol=1e-12)


def test_gen_eig_zero_matrix():
    b = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert _gen_eig(np.zeros((2, 2)), b)[0] == pytest.approx(0.0, abs=1e-12)


def test_gen_eig_matches_power_iteration_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        b = rng.normal(size=(n, n))
        q = b @ b.T + np.eye(n)
        m = rng.normal(size=(n, n))
        m = m + m.T
        lam, x = _gen_eig(m, q)
        assert lam == pytest.approx(power_iteration_gen_eig_max(m, q), abs=1e-9)
        assert np.max(np.abs(m @ x - lam * (q @ x))) <= 1e-8 * (1.0 + np.max(np.abs(x)))


def test_gen_eig_witness_has_its_largest_entry_positive():
    # canonical_sign in the user's coordinates, after the map x = S v
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        b = rng.normal(size=(n, n))
        m = rng.normal(size=(n, n))
        _, x = _gen_eig(m + m.T, b @ b.T + 0.1 * np.eye(n))
        assert x[np.argmax(np.abs(x))] > 0.0


def test_gen_eig_ties_take_the_first_eigenvector():
    # Q = I and M = 0: every vector is an eigenvector, and the first one
    # eigh returns, e_1, is the witness, as sym_eig's stable order takes it
    lam, x = _gen_eig(np.zeros((3, 3)), np.eye(3))
    assert lam == 0.0 and x.tolist() == [1.0, 0.0, 0.0]


def _pencil_top(m, q):
    """phi(eta) = lambda_max(m - eta*q) with its subgradient -v'qv and its
    second derivative 2 sum_j (v_j'qv)^2 / (lambda - lambda_j), 0.0 where
    the top eigenvalue is repeated."""
    def f(eta):
        r = sym_eig(m - eta * q)
        lam = r.eigenvalues
        g = r.eigenvectors.T @ q @ r.eigenvectors[:, 0]
        curv = 0.0
        if lam[0] - lam[1] > 1e-12 * np.max(np.abs(lam)):
            curv = 2.0 * float(np.sum(g[1:] ** 2 / (lam[0] - lam[1:])))
        return float(lam[0]), -float(g[0]), curv

    return f


def test_minimize_quadratic():
    x, v = minimize_scalar_convex(lambda e: ((e - 3.0) ** 2, 2.0 * (e - 3.0), 2.0), (-10.0, 10.0), 1e-8)
    assert x == pytest.approx(3.0, abs=1e-7)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_minimize_kink():
    x, _ = minimize_scalar_convex(lambda e: (abs(e), np.sign(e), 0.0), (-1.0, 2.0), 1e-9)
    assert x == pytest.approx(0.0, abs=1e-8)


def test_minimize_terminates_below_float_spacing():
    # tol 5e-11 is below the spacing of doubles near 2e6 (about 2.3e-10)
    x, v = minimize_scalar_convex(lambda e: (abs(e - 2e6), np.sign(e - 2e6), 0.0), (-2e7, 2e7), 5e-11)
    assert abs(x - 2e6) <= np.spacing(2e6)
    assert v == abs(x - 2e6)


def test_minimize_pencil_max_eigenvalue():
    # eigenvalues of diag(2,-2) - eta*diag(1,-1) are 2-eta and -2+eta;
    # their max is piecewise linear with minimum 0 at the crossing eta=2
    f = _pencil_top(np.diag([2.0, -2.0]), np.diag([1.0, -1.0]))
    x, v = minimize_scalar_convex(f, (-40.0, 40.0), 1e-10)
    assert x == pytest.approx(2.0, abs=1e-8)
    assert v == pytest.approx(0.0, abs=1e-9)


def test_minimize_matches_grid_oracle():
    rng = np.random.default_rng(33)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = rng.normal(size=(n, n))
        m = m + m.T
        d = np.sign(rng.normal(size=n)) * (0.5 + rng.random(n))
        q = np.diag(d)

        f = _pencil_top(m, q)

        def f_oracle(eta):
            return float(np.max(np.linalg.eigvalsh(m - eta * q)))

        bracket = (-30.0, 30.0)
        _, v = minimize_scalar_convex(f, bracket, 1e-9)
        _, v_ref = grid_scan_min(f_oracle, bracket, num=2001, stages=3)
        assert v == pytest.approx(v_ref, abs=1e-6)


def test_minimize_bad_bracket():
    with pytest.raises(BadBracket):
        minimize_scalar_convex(lambda e: (abs(e), np.sign(e), 0.0), (1.0, 1.0), 1e-8)
    with pytest.raises(BadBracket):
        minimize_scalar_convex(lambda e: (abs(e), np.sign(e), 0.0), (0.0, np.inf), 1e-8)


def test_minimize_lands_within_tol_at_a_smooth_minimum():
    # near a smooth minimum the values agree to rounding far outside tol;
    # the argmin must still be within tol of the minimizer
    x, v = minimize_scalar_convex(lambda e: ((e - 0.3) ** 2 + 1.0, 2.0 * (e - 0.3), 2.0),
                                  (-10.0, 10.0), 1e-10)
    assert abs(x - 0.3) <= 1e-10
    assert v == pytest.approx(1.0, abs=1e-15)


def _counted(f, bracket):
    """f wrapped to record every point it is called at and to require each
    to lie in what is left of the bracket after the slopes seen before it."""
    seen, ends = [], [bracket[0], bracket[1]]

    def g(x):
        assert ends[0] <= x <= ends[1], (x, ends)
        seen.append(x)
        out = f(x)
        ends[int(out[1] >= 0.0)] = x
        return out

    return g, seen


def test_minimize_takes_newton_steps_on_a_quadratic():
    # 20/1e-8 is just below 2^31, so the first points stay near the midpoint
    # to keep within bisection's 32 calls; then the Newton step lands on 3,
    # a step of tol/2 closes the bracket, and the final midpoint is evaluated
    f, seen = _counted(lambda e: ((e - 3.0) ** 2, 2.0 * (e - 3.0), 2.0), (-10.0, 10.0))
    x, _ = minimize_scalar_convex(f, (-10.0, 10.0), 1e-8)
    assert abs(x - 3.0) <= 1e-8
    assert seen[-3:-1] == [3.0, 3.0 - 0.5e-8]
    assert len(seen) <= 7


@pytest.mark.parametrize("f, bracket, tol", [
    (_pencil_top(np.diag([2.0, -2.0]), np.diag([1.0, -1.0])), (-40.0, 40.0), 1e-10),
    (lambda e: (abs(e), np.sign(e), 0.0), (-1.0, 2.0), 1e-9),
    (lambda e: (abs(e - 2e6), np.sign(e - 2e6), 0.0), (-2e7, 2e7), 5e-11),
], ids=["diagonal-pencil", "kink", "below-float-spacing"])
def test_minimize_without_curvature_is_bisection_bit_for_bit(f, bracket, tol):
    g, seen = _counted(f, bracket)
    h, seen_ref = _counted(f, bracket)
    assert minimize_scalar_convex(g, bracket, tol) == bisection_min(h, bracket, tol)
    assert seen == seen_ref


@pytest.mark.parametrize("curvature", [math.nan, math.inf, -1.0, -0.0])
def test_minimize_bad_curvature_never_leaves_the_bracket(curvature):
    f, _ = _counted(lambda e: ((e - 0.3) ** 2, 2.0 * (e - 0.3), curvature), (-10.0, 10.0))
    x, v = minimize_scalar_convex(f, (-10.0, 10.0), 1e-10)
    assert abs(x - 0.3) <= 1e-10
    assert (x, v) == bisection_min(lambda e: ((e - 0.3) ** 2, 2.0 * (e - 0.3)), (-10.0, 10.0), 1e-10)


def test_minimize_never_calls_f_more_often_than_bisection():
    # convex |e - c|^p with the true curvature, a random one and one off by a
    # random factor: the bound must hold, and no point may leave the
    # bracket, whatever curvature f reports
    rng = np.random.default_rng(25)
    for trial in range(600):
        c, p, scale = rng.uniform(-50.0, 50.0), rng.choice([1.0, 1.5, 2.0, 3.0, 4.0]), 10.0 ** rng.uniform(-3, 3)
        noise = [lambda k: k, lambda k: float(rng.uniform(0.0, 10.0) ** 3),
                 lambda k: k * rng.uniform(0.1, 10.0)][trial % 3]

        def f(e):
            r = e - c
            k = scale * p * (p - 1.0) * abs(r) ** (p - 2.0) if r != 0.0 or p >= 2.0 else math.inf
            return scale * abs(r) ** p, scale * p * abs(r) ** (p - 1.0) * math.copysign(1.0, r), noise(k)

        bracket = (c - 10.0 ** rng.uniform(-2, 6), c + 10.0 ** rng.uniform(-2, 6))
        tol = 10.0 ** rng.uniform(-13, -3)
        g, seen = _counted(f, bracket)
        h, seen_ref = _counted(f, bracket)
        x, _ = minimize_scalar_convex(g, bracket, tol)
        bisection_min(h, bracket, tol)
        assert len(seen) <= len(seen_ref), trial
        assert abs(x - c) <= max(tol, 4.0 * math.ulp(max(map(abs, bracket)))), trial


def test_gershgorin_radius_bounds_spectrum():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = rng.normal(size=(n, n))
        m = m + m.T
        r = sym_eig(m)
        assert np.max(np.abs(r.eigenvalues)) <= gershgorin_radius(m) + 1e-12
