import numpy as np
import pytest

import oracles
from invarcheck import expressions
from invarcheck.errors import DimensionMismatch, InputError
from invarcheck.expressions import build_expression_system, parse_formula


def test_literals_and_precedence():
    f = parse_formula("2 + 3 * 4", 1)
    assert f(0.0, [0.0]) == 14.0
    f = parse_formula("(2 + 3) * 4", 1)
    assert f(0.0, [0.0]) == 20.0
    f = parse_formula("2 ^ 3 ^ 2", 1)  # right-associative
    assert f(0.0, [0.0]) == 512.0
    f = parse_formula("-x1^2", 1)  # unary minus binds looser than power
    assert f(0.0, [3.0]) == -9.0
    f = parse_formula("6 / 3 / 2", 1)
    assert f(0.0, [0.0]) == 1.0
    f = parse_formula("007*x1", 1)  # leading zeros, which Python itself rejects
    assert f(0.0, [2.0]) == 14.0
    assert parse_formula("1e007", 1)(0.0, [0.0]) == 1e7
    assert parse_formula("00.5", 1)(0.0, [0.0]) == 0.5
    f = parse_formula("x1\t+\n2 *\tx1", 1)  # tabs and newlines separate tokens
    assert f(0.0, [3.0]) == 9.0


def test_scientific_notation_and_t():
    f = parse_formula("1.5e-3 * t + 2E2", 1)
    assert f(2.0, [0.0]) == pytest.approx(0.003 + 200.0)


def test_functions():
    f = parse_formula("sin(x1) + cos(x2) + exp(x1) + tanh(x2)", 2)
    assert f(0.0, [0.0, 0.0]) == pytest.approx(0.0 + 1.0 + 1.0 + 0.0)
    f = parse_formula("sin(3.141592653589793 / 2)", 1)
    assert f(0.0, [0.0]) == pytest.approx(1.0)


def test_variables_bounds():
    with pytest.raises(InputError):
        parse_formula("x3", 2)
    with pytest.raises(InputError):
        parse_formula("y1", 2)


def test_malformed_rejected():
    for bad in ("", "2 +", "sin 3", "(1", "1 $ 2", "x1 x2", "x1**2", "0x1F", "1_0", "1j",
                "True", "x1.real", "x1[0]", "x1 < 2", "2 // 3", "sin(x1, x2)", "sin(x=1)",
                "abs(x1)", "x1 if t else 2", "lambda: 1", '"1"'):
        with pytest.raises(InputError):
            parse_formula(bad, 2)


def test_system_matches_matrix_evaluation():
    a = np.array([[-1.0, 2.0], [0.5, -3.0]])
    sys = build_expression_system(["-1*x1 + 2*x2", "0.5*x1 - 3*x2"])
    rng = np.random.default_rng(77)
    for _ in range(1000):
        x = rng.normal(size=2)
        assert np.max(np.abs(sys.field(0.0, x) - a @ x)) <= 1e-12 * (1 + np.max(np.abs(x)))


def test_system_broadcasts_batches():
    sys = build_expression_system(["-x2", "x1 * t"])
    batch = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = sys.field(2.0, batch)
    assert out.shape == batch.shape
    assert np.allclose(out[0], -batch[1])
    assert np.allclose(out[1], batch[0] * 2.0)


def test_time_only_formula_broadcasts():
    sys = build_expression_system(["t", "1"])
    batch = np.ones((2, 5))
    out = sys.field(3.0, batch)
    assert out.shape == (2, 5)
    assert np.allclose(out[0], 3.0)
    assert np.allclose(out[1], 1.0)


def test_field_hands_on_the_tape_func_reply_with_no_second_check():
    # func converts and shape-checks the state once; field adds nothing, so a
    # wrapper put on func (as the benchmark's tracer does) sees every call
    sys = build_expression_system(["-x2", "x1 * t"])
    func, seen = sys.func, []

    def wrapped(t, x):
        seen.append(np.shape(x))
        return func(t, x)

    sys.func = wrapped
    x = [[1.0, 2.0], [4.0, 5.0]]
    assert np.array_equal(sys.field(2.0, x), [[-4.0, -5.0], [2.0, 4.0]])
    assert seen == [(2, 2)]
    with pytest.raises(DimensionMismatch, match=r"^x: expected 2 rows, one per formula, got shape \(3,\)"):
        sys.field(0.0, np.ones(3))
    reply = object()
    sys.func = lambda t, x: reply
    assert sys.field(0.0, x) is reply


def test_nesting_cap_keeps_evaluation_off_the_recursion_limit():
    import sys

    from invarcheck.expressions import _MAX_DEPTH

    # a sum of k terms nests k - 1 levels below its root
    with pytest.raises(InputError, match="nests deeper"):
        parse_formula("+".join(["x1"] * (_MAX_DEPTH + 2)), 1)
    deepest = build_expression_system(["+".join(["x1"] * (_MAX_DEPTH + 1))])

    def at_depth(levels_left):
        # recurse until only levels_left frames remain below the limit
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        if sys.getrecursionlimit() - depth > levels_left:
            return at_depth(levels_left)
        return deepest.field(0.0, np.array([2.0]))

    assert at_depth(_MAX_DEPTH + 20)[0] == 2.0 * (_MAX_DEPTH + 1)


# A seeded corpus of random formulas on x1..x3 and t, checked against the
# recursive evaluator in oracles.py. Every literal form occurs; 0 divides to
# inf or NaN, 1e400 is inf, fractional powers of negative bases are NaN, and
# the states hold zeros and values whose exp overflows.
_N = 3
_LITERALS = ("0", "1", "2", "3", "0.5", ".25", "1.5e-1", "2E1", "7.125", "1e400")
_EXPONENTS = ("0.5", "1.5", "0", "1", "9", "(-3)", "(-0.5)")  # never products


def _formula(rng, depth, pool):
    """(text, uses_x) of a random formula at most depth levels deep. A
    product power occurs only as a square of a term of x, which numpy's pow
    already computes as x*x; pool holds the subterms made so far, and one in
    five subterms is taken from it, so formulas share subterms."""
    if pool and rng.random() < 0.2:
        return pool[rng.integers(len(pool))]
    if depth == 0 or rng.random() < 0.2:
        return [(f"x{rng.integers(1, _N + 1)}", True), ("t", False),
                (str(rng.choice(_LITERALS)), False)][rng.integers(3)]
    a, uses_x = _formula(rng, depth - 1, pool)
    kind = rng.integers(4)
    if kind == 0:
        b, b_uses_x = _formula(rng, depth - 1, pool)
        out = (f"({a}){rng.choice(['+', '-', '*', '/'])}({b})", uses_x or b_uses_x)
    elif kind == 1:
        out = (f"{rng.choice(['-', '+'])}({a})", uses_x)
    elif kind == 2:
        out = (f"{rng.choice(['sin', 'cos', 'exp', 'tanh'])}({a})", uses_x)
    else:
        exponents = list(_EXPONENTS) + ["2"] * uses_x + ["subterm"]
        e = rng.choice(exponents)
        if e == "subterm":
            e, e_uses_x = _formula(rng, depth - 1, pool)
            e, uses_x = f"({e})", uses_x or e_uses_x
        out = (f"({a})^{e}", uses_x)
    pool.append(out)
    return out


def _states(rng, m=48):
    x = rng.normal(size=(_N, m)) * 3.0
    x[:, :4] = 0.0
    x[rng.integers(_N), 4:8] = [800.0, -800.0, 1e-200, -2.5]
    return x


def _reference(texts, t, x):
    return np.array([np.broadcast_to(oracles.recursive_formula(f, t, x), x.shape[1:]) for f in texts])


def test_tape_matches_recursive_evaluation_bit_for_bit():
    rng = np.random.default_rng(2008)
    for _ in range(300):
        pool = []
        texts = [_formula(rng, 5, pool)[0] for _ in range(_N)]
        t = float(rng.choice([0.0, rng.normal() * 4.0]))
        x = _states(rng)
        got = build_expression_system(texts).field(t, x)
        want = _reference(texts, t, x)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), texts


def test_product_powers_stay_within_k_ulps_of_pow():
    # k - 1 rounded products against pow's own rounding: at most k ulps of
    # pow's value apart; non-finite values agree exactly
    rng = np.random.default_rng(1953)
    worst = {}
    for _ in range(200):
        base, _ = _formula(rng, 4, [])
        k = int(rng.integers(2, 9))
        t = float(rng.normal() * 4.0)
        x = _states(rng)
        texts = [f"({base})^{k}"] + ["x1"] * (_N - 1)
        got = build_expression_system(texts).field(t, x)[0]
        want = _reference(texts, t, x)[0]
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite], equal_nan=True), base
        ulps = np.abs(got[finite] - want[finite]) / np.spacing(np.abs(want[finite]))
        assert np.all(ulps <= k), (base, k)
        worst[k] = max(worst.get(k, 0.0), float(ulps.max(initial=0.0)))
    assert set(worst) == set(range(2, 9))


def test_a_subterm_shared_across_formulas_is_computed_once_per_call(monkeypatch):
    calls = []

    def spy(a):
        calls.append(np.shape(a))
        return np.sin(a)

    monkeypatch.setitem(expressions._FUNCTIONS, "sin", spy)
    sys = build_expression_system(["sin(x1)*x1", "sin(x1)*x2"])
    x = np.random.default_rng(5).normal(size=(2, 7))
    for calls_so_far in (1, 2, 3):
        out = sys.field(0.5, x)
        assert len(calls) == calls_so_far
        assert np.array_equal(out, np.sin(x[0]) * x)


def test_a_square_is_bit_identical_to_numpy_pow():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 20000)) * np.exp(rng.uniform(-700, 700, size=20000))
    x[0, :6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324]
    for square in ("x1^2", "x1^2.0", "x1 ^ 2e0"):
        got = build_expression_system([square]).field(0.0, x)
        with np.errstate(over="ignore"):
            want = np.power(x, 2.0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), square


def test_product_power_keeps_the_nesting_cap():
    from invarcheck.expressions import _MAX_DEPTH

    # the leftmost term of a sum of k terms sits k - 1 levels down, and its
    # base and exponent one level below that
    with pytest.raises(InputError, match="nests deeper"):
        parse_formula("+".join(["x1^3"] + ["x1"] * _MAX_DEPTH), 1)
    f = parse_formula("+".join(["x1^3"] + ["x1"] * (_MAX_DEPTH - 1)), 1)
    assert f(0.0, np.array([2.0])) == 8.0 + 2.0 * (_MAX_DEPTH - 1)
