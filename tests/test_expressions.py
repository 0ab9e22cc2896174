import numpy as np
import pytest

from invarcheck.errors import InputError
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
