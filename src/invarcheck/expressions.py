"""Tiny arithmetic grammar for field formulas given as strings.

Supported: + - * / ^, unary minus, parentheses, variables x1..xn and t,
integer/decimal/scientific literals, and the functions sin, cos, exp, tanh.
Python's parser reads a formula (^ taken as **); one compile over a whitelist
of its node types turns the tree into closures that broadcast over numpy
arrays, so a system built from them evaluates a whole batch of states at
once. Formula text is never evaluated as Python.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

from .errors import DimensionMismatch, InputError
from .systems import GeneralSystem

_NUMBER = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)
_STRAY = re.compile(r"[^0-9A-Za-z_.+\-*/^() ]|\*\*")  # powers are written ^, not **
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")  # Python rejects 007; the grammar reads 7
_VARIABLE = re.compile(r"x([0-9]+)")
_MAX_DEPTH = 200  # deepest node nesting; evaluation then stays far from the recursion limit

_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
}


def _compile(node, source: str, n_vars: int, text: str, depth: int = 0):
    """Closure f(t, coords) for one whitelisted node, depth levels below the
    root. Constants and t evaluate as numpy floats, like the coordinates, so
    a division by zero, an overflow or a negative base under a fractional
    power gives inf or NaN wherever it occurs."""
    if depth > _MAX_DEPTH:
        raise InputError(f"formula {text!r} nests deeper than {_MAX_DEPTH} levels")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        a = _compile(node.left, source, n_vars, text, depth + 1)
        b = _compile(node.right, source, n_vars, text, depth + 1)
        return lambda t, x: op(a(t, x), b(t, x))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        a = _compile(node.operand, source, n_vars, text, depth + 1)
        return a if isinstance(node.op, ast.UAdd) else lambda t, x: -a(t, x)
    segment = source[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        const = np.float64(float(segment))
        return lambda t, x: const
    if isinstance(node, ast.Name) and node.id == "t":
        return lambda t, x: np.float64(t)
    m = _VARIABLE.fullmatch(node.id) if isinstance(node, ast.Name) else None
    if m:
        idx = int(m.group(1)) - 1
        if not 0 <= idx < n_vars:
            raise InputError(f"variable {node.id} outside x1..x{n_vars} in formula {text!r}")
        return lambda t, x: x[idx]
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
        fn = _FUNCTIONS[node.func.id]
        a = _compile(node.args[0], source, n_vars, text, depth + 1)
        return lambda t, x: fn(a(t, x))
    raise InputError(f"unsupported {segment!r} in formula {text!r}")


def parse_formula(text: str, n_vars: int):
    """Compile one formula into a closure f(t, coords) -> value.

    coords is indexable per coordinate; scalars and numpy arrays broadcast.
    A formula nested deeper than _MAX_DEPTH levels, or too deep for Python's
    parser, is an InputError.
    """
    source = " ".join(text.split())
    if not source:
        raise InputError("empty formula")
    stray = _STRAY.search(source)
    if stray:
        raise InputError(f"unexpected {stray.group()!r} in formula {text!r}")
    source = _LEADING_ZEROS.sub("", source.replace("^", "**"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a parser warning (1if, 0in) is a syntax error
            tree = ast.parse(source, mode="eval")
        return _compile(tree.body, source, n_vars, text)
    except SyntaxError as exc:
        raise InputError(f"malformed formula {text!r}") from exc
    except RecursionError as exc:
        raise InputError(f"formula {text!r} nests too deeply") from exc


def build_expression_system(formulas: list[str]) -> GeneralSystem:
    """A batch-capable system whose coordinates follow the given formulas, a
    non-empty list or tuple of strings (else InputError, naming formulas[k]
    for a formula that does not parse). Its field takes a state, or states
    as columns, of one row per formula (else DimensionMismatch)."""
    if not isinstance(formulas, (list, tuple)) or not all(isinstance(f, str) for f in formulas):
        raise InputError("formulas: expected an array of strings")
    n = len(formulas)
    if n == 0:
        raise InputError("formulas: expected at least one formula")
    compiled = []
    for k, text in enumerate(formulas):
        try:
            compiled.append(parse_formula(text, n))
        except InputError as exc:
            raise InputError(f"formulas[{k}]: {exc}") from exc

    def func(t, x):
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != (n,):
            raise DimensionMismatch(f"x: expected {n} rows, one per formula, got shape {x.shape}")
        out = np.empty((n,) + x.shape[1:])
        with np.errstate(all="ignore"):
            for i, fn in enumerate(compiled):
                out[i] = fn(t, x)
        return out

    return GeneralSystem(func, vectorized=True)
