"""Tiny arithmetic grammar for field formulas given as strings.

Supported: + - * / ^, unary minus, parentheses, variables x1..xn and t,
integer/decimal/scientific literals, and the functions sin, cos, exp, tanh.
Python's parser reads a formula (^ taken as **), and a walk over a whitelist
of its node types records all formulas of a system on one tape (Griewank &
Walther, "Evaluating Derivatives", SIAM 2008): each distinct subterm once,
and a power by an integer literal 2..8 as products. One flat loop runs the
tape over numpy arrays, so a system evaluates a whole batch of states at
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
_MAX_DEPTH = 200  # deepest node nesting; the walk that records a formula then stays far from the recursion limit
_PRODUCT_POWERS = range(2, 9)  # literal exponents computed as products, not by pow

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


def _literal(node, source: str):
    """The value of a numeric literal node, else None."""
    segment = source[node.col_offset:node.end_col_offset] if isinstance(node, ast.Constant) else ""
    return float(segment) if _NUMBER.fullmatch(segment) else None


class _Tape:
    """Formulas over x1..xn and t recorded as one tape.

    Every value of a call has a slot that no later formula moves: slot 0
    holds t and slot i the variable xi, record k of the tape fills slot
    n + 1 + k, and constant j fills slot -1 - j, counted from the end.
    Constants and t are numpy floats, like the coordinates, so a division by
    zero, an overflow or a negative base under a fractional power gives inf
    or NaN wherever it occurs.
    """

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self._xs = set()     # slots of the variables the formulas use
        self._consts = {}    # value -> slot
        self._records = {}   # (op, input slots) -> slot, in evaluation order
        self._roots = []

    def _record(self, op, *inputs):
        return self._records.setdefault((op, inputs), self.n_vars + 1 + len(self._records))

    def _walk(self, node, source: str, text: str, depth: int = 0):
        """The slot of one whitelisted node, depth levels below the root."""
        if depth > _MAX_DEPTH:
            raise InputError(f"formula {text!r} nests deeper than {_MAX_DEPTH} levels")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            a = self._walk(node.left, source, text, depth + 1)
            k = _literal(node.right, source) if isinstance(node.op, ast.Pow) else None
            if k in _PRODUCT_POWERS:  # ((a*a)*a)..., each product recorded once
                power = a
                for _ in range(int(k) - 1):
                    power = self._record(operator.mul, power, a)
                return power
            b = self._walk(node.right, source, text, depth + 1)
            return self._record(_BINARY[type(node.op)], a, b)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            a = self._walk(node.operand, source, text, depth + 1)
            return a if isinstance(node.op, ast.UAdd) else self._record(operator.neg, a)
        if isinstance(node, ast.Name):
            if node.id == "t":
                return 0
            m = _VARIABLE.fullmatch(node.id)
            if m:
                idx = int(m.group(1)) - 1
                if not 0 <= idx < self.n_vars:
                    raise InputError(f"variable {node.id} outside x1..x{self.n_vars} in formula {text!r}")
                self._xs.add(idx + 1)
                return idx + 1
        value = _literal(node, source)
        if value is not None:
            return self._consts.setdefault(value, -1 - len(self._consts))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
            return self._record(_FUNCTIONS[node.func.id], self._walk(node.args[0], source, text, depth + 1))
        raise InputError(f"unsupported {source[node.col_offset:node.end_col_offset]!r} in formula {text!r}")

    def add(self, text: str):
        """Record one formula; InputError if it does not parse, uses a name
        outside the grammar or nests deeper than _MAX_DEPTH levels (or too
        deep for Python's parser)."""
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
                body = ast.parse(source, mode="eval").body
            self._roots.append(self._walk(body, source, text))
        except SyntaxError as exc:
            raise InputError(f"malformed formula {text!r}") from exc
        except RecursionError as exc:
            raise InputError(f"formula {text!r} nests too deeply") from exc

    def evaluator(self):
        """run(t, coords) -> [value of each formula added, in order], from one
        pass over the tape. coords is indexable per coordinate; scalars and
        numpy arrays broadcast."""
        seeded = [None] * (self.n_vars + 1 + len(self._records)) + [np.float64(c) for c in reversed(self._consts)]
        xs = sorted(self._xs)
        steps = [(k, op, inputs[0], inputs[1] if len(inputs) == 2 else None)
                 for k, (op, inputs) in enumerate(self._records, self.n_vars + 1)]
        roots = list(self._roots)

        def run(t, coords):
            vals = seeded.copy()
            vals[0] = np.float64(t)
            for i in xs:
                vals[i] = coords[i - 1]
            with np.errstate(all="ignore"):  # inf and NaN are values, not warnings
                for k, op, a, b in steps:  # one input or two
                    vals[k] = op(vals[a]) if b is None else op(vals[a], vals[b])
            return [vals[r] for r in roots]

        return run


def parse_formula(text: str, n_vars: int):
    """One formula as a function f(t, coords) -> value, from a tape of one
    formula (InputError as _Tape.add). coords is indexable per coordinate;
    scalars and numpy arrays broadcast. A scalar coordinate is read as a numpy
    float, so 1/x1 at 0 is inf, as in a system's field."""
    tape = _Tape(n_vars)
    tape.add(text)
    run = tape.evaluator()
    return lambda t, coords: run(t, [np.float64(c) if np.isscalar(c) else c for c in coords])[0]


def build_expression_system(formulas: list[str]) -> GeneralSystem:
    """A batch-capable system whose coordinates follow the given formulas, a
    non-empty list or tuple of strings (else InputError, naming formulas[k]
    for a formula that does not parse), all recorded on one tape. Its field
    takes a state, or states as columns, of one row per formula (else
    DimensionMismatch)."""
    if not isinstance(formulas, (list, tuple)) or not all(isinstance(f, str) for f in formulas):
        raise InputError("formulas: expected an array of strings")
    n = len(formulas)
    if n == 0:
        raise InputError("formulas: expected at least one formula")
    tape = _Tape(n)
    for k, text in enumerate(formulas):
        try:
            tape.add(text)
        except InputError as exc:
            raise InputError(f"formulas[{k}]: {exc}") from exc
    run = tape.evaluator()

    def func(t, x):
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != (n,):
            raise DimensionMismatch(f"x: expected {n} rows, one per formula, got shape {x.shape}")
        out = np.empty((n,) + x.shape[1:])
        for i, value in enumerate(run(t, x)):
            out[i] = value
        return out

    return GeneralSystem(func, vectorized=True)
