"""Dynamical-system descriptions; each field(t, x) takes a state or an (n, N)
batch of states as columns, held by LinearSystem.field to A's dimension."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch
from .numerics import as_square, of_dimension


@dataclass
class LinearSystem:
    """Autonomous linear field x' = A x; exact certificates apply."""

    a: np.ndarray

    def __post_init__(self):
        self.a = as_square(self.a, "A")

    def field(self, t, x):
        """A x, for a state or an (n, N) batch; InputError unless x has n rows."""
        return of_dimension(self.a, np.shape(x)[0]) @ x


@dataclass
class GeneralSystem:
    """Opaque field evaluator f(t, x); only sampling checks apply.

    Set vectorized=True when the evaluator broadcasts over a batch of states
    given as an (n, N) array; field then evaluates a batch in one call, and
    the falsifier integrates all starts at once.
    """

    func: Callable
    vectorized: bool = False

    def field(self, t, x):
        """f(t, x) for a state or an (n, N) batch, column by column unless
        vectorized; DimensionMismatch unless the evaluator returns x's shape."""
        if np.ndim(x) == 2 and not self.vectorized:
            out = np.empty(x.shape)
            for k in range(x.shape[1]):
                out[:, k] = self.field(t, x[:, k])
            return out
        out = np.asarray(self.func(t, x), dtype=float)
        if out.shape != np.shape(x):
            raise DimensionMismatch(
                f"field evaluator returned shape {out.shape} for state shape {np.shape(x)}")
        return out


DynamicalSystem = LinearSystem | GeneralSystem
