"""Dynamical-system descriptions accepted by the checkers and integrator;
LinearSystem.field holds a state to the system's dimension (of_dimension)."""

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
    given as an (n, N) array; the falsifier then integrates all starts at
    once.
    """

    func: Callable
    vectorized: bool = False

    def field(self, t, x):
        out = np.asarray(self.func(t, x), dtype=float)
        if out.shape != np.shape(x):
            raise DimensionMismatch(
                f"field evaluator returned shape {out.shape} for state shape {np.shape(x)}")
        return out


DynamicalSystem = LinearSystem | GeneralSystem


def field_batch(sys: DynamicalSystem, t: float, states: np.ndarray) -> np.ndarray:
    """Evaluate the field on an (n, N) batch of states, in one call if linear or vectorized."""
    if isinstance(sys, LinearSystem) or sys.vectorized:
        return sys.field(t, states)
    out = np.empty_like(states)
    for k in range(states.shape[1]):
        out[:, k] = sys.field(t, states[:, k])
    return out
