"""Dense real linear-algebra kernels used by every other module.

Everything here is pure and operates on plain numpy arrays validated at
entry: linear solves and Cholesky factors on LAPACK with conditioning and
pivot checks, a symmetric eigensolver on LAPACK's eigh, generalized
symmetric eigenvalues through a Cholesky reduction, and a minimizer for
convex scalar functions by a Newton search on the slope, safeguarded by
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadBracket,
    DimensionMismatch,
    InputError,
    NoConvergence,
    NotPositiveDefinite,
    SingularMatrix,
)


_COND_TOL = 1e-12            # relative: condition number above 1/_COND_TOL is singular
_CHOLESKY_PIVOT_TOL = 1e-10  # Cholesky pivot floor for positive definiteness


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a 2-D float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise InputError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-D float array with finite entries."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise InputError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size and not np.all(np.isfinite(v)):
        raise InputError(f"{name} contains non-finite entries")
    return v


def as_square(a, name: str = "matrix") -> np.ndarray:
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    return m


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude entry is positive (ties: lowest index).

    A matrix is flipped column by column.
    """
    if v.size == 0:
        return v
    cols = v.reshape(v.shape[0], -1)
    k = np.argmax(np.abs(cols), axis=0)
    return np.where(cols[k, np.arange(cols.shape[1])] < 0, -v, v)


@dataclass
class EigenResult:
    """Symmetric eigendecomposition, eigenvalues descending, columns aligned."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def solve_linear(a, b) -> np.ndarray:
    """Solve Ax = b by LAPACK; SingularMatrix if cond(A) > 1 / _COND_TOL (inf if singular)."""
    a = as_square(a, "A")
    b = as_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"A is {a.shape} but b has dimension {b.shape[0]}")
    if a.shape[0] == 0:
        return np.zeros(0)
    cond = float(np.linalg.cond(a))
    if not cond <= 1.0 / _COND_TOL:
        raise SingularMatrix(f"condition number {cond:.3e} above {1.0 / _COND_TOL:.1e}")
    return np.linalg.solve(a, b)


def _require_symmetric(m: np.ndarray, name: str) -> None:
    """Raise InputError unless m is symmetric within 1e-9 of its largest entry."""
    if m.size and float(np.max(np.abs(m - m.T))) > 1e-9 * (1.0 + float(np.max(np.abs(m)))):
        raise InputError(f"{name} is not symmetric within tolerance")


def sym_eig(m) -> EigenResult:
    """Eigendecomposition of a symmetric matrix by LAPACK's eigh.

    The input is symmetrized as (M + M')/2 after a near-symmetry check.
    Eigenvalues come back sorted descending with orthonormal eigenvector
    columns aligned to them, each column sign-normalized by canonical_sign;
    raises NoConvergence if LAPACK reports a failure to converge.
    """
    m = as_square(m, "M")
    _require_symmetric(m, "M")
    try:
        w, v = np.linalg.eigh(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return EigenResult(w[order], canonical_sign(v[:, order]))


def cholesky_lower(q) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix by LAPACK, from its lower triangle;
    NotPositiveDefinite if LAPACK fails or a pivot L[i, i]^2 is below _CHOLESKY_PIVOT_TOL."""
    q = as_square(q, "Q")
    try:
        low = np.linalg.cholesky(q)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Q is not positive definite: {exc}") from exc
    pivot = float(np.min(np.diag(low), initial=np.inf)) ** 2
    if pivot < _CHOLESKY_PIVOT_TOL:
        raise NotPositiveDefinite(f"Cholesky pivot {pivot:.3e} below {_CHOLESKY_PIVOT_TOL:.1e}")
    return low


def gen_eig_max_witness(m, q):
    """Largest lambda with M x = lambda Q x for symmetric M and SPD Q, plus x.

    Reduces to a standard symmetric problem through the Cholesky factor of Q,
    which is also the positive-definiteness test. M is symmetrized.
    """
    m = as_square(m, "M")
    q = as_square(q, "Q")
    if m.shape != q.shape:
        raise DimensionMismatch("M and Q must have matching shapes")
    if q.shape[0] == 0:
        raise NotPositiveDefinite("Q is empty")
    _require_symmetric(q, "Q")
    low = cholesky_lower(q)
    y = np.linalg.solve(low, 0.5 * (m + m.T))
    w = np.linalg.solve(low, y.T)
    res = sym_eig(0.5 * (w + w.T))
    lam = float(res.eigenvalues[0])
    x = np.linalg.solve(low.T, res.eigenvectors[:, 0])
    return lam, x


def gershgorin_radius(m) -> float:
    """Upper bound on the spectral radius from Gershgorin discs."""
    m = as_square(m, "M")
    if m.shape[0] == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(m), axis=1)))


def minimize_scalar_convex(f, bracket, tol: float = 1e-8):
    """Minimum of a convex scalar function over a finite bracket by a
    safeguarded Newton search: f(x) returns (value, slope, curvature), slope
    a subgradient and curvature the second derivative.

    The bracket keeps a minimizer: slope >= 0 moves its right end to x, else
    its left end. The next point is the Newton step from the point with the
    shortest one (at least tol/2 long) if it lies inside the bracket and is
    under half the previous move, moved toward the midpoint as far as needed
    for f never to be called more often than by bisection; otherwise the
    midpoint. A curvature <= 0, nan or inf (0.0 at a kink) gives no Newton
    step. Returns (argmin, value at argmin), the midpoint of the final
    bracket, at most tol wide. When tol is below the float spacing of the
    bracket, the search stops once the bracket no longer shrinks.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise BadBracket(f"bracket ({lo}, {hi}) is degenerate")
    if not (tol > 0.0):
        raise BadBracket("tol must be positive")
    left, w = 1, 0.5 * hi - 0.5 * lo  # left: evaluations bisection still makes
    while w > tol:
        left, w = left + 1, 0.5 * w
    ulp = 2.0 * math.ulp(max(abs(lo), abs(hi)))  # a midpoint's rounding, doubled
    newton, step = None, hi - lo
    while hi - lo > tol:
        t = 0.5 * (lo + hi)
        if not lo < t < hi:
            break  # tol is below the float spacing of the bracket
        if newton is not None:
            x, d = newton
            d = math.copysign(max(abs(d), 0.5 * tol), d)
            room = math.ldexp(tol - ulp, left - 1) + ulp  # what left - 1 bisections close
            s = min(max(x + d, hi - room), lo + room)
            if abs(d) < 0.5 * step and lo < x + d < hi and max(s - lo, hi - s) <= room:
                t = s
            step = abs(t - x)
        _, slope, curv = f(t)
        left -= 1
        if 0.0 < curv < math.inf and (newton is None or abs(slope / curv) < abs(newton[1])):
            newton = t, -slope / curv
        lo, hi = (lo, t) if slope >= 0.0 else (t, hi)
    x = 0.5 * (lo + hi)
    return x, float(f(x)[0])
