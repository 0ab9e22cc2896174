"""Input rules and the dense real linear-algebra kernels of every other module.

Every type, shape, dimension and range rule on numbers, vectors and
matrices lives here, each naming the argument its caller passes first in
its message. Everything else is pure and operates on plain numpy arrays
validated at entry: linear solves and Cholesky factors on LAPACK with
conditioning and pivot checks, a symmetric eigensolver on LAPACK's eigh,
generalized symmetric eigenvalues through a Cholesky reduction, and a
minimizer for convex scalar functions by a Newton search on the slope,
safeguarded by bisection.
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
_MAX_DIM = math.isqrt(np.iinfo(np.intp).max // 8)  # largest n whose n x n float64 array numpy can size


_SEQUENCE = (list, tuple, np.ndarray)
_PLAIN = {float, int, np.float64}  # entry types that need no closer look


def _walk(a, path: str, depth: int) -> tuple:
    """The shape of a, sequences of real numbers nested at most depth deep;
    else InputError at the path of the first entry that is no real number (a
    sequence below that depth is none) or row not shaped as the first."""
    if isinstance(a, np.ndarray):
        if a.dtype.kind in "fiu":
            return a.shape
        a = a.item() if a.ndim == 0 else a  # a 0-d array is the entry it holds
    if not isinstance(a, _SEQUENCE) or depth == 0:
        _check_real(a, path)
        return ()
    if _PLAIN.issuperset(map(type, a)):  # a row of plain numbers, checked without a loop
        return (len(a),)
    shapes = [_walk(v, f"{path}[{k}]", depth - 1) for k, v in enumerate(a)]
    if len(set(shapes)) > 1:
        k = next(k for k, shape in enumerate(shapes) if shape != shapes[0])
        raise InputError(f"{path}[{k}]: shape {shapes[k]} != {shapes[0]}")
    return (len(a),) + (shapes[0] if shapes else ())


def _as_array(a, name: str, ndims: tuple, nonempty: bool = False) -> np.ndarray:
    """a as a float array of one of the ndims with finite entries (at least one
    if nonempty), else InputError naming name; only a float or integer array
    skips the walk."""
    if not isinstance(a, _SEQUENCE):
        raise InputError(f"{name}: expected an array of numbers, got {type(a).__name__}")
    _walk(a, name, max(ndims))
    try:
        m = np.asarray(a, dtype=float)
    except OverflowError:
        raise InputError(f"{name}: contains an integer beyond the float range") from None
    if m.ndim not in ndims:
        raise InputError(f"{name}: expected a {' or '.join(f'{d}-D' for d in ndims)} array, "
                         f"got shape {m.shape}")
    if nonempty and m.size == 0:
        raise InputError(f"{name}: expected a non-empty array of numbers")
    if m.size and not np.all(np.isfinite(m)):
        raise InputError(f"{name}: contains non-finite entries")
    return m


def as_matrix(a, name: str = "matrix", nonempty: bool = False) -> np.ndarray:
    """a as a 2-D float array with finite entries, else InputError naming name."""
    return _as_array(a, name, (2,), nonempty)


def as_vector(a, name: str = "vector", nonempty: bool = False) -> np.ndarray:
    """a as a 1-D float array with finite entries, else InputError naming name."""
    return _as_array(a, name, (1,), nonempty)


def as_square(a, name: str = "matrix", nonempty: bool = False) -> np.ndarray:
    """a as a square float matrix with finite entries, else InputError naming name."""
    m = _as_array(a, name, (2,), nonempty)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{name}: expected a square matrix, got shape {m.shape}")
    return m


def as_point(s, x, name: str, batch: bool = False) -> np.ndarray:
    """x as a finite vector of the dimension of s (a set or tangent cone), or
    with batch also as n x N columns of one; else an InputError naming name."""
    x = _as_array(x, name, (1, 2) if batch else (1,))
    if x.shape[0] != s.dim:
        raise DimensionMismatch(f"{name}: expected dimension {s.dim}, got {x.shape[0]}")
    return x


def of_dimension(a: np.ndarray, dim: int) -> np.ndarray:
    """a, a system's square matrix A, if it is dim x dim, else DimensionMismatch."""
    if a.shape[0] != dim:
        raise DimensionMismatch("A: system dimension does not match the set "
                                f"({a.shape[0]} x {a.shape[0]} against dimension {dim})")
    return a


def pow2_exponent(a: np.ndarray) -> int:
    """The e with max|a| * 2^-e in [1, 2), 0 for an a without a nonzero entry.
    Scaling by 2^-e (np.ldexp) is exact in floats."""
    top = float(np.max(np.abs(a), initial=0.0))
    return int(np.frexp(top)[1]) - 1 if top > 0.0 else 0


def _check_real(value, name: str, nonnegative: bool = False) -> float:
    """value as a float, else InputError naming name unless it is a finite
    real number (a bool or an int beyond the float range is none), and >= 0
    if nonnegative."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InputError(f"{name}: expected a number, got {type(value).__name__}")
    try:
        real = float(value)
    except OverflowError:
        raise InputError(f"{name}: expected a finite number, got an integer beyond the "
                         "float range") from None
    if not (math.isfinite(real) and (real >= 0.0 or not nonnegative)):
        raise InputError(f"{name}: expected a finite {'nonnegative ' * nonnegative}number, "
                         f"got {real}")
    return real


def _check_int(value, name: str, least: int) -> int:
    """value, else InputError naming name unless it is an int (a bool is
    none) of at least least, 0 (a seed) or 1 (a count of samples or
    dimensions)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise InputError(f"{name}: expected a {('nonnegative', 'positive')[least]} integer, "
                         f"got {value!r}")
    return value


def _check_dim(value, name: str) -> int:
    """value, else InputError naming name unless it is a positive int whose
    n x n float array numpy can represent (an int too large for that would
    reach numpy as a ValueError)."""
    _check_int(value, name, 1)
    if value > _MAX_DIM:
        raise InputError(f"{name}: expected at most {_MAX_DIM}, the largest n of an n x n "
                         f"numpy array, got an integer of {int(value).bit_length()} bits")
    return value


def _check_sampling(count, seed, tol, count_name: str) -> None:
    """The count, seed and tol rules, the count under the caller's name."""
    _check_int(count, count_name, 1)
    _check_int(seed, "seed", 0)
    _check_real(tol, "tol", nonnegative=True)


def _check_grid(step, horizon, step_name: str, horizon_name: str) -> tuple[float, float]:
    """(step, horizon) as floats, else InputError unless both are finite
    numbers with 0 < step <= horizon, naming both."""
    step, horizon = _check_real(step, step_name), _check_real(horizon, horizon_name)
    if not 0.0 < step <= horizon:
        raise InputError(f"need 0 < {step_name} <= {horizon_name} < inf, got "
                         f"{step_name} {step} and {horizon_name} {horizon}")
    return step, horizon


def canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude entry is positive (ties: lowest index).

    A matrix is flipped column by column.
    """
    if v.size == 0:
        return v
    cols = v.reshape(v.shape[0], -1)
    k = np.argmax(np.abs(cols), axis=0)
    return np.where(cols[k, np.arange(cols.shape[1])] < 0, -v, v)


def distinct_columns(x: np.ndarray) -> np.ndarray:
    """Increasing indices of the first copy of each distinct column of the
    n x N array x, as np.unique(x, axis=1, return_index=True) finds them:
    a stable lexsort puts equal columns (float equality, so -0.0 == 0.0)
    next to each other, first copy first."""
    order = np.lexsort(x[::-1])
    xs = x[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any(xs[:, 1:] != xs[:, :-1], axis=0)
    return np.sort(order[new])


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


def sym_eig(m, name: str = "M") -> EigenResult:
    """Eigendecomposition of a symmetric matrix by LAPACK's eigh.

    The input is symmetrized as (M + M')/2 after a near-symmetry check
    (within 1e-9 of its largest entry), whose error names it name.
    Eigenvalues come back sorted descending with orthonormal eigenvector
    columns aligned to them, each column sign-normalized by canonical_sign;
    raises NoConvergence if LAPACK reports a failure to converge.
    """
    m = as_square(m, name)
    if m.size and float(np.max(np.abs(m - m.T))) > 1e-9 * (1.0 + float(np.max(np.abs(m)))):
        raise InputError(f"{name} is not symmetric within tolerance")
    try:
        w, v = np.linalg.eigh(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigh did not converge: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    return EigenResult(w[order], canonical_sign(v[:, order]))


def cholesky_lower(q) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix by LAPACK, from its lower triangle;
    NotPositiveDefinite if LAPACK fails or a pivot L[i, i]^2 is below _CHOLESKY_PIVOT_TOL.
    q is a square float array the package built, not checked again."""
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

    M and Q are float arrays of one nonempty square shape that the package
    built, Q symmetric (a quadric's, checked and symmetrised where the set
    is built); neither is checked again. Reduces to a standard symmetric
    problem through the Cholesky factor of Q, which is also the
    positive-definiteness test. M is symmetrized.
    """
    low = cholesky_lower(q)
    y = np.linalg.solve(low, 0.5 * (m + m.T))
    w = np.linalg.solve(low, y.T)
    res = sym_eig(0.5 * (w + w.T))
    lam = float(res.eigenvalues[0])
    x = np.linalg.solve(low.T, res.eigenvectors[:, 0])
    return lam, x


def gershgorin_radius(m) -> float:
    """Upper bound on the spectral radius from Gershgorin discs, of a square
    float array the package built (not checked again)."""
    return float(np.max(np.sum(np.abs(m), axis=1), initial=0.0))


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
