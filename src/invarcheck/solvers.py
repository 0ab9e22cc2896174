"""Certification solvers: linear feasibility and nearest-point programs.

Two backends decide whether a sampled field vector decomposes over a vertex
or ray system: an equality-form linear feasibility model solved by a
two-phase simplex with Bland's rule, and an equality-constrained
nonnegative least-squares model whose optimal objective is half the squared
distance to the generated cone. A small general-purpose inequality LP
wrapper built on the same simplex serves the facet checks and boundary
sampling elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IterationLimit, NumericalFailure, SingularMatrix
from .numerics import DEFAULT_TOLS, Tolerances, as_matrix, as_vector, solve_linear

_REDCOST_TOL = 1e-10
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 50000


def _simplex_iterate(tab, basis, ncols):
    """Bland-rule simplex on a tableau whose last row holds reduced costs.

    tab has shape (m+1, ncols+1); column ncols is the rhs. Returns
    "optimal" or "unbounded"; raises NumericalFailure past the pivot cap.
    """
    m = tab.shape[0] - 1
    for _ in range(_MAX_PIVOTS):
        enter = -1
        for j in range(ncols):
            if tab[m, j] < -_REDCOST_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best_ratio = np.inf
        for i in range(m):
            if tab[i, enter] > _PIVOT_TOL:
                ratio = tab[i, ncols] / tab[i, enter]
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        piv = tab[leave, enter]
        tab[leave, :] /= piv
        for i in range(m + 1):
            if i != leave and tab[i, enter] != 0.0:
                tab[i, :] -= tab[i, enter] * tab[leave, :]
        basis[leave] = enter
    raise NumericalFailure("simplex exceeded its pivot budget")


def _rows_within_scale(tab, basis, a_work, b_work, tols: Tolerances) -> bool:
    """Whether every row's phase-one residual is within the feasibility
    tolerance relative to the size of that row's own terms.

    The residual of row i is the value of its artificial variable n + i; it
    is judged against 1 + |b_i| + sum_j |A_ij z_j| at the phase-one point z.
    Rounding grows with the terms a row sums, so feasible LPs with large
    data are not rejected, while a row whose terms are small still has to
    hold tightly beside large ones (such as an artificial box).
    """
    m, n = a_work.shape
    z = np.zeros(n + m)
    z[basis] = tab[:m, -1]
    scale = 1.0 + b_work + np.abs(a_work) @ np.abs(z[:n])
    return bool(np.all(z[n:] <= tols.feasibility * scale))


def simplex_standard(c, a_eq, b_eq, tols: Tolerances = DEFAULT_TOLS):
    """min c'z subject to A z = b, z >= 0, by two-phase simplex (Bland).

    Returns (status, z, objective) with status "optimal", "infeasible" or
    "unbounded"; for "infeasible" the objective is the phase-one optimum
    (an L1 infeasibility measure) and z is None.
    """
    a_eq = as_matrix(a_eq, "A")
    b_eq = as_vector(b_eq, "b").copy()
    c = as_vector(c, "c")
    m, n = a_eq.shape
    if c.shape[0] != n or b_eq.shape[0] != m:
        raise DimensionMismatch("inconsistent LP dimensions")

    a_work = a_eq.copy()
    neg = b_eq < 0
    a_work[neg, :] *= -1.0
    b_eq[neg] *= -1.0

    # phase one: artificial identity basis, minimize their sum
    tab = np.zeros((m + 1, n + m + 1))
    tab[:m, :n] = a_work
    tab[:m, n:n + m] = np.eye(m)
    tab[:m, -1] = b_eq
    tab[m, n:n + m] = 1.0
    for i in range(m):
        tab[m, :] -= tab[i, :]
    basis = list(range(n, n + m))
    status = _simplex_iterate(tab, basis, n + m)
    phase1 = -tab[m, -1]
    if status != "optimal" or (phase1 > tols.feasibility and
                               not _rows_within_scale(tab, basis, a_work, b_eq, tols)):
        return "infeasible", None, float(max(phase1, 0.0))

    # drive artificial variables out of the basis; drop redundant rows
    keep_rows = []
    for i in range(m):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if abs(tab[i, j]) > _PIVOT_TOL:
                    pivot_col = j
                    break
            if pivot_col < 0:
                continue  # redundant constraint row
            piv = tab[i, pivot_col]
            tab[i, :] /= piv
            for k in range(m + 1):
                if k != i and tab[k, pivot_col] != 0.0:
                    tab[k, :] -= tab[k, pivot_col] * tab[i, :]
            basis[i] = pivot_col
        keep_rows.append(i)

    rows = keep_rows
    m2 = len(rows)
    tab2 = np.zeros((m2 + 1, n + 1))
    for r, i in enumerate(rows):
        tab2[r, :n] = tab[i, :n]
        tab2[r, n] = tab[i, -1]
    basis2 = [basis[i] for i in rows]
    tab2[m2, :n] = c
    for r in range(m2):
        cj = c[basis2[r]]
        if cj != 0.0:
            tab2[m2, :] -= cj * tab2[r, :]
    status = _simplex_iterate(tab2, basis2, n)
    if status == "unbounded":
        return "unbounded", None, -np.inf
    z = np.zeros(n)
    for r in range(m2):
        z[basis2[r]] = tab2[r, n]
    return "optimal", z, float(-tab2[m2, n])


def phase_one_feasibility(matrix, rhs, free_indices=(), tols: Tolerances = DEFAULT_TOLS):
    """Feasibility of  matrix @ a = rhs  with a_j >= 0 except the free ones.

    Free coefficients are split into differences of nonnegative variables.
    Returns (phase-one optimum, a or None); the optimum is an L1 residual,
    so values at or below the feasibility tolerance mean feasible.
    """
    matrix = as_matrix(matrix, "matrix")
    rhs = as_vector(rhs, "rhs")
    m, k = matrix.shape
    free = sorted(set(int(j) for j in free_indices))
    cols = [matrix]
    for j in free:
        cols.append(-matrix[:, j:j + 1])
    a_std = np.hstack(cols) if free else matrix
    c = np.zeros(a_std.shape[1])
    status, z, opt = simplex_standard(c, a_std, rhs, tols)
    if status == "infeasible":
        return opt, None
    if status != "optimal":
        raise NumericalFailure(f"feasibility LP returned {status}")
    a = z[:k].copy()
    for pos, j in enumerate(free):
        a[j] -= z[k + pos]
    return 0.0, a


def solve_inequality_lp(c, g_ub=None, h_ub=None, a_eq=None, b_eq=None,
                        box=None, maximize=False, tols: Tolerances = DEFAULT_TOLS):
    """Solve max/min c'x over G x <= h, A x = b, optionally |x_i| <= box.

    Variables are free; they are split internally. Returns (status, x, value)
    where value is in the caller's max/min sense.
    """
    c = as_vector(c, "c")
    n = c.shape[0]
    g_rows = []
    h_vals = []
    if g_ub is not None:
        g_ub = as_matrix(g_ub, "G")
        h_ub = as_vector(h_ub, "h")
        g_rows.append(g_ub)
        h_vals.append(h_ub)
    if box is not None:
        g_rows.append(np.eye(n))
        h_vals.append(np.full(n, float(box)))
        g_rows.append(-np.eye(n))
        h_vals.append(np.full(n, float(box)))
    g_all = np.vstack(g_rows) if g_rows else np.zeros((0, n))
    h_all = np.concatenate(h_vals) if h_vals else np.zeros(0)
    m_ub = g_all.shape[0]
    if a_eq is not None:
        a_eq = as_matrix(a_eq, "A_eq")
        b_eq = as_vector(b_eq, "b_eq")
    else:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    m_eq = a_eq.shape[0]

    # columns: u (n), v (n), slacks (m_ub); x = u - v
    ncols = 2 * n + m_ub
    a_std = np.zeros((m_ub + m_eq, ncols))
    b_std = np.concatenate([h_all, b_eq])
    a_std[:m_ub, :n] = g_all
    a_std[:m_ub, n:2 * n] = -g_all
    a_std[:m_ub, 2 * n:] = np.eye(m_ub)
    a_std[m_ub:, :n] = a_eq
    a_std[m_ub:, n:2 * n] = -a_eq
    c_std = np.zeros(ncols)
    sense = -1.0 if maximize else 1.0
    c_std[:n] = sense * c
    c_std[n:2 * n] = -sense * c
    status, z, obj = simplex_standard(c_std, a_std, b_std, tols)
    if status != "optimal":
        return status, None, (np.inf if maximize and status == "unbounded" else obj)
    x = z[:n] - z[n:2 * n]
    return "optimal", x, float(sense * obj)


@dataclass
class OptResult:
    """Outcome of a certification solve.

    status is "feasible", "infeasible" or "optimal"; alpha the coefficient
    vector when one exists; multipliers the dual vector (for the QP, entry
    free_index holds the equality multiplier); objective is 0 for a feasible
    LP, an L1 infeasibility measure for an infeasible one, and half the
    squared distance for the QP.
    """

    status: str
    alpha: np.ndarray | None
    multipliers: np.ndarray | None
    objective: float


@dataclass
class LPFeasibilityProblem:
    """Equality feasibility system  matrix @ a = rhs, a_j >= 0 for j != free_index."""

    matrix: np.ndarray
    rhs: np.ndarray
    free_index: int

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix, "matrix")
        self.rhs = as_vector(self.rhs, "rhs")
        if self.matrix.shape[0] != self.rhs.shape[0]:
            raise DimensionMismatch("matrix rows and rhs length differ")
        if not 0 <= self.free_index < self.matrix.shape[1]:
            raise DimensionMismatch("free_index outside coefficient range")

    @classmethod
    def for_vertex(cls, vertices, f, i):
        """Vertex-decomposition system: columns are the vertices with an
        appended all-ones row forcing the coefficients to sum to zero."""
        x_mat = as_matrix(vertices, "vertex matrix")
        f = as_vector(f, "f")
        if f.shape[0] != x_mat.shape[0]:
            raise DimensionMismatch("field dimension does not match vertices")
        aug = np.vstack([x_mat, np.ones((1, x_mat.shape[1]))])
        rhs = np.concatenate([f, [0.0]])
        return cls(aug, rhs, int(i))

    @classmethod
    def for_ray(cls, rays, f, i):
        """Ray-decomposition system: no sum constraint, coefficient i free."""
        r_mat = as_matrix(rays, "ray matrix")
        f = as_vector(f, "f")
        if f.shape[0] != r_mat.shape[0]:
            raise DimensionMismatch("field dimension does not match rays")
        return cls(r_mat.copy(), f.copy(), int(i))


@dataclass
class QPProblem:
    """Nearest-point program data: min 0.5*||X a - f||^2 with sum(a) = 0 and
    a_j >= 0 for every j except free_index."""

    coeff_matrix: np.ndarray
    f: np.ndarray
    free_index: int

    def __post_init__(self):
        self.coeff_matrix = as_matrix(self.coeff_matrix, "X")
        self.f = as_vector(self.f, "f")
        if self.coeff_matrix.shape[0] != self.f.shape[0]:
            raise DimensionMismatch("X rows and f length differ")
        if not 0 <= self.free_index < self.coeff_matrix.shape[1]:
            raise DimensionMismatch("free_index outside coefficient range")


def lp_feasible(p: LPFeasibilityProblem, tols: Tolerances = DEFAULT_TOLS) -> OptResult:
    """Decide the equality feasibility system of the problem.

    When the system is square-or-overdetermined with independent columns the
    unique candidate comes from the normal equations and only its residual
    and signs need checking; otherwise a phase-one simplex decides.
    """
    m_rows, k = p.matrix.shape
    if m_rows >= k:
        try:
            gram = p.matrix.T @ p.matrix
            a = solve_linear(gram, p.matrix.T @ p.rhs, tols)
        except SingularMatrix:
            a = None
        if a is not None:
            resid = float(np.max(np.abs(p.matrix @ a - p.rhs))) if m_rows else 0.0
            scale = 1.0 + (float(np.max(np.abs(p.rhs))) if m_rows else 0.0)
            if resid <= 1e-8 * scale:
                worst_sign = 0.0
                for j in range(k):
                    if j != p.free_index:
                        worst_sign = min(worst_sign, a[j])
                if worst_sign >= -1e-10:
                    return OptResult("feasible", a, None, 0.0)
                return OptResult("infeasible", None, None, float(-worst_sign))
            # inconsistent overdetermined system only when columns were
            # genuinely independent; a near-singular Gram falls through
            return OptResult("infeasible", None, None, resid)
    opt, a = phase_one_feasibility(p.matrix, p.rhs, (p.free_index,), tols)
    if a is None:
        return OptResult("infeasible", None, None, opt)
    return OptResult("feasible", a, None, 0.0)


def dual_system_violations(p: LPFeasibilityProblem, primal: OptResult,
                           y: np.ndarray, s: np.ndarray,
                           tol: float | None = None,
                           tols: Tolerances = DEFAULT_TOLS) -> list[str]:
    """Rows of the combined primal-dual optimality system violated beyond tol."""
    tol = tols.kkt if tol is None else tol
    bad: list[str] = []
    if primal.alpha is None:
        return ["no primal coefficients to check"]
    a = primal.alpha
    scale = 1.0 + float(np.max(np.abs(p.rhs))) if p.rhs.size else 1.0
    resid = float(np.max(np.abs(p.matrix @ a - p.rhs))) if p.rhs.size else 0.0
    if resid > tol * scale:
        bad.append(f"primal equality residual {resid:.3e}")
    for j in range(p.matrix.shape[1]):
        if j != p.free_index and a[j] < -tol:
            bad.append(f"coefficient {j} negative: {a[j]:.3e}")
    col_free = p.matrix[:, p.free_index]
    if abs(float(col_free @ y)) > tol * (1.0 + float(np.linalg.norm(y))):
        bad.append("free column not orthogonal to dual vector")
    for j in range(p.matrix.shape[1]):
        if j == p.free_index:
            continue
        row = float(p.matrix[:, j] @ y) + s[j]
        if abs(row) > tol * (1.0 + float(np.linalg.norm(y))):
            bad.append(f"dual row {j} residual {row:.3e}")
        if s[j] < -tol:
            bad.append(f"dual slack {j} negative: {s[j]:.3e}")
    return bad


def lp_dual_check(p: LPFeasibilityProblem, primal: OptResult,
                  tols: Tolerances = DEFAULT_TOLS) -> bool:
    """Certify a feasible primal through the dual optimality system.

    Because the primal objective is constant, the zero dual vector is always
    optimal; the force of the check is the primal feasibility rows.
    """
    if primal.status != "feasible":
        return False
    y = np.zeros(p.matrix.shape[0])
    s = np.zeros(p.matrix.shape[1])
    return not dual_system_violations(p, primal, y, s, tols=tols)


def nnls(d_mat, f, max_changes=None, tols: Tolerances = DEFAULT_TOLS) -> np.ndarray:
    """Lawson-Hanson active-set solve of min ||D b - f||^2 over b >= 0.

    max_changes caps the number of active-set changes; exceeding it raises
    IterationLimit.
    """
    d_mat = as_matrix(d_mat, "D")
    f = as_vector(f, "f")
    k = d_mat.shape[1]
    if max_changes is None:
        max_changes = max(30, 10 * (k + 1))
    beta = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    grad_scale = 1.0 + (float(np.max(np.abs(d_mat.T @ f))) if k else 0.0)
    grad_tol = 1e-11 * grad_scale
    changes = 0
    while True:
        w = d_mat.T @ (f - d_mat @ beta)
        w_masked = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_masked)) if k else -1
        if j < 0 or w_masked[j] <= grad_tol:
            return beta
        passive[j] = True
        changes += 1
        if changes > max_changes:
            raise IterationLimit("active-set change budget exhausted")
        while True:
            sub = d_mat[:, passive]
            z_sub, *_ = np.linalg.lstsq(sub, f, rcond=None)
            z = np.zeros(k)
            z[passive] = z_sub
            if np.all(z[passive] > 0.0):
                beta = z
                break
            blocking = passive & (z <= 0.0)
            denom = beta[blocking] - z[blocking]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(denom > 0, beta[blocking] / denom, 0.0)
            step = float(np.min(ratios)) if ratios.size else 0.0
            beta = beta + step * (z - beta)
            newly_active = passive & (beta <= 1e-14)
            beta[newly_active] = 0.0
            passive[newly_active] = False
            changes += 1
            if changes > max_changes:
                raise IterationLimit("active-set change budget exhausted")


def qp_nearest(p: QPProblem, tols: Tolerances = DEFAULT_TOLS) -> OptResult:
    """Nearest point of the sum-zero coefficient cone to the field vector.

    The sum constraint is eliminated exactly by writing a_free as minus the
    sum of the others, turning the program into plain NNLS over the shifted
    columns; the free coefficient is therefore never sign-clipped. The
    optimal objective is half the squared distance from f to the cone
    generated by the column differences.
    """
    x_mat = p.coeff_matrix
    l1 = x_mat.shape[1]
    others = [j for j in range(l1) if j != p.free_index]
    d_mat = x_mat[:, others] - x_mat[:, [p.free_index]]
    beta = nnls(d_mat, p.f, max_changes=10 * l1, tols=tols)
    alpha = np.zeros(l1)
    alpha[others] = beta
    alpha[p.free_index] = -float(np.sum(beta))
    r = x_mat @ alpha - p.f
    eta = np.zeros(l1)
    eta_eq = -float(x_mat[:, p.free_index] @ r)
    eta[p.free_index] = eta_eq
    for j in others:
        eta[j] = float(x_mat[:, j] @ r) + eta_eq
    objective = 0.5 * float(r @ r)
    return OptResult("optimal", alpha, eta, objective)


def kkt_residuals(p: QPProblem, r: OptResult) -> np.ndarray:
    """(stationarity, equality, sign, complementarity) residual norms of the
    nearest-point program's first-order system."""
    if r.status != "optimal" or r.alpha is None or r.multipliers is None:
        raise NumericalFailure("kkt_residuals needs an optimal result")
    x_mat = p.coeff_matrix
    a = r.alpha
    eta = r.multipliers
    l1 = x_mat.shape[1]
    grad = x_mat.T @ (x_mat @ a - p.f) + eta[p.free_index] * np.ones(l1)
    ineq_mult = eta.copy()
    ineq_mult[p.free_index] = 0.0
    stationarity = float(np.max(np.abs(grad - ineq_mult))) if l1 else 0.0
    equality = abs(float(np.sum(a)))
    sign = 0.0
    comp = 0.0
    for j in range(l1):
        if j != p.free_index:
            sign = max(sign, -float(a[j]))
            comp += float(eta[j] * a[j])
    return np.array([stationarity, equality, max(sign, 0.0), abs(comp)])
