"""Certification solvers: linear feasibility and nearest-point programs.

Every LP in the package runs on one core: a two-phase simplex over one
standard-form tableau for both phases. Its rows are the constraints, the
phase-two costs and the phase-one costs, and one pivot routine (a rank-1
update) keeps all of them current, so phase two goes on from where phase one
stopped once the artificials are driven out and the redundant rows dropped.
Columns enter by Dantzig's rule, or by Bland's rule after a run of
degenerate pivots, which rules out cycling; every few dozen pivots the
tableau is rebuilt from the unpivoted rows, so rounding does not pile up.
This module is the only one that lays out a standard form: every single
LP reaches the core through one builder (_split_form) that splits each
free variable and adds the slacks. Those are the facet LPs, facet anchors
and unbounded-flux witnesses of an H-form (_facet_lp), its emptiness LP
(solve_inequality_lp), the generated tangent cone's LP
(phase_one_feasibility) and a V-form's membership LP above its facet cap,
which has no free variable and, for a cone, one inequality row. One
H-form's facet LPs share its standard form, and facet i holds row i at
equality in place by taking that row's slack away for its solve. Phase one
starts each row with a slack and a nonnegative rhs on that slack and only
the other rows on artificial variables, so an infeasible inequality LP's
phase-one value sums the residuals of those other rows only; equality-only
LPs start every row on an artificial.

The core solves one LP, or a stack of decomposition LPs in lockstep: one
V-form's vertex or ray LPs differ only in rhs and free column, so they pivot
as one (LP x row x column) tableau, each with simplex_standard's result. An
LP that ends phase one feasible with no artificial basic reads off its point
in one vectorised step.

The decomposition programs take plain arrays and return tuples.
lp_feasible decides a generator's LP, or every generator's in order, on
its set's homogenised columns. A refuting generator reports lp_feasible's
phase-one infeasibility.
qp_nearest, a nonnegative least-squares model with one equality, gives half
the squared distance to the generated cone; no decider calls it, and its
first-order conditions are checked in the tests, by tests/oracles.py.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, IterationLimit, NumericalFailure
from .numerics import as_matrix, as_vector

_FEASIBILITY_TOL = 1e-9  # LP phase-one residual acceptance
_REDCOST_TOL = 1e-10
_PIVOT_TOL = 1e-10
_MAX_PIVOTS = 50000
_BLAND_AFTER = 10  # degenerate pivots in a row before pricing by Bland's rule
_REFACTOR_EVERY = 50  # pivots between rebuilds of the tableau
_STACK_CELLS = 1 << 16  # tableau cells in one lockstep stack of decomposition LPs


def _simplex_iterate(tab, basis, ncols, cost_row, raw):
    """Simplex on the constraint rows tab[:m], m = basis.size.

    Columns below ncols may enter, priced by the reduced costs in row
    cost_row; the last column is the rhs. The entering column is the most
    negative reduced cost (Dantzig's rule); after _BLAND_AFTER degenerate
    pivots in a row it is the first negative one (Bland's rule, which cannot
    cycle) until a pivot makes progress again. Every _REFACTOR_EVERY pivots
    the tableau is rebuilt from raw, the unpivoted rows of the same shape,
    so rounding from the rank-1 updates does not accumulate. Returns
    "optimal" or "unbounded"; raises NumericalFailure past the pivot cap.
    """
    m = basis.size
    redcost = tab[cost_row, :ncols]  # views: pivots update tab in place
    rhs = tab[:m, -1]
    degenerate = 0
    for pivots in range(1, _MAX_PIVOTS + 1):
        if degenerate < _BLAND_AFTER:
            enter = int(redcost.argmin())
        else:
            enter = int((redcost < -_REDCOST_TOL).argmax())
        if redcost[enter] >= -_REDCOST_TOL:
            return "optimal"
        col = tab[:m, enter]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            return "unbounded"
        # Bland's ratio test: of the rows within 1e-12 of the least ratio,
        # the one whose basic variable has the smallest index leaves
        ratios = rhs[rows] / col[rows]
        least = ratios.min()
        degenerate = degenerate + 1 if least <= 1e-12 else 0
        tied = rows[ratios <= least + 1e-12]
        _pivot(tab, basis, int(tied[basis[tied].argmin()]), enter)
        if pivots % _REFACTOR_EVERY == 0:
            _refactor(tab, basis, raw)
    raise NumericalFailure("simplex exceeded its pivot budget")


def _pivot(tab, basis, i, j):
    """Pivot the tableau on entry (i, j), one rank-1 update: column j
    enters the basis at row i."""
    row = tab[i, :] / tab[i, j]
    tab -= tab[:, j, None] * row
    tab[i, :] = row
    basis[i] = j


def _pivot_stack(tab, basis, rows, enter):
    """Pivot each tableau s of the stack on (rows[s], enter[s]) as _pivot does."""
    s = np.arange(tab.shape[0])
    row = tab[s, rows, :] / tab[s, rows, enter][:, None]
    tab -= tab[s, :, enter][:, :, None] * row[:, None, :]
    tab[s, rows, :] = row
    basis[s, rows] = enter


def _refactor(tab, basis, raw):
    """Rebuild the tableau for the basis from raw, the unpivoted rows: the
    constraint rows become B^-1 raw[:m], each cost row its raw costs less
    its basic costs times those rows."""
    m = basis.size
    try:
        tab[:m] = np.linalg.solve(raw[:m, basis], raw[:m])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("simplex basis became singular") from exc
    tab[m:] = raw[m:] - raw[m:, basis] @ tab[:m]


def _rows_within_scale(tab, basis, raw, art) -> bool:
    """Whether every artificial row's phase-one residual is within the
    feasibility tolerance relative to the size of that row's own terms.

    The rows A z = b lead raw, over the columns of z, then the artificials
    and b. The residual of artificial row art[k] is the value of its
    artificial variable n + k; it is judged against 1 + |b_i| + sum_j |A_ij
    z_j| at the phase-one point z. Rounding grows with the terms a row sums,
    so feasible LPs with large data are not rejected, while a row whose
    terms are small still has to hold tightly beside large ones.
    """
    n = raw.shape[1] - 1 - art.size
    z = np.zeros(n + art.size)
    z[basis] = tab[:basis.size, -1]
    scale = 1.0 + raw[art, -1] + np.abs(raw[art, :n]) @ np.abs(z[:n])
    return bool(np.all(z[n:] <= _FEASIBILITY_TOL * scale))


def simplex_standard(c, a_eq, b_eq, slacks=()):
    """min c'z subject to A z = b, z >= 0, by two-phase simplex.

    slacks[r] names the slack column of row r (a unit column with its 1 in
    row r) for the leading len(slacks) rows; a negative entry names none.
    Phase one starts each of those rows whose rhs is >= 0 on its slack, and
    every other row, a row of a negative entry among them, on an artificial
    variable.

    Returns (status, z, objective) with status "optimal", "infeasible" or
    "unbounded"; for "infeasible" the objective is the phase-one optimum
    (the L1 infeasibility of the rows that got artificials) and z is None.
    """
    a_eq, b_eq = np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)
    m, n = a_eq.shape
    neg = b_eq < 0

    # a row with a slack and rhs >= 0 starts on its slack, every other row on
    # an artificial variable. One tableau serves both phases: the constraint
    # rows (those of a negative rhs flipped), then the phase-two costs priced
    # for this basis (artificials cost nothing), then the phase-one costs,
    # the artificials' sum
    basis = np.full(m, -1)
    slacks = np.asarray(slacks, dtype=int)
    basis[:slacks.size] = np.where(neg[:slacks.size], -1, slacks)
    art = (basis < 0).nonzero()[0]
    basis[art] = np.arange(n, n + art.size)
    raw = np.zeros((m + 2, n + art.size + 1))
    raw[:m, :n] = a_eq
    raw[:m, -1] = b_eq
    if neg.any():
        raw[neg.nonzero()[0]] *= -1.0  # every such row is an artificial's, set below
    raw[art, n:-1] = np.eye(art.size)
    raw[m, :n] = c
    raw[m + 1, n:-1] = 1.0
    tab = raw.copy()
    tab[m] -= tab[m, basis] @ tab[:m]
    tab[m + 1] -= tab[art].sum(axis=0)
    return _after_phase_one(tab, basis, raw, art,
                            _simplex_iterate(tab, basis, n + art.size, m + 1, raw))


def _after_phase_one(tab, basis, raw, art, status):
    """simplex_standard on from phase one's status (raw as in _rows_within_scale)."""
    m, n = basis.size, raw.shape[1] - 1 - art.size
    phase1 = -tab[m + 1, -1]
    if status != "optimal" or (phase1 > _FEASIBILITY_TOL and
                               not _rows_within_scale(tab, basis, raw, art)):
        return "infeasible", None, float(max(phase1, 0.0))

    # drive artificial variables out of the basis; drop redundant rows and
    # the phase-one row, then go on in phase two over the columns of z
    keep = np.ones(m + 2, dtype=bool)
    keep[m + 1] = False
    for i in (basis >= n).nonzero()[0]:
        cols = (np.abs(tab[i, :n]) > _PIVOT_TOL).nonzero()[0]
        if cols.size:
            _pivot(tab, basis, i, int(cols[0]))
        else:
            keep[i] = False  # redundant constraint row
    rows = slice(m + 1) if keep[:m].all() else keep  # a slice copies nothing
    tab, raw, basis = tab[rows], raw[rows], basis[keep[:m]]
    if _simplex_iterate(tab, basis, n, basis.size, raw) == "unbounded":
        return "unbounded", None, -np.inf
    z = np.zeros(n)
    z[basis] = np.maximum(tab[:-1, -1], 0.0)  # rounding can leave a basic value just below 0
    return "optimal", z, float(0.0 - tab[-1, -1])


def _split_form(free, a_eq, b_eq, g=None, h=None):
    """min c'x (zero for c None) over G x <= h, A x = b, x_j >= 0 unless j is
    free, in standard form: columns x, -x_j per free j (sorted, distinct),
    one slack per row of G; rows G, then A.

    Returns (a_std, b_std, slacks, solve): solve(c) gives (status, unsplit
    x, objective) on a_std, b_std and the slack columns (simplex_standard's
    slacks) as they are when it is called, so a caller may overwrite
    entries of them between calls.
    """
    m_eq, n = a_eq.shape
    m_ub = 0 if g is None else g.shape[0]
    k = len(free)
    cols = slice(None) if k == n else free  # a slice copies less than a gather
    a_std, b_std = a_eq, b_eq
    if k or m_ub:
        a_std = np.zeros((m_ub + m_eq, n + k + m_ub))
        if m_ub:
            a_std[:m_ub, :n] = g
            a_std[:m_ub, n:n + k] = -g[:, cols]
            a_std[:m_ub, n + k:] = np.eye(m_ub)
            b_std = np.concatenate([h, b_eq])
        if m_eq:
            a_std[m_ub:, :n] = a_eq
            a_std[m_ub:, n:n + k] = -a_eq[:, cols]
    slacks = np.arange(n + k, n + k + m_ub)

    def solve(c):
        c_std = np.zeros(n + k + m_ub)
        if c is not None:
            c_std[:n] = c
            c_std[n:n + k] = -c[cols]
        status, z, obj = simplex_standard(c_std, a_std, b_std, slacks=slacks)
        x = None if z is None else z[:n].copy()
        if x is not None and k:
            x[cols] -= z[n:n + k]
        return status, x, obj

    return a_std, b_std, slacks, solve


def phase_one_feasibility(matrix, rhs, free_indices=()):
    """Feasibility of  matrix @ a = rhs  with a_j >= 0 except the free ones.

    matrix and rhs are float arrays the package built, one rhs entry per
    row, and are not checked again. Free coefficients are split into
    differences of nonnegative variables.
    Returns (phase-one optimum, a or None); the optimum is an L1 residual,
    so values at or below the feasibility tolerance mean feasible.
    """
    free = sorted(set(int(j) for j in free_indices))
    status, a, opt = _split_form(free, matrix, rhs)[3](None)
    if status == "infeasible":
        return opt, None
    return 0.0, a  # with zero costs phase two is never unbounded


def solve_inequality_lp(c, g_ub, h_ub):
    """Solve max c'x over G x <= h, x free: the emptiness LP of an H-form.

    Every argument is a float array the package built (c of length n, G of
    n columns, h one entry per row), not checked again. Variables are split
    internally. Returns (status, x, value) with value the maximum, +inf when
    unbounded.
    """
    n = c.shape[0]
    return _maximum(_split_form(list(range(n)), np.zeros((0, n)), np.zeros(0), g_ub, h_ub)[3](-c))


def _facet_lp(g, h):
    """The facet LPs of G x <= h as one function of (i, c): max c'x over
    G x <= h with row i held at equality, replied as solve_inequality_lp
    replies. The standard form [G | -G | I] is built once; each call zeroes
    row i's slack, so that row starts phase one on an artificial, and puts
    it back after the solve."""
    n = g.shape[1]
    a_std, _, slacks, solve = _split_form(list(range(n)), np.zeros((0, n)), np.zeros(0), g, h)

    def facet(i, c):
        s = slacks[i]
        a_std[i, s], slacks[i] = 0.0, -1
        reply = _maximum(solve(-c))
        a_std[i, s], slacks[i] = 1.0, s
        return reply

    return facet


def _maximum(reply):
    """solve_inequality_lp's reply from the split minimum of -c'x."""
    status, x, obj = reply
    if status != "optimal":
        return status, None, (np.inf if status == "unbounded" else obj)
    return "optimal", x, 0.0 - obj  # 0.0 - obj, not -obj, so that no -0.0 comes back


def _check_program(matrix, rhs, free_index):
    """Finite data, one rhs row per matrix row, and free indices among the
    columns, one per rhs column (a 1-D array of them is returned)."""
    matrix = as_matrix(matrix, "matrix")
    rhs = (as_vector if np.ndim(free_index) == 0 else as_matrix)(rhs, "rhs")
    free = np.atleast_1d(np.asarray(free_index, dtype=int))
    if matrix.shape[0] != rhs.shape[0]:
        raise DimensionMismatch("matrix rows and rhs length differ")
    if rhs.ndim == 2 and free.shape != rhs.shape[1:]:
        raise DimensionMismatch("one free index per rhs column")
    if not np.all((0 <= free) & (free < matrix.shape[1])):
        raise DimensionMismatch("free_index outside coefficient range")
    return matrix, rhs, free


def _phase_one_stack(columns, rhs, free):
    """Phase one of  columns @ a = rhs[:, s], a_j >= 0 for j != free[s], for
    every s: phase_one_feasibility's outcomes, bit for bit, up to the first
    infeasible one. Slice s of the (LP x row x column) tableau is the one
    simplex_standard builds for LP s (its zero phase-two cost row too, so
    that _refactor sees the same shapes); all pivot in lockstep by
    _simplex_iterate's rules. An LP leaves the stack when it finishes, and
    so does every LP after an infeasible one."""
    (m, n), k = columns.shape, free.size
    n1, art = n + 1, np.arange(m)
    sign = np.where(rhs < 0, -1.0, 1.0).T  # the rows of a negative rhs flip
    raw = np.zeros((k, m + 2, n1 + m + 1))
    raw[:, :m, :n] = columns * sign[:, :, None]
    raw[:, :m, n] = -columns[:, free].T * sign
    raw[:, :m, n1:-1] = np.eye(m)
    raw[:, :m, -1] = rhs.T * sign
    raw[:, m + 1, n1:-1] = 1.0
    tab = raw.copy()
    tab[:, m + 1] -= tab[:, :m].sum(axis=1)
    basis = np.tile(np.arange(n1, n1 + m), (k, 1))
    lps, degenerate = np.arange(k), np.zeros(k, dtype=int)
    results, first_bad = [None] * k, k
    for pivots in range(1, _MAX_PIVOTS + 1):
        s = np.arange(lps.size)
        redcost = tab[:, m + 1, :n1 + m]
        enter = redcost.argmin(axis=1)
        if degenerate.max() >= _BLAND_AFTER:
            enter = np.where(degenerate < _BLAND_AFTER, enter,
                             (redcost < -_REDCOST_TOL).argmax(axis=1))
        optimal = redcost[s, enter] >= -_REDCOST_TOL
        col = tab[s, :m, enter]
        up = col > _PIVOT_TOL
        done = optimal | ~up.any(axis=1)
        if done.any():
            # an LP ending phase one optimal, feasible, with no artificial basic reads
            # off its point here, as _after_phase_one would; the rest go there
            easy = done & optimal & (tab[:, m + 1, -1] >= -_FEASIBILITY_TOL) & (basis < n1).all(axis=1)
            z, r = np.zeros((easy.sum(), n1)), np.arange(easy.sum())
            z[r[:, None], basis[easy]] = np.maximum(tab[easy, :m, -1], 0.0)
            z[r, free[lps[easy]]] -= z[:, n]
            for lp, z_lp in zip(lps[easy], z):
                results[lp] = 0.0, z_lp[:n]
            for t in (done & ~easy).nonzero()[0]:
                _, z_t, infeas = _after_phase_one(tab[t], basis[t], raw[lps[t]], art,
                                                  "optimal" if optimal[t] else "unbounded")
                if z_t is None:
                    results[lps[t]], first_bad = (infeas, None), min(first_bad, lps[t])
                else:
                    z_t[free[lps[t]]] -= z_t[n]
                    results[lps[t]] = 0.0, z_t[:n]
            keep = ~done & (lps < first_bad)
            if not keep.any():
                return results[:first_bad + 1]
            tab, basis, lps, degenerate, enter, col, up = (
                v[keep] for v in (tab, basis, lps, degenerate, enter, col, up))
        # Bland's ratio test on each LP, as in _simplex_iterate
        ratios = np.divide(tab[:, :m, -1], col, out=np.full(col.shape, np.inf), where=up)
        least = ratios.min(axis=1)
        degenerate = np.where(least <= 1e-12, degenerate + 1, 0)
        tied = up & (ratios <= least[:, None] + 1e-12)
        _pivot_stack(tab, basis, np.where(tied, basis, n1 + m).argmin(axis=1), enter)
        if pivots % _REFACTOR_EVERY == 0:
            for t in range(lps.size):
                _refactor(tab[t], basis[t], raw[lps[t]])
    raise NumericalFailure("simplex exceeded its pivot budget")


def lp_feasible(columns, rhs, free_index):
    """Decide  columns @ a = rhs  with a_j >= 0 for j != free_index by phase one.

    Returns (infeasibility, a or None) as phase_one_feasibility does: 0.0
    and the coefficients when feasible, else the phase-one L1 residual.
    An (rows x k) rhs and k free indices give the k LPs' results up to the
    first infeasible one, solved in order in stacks of _STACK_CELLS cells.
    """
    columns, rhs, free = _check_program(columns, rhs, free_index)
    m, n = columns.shape
    per = max(1, _STACK_CELLS // ((m + 2) * (n + m + 2)))
    stack = rhs.reshape(m, -1)
    results = []
    for start in range(0, free.size, per):
        results += _phase_one_stack(columns, stack[:, start:start + per], free[start:start + per])
        if results[-1][1] is None:
            break
    return results if rhs.ndim == 2 else results[0]


def nnls(d_mat, f) -> np.ndarray:
    """Lawson-Hanson active-set solve of min ||D b - f||^2 over b >= 0.

    More than max(30, 10*(k + 1)) active-set changes for k columns raise
    IterationLimit.
    """
    d_mat = as_matrix(d_mat, "D")
    f = as_vector(f, "f")
    k = d_mat.shape[1]
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


def qp_nearest(x_mat, f, free_index: int):
    """Nearest point of the sum-zero coefficient cone to the field vector:
    min 0.5*||X a - f||^2 with sum(a) = 0 and a_j >= 0 for j != free_index.

    The sum constraint is eliminated exactly by writing a_free as minus the
    sum of the others, turning the program into plain NNLS over the shifted
    columns; the free coefficient is therefore never sign-clipped. Returns
    (alpha, multipliers, objective): the multipliers hold the equality
    multiplier at free_index, and the optimal objective is half the squared
    distance from f to the cone generated by the column differences.
    """
    x_mat, f, _ = _check_program(x_mat, f, free_index)
    l1 = x_mat.shape[1]
    others = [j for j in range(l1) if j != free_index]
    d_mat = x_mat[:, others] - x_mat[:, [free_index]]
    beta = nnls(d_mat, f)
    alpha = np.zeros(l1)
    alpha[others] = beta
    alpha[free_index] = -float(np.sum(beta))
    r = x_mat @ alpha - f
    eta = np.zeros(l1)
    eta_eq = -float(x_mat[:, free_index] @ r)
    eta[free_index] = eta_eq
    for j in others:
        eta[j] = float(x_mat[:, j] @ r) + eta_eq
    return alpha, eta, 0.5 * float(r @ r)
