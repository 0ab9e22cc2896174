"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: numpy.linalg is fair
game here, as are brute-force enumerations and closed forms. Anything
asserted against library output should come from one of these.
"""

import ast
import itertools
import math
import operator

import numpy as np


def power_iteration_gen_eig_max(m, q, squarings=80):
    """Largest lambda with M v = lambda Q v via shifted power iteration.

    The iteration matrix inv(Q) @ M + sigma*I is raised to a huge power by
    repeated squaring (with normalization), which is power iteration run for
    2**squarings steps; the eigenvalue is read off as a pencil Rayleigh
    quotient. Independent of the library's reduction and LAPACK eigh path.
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    n = m.shape[0]
    b = np.linalg.solve(q, m)
    sigma = 1.0 + np.max(np.sum(np.abs(b), axis=1))
    s = b + sigma * np.eye(n)
    for _ in range(squarings):
        s = s @ s
        nrm = np.max(np.abs(s))
        if nrm == 0.0:
            break
        s /= nrm
    v = s @ (np.ones(n) + 1e-3 * np.arange(n))
    if np.linalg.norm(v) < 1e-200:
        v = s @ np.eye(n)[:, 0]
    v /= np.linalg.norm(v)
    return float((v @ m @ v) / (v @ q @ v))


def taylor_expm(a, degree):
    """Taylor polynomial of exp(A) of the given degree, summed term by term.

    The degree-4 polynomial of exp(hA) is what one RK4 step applies to a
    linear field. With ||A||inf <= 1e-3, degree 12 leaves a remainder far
    below rounding, so the sum is exp(A) to machine precision.
    """
    a = np.asarray(a, dtype=float)
    term = np.eye(a.shape[0])
    total = term.copy()
    for k in range(1, degree + 1):
        term = term @ a / k
        total = total + term
    return total


def grid_scan_min(f, bracket, num=1001, stages=3):
    """Telescoped dense-grid minimum of a scalar function over a bracket.

    Each stage re-grids a shrinking window around the current argmin, so the
    effective resolution is (width/num)**stages without a monster grid.
    """
    blo, bhi = float(bracket[0]), float(bracket[1])
    lo, hi = blo, bhi
    best_x, best_v = lo, f(lo)
    for _ in range(stages):
        xs = np.linspace(lo, hi, num)
        vals = np.array([f(x) for x in xs])
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_x, best_v = float(xs[k]), float(vals[k])
        step = (hi - lo) / (num - 1)
        lo = max(blo, best_x - step)
        hi = min(bhi, best_x + step)
    return best_x, best_v


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, bracket, tol):
    """Golden-section minimum of a convex scalar f(x) -> value over a bracket.

    The library's eta search before it became bisection on a subgradient,
    kept as a value-only reference. Returns (argmin, value); when tol is
    below the float spacing of the bracket, it stops once the bracket no
    longer shrinks and returns the best point evaluated.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    h = hi - lo
    if h <= tol:
        x = 0.5 * (lo + hi)
        return x, float(f(x))
    c = hi - _INVPHI * h
    d = lo + _INVPHI * h
    yc, yd = float(f(c)), float(f(d))
    while h > tol:
        if yc < yd:
            hi, d, yd = d, c, yc
            c = hi - _INVPHI * (hi - lo)
            yc = float(f(c))
        else:
            lo, c, yc = c, d, yd
            d = lo + _INVPHI * (hi - lo)
            yd = float(f(d))
        if hi - lo >= h:
            return (c, yc) if yc <= yd else (d, yd)
        h = hi - lo
    x = 0.5 * (lo + hi)
    return x, float(f(x))


def bisection_min(f, bracket, tol):
    """Bisection on a subgradient: f(x) -> (value, slope, ...) over a bracket.

    The library's eta search before it took Newton steps, kept as the
    reference for its results and its evaluation count. Returns (argmin,
    value); when tol is below the float spacing of the bracket, it stops
    once the midpoint no longer falls strictly inside.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if f(mid)[1] >= 0.0:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    return x, float(f(x)[0])


def enumerate_qp_nearest(x_mat, f, free_index, sign_tol=1e-9):
    """Exhaustive active-set oracle for min 0.5*||X a - f||^2, sum(a)=0,
    a_j >= 0 for j != free_index.

    Tries every subset of the sign-constrained coefficients pinned to zero,
    solves the equality-constrained least squares on the rest via its KKT
    system, filters sign feasibility, and returns the smallest objective.
    """
    x_mat = np.asarray(x_mat, dtype=float)
    f = np.asarray(f, dtype=float)
    n, l1 = x_mat.shape
    others = [j for j in range(l1) if j != free_index]
    best = None
    for r in range(len(others) + 1):
        for zeroed in itertools.combinations(others, r):
            keep = [j for j in range(l1) if j not in zeroed]
            xs = x_mat[:, keep]
            k = len(keep)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = xs.T @ xs
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([xs.T @ f, [0.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            a_keep = sol[:k]
            if abs(np.sum(a_keep)) > 1e-7:
                continue
            resid_kkt = kkt @ sol - rhs
            if np.max(np.abs(resid_kkt)) > 1e-7 * (1.0 + np.max(np.abs(rhs))):
                continue
            if any(a_keep[idx] < -sign_tol for idx, j in enumerate(keep) if j != free_index):
                continue
            alpha = np.zeros(l1)
            alpha[keep] = a_keep
            obj = 0.5 * float(np.sum((x_mat @ alpha - f) ** 2))
            if best is None or obj < best[0]:
                best = (obj, alpha)
    assert best is not None, "enumeration found no sign-feasible stationary point"
    return best


def kkt_residuals(x_mat, f, free_index, alpha, multipliers):
    """(stationarity, equality, sign, complementarity) residual norms of the
    nearest-point program's first-order system min 0.5*||X a - f||^2,
    sum(a) = 0, a_j >= 0 for j != free_index, at the alpha and multipliers
    that qp_nearest returns."""
    x_mat = np.asarray(x_mat, dtype=float)
    f = np.asarray(f, dtype=float)
    a = np.asarray(alpha, dtype=float)
    eta = np.asarray(multipliers, dtype=float)
    l1 = x_mat.shape[1]
    grad = x_mat.T @ (x_mat @ a - f) + eta[free_index] * np.ones(l1)
    ineq_mult = eta.copy()
    ineq_mult[free_index] = 0.0
    stationarity = float(np.max(np.abs(grad - ineq_mult))) if l1 else 0.0
    equality = abs(float(np.sum(a)))
    sign = 0.0
    comp = 0.0
    for j in range(l1):
        if j != free_index:
            sign = max(sign, -float(a[j]))
            comp += float(eta[j] * a[j])
    return np.array([stationarity, equality, max(sign, 0.0), abs(comp)])


def metzler_violation(a, tol=1e-10):
    """Most negative off-diagonal entry of A, or None if Metzler within tol."""
    a = np.asarray(a, dtype=float)
    worst = None
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if i != j and a[i, j] < -tol:
                if worst is None or a[i, j] < worst[2]:
                    worst = (i, j, float(a[i, j]))
    return worst


def project_box(lo, hi, p):
    """Euclidean projection onto an axis-aligned box."""
    return np.minimum(np.maximum(np.asarray(p, dtype=float), lo), hi)


def dist_to_polytope_bruteforce(vertices, p):
    """Distance from p to conv(vertices) by support-subset enumeration."""
    vs = np.asarray(vertices, dtype=float)
    p = np.asarray(p, dtype=float)
    l1 = vs.shape[0]
    best = None
    for r in range(1, l1 + 1):
        for keep in itertools.combinations(range(l1), r):
            xs = vs[list(keep)].T
            k = len(keep)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = xs.T @ xs
            kkt[:k, k] = 1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([xs.T @ p, [1.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            theta = sol[:k]
            if abs(np.sum(theta) - 1.0) > 1e-8 or np.any(theta < -1e-9):
                continue
            d = float(np.linalg.norm(xs @ theta - p))
            if best is None or d < best:
                best = d
    assert best is not None
    return best


def dist_to_quadric_sublevel(q_mat, level, p, branch_vec=None, bisect_iters=200):
    """Distance from p to {x : x'Qx <= level} (level 1: ellipsoid, Q SPD;
    level 0 with branch_vec: one branch of a quadratic cone).

    Solves the projection stationarity x = inv(I + mu Q) p with mu chosen by
    bisection so the projected point lands on the surface. For the cone case
    the apex distance ||p|| is taken as a fallback upper bound.
    """
    q_mat = np.asarray(q_mat, dtype=float)
    p = np.asarray(p, dtype=float)
    n = q_mat.shape[0]

    def val(x):
        return float(x @ q_mat @ x)

    inside = val(p) <= level
    if inside and branch_vec is not None:
        inside = float(p @ q_mat @ branch_vec) <= 1e-12 * (1.0 + np.linalg.norm(p))
    if inside:
        return 0.0

    eigs = np.linalg.eigvalsh(q_mat)
    lam_min = float(eigs[0])
    mu_hi = 1e12 if lam_min > 0 else (1.0 / (-lam_min)) * (1.0 - 1e-12)
    mu_lo = 0.0

    def surf(mu):
        x = np.linalg.solve(np.eye(n) + mu * q_mat, p)
        return val(x) - level, x

    g_lo, _ = surf(mu_lo)
    if g_lo <= 0:
        return 0.0
    for _ in range(bisect_iters):
        mu = 0.5 * (mu_lo + mu_hi)
        g, _ = surf(mu)
        if g > 0:
            mu_lo = mu
        else:
            mu_hi = mu
    _, x = surf(0.5 * (mu_lo + mu_hi))
    d = float(np.linalg.norm(x - p))
    if branch_vec is not None:
        if float(x @ q_mat @ branch_vec) > 1e-9 * (1.0 + np.linalg.norm(x)):
            d = float(np.linalg.norm(p))
        else:
            d = min(d, float(np.linalg.norm(p)))
    return d


def enumerate_lp(c, g=None, h=None, a_eq=None, b_eq=None, signed=(), box=None,
                 far=1e3, tol=1e-9):
    """min c'x over G x <= h, A x = b, x_j >= 0 for j in signed and, when box
    is given, |x_i| <= box, by brute-force vertex enumeration.

    Candidates solve the equality rows plus a choice of inequality rows held
    tight, at rank n; the feasible ones are the vertices. Without a box the
    region is clipped to |x_i| <= far and to |x_i| <= 2 far, so it always
    has vertices; the LP is unbounded when the two clipped optima differ.
    far must exceed every vertex coordinate of the unclipped region, which
    small integer data in 2-3 variables keeps in the low hundreds. Returns
    (status, value) with status "optimal", "infeasible" or "unbounded".
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    eye = np.eye(n)
    signed = list(signed)
    g = np.zeros((0, n)) if g is None else np.asarray(g, dtype=float)
    h = np.zeros(0) if h is None else np.asarray(h, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)

    def clipped(limit):
        gg = np.vstack([g, -eye[signed], eye, -eye])
        hh = np.concatenate([h, np.zeros(len(signed)), np.full(2 * n, limit)])
        best = None
        for s in range(max(0, n - a_eq.shape[0]), n + 1):
            for tight in itertools.combinations(range(gg.shape[0]), s):
                mat = np.vstack([a_eq, gg[list(tight)]])
                vec = np.concatenate([b_eq, hh[list(tight)]])
                if np.linalg.matrix_rank(mat) < n:
                    continue
                x = np.linalg.lstsq(mat, vec, rcond=None)[0]
                if np.max(np.abs(mat @ x - vec)) > tol * (1.0 + np.max(np.abs(vec))):
                    continue  # the tight rows and the equalities are inconsistent
                if np.any(gg @ x - hh > tol * (1.0 + np.abs(hh))):
                    continue
                val = float(c @ x)
                best = val if best is None else min(best, val)
        return best

    v1 = clipped(far if box is None else box)
    if v1 is None:
        return "infeasible", None
    if box is None and clipped(2.0 * far) < v1 - 1e-6 * (1.0 + abs(v1)):
        return "unbounded", -np.inf
    return "optimal", v1


def facet_vertex_flux(c, g, h, i, tol=1e-9):
    """The vertices of facet i of G x <= h and the largest flux c'x among
    them, by brute force: row i held tight with each choice of n - 1 other
    rows, solved where those n rows have rank n, and kept where the point
    meets every row within tol times its scale 1 + |h_j| + |G_j| |x|.

    Returns (vertices, largest flux, or None when the facet has no vertex).
    A facet of a pointed polyhedron has a vertex when it has a point, and a
    bounded facet LP attains its maximum at one; small n keeps the
    enumeration short.
    """
    m, n = g.shape
    others = [j for j in range(m) if j != i]
    vertices = []
    for rows in itertools.combinations(others, n - 1):
        tight = [i, *rows]
        if np.linalg.matrix_rank(g[tight]) < n:
            continue
        x = np.linalg.solve(g[tight], h[tight])
        if np.all(g @ x - h <= tol * (1.0 + np.abs(h) + np.abs(g) @ np.abs(x))):
            vertices.append(x)
    return vertices, (max(float(c @ x) for x in vertices) if vertices else None)


def inequality_lp_with_equalities(c, g, h, a_eq, b_eq):
    """max c'x over G x <= h, A x = b with x free, replied as
    solvers.solve_inequality_lp replies: the LP that function solved while
    it took equality rows, on the same builder and core (so it calls the
    library), now that no caller in the package passes equality rows."""
    from invarcheck.solvers import _maximum, _split_form

    a_eq, b_eq = np.asarray(a_eq, dtype=float), np.asarray(b_eq, dtype=float)
    return _maximum(_split_form(range(c.shape[0]), a_eq, b_eq, g, h)[3](-c))


def membership_lp_by_hand(s, x):
    """A V-form's membership LP as _VForm._lp laid it out by hand before
    solvers._split_form did: variables (delta, sigma, then a cone's cap
    slack), every row on an artificial, the cap row last; kept as the
    reference for the builder's layout. Returns (delta, infeasibility):
    (0, phase one's optimum) if infeasible.

    Unlike most of this module it calls the library: the columns, lift and
    cap are the set's own, and the LP runs on simplex_standard.
    """
    from invarcheck.solvers import simplex_standard

    n_rows, k = s.columns.shape
    cap = s._cap(x)
    extra = 1 if cap is not None else 0
    a_std = np.zeros((n_rows + extra, 1 + k + extra))
    a_std[:n_rows, 0] = s.columns @ np.ones(k)
    a_std[:n_rows, 1:1 + k] = s.columns
    rhs = s._lift(x[:, None])[:, 0]
    if cap is not None:
        a_std[n_rows, 0] = 1.0
        a_std[n_rows, 1 + k] = 1.0
        rhs = np.concatenate([rhs, [float(cap)]])
    c = np.zeros(1 + k + extra)
    c[0] = -1.0
    status, z, obj = simplex_standard(c, a_std, rhs)
    return (0.0, obj) if status == "infeasible" else (float(z[0]), 0.0)


def sampled_nagumo_per_sample(s, sys, t0, samples, tol):
    """Per-sample Nagumo test, the loop the sampled checker ran before it
    decided every sample in one batch; kept as the reference for the batch.

    Unlike the rest of this module it calls the library. A vertex or ray
    form's sample gets the generated cone built here from the generators
    (the differences to all vertices; all rays plus the point sign-free),
    decided by the phase-one LP, so the facet rows of the batch test meet
    an independent LP. Every other sample gets its own tangent cone from
    tangent._cone_at (tangent_cone_at without the membership check) and is
    tested as cone_test did before it shared its residual formula: one
    halfspace row at a time, or the cone's own violation at a quadratic
    cone's apex. Each sample has one field evaluation. Returns one (inside,
    residual) pair per sample. The residual is on the scale of tol: the
    largest flux/(1 + |g||y|) over the rows (0 if none is positive), or the
    LP's infeasibility over 1 + |y|, or the violation.
    """
    from invarcheck.sets import VCone, VPolytope, outside_violation_batch
    from invarcheck.solvers import phase_one_feasibility
    from invarcheck.tangent import FULLSPACE, SELF_CONE, _cone_at

    out = []
    for bp in samples:
        x = bp.point
        y = np.asarray(sys.field(t0, x), dtype=float)
        ny = float(np.linalg.norm(y))
        if isinstance(s, (VPolytope, VCone)):
            if isinstance(s, VPolytope):
                cols, free = (s.vertices - x).T, ()
            else:
                cols, free = np.column_stack([s.rays.T, x]), (s.rays.shape[0],)
            opt, _ = phase_one_feasibility(cols, y, free)
            out.append((opt <= tol * (1.0 + ny), float(opt) / (1.0 + ny)))
            continue
        t = _cone_at(s, x, tol)
        if t.kind == FULLSPACE:
            out.append((True, 0.0))
        elif t.kind == SELF_CONE:
            violation = float(outside_violation_batch(t.set_ref, y[:, None])[0])
            out.append((violation <= tol, violation))
        else:
            inside, worst = True, 0.0
            for g in t.normals:
                flux = float(g @ y)
                scale = 1.0 + float(np.linalg.norm(g)) * ny
                inside = inside and not flux > tol * scale
                worst = max(worst, flux / scale)
            out.append((inside, worst))
    return out


def facets_by_subsets(columns, tol=1e-10):
    """Facets of the cone spanned by the columns, by brute force.

    In the columns' span (rank r), every (r-1)-subset of the columns that
    spans a hyperplane with all columns on one side of it, within tol times
    each column's norm, gives a facet. Returns {on: normal}: on is the tuple
    of the indices of the columns on the facet, normal its inward normal (a
    vector of the columns' height), scaled so that its largest value over
    the columns is 1.
    """
    cols = np.asarray(columns, dtype=float)
    u, sv, _ = np.linalg.svd(cols)
    r = int(np.sum(sv > tol * sv[0]))
    basis = u[:, :r]
    coords = basis.T @ cols
    band = tol * np.linalg.norm(coords, axis=0)
    facets = {}
    for subset in itertools.combinations(range(cols.shape[1]), r - 1):
        if r == 1:
            h = np.ones(1)
        else:
            _, s, vt = np.linalg.svd(coords[:, list(subset)].T)
            if s[-1] <= tol * s[0]:
                continue
            h = vt[-1]
        vals = h @ coords
        if np.all(vals <= band):
            h, vals = -h, -vals
        if np.all(vals >= -band):
            on = tuple(np.flatnonzero(np.abs(vals) <= band).tolist())
            facets.setdefault(on, (h / vals.max()) @ basis.T)
    return facets


def recursive_formula(text, t, x):
    """Value of a well-formed formula of the expression grammar at (t, x).

    One recursive walk of Python's ast per call, the semantics of a tree of
    closures: every subterm is computed where it occurs, every power goes
    through numpy's pow, constants and t are numpy floats and x is indexed
    per coordinate (x1 is x[0]). Formulas with leading zeros are not read.
    """
    binary = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow}
    functions = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh}

    def value(node):
        if isinstance(node, ast.BinOp):
            return binary[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.UnaryOp):
            return value(node.operand) if isinstance(node.op, ast.UAdd) else -value(node.operand)
        if isinstance(node, ast.Constant):
            return np.float64(node.value)
        if isinstance(node, ast.Call):
            return functions[node.func.id](value(node.args[0]))
        return np.float64(t) if node.id == "t" else x[int(node.id[1:]) - 1]

    with np.errstate(all="ignore"):
        return value(ast.parse(" ".join(text.split()).replace("^", "**"), mode="eval").body)


def falsify_per_step(s, sys, n_starts, horizon, step, seed, extra_starts=(), t0=0.0):
    """The falsifier's search one RK4 step at a time, the loop falsify ran
    before it classified a block of steps per call; kept as the reference
    for the block loop. Returns (x0, t_exit) or None as falsify does, for
    starts that falsify accepts (its input checks are not repeated).

    Unlike the rest of this module it calls the library: the samples, the
    RK4 steps, the violation and the exit band and divergence bound are
    falsify's own. Each step classifies the live columns, and a column
    leaves at its first step that is not finite, beyond the band or past
    the bound. From the first candidate exit on, a copy of the live
    columns from t0 at half the step keeps pace, two half steps a step,
    and confirms a candidate that it saw beyond the band through the same
    time without turning non-finite. The lowest-index confirmed start wins.
    """
    from invarcheck import dynamics
    from invarcheck.sets import outside_violation_batch, sample_boundary
    def step_out(stepper, t, x):
        x = stepper(t, x)
        finite = np.all(np.isfinite(x), axis=0)
        if not np.all(finite):
            x[:, ~finite] = 0.0
        return x, finite, (outside_violation_batch(s, x) > dynamics._EXIT_BAND) & finite

    nsteps = dynamics._step_grid(horizon, step, t0)
    starts = np.column_stack([np.asarray(p, dtype=float) for p in extra_starts]
                             + [bp.point for bp in sample_boundary(s, n_starts, seed)])
    _, first = np.unique(starts, axis=1, return_index=True)
    x0_all = starts[:, np.sort(first)]
    full, half = dynamics._stepper(sys, step), dynamics._stepper(sys, 0.5 * step)
    n_cols = x0_all.shape[1]
    best, best_time = n_cols, math.inf
    cur = x0_all.copy()
    idx_map = np.arange(n_cols)
    div2 = dynamics._DIVERGENCE ** 2
    halved = None
    for k in range(nsteps):
        if idx_map.size == 0:
            break
        cur, finite, exited = step_out(full, t0 + k * step, cur)
        if halved is None and np.any(exited):
            halved, seen, j0 = x0_all[:, idx_map], np.zeros(idx_map.size, bool), 0
        if halved is not None:
            for j in range(j0, 2 * k + 2):
                halved, ok, out = step_out(half, t0 + 0.5 * j * step, halved)
                finite &= ok
                seen |= out
            j0 = 2 * k + 2
            confirmed = exited & seen & finite
            if np.any(confirmed):
                best, best_time = int(idx_map[confirmed][0]), (k + 1) * step
        keep = finite & ~exited & (np.einsum("ij,ij->j", cur, cur) <= div2)
        keep &= idx_map < best
        if not np.all(keep):
            cur = cur[:, keep]
            idx_map = idx_map[keep]
            if halved is not None:
                halved, seen = halved[:, keep], seen[keep]
    if best < n_cols:
        return x0_all[:, best].copy(), best_time
    return None
