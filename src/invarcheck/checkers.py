"""Invariance deciders for each (set family, system kind) pairing.

Linear systems get exact verdicts: facet LPs for halfspace forms, the
off-diagonal sign test for the orthant, per-vertex/per-ray decomposition
feasibility for vertex forms, and eigenvalue criteria for the quadratic
families. The quadratic-cone decision is exact by the S-lemma: a shifted
semidefiniteness certificate, or else a boundary ray with outward flux built
from the pencil at the optimal shift. General (nonlinear) systems are
checked by sampling boundary points and testing the field against the local
tangent cone, all samples in one batch, which can refute but never certify,
so those verdicts cap at Unknown. check picks the decider from one table
keyed by family tag; a decider that takes a raw A checks its dimension in
_matrix, the others through LinearSystem.field, both by
numerics.of_dimension.

Scaling A by c > 0 only rescales time, so it cannot change the answer. The
exact deciders therefore decide on A (on the field values A v, for the
vertex and ray forms) scaled by the power of two 2^-e that brings A's
largest entry into [1, 2), which is exact in floats, and scale every
reported value that is linear in A back by 2^e (Blanchini, "Set invariance
in control", Automatica 1999). Their fixed tolerances then see the same
numbers under every uniform power-of-two scale of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EmptySet, InputError, NumericalFailure
from .numerics import (
    _check_real,
    _check_sampling,
    as_square,
    canonical_sign,
    distinct_columns,
    gen_eig_max_witness,
    gershgorin_radius,
    lapack_eig,
    minimize_scalar_convex,
    of_dimension,
    pow2_exponent,
    sym_eig,
)
from .sets import (
    DEFAULT_TOL,
    ConvexSet,
    Ellipsoid,
    HPolyhedron,
    LorenzCone,
    VCone,
    VPolytope,
    sample_boundary,
)
from .solvers import _facet_lp, lp_feasible, solve_inequality_lp
from .systems import DynamicalSystem, LinearSystem
from .tangent import first_outside

_FACET_OPTIMUM_TOL = 1e-8  # a facet optimum at or below this is non-positive
_PENCIL_TOL = 1e-9         # a pencil eigenvalue at or below this certifies


class Decision(Enum):
    INVARIANT = "invariant"
    NOT_INVARIANT = "not_invariant"
    UNKNOWN = "unknown"


@dataclass
class Certificate:
    """Machine-checkable evidence for an Invariant verdict; data is plain JSON."""

    kind: str
    data: dict


@dataclass
class Counterexample:
    point: np.ndarray
    violation: float


@dataclass
class Verdict:
    decision: Decision
    certificate: Certificate | None = None
    counterexample: Counterexample | None = None
    notes: dict = field(default_factory=dict)


def _matrix(s: ConvexSet, a) -> tuple[np.ndarray, int]:
    """A, square of the set's dimension (else InputError), scaled by 2^-e so
    that its largest entry lies in [1, 2), and e."""
    a = of_dimension(as_square(a, "A"), s.dim)
    e = pow2_exponent(a)
    return np.ldexp(a, -e), e


def _antipodes(rows, images):
    """mate with rows[mate[i]] == images[i] for every i, matched by their
    exact bytes after + 0.0 (so -0.0 matches 0.0), or None unless every
    image is a row and mate pairs them up (mate[mate] is the identity)."""
    rows, images = rows + 0.0, images + 0.0
    index = {r.tobytes(): k for k, r in enumerate(rows)}
    mate = np.empty(len(rows), dtype=int)
    for i, r in enumerate(images):
        k = index.get(r.tobytes())
        if k is None:
            return None
        mate[i] = k
    return mate if np.array_equal(mate[mate], np.arange(mate.size)) else None


def check_hpoly_linear(p: HPolyhedron, a) -> Verdict:
    """Decide invariance of a halfspace-form polyhedron under x' = A x.

    The pointwise facet condition is reduced to one LP per facet: maximize
    the outward flux g_i'Ax over the facet, G x <= b with row i held at
    equality in place (solvers._facet_lp); the first facet with a positive
    optimum refutes, and the facets after it are not solved. An unbounded
    facet LP has supremum +inf and refutes too: its witness is any point of
    the facet with flux g_i'Ax >= 1, found by one feasibility LP over G
    and the row -g_i'Ax <= -1, with row i held in place as in the facet
    LPs, and the violation is that point's flux. If that LP finds no such point the
    decider raises NumericalFailure. A feasible facet LP holds a point of
    the polyhedron; only when none is feasible does one more LP decide
    whether the polyhedron is empty (EmptySet). The LPs read A scaled by
    2^-e (see _matrix), and each optimum and violation is reported times 2^e.

    On a centrally symmetric polyhedron, where every row (g, b) has its
    exact antipode (-g, b) (_antipodes), only the lower facet of each pair
    is solved: the other, mate[i] < i, takes its partner's status and
    optimum with the argmax 0.0 - x. Since P = -P and A(-x) = -Ax, x
    ranges over facet mate[i] exactly when -x ranges over facet i, with the
    same flux. A pair's lower facet refutes first, so the refuting facet
    and its witness are those of solving every facet.
    """
    a, e = _matrix(p, a)
    mate = _antipodes(np.column_stack([p.G, p.b]), np.column_stack([-p.G, p.b]))
    facets, facet_lp = [], _facet_lp(p.G, p.b)
    for i in range(p.G.shape[0]):
        if mate is not None and mate[i] < i:
            twin = facets[mate[i]]
            facets.append({"index": i, "vacuous": True} if "vacuous" in twin else
                          {"index": i, "optimum": twin["optimum"],
                           "argmax": [0.0 - v for v in twin["argmax"]]})
            continue
        c = a.T @ p.G[i]
        status, x, val = facet_lp(i, c)
        if status == "infeasible":
            facets.append({"index": i, "vacuous": True})
            continue
        if status == "unbounded":
            status, x, _ = _facet_lp(np.vstack([p.G, -c]), np.append(p.b, -1.0))(i, np.zeros(p.dim))
            if status != "optimal":
                raise NumericalFailure(f"facet {i}: unbounded flux, no point of flux 1")
            val = float(c @ x)
        if val > _FACET_OPTIMUM_TOL:
            return Verdict(Decision.NOT_INVARIANT,
                           counterexample=Counterexample(np.asarray(x), math.ldexp(val, e)),
                           notes={"facet": i})
        facets.append({
            "index": i,
            "optimum": math.ldexp(val, e),
            "argmax": [float(v) for v in x],
        })
    if all("vacuous" in f for f in facets) and \
            solve_inequality_lp(np.zeros(p.dim), g_ub=p.G, h_ub=p.b)[0] != "optimal":
        raise EmptySet("the polyhedron has no points")
    return Verdict(Decision.INVARIANT,
                   certificate=Certificate("facet-lp", {"facets": facets}))


def check_orthant_linear(a) -> Verdict:
    """The nonnegative orthant is invariant exactly when every off-diagonal
    entry of A is nonnegative; a violating entry A[j, i] yields the basis
    ray e_i as counterexample with (A e_i)_j as the violation."""
    a = as_square(a, "A")
    n = a.shape[0]
    off = ~np.eye(n, dtype=bool)
    min_off = float(np.min(a[off])) if n > 1 else 0.0
    hits = np.argwhere(((a < 0.0) & off).T)  # (ray i, row j), lowest ray first
    if hits.size:
        i, j = map(int, hits[0])
        return Verdict(Decision.NOT_INVARIANT,
                       counterexample=Counterexample(np.eye(n)[i], float(a[j, i])),
                       notes={"entry": [j, i]})
    return Verdict(Decision.INVARIANT,
                   certificate=Certificate("metzler", {"min_offdiagonal": float(min_off)}))


def check_vpolytope(p: VPolytope, sys: DynamicalSystem, t0: float = 0.0) -> Verdict:
    """Vertex decomposition test: at every vertex the field must be a
    nonnegative combination of the edges toward the other vertices.

    Exact for linear systems. For general systems a failing vertex still
    refutes invariance, but an all-pass cannot certify the faces between
    vertices, so the verdict caps at Unknown."""
    return _check_decomposition(p, sys, t0)


def check_vcone(c: VCone, sys: DynamicalSystem, t0: float = 0.0) -> Verdict:
    """Ray decomposition test: at every extreme ray the field must combine
    the other rays nonnegatively with a sign-free coefficient on the ray
    itself. Exact for linear systems; Unknown-capped otherwise."""
    return _check_decomposition(c, sys, t0)


def _check_decomposition(s: VPolytope | VCone, sys, t0) -> Verdict:
    """Decomposition feasibility at every generator i of s (a vertex or ray):
    s.columns @ a = f with a_j >= 0 for j != i, on the family's own
    homogenised columns ([V'; 1'], so the coefficients sum to zero, or R'),
    the field f at generator i padded with zeros to their height. Every f
    comes from one field call, and is decided in one call up to the first
    non-finite f. A linear system's f is scaled by
    2^-e, e from A as in _matrix, which keeps the rounding noise in A v as
    small against 1 as at A's own scale; a general field is not scaled,
    since its values may all be noise. The first infeasible one refutes with
    phase one's infeasibility as its violation; else a non-finite f is an
    InputError naming its generator. The violation and every coefficient are
    reported times 2^e. The set's GENERATOR and GENERATORS words key the
    notes and the certificate. A bad t0, or a linear system of another
    dimension than the set, is an InputError.

    Under a linear system on a centrally symmetric set, where every
    generator v has -v among the generators (_antipodes), only generators
    i <= mate[i] are solved, and generator i with mate[i] < i takes its
    partner's infeasibility and coefficients alpha[mate]: if
    sum_j alpha_j v_j = A v, then sum_j alpha_mate[j] v_j = -A v = A(-v),
    with the same sum and alpha_mate[j] >= 0 for j != i. A pair's lower
    generator refutes first, as when every generator is solved. A general
    field need not be odd, so it is never mirrored.
    """
    _check_real(t0, "t0")
    name, plural = s.GENERATOR, s.GENERATORS
    gens, cols = getattr(s, plural), s.columns
    f = sys.field(t0, gens.T)
    bad = np.flatnonzero(~np.all(np.isfinite(f), axis=0))
    finite = int(bad[0]) if bad.size else gens.shape[0]
    linear = isinstance(sys, LinearSystem)
    e = pow2_exponent(sys.a) if linear else 0
    mate = _antipodes(gens, -gens) if linear else None
    solve = np.arange(finite)
    if mate is not None:
        solve = solve[solve <= mate[:finite]]
    rhs = np.zeros((cols.shape[0], solve.size))
    rhs[:s.dim] = np.ldexp(f[:, solve], -e)
    solved = dict(zip(solve.tolist(), lp_feasible(cols, rhs, solve)))
    for i in range(finite):
        if i not in solved:  # mate[i] < i, and mate[i] was feasible
            violation, alpha = solved[mate[i]]
            solved[i] = violation, alpha[mate]
        violation, alpha = solved[i]
        if alpha is None:
            return Verdict(Decision.NOT_INVARIANT,
                           counterexample=Counterexample(gens[i].copy(), math.ldexp(violation, e)),
                           notes={name: i})
    if finite < gens.shape[0]:
        raise InputError(f"the field is not finite at {name} {finite} "
                         f"{[float(v) for v in gens[finite]]}")
    records = [{"index": i, "alpha": np.ldexp(solved[i][1], e).tolist()} for i in range(finite)]
    cert = Certificate(f"{name}-decomposition", {plural: records})
    if linear:
        return Verdict(Decision.INVARIANT, certificate=cert)
    return Verdict(Decision.UNKNOWN,
                   notes={f"{name}_conditions": "passed", "payload": cert.data})


def _pencil(s: Ellipsoid | LorenzCone, a):
    """A scaled by 2^-e as _matrix scales it, M = A'Q + QA of that A
    symmetrised, and e."""
    a, e = _matrix(s, a)
    m = a.T @ s.Q + s.Q @ a
    return a, 0.5 * (m + m.T), e


def check_ellipsoid_linear(e: Ellipsoid, a) -> Verdict:
    """Eigenvalue criterion for the ellipsoid x'Qx <= 1 under x' = A x.

    Invariant exactly when the largest generalized eigenvalue of
    (A'Q + QA, Q) is nonpositive; otherwise the maximizing eigenvector,
    scaled onto the unit quadric, witnesses outward flux of half that
    eigenvalue, both from gen_eig_max_witness on the eigenpairs Q holds. The
    pencil is that of A scaled by 2^-ex (see _matrix); eta, the eigenvalues
    and the violation are reported times 2^ex.
    """
    a, m, ex = _pencil(e, a)
    lam, x = gen_eig_max_witness(m, e.eigenvalues, e.eigenvectors)
    if lam <= _PENCIL_TOL:
        witness = float(lapack_eig(np.linalg.eigvalsh, m - lam * e.Q)[-1])
        return Verdict(Decision.INVARIANT, certificate=Certificate(
            "lyapunov-pencil",
            {"eta": math.ldexp(lam, ex), "witness_max_eig": math.ldexp(witness, ex),
             "eigenvector": [float(v) for v in x]}))
    x_unit = x / math.sqrt(float(x @ e.Q @ x))
    violation = float(x_unit @ e.Q @ (a @ x_unit))
    return Verdict(Decision.NOT_INVARIANT,
                   counterexample=Counterexample(x_unit, math.ldexp(violation, ex)),
                   notes={"pencil_max_eig": math.ldexp(lam, ex)})


def check_lorenz_linear(c: LorenzCone, a) -> Verdict:
    """Exact quadratic-cone decision under x' = A x.

    On the boundary x'Qx = 0 the outward flux is x'QAx = x'Mx/2, M = A'Q + QA,
    the same on both branches. By the S-lemma (Polik & Terlaky, SIAM Review
    2007) it is nonpositive there exactly when some eta makes M - eta*Q
    negative semidefinite; for an invariant cone those eta fill the interval
    between the two largest eigenvalues of the pencil (M, Q) (Stern &
    Wolkowicz, SIAM J. Matrix Anal. Appl. 1991). So eta is the midpoint of
    the two largest real parts of the eigenvalues of diag(sign w) S'MS,
    S = U|w|^-1/2 from the cone's Q = U diag(w) U' (the largest alone when
    n = 1), and certifies if lambda_max(M - eta*Q) <= _PENCIL_TOL; else
    _lorenz_search decides. All on A scaled by 2^-ex (see _matrix); eta,
    lambda_max and the flux are reported times 2^ex.
    """
    a, m, ex = _pencil(c, a)
    s = c.eigenvectors / np.sqrt(np.abs(c.eigenvalues))
    k = np.sign(c.eigenvalues)[:, None] * (s.T @ m @ s)
    top = np.sort(lapack_eig(np.linalg.eigvals, k).real)[-2:]
    eta = 0.5 * float(top[0] + top[-1])
    phi = float(lapack_eig(np.linalg.eigvalsh, m - eta * c.Q)[-1])
    if phi > _PENCIL_TOL:
        return _lorenz_search(c, a, m, ex)
    return Verdict(Decision.INVARIANT, certificate=Certificate(
        "cone-pencil", {"eta": math.ldexp(eta, ex), "witness_max_eig": math.ldexp(phi, ex)}))


def _lorenz_search(c: LorenzCone, a: np.ndarray, m: np.ndarray, ex: int) -> Verdict:
    """check_lorenz_linear by a search for eta, on its scaled A and M: the
    convex phi(eta) = lambda_max(M - eta*Q) is minimized over |eta| <= beta
    by a safeguarded Newton search on its slope -v'Qv, v the top unit
    eigenvector, and its curvature 2 sum_j (v_j'Qv)^2 / (lambda - lambda_j)
    over the other eigenpairs, all from one eigh (no curvature, so a
    bisection step, where the top eigenvalue is repeated to rounding): with
    r the Gershgorin radius of M, phi(eta) >= -r + |eta|*min|eig Q| and
    phi(0) <= r, so the minimizer lies in |eta| <= 2r/min|eig Q| < beta.

    phi* <= _PENCIL_TOL certifies invariance with eta*. Otherwise the
    eigenvectors V of M - eta*Q with eigenvalue >= phi*/2 span a subspace
    that, by optimality of eta*, holds a null vector x of Q, where
    x'QAx >= phi*/4 |x|^2. x is built from the extreme eigenpairs of V'QV,
    moved onto the branch u_n'x >= 0 and onto the surface, and refutes if
    its flux is above 1e-8*(1 + |QA|); else, since the gap phi* and the flux
    may both be rounding noise at that size, NumericalFailure.
    """
    rm, rq = gershgorin_radius(m), gershgorin_radius(c.Q)
    beta = 10.0 * (1.0 + rm) / float(np.min(np.abs(c.eigenvalues)))

    last = []  # the latest eigenpairs; the search's last evaluation is at eta*

    def pencil_max(eta):
        # m and Q are exactly symmetric, so LAPACK needs no sym_eig checks
        w, v = lapack_eig(np.linalg.eigh, m - eta * c.Q)
        last[:] = w, v
        g = v.T @ (c.Q @ v[:, -1])
        gap = w[-1] - w[:-1]
        if not gap.size or gap[-1] <= 1e-12 * (rm + abs(eta) * rq):
            return float(w[-1]), -float(g[-1]), 0.0  # top repeated to rounding: a kink
        return float(w[-1]), -float(g[-1]), 2.0 * float(np.sum(g[:-1] ** 2 / gap))

    tau = max(1e-12, min(1e-10, 1e-10 / (1.0 + rq)))
    eta_star, phi_star = minimize_scalar_convex(pencil_max, (-beta, beta), tau)
    if phi_star <= _PENCIL_TOL:
        return Verdict(Decision.INVARIANT, certificate=Certificate("cone-pencil", {
            "eta": math.ldexp(eta_star, ex), "witness_max_eig": math.ldexp(phi_star, ex)}))

    w, v = last  # as sym_eig orders and signs them: descending, canonical_sign
    v = canonical_sign(v[:, w >= 0.5 * phi_star][:, ::-1])
    r = sym_eig(v.T @ c.Q @ v)
    hi, lo = float(r.eigenvalues[0]), float(r.eigenvalues[-1])
    # a null vector of Q when lo <= 0 <= hi, else the eigenvector nearest null
    x = v @ (np.sqrt(max(-lo, 0.0)) * r.eigenvectors[:, 0]
             + np.sqrt(max(hi, 0.0)) * r.eigenvectors[:, -1])
    t = float(c.u_n @ x)
    p = np.copysign(1.0, t) * (x - t * c.u_n)
    x = p + np.sqrt(max(float(p @ c.Q @ p), 0.0) / -float(c.eigenvalues[-1])) * c.u_n
    x = x / (float(np.linalg.norm(x)) or 1.0)
    qa = c.Q @ a
    flux = float(x @ (qa @ x))
    # at large |QA| the rounding in M - eta*Q alone exceeds _PENCIL_TOL, and
    # the flux of a ray built from that noise is itself noise of size
    # eps*|QA|: only a flux clear of this floor refutes
    floor = 1e-8 * (1.0 + float(np.linalg.norm(qa)))
    gap, flux, floor = (math.ldexp(v, ex) for v in (phi_star, flux, floor))
    if not flux > floor:
        raise NumericalFailure(
            f"no certificate (gap {gap:.3e}) and the built boundary ray has "
            f"flux {flux:.3e}, not above the rounding floor {floor:.3e}")
    return Verdict(Decision.NOT_INVARIANT,
                   counterexample=Counterexample(x, flux),
                   notes={"certificate_gap": gap})


def check_nonlinear_sampled(s: ConvexSet, sys: DynamicalSystem, t0: float,
                            n_samples: int, seed: int,
                            tol: float = DEFAULT_TOL) -> Verdict:
    """Sampled Nagumo test: the field must lie in the tangent cone at every
    sampled boundary point. A violation refutes invariance; a clean pass
    cannot certify the full boundary, so the verdict is Unknown. tol is both
    the boundary band of the samples and the tangent-cone tolerance.

    The field is evaluated once on all samples, and every sample is tested
    at once (tangent.first_outside): its outward flux against the
    halfspace rows, facets or quadratic normal that bind there, as read
    from the point itself. The lowest refuting sample is the
    counterexample, with the largest normalised flux as its violation (the
    L1 infeasibility of its tangent-cone LP for a vertex or ray form
    without enumerated facets). A field that is not finite at a sample
    before that one is an InputError naming the point. An Unknown verdict
    notes samples_checked, the number of distinct points tested, counted as
    falsify counts its starts: samples can repeat (every sample of a
    half-line is its apex). A bad t0, n_samples, seed or tol, or a linear
    system of another dimension than the set, is an InputError.
    """
    _check_real(t0, "t0")
    _check_sampling(n_samples, seed, tol, "n_samples")
    samples = sample_boundary(s, n_samples, seed, tol)
    x = np.ascontiguousarray(np.array([bp.point for bp in samples]).T)
    y = sys.field(t0, x)
    bad = np.flatnonzero(~np.all(np.isfinite(y), axis=0))
    stop = int(bad[0]) if bad.size else len(samples)
    hit = first_outside(s, x[:, :stop], y[:, :stop], tol)
    if hit is not None:
        k, residual = hit
        return Verdict(Decision.NOT_INVARIANT,
                       counterexample=Counterexample(x[:, k].copy(), residual))
    if stop < len(samples):
        raise InputError("the field is not finite at boundary point "
                         f"{[float(v) for v in x[:, stop]]}")
    return Verdict(Decision.UNKNOWN, notes={"samples_checked": distinct_columns(x).size})


# The exact deciders for x' = A x by set tag, each looking its decider up as a
# module global at call time, so that a wrapper patched onto the module (a
# tracer, a mock) still sees the call. The vertex/ray tests (sets with
# GENERATORS) are necessary for any field, so they refute general ones first.
_DECIDERS = {
    "hpolyhedron": lambda s, sys, t0: check_hpoly_linear(s, sys.a),
    "orthant": lambda s, sys, t0: check_orthant_linear(of_dimension(sys.a, s.dim)),
    "vpolytope": lambda s, sys, t0: check_vpolytope(s, sys, t0),
    "vcone": lambda s, sys, t0: check_vcone(s, sys, t0),
    "ellipsoid": lambda s, sys, t0: check_ellipsoid_linear(s, sys.a),
    "lorenz": lambda s, sys, t0: check_lorenz_linear(s, sys.a),
}


def check(s: ConvexSet, sys: DynamicalSystem, t0: float = 0.0,
          n_samples: int = 10000, seed: int = 0,
          tol: float = DEFAULT_TOL) -> Verdict:
    """Dispatch to the right decider for the (set family, system kind) pair.

    The set's family tag alone picks the decider, from one table for both
    system kinds (an unknown tag is an InputError): for a linear system the
    orthant gets the off-diagonal sign test and every other halfspace form
    the facet LPs. General systems on vertex forms run the vertex/ray
    refutation first and then the sampled check, reporting both phases in
    the verdict notes. Only the sampled check reads tol; every call checks
    all four options.
    """
    _check_real(t0, "t0")
    _check_sampling(n_samples, seed, tol, "n_samples")
    decide = _DECIDERS.get(getattr(s, "TAG", None))
    if decide is None:
        raise InputError(f"unsupported set type {type(s).__name__}")
    if isinstance(sys, LinearSystem):
        return decide(s, sys, t0)
    first = decide(s, sys, t0) if hasattr(s, "GENERATORS") else Verdict(Decision.UNKNOWN)
    if first.decision is Decision.NOT_INVARIANT:
        return first
    sampled = check_nonlinear_sampled(s, sys, t0, n_samples, seed, tol)
    sampled.notes.update(first.notes)
    return sampled
