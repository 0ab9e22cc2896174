"""Convex set families: construction, membership, and boundary sampling.

Six families are supported: halfspace polyhedra (covering polyhedral
cones through b = 0), the orthant x >= 0 (a halfspace form with its own
tag), vertex polytopes, ray cones, ellipsoids x'Qx <= 1 with Q positive
definite, and quadratic cones x'Qx <= 0 cut to one branch by x'Q u_n <= 0
where u_n, stored once, is the eigenvector of the single negative eigenvalue.
The vertex/ray forms read membership, violation, binding facets and
boundary samples from the facets of their generators, enumerated once per
set (Blanchini, "Set invariance in control", Automatica 1999, states the
facet conditions) by double description; "inside" for them means the
relative interior (for full-dimensional sets this is the topological
interior). A form above its cap (_FACET_RAYS) solves an LP over the
combination coefficients per point instead.

Each family is one class that owns what only it knows: its JSON tag
(TAG) and field names (FIELDS, in constructor order), and _slack(x),
_band(x, tol), _faces, sample(count, rng, tol) and tangent_test(points,
y, tol), where tol is the user's boundary band; points are the columns of
an n x N array, and sample returns count x n rows. _slack has a row per
condition and a column per point, held against _band; its first _faces
rows (all for None) are faces. One rule reads them (membership and
outside_violation_batch): a column is outside when a slack exceeds its
band, on the boundary when a face row is within it, inside otherwise, and
its violation is its largest slack, 0 if none is positive. A single point
is a one-column batch. A sample is a point and nothing more: tangent_test
reads what binds at each column from the column itself (the rows within
the band of a halfspace form, the facets within the band of a vertex or
ray form, the apex of a quadratic cone at norm 1e-10 or less), and the
falsifier starts from the samples as drawn and confirms each exit at half
the step. tangent_test is Nagumo's test of the directions y at those
points: every family reduces it to outward fluxes against the halfspace
rows that bind at each point, judged by one formula (flux_residual). The
module-level functions below validate their arguments and call those
methods; the rest of the package calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EmptyBoundary, InputError, NotMember
from .numerics import (_check_dim, _check_real, _check_sampling, as_matrix, as_point, as_square,
                       as_vector, sym_eig)
from .solvers import _facet_lp, _split_form

DEFAULT_TOL = 1e-8  # boundary band and tangent-cone tolerance unless the user sets one
_SPD_MIN_EIG = 1e-10  # least ratio of an ellipsoid's eigenvalues: scaling Q moves no decision
_FACE_TOL = 1e-10  # relative rank and on-facet tolerance of the facet enumeration
# most rays the facet enumeration holds at any stage; above, the LP path. At the
# default 10,000 samples each facet costs tangent_test about 0.3 MB of peak memory
_FACET_RAYS = 1000
_ROUNDING = 16 * np.finfo(float).eps  # least relative flux that refutes, whatever tol
_PAIR_CELLS = 1 << 20  # vertex pair x coordinate cells in one block of the duplicate check


def flux_residual(flux, row_norms, y_norms, tol: float, active=None):
    """Nagumo's test of directions against halfspace rows, column by column.

    flux[i, k] is the outward flux g_i'y_k of row i at sample k; it passes
    when at most max(tol, _ROUNDING)*(1 + |g_i||y_k|), so that at tol = 0 a
    flux of rounding size in the rows or the field does not refute.
    row_norms and y_norms broadcast against flux, and active, when given,
    masks the rows that bind at each sample. Returns per column whether
    every active row passes, and the residual: the largest active
    flux/(1 + |g_i||y_k|), or 0 if none is positive.
    """
    scale = 1.0 + row_norms * y_norms
    ratio = flux / scale
    out = flux > max(tol, _ROUNDING) * scale
    if active is not None:
        ratio = np.where(active, ratio, 0.0)
        out &= active
    return ~np.any(out, axis=0), np.max(ratio, axis=0, initial=0.0)


class Membership(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


_CLASSES = np.array(list(Membership), dtype=object)


@dataclass
class BoundaryPoint:
    """A sampled boundary point, as sample_boundary returns it."""

    point: np.ndarray


class HPolyhedron:
    """{x : G x <= b}; with b = 0 this is a polyhedral cone."""

    TAG = "hpolyhedron"
    FIELDS = ("G", "b")

    def __init__(self, g, b):
        self.G = as_matrix(g, "G", nonempty=True)
        self.b = as_vector(b, "b", nonempty=True)
        if self.G.shape[0] != self.b.shape[0]:
            raise DimensionMismatch("G rows and b length differ")

    @property
    def dim(self):
        return self.G.shape[1]

    _faces = None  # every row is a face

    def _slack(self, x) -> np.ndarray:
        """(G x - b)/(1 + |b|) per row and column of x, held against tol."""
        return (self.G @ x - self.b[:, None]) / (1.0 + np.abs(self.b))[:, None]

    def _band(self, x, tol: float):
        return tol

    def _facet_anchor(self, i: int, tol: float):
        """A point in the relative interior of facet i, or None if unattained.

        The LP maximizes the margin t, at most 1, by which the other rows
        hold on the facet, so it is bounded; row i holds at equality in
        place, as in a facet LP. An LP point that lies outside the set or
        off the facet by more than the boundary band is rejected too, so
        every anchor is a boundary point.
        """
        m, n = self.G.shape
        g = np.zeros((m + 2, n + 1))  # rows G_j x + t <= b_j (no t in row i), t <= 1, -t <= 0
        g[:m, :n] = self.G
        g[:, n] = 1.0
        g[i, n], g[m + 1, n] = 0.0, -1.0
        c = np.concatenate([np.zeros(n), [1.0]])
        status, z, _ = _facet_lp(g, np.concatenate([self.b, [1.0, 0.0]]))(i, c)
        if status != "optimal":
            return None
        slack = self._slack(z[:n, None])[:, 0]
        if np.any(slack > tol) or slack[i] < -tol:
            return None
        return z[:n]

    def sample(self, count: int, rng, tol: float) -> np.ndarray:
        """Sample k is the LP anchor of attained facet k (mod their number)
        moved along a random direction within that facet by a random
        fraction of the distance to the first other facet ahead, at most
        1 + |anchor|. A point that leaves the set by more than the band
        (rounding on a row nearly parallel to the direction) stays at the
        anchor."""
        anchors = [(i, self._facet_anchor(i, tol)) for i in range(self.G.shape[0])]
        anchors = [(i, a) for i, a in anchors if a is not None]
        if not anchors:
            raise EmptyBoundary("no facet of the polyhedron is attained")
        pick = np.arange(count) % len(anchors)
        g = self.G[[i for i, _ in anchors]][pick]
        base = np.array([a for _, a in anchors])[pick]
        y = rng.normal(size=(count, self.dim))
        y -= g * (np.sum(g * y, axis=1) / np.sum(g * g, axis=1))[:, None]
        ny = np.linalg.norm(y, axis=1)
        y = np.where((ny >= 1e-12)[:, None], y / np.maximum(ny, 1e-12)[:, None], 0.0)
        rate = y @ self.G.T
        room = np.maximum(self.b - base @ self.G.T, 0.0)
        ahead = rate > 1e-12 * np.linalg.norm(self.G, axis=1)
        limit = np.full(rate.shape, np.inf)
        np.divide(room, rate, out=limit, where=ahead)
        reach = np.minimum(limit.min(axis=1), 1.0 + np.linalg.norm(base, axis=1))
        pts = base + (rng.uniform(size=count) * reach)[:, None] * y
        stray = np.any(self._slack(pts.T) > tol, axis=0)
        pts[stray] = base[stray]
        return pts

    def _binding(self, x, tol: float) -> np.ndarray:
        """Which rows lie within the band tol of each column of x, m x N."""
        return np.abs(self._slack(x)) <= tol

    def tangent_test(self, x, y, tol: float):
        """The rows within the band tol of each point bind there; NotMember
        if membership puts a point outside."""
        if np.any(membership(self, x, tol) == Membership.OUTSIDE):
            raise NotMember("point is outside the polyhedron")
        return flux_residual(self.G @ y, np.linalg.norm(self.G, axis=1)[:, None],
                             np.linalg.norm(y, axis=0), tol, self._binding(x, tol))


class Orthant(HPolyhedron):
    """The nonnegative orthant of R^n as -x <= 0: a halfspace form whose tag
    routes a linear check to the off-diagonal sign test."""

    TAG = "orthant"
    FIELDS = ("n",)

    def __init__(self, n):
        _check_dim(n, "n")
        super().__init__(np.diag(np.full(n, -1.0)), np.zeros(n))  # +0.0 off the diagonal
        self.n = n

    def _facet_anchor(self, i: int, tol: float):
        """1 - e_i, the point facet i's anchor LP finds, without the LP."""
        anchor = np.ones(self.n)
        anchor[i] = 0.0
        return anchor


@dataclass(frozen=True)
class _Facets:
    """Face description of the cone spanned by a V-form's columns.

    A lifted point y lies in the cone exactly when eq @ y = 0 and
    normals @ y >= 0. Row i of normals is facet i's inward normal, scaled so
    that its largest value over the columns is 1 (for a simplex these are
    the barycentric coordinates); on[i] holds the indices of the columns on
    facet i, the facets sorted by on. eq spans the orthogonal complement of
    the columns' span.
    """

    normals: np.ndarray
    on: list
    eq: np.ndarray


class _VForm:
    """What the vertex and ray forms share, over homogenised columns.

    x is a member when  columns @ theta = lift(x)  has a solution theta >= 0;
    the relative interior is where some solution has every theta_j > 0. A
    polytope's columns are its vertices with a trailing 1 (the weights sum to
    one); a cone's are its rays, and its interior margin is capped at
    scale(x) = 1 + ||x||, since it is otherwise unbounded whenever the rays
    admit a positive circuit. Subclasses set the sampled points (vertices or
    unit rays) and the columns, which the decomposition LPs of checkers read
    too, and define lift, scale, cap and face_points.

    Membership, violation, sampling, the tangent test and the tangent cone
    (tangent_cone_at, from the same _rows) read the facets of the columns'
    cone (_facets), computed once, through one slack and one band; forms
    above the facet cap fall back to LPs for all of them.
    """

    def __init__(self, points, columns):
        self._points = points
        self.columns = columns

    @property
    def dim(self):
        return self._points.shape[1]

    @cached_property
    def _facets(self) -> _Facets | None:
        """The columns' facets by double description (Fukuda & Prodon 1996),
        or None once a stage holds more than _FACET_RAYS rays.

        The facet normals are the extreme rays of {h : c_j'h >= 0 for every
        column c_j} in the columns' r-dimensional span; those of r independent
        columns are the rows of their inverse. Each further column keeps the
        rays it leaves nonnegative and adds the combination, zero on it, of
        each adjacent positive and negative ray: two rays that share at least
        r - 2 zero columns, on all of which no third ray is zero.
        """
        u, sv, _ = np.linalg.svd(self.columns)
        r = int(np.sum(sv > _FACE_TOL * sv[0]))
        u = np.eye(r) if r == len(u) else u  # full row rank: exact columns give exact rows
        coords = u[:, :r].T @ self.columns
        tol = _FACE_TOL * np.linalg.norm(coords, axis=0)
        rest, left = coords.copy(), np.ones(coords.shape[1], bool)
        for _ in range(r):  # Gram-Schmidt taking the largest residual column
            j = np.einsum("ij,ij->j", rest, rest).argmax()
            left[j] = False
            rest -= np.outer(rest[:, j], rest[:, j] @ rest / (rest[:, j] @ rest[:, j]))
        rays = np.linalg.inv(coords[:, ~left])
        zero = np.zeros((r, left.size), bool)  # zero[i, j]: ray i is zero on column j
        zero[:, ~left] = ~np.eye(r, dtype=bool)
        for j in np.flatnonzero(left):
            rays /= np.linalg.norm(rays, axis=1)[:, None]
            v = rays @ coords[:, j]
            keep = v >= -tol[j]
            zero[:, j] = np.abs(v) <= tol[j]
            z = zero.astype(float)  # its products count common zeros exactly
            pos, neg = np.flatnonzero(v > tol[j]), np.flatnonzero(~keep)
            p, n = np.nonzero(z[pos] @ z[neg].T >= r - 2)
            p, n = pos[p], neg[n]
            adjacent = np.zeros(p.size, bool)
            step = max(1, (1 << 22) // sum(z.shape))  # at most 4M pair x (ray or column) cells
            for s in range(0, p.size, step):
                both = z[p[s:s + step]] * z[n[s:s + step]]
                adjacent[s:s + step] = np.sum(z @ both.T == both.sum(axis=1), axis=0) == 2
                if np.sum(keep) + np.sum(adjacent) > _FACET_RAYS:
                    return None
            p, n = p[adjacent], n[adjacent]
            rays = np.vstack([rays[keep], v[p, None] * rays[n] - v[n, None] * rays[p]])
            zero = np.vstack([zero[keep], zero[p] & zero[n] | (np.arange(left.size) == j)])
        rays /= np.linalg.norm(rays, axis=1)[:, None]
        vals = rays @ coords
        on = [face.nonzero()[0] for face in np.abs(vals) <= tol]
        order = sorted(range(len(on)), key=lambda i: on[i].tolist())
        normals = (rays / vals.max(axis=1)[:, None])[order] @ u[:, :r].T
        return _Facets(normals, [on[i] for i in order], u[:, r:].T)

    def _lp(self, x):
        """Feasibility plus relative-interior margin of the combination
        coefficients: maximise delta subject to
        columns @ (delta*1 + sigma) = lift(x), delta, sigma >= 0, and, for a
        cone, the one inequality row delta <= cap(x); solvers._split_form
        lays it out.

        Returns (delta, infeasibility): (0, phase one's optimum) if infeasible.
        """
        k = self.columns.shape[1]
        cap = self._cap(x)
        rows = () if cap is None else (np.eye(1, 1 + k), np.array([float(cap)]))
        c = np.zeros(1 + k)
        c[0] = -1.0
        status, z, obj = _split_form([], np.column_stack([self.columns @ np.ones(k), self.columns]),
                                     self._lift(x[:, None])[:, 0], *rows)[3](c)
        return (0.0, obj) if status == "infeasible" else (float(z[0]), 0.0)

    def _slack(self, x) -> np.ndarray:
        """Minus each facet's value at lift(x), then the size of each
        equality row's value, per column of x; without facets, minus the
        membership LP's margin, then its infeasibility."""
        facets = self._facets
        if facets is None:
            return np.array([(0.0 - d, f) for d, f in map(self._lp, x.T)]).reshape(-1, 2).T
        lifted = self._lift(x)
        return np.concatenate([-(facets.normals @ lifted), np.abs(facets.eq @ lifted)])

    def _band(self, x, tol: float):
        """max(tol*scale(x), _FACE_TOL*|lift(x)|), per point: the floor keeps a
        face point on its facet through rounding at tol = 0 (tol*scale(x)
        without facets)."""
        band = tol * self._scale(x)
        lifted = 0.0 if self._facets is None else np.linalg.norm(self._lift(x), axis=0)
        return np.maximum(band, _FACE_TOL * lifted)

    @property
    def _faces(self) -> int:
        """The facet rows lead _slack (the margin row, without facets)."""
        return 1 if self._facets is None else self._facets.normals.shape[0]

    def sample(self, count: int, rng, tol: float) -> np.ndarray:
        """The generators on the relative boundary first, then random
        combinations of one facet's generators (of two random generators,
        kept only when the membership LP says boundary, without facets).
        A form without a relative boundary (one vertex, or a cone that is a
        linear subspace) repeats its generators."""
        facets = self._facets
        if facets is None:
            return self._sample_lp(count, rng, tol)
        faces = [f for f in facets.on if f.size or self._HAS_APEX]
        pts = self._points
        if not faces:
            return pts[np.arange(count) % len(pts)]
        firsts = sorted({int(j) for f in faces for j in f})[:count]
        picks = rng.integers(len(faces), size=count - len(firsts))
        drawn = np.empty((picks.size, self.dim))
        for f in np.unique(picks):
            drawn[picks == f] = self._face_points(rng, faces[f], int(np.sum(picks == f)))
        return np.vstack([pts[firsts], drawn])

    def _sample_lp(self, count: int, rng, tol: float) -> np.ndarray:
        pts = self._points
        l = pts.shape[0]
        firsts = [j for j in range(l) if membership(self, pts[j], tol) is Membership.BOUNDARY]
        firsts = firsts or list(range(l))
        out = [pts[j] for j in firsts[:count]]
        for k in range(len(out), count):
            for _ in range(30 if l >= 2 else 0):
                pair = np.sort(rng.choice(l, size=2, replace=False))
                cand = self._face_points(rng, pair, 1)[0]
                if membership(self, cand, tol) is Membership.BOUNDARY:
                    out.append(cand)
                    break
            else:
                out.append(pts[firsts[k % len(firsts)]])
        return np.array(out)

    def _rows(self, x, tol: float):
        """The rows of Nagumo's test and which bind at each column of x, or
        None without facets. The facets whose slack at a point is within its
        band bind there, and the equality rows bind both ways, all cut to the
        first dim coordinates (a direction lifts with a trailing 0) and scaled
        to unit length, so that the test does not depend on the set's size (a
        row whose cut is zero is dropped). No row holds a -0.0."""
        facets = self._facets
        if facets is None:
            return None
        n, m = self.dim, facets.normals.shape[0]
        eq = facets.eq[:, :n]
        rows = np.vstack([-facets.normals[:, :n], eq, -eq])
        binds = np.vstack([self._slack(x)[:m] >= -self._band(x, tol),
                           np.ones((2 * eq.shape[0], x.shape[1]), bool)])
        norms = np.linalg.norm(rows, axis=1)
        keep = norms > 0.0
        return rows[keep] / norms[keep, None] + 0.0, binds[keep]

    def tangent_test(self, x, y, tol: float):
        """flux_residual against the rows that _rows finds binding; None
        without facets: the caller then decides each point by LP."""
        bound = self._rows(x, tol)
        if bound is None:
            return None
        rows, binds = bound
        return flux_residual(rows @ y, 1.0, np.linalg.norm(y, axis=0), tol, binds)


class VPolytope(_VForm):
    """Convex hull of finitely many pairwise-distinct vertices."""

    TAG = "vpolytope"
    FIELDS = ("vertices",)
    GENERATOR, GENERATORS = "vertex", "vertices"
    _HAS_APEX = False

    def __init__(self, vertices):
        vs = as_matrix(vertices, "vertices", nonempty=True)
        k, n = vs.shape
        rows = max(1, _PAIR_CELLS // (k * n))
        for i0 in range(0, k, rows):  # each block of vertices against all later ones
            near = np.max(np.abs(vs[i0:i0 + rows, None] - vs[i0 + 1:]), axis=2) <= 1e-9
            near &= np.arange(i0 + 1, k) > np.arange(i0, min(i0 + rows, k))[:, None]
            pairs = np.argwhere(near)  # row-major: the lowest i, then the lowest j
            if pairs.size:
                i, j = i0 + pairs[0, 0], i0 + 1 + pairs[0, 1]
                raise InputError(f"vertices {i} and {j} coincide")
        self.vertices = vs
        super().__init__(vs, np.vstack([vs.T, np.ones((1, vs.shape[0]))]))

    def _lift(self, x):
        return np.vstack([x, np.ones((1, x.shape[1]))])

    def _scale(self, x):
        return 1.0

    def _cap(self, x):
        return None

    def _face_points(self, rng, idx, size):
        """size random convex combinations of the vertices idx, one per row."""
        return rng.dirichlet(np.ones(idx.size), size=size) @ self._points[idx]


class VCone(_VForm):
    """Conic hull of finitely many nonzero generator rays."""

    TAG = "vcone"
    FIELDS = ("rays",)
    GENERATOR, GENERATORS = "ray", "rays"
    _HAS_APEX = True  # a facet on no ray is the apex of a single-ray cone

    def __init__(self, rays):
        rs = as_matrix(rays, "rays", nonempty=True)
        zero = np.flatnonzero(np.linalg.norm(rs, axis=1) < 1e-9)
        if zero.size:
            raise InputError(f"ray {zero[0]} is numerically zero")
        self.rays = rs
        super().__init__(rs / np.linalg.norm(rs, axis=1)[:, None], rs.T)

    def _lift(self, x):
        return x

    def _scale(self, x):
        return 1.0 + np.linalg.norm(x, axis=0)

    _cap = _scale

    def _face_points(self, rng, idx, size):
        """size random conic combinations of the unit rays idx at unit norm,
        one per row (the apex for no rays, or a combination that cancels)."""
        if idx.size == 0:
            return np.zeros((size, self.dim))
        cand = rng.dirichlet(np.ones(idx.size), size=size) @ self._points[idx]
        nrm = np.linalg.norm(cand, axis=1)[:, None]
        return np.where(nrm < 1e-12, cand, cand / np.maximum(nrm, 1e-12))


class _Quadric:
    """What the ellipsoid and the quadratic cone share: Q, checked square and
    symmetric under its own name, then symmetrised, its eigendecomposition
    (eigenvalues descending), and the tangent test against the surface's
    outward normal Qx, its one row."""

    def __init__(self, q):
        q = as_square(q, "Q", nonempty=True)
        eig = sym_eig(q, "Q")
        self.Q = 0.5 * (q + q.T)
        self.eigenvalues, self.eigenvectors = eig.eigenvalues, eig.eigenvectors

    @property
    def dim(self):
        return self.Q.shape[0]

    _faces = 1  # the surface row leads _slack

    def _band(self, x, tol: float):
        return tol

    def tangent_test(self, x, y, tol: float):
        """flux_residual against the one row Qx at each column of x."""
        qx = self.Q @ x
        return flux_residual(np.sum(qx * y, axis=0)[None, :], np.linalg.norm(qx, axis=0),
                             np.linalg.norm(y, axis=0), tol)


class Ellipsoid(_Quadric):
    """{x : x'Qx <= 1} with Q symmetric positive definite (see _SPD_MIN_EIG)."""

    TAG = "ellipsoid"
    FIELDS = ("Q",)

    def __init__(self, q):
        super().__init__(q)
        if not self.eigenvalues[-1] > _SPD_MIN_EIG * self.eigenvalues[0]:
            raise InputError("ellipsoid Q is not positive definite (eigenvalue ratio <= 1e-10)")

    def _slack(self, x):
        """The one row x'Qx - 1 per column of x, held against 2*tol."""
        qx = self.Q @ x
        qx *= x
        return (np.sum(qx, axis=0) - 1.0)[None, :]

    def _band(self, x, tol: float):
        return 2.0 * tol

    def sample(self, count: int, rng, tol: float) -> np.ndarray:
        vecs = self.eigenvectors
        inv_half = vecs @ np.diag(1.0 / np.sqrt(self.eigenvalues)) @ vecs.T
        y = _unit_rows(rng, count, self.dim) @ inv_half.T
        return y / np.sqrt(np.sum(y * (y @ self.Q.T), axis=1))[:, None]


class LorenzCone(_Quadric):
    """One branch of {x : x'Qx <= 0} for Q with a single negative eigenvalue.

    The branch is the side where x'Q u_n <= 0 (equivalently u_n'x >= 0).
    u_n is the negative-eigenvalue eigenvector itself, signed as the given
    u_n (whose cosine with it must be 1 - 1e-6 or more in size) or else with
    its largest-magnitude entry positive; that sign is part of the serialized form.
    """

    TAG = "lorenz"
    FIELDS = ("Q", "u_n")

    def __init__(self, q, u_n=None):
        super().__init__(q)
        w = self.eigenvalues
        negatives = int(np.sum(w < -1e-10))
        near_zero = int(np.sum(np.abs(w) <= 1e-10))
        if negatives != 1 or near_zero != 0:
            raise InputError(
                f"cone matrix needs exactly one negative eigenvalue and none "
                f"near zero (got {negatives} negative, {near_zero} near zero)")
        axis = self.eigenvectors[:, -1]  # eigenvalues descending, signed by canonical_sign
        cos = 1.0
        if u_n is not None:
            u = as_point(self, u_n, "u_n")
            nrm = np.linalg.norm(u)
            if nrm < 1e-12:
                raise InputError("u_n is numerically zero")
            cos = float(u @ axis) / nrm
            if abs(cos) < 1.0 - 1e-6:
                raise InputError("u_n is not the negative-eigenvalue eigenvector")
        self.u_n = math.copysign(1.0, cos) * axis + 0.0  # the one copy of the axis
        self._qu = self.Q @ self.u_n

    def _slack(self, x):
        """The rows x'Qx/(1 + |x|^2), then x'Q u_n/(1 + |x|), per column of
        x, each held against tol."""
        nrm2 = np.sum(x * x, axis=0)
        qx = self.Q @ x
        qx *= x
        out = np.empty((2, x.shape[1]))
        np.divide(np.sum(qx, axis=0), 1.0 + nrm2, out=out[0])
        np.divide(self._qu @ x, 1.0 + np.sqrt(nrm2), out=out[1])
        return out

    def sample(self, count: int, rng, tol: float) -> np.ndarray:
        n = self.dim
        if n == 1:  # the half-line's boundary is its apex alone
            return np.zeros((count, 1))
        pos = self.eigenvectors[:, :n - 1] / np.sqrt(self.eigenvalues[:n - 1])
        pts = _unit_rows(rng, count - 1, n - 1) @ pos.T + self.u_n / np.sqrt(-self.eigenvalues[-1])
        return np.vstack([np.zeros(n), pts / np.linalg.norm(pts, axis=1)[:, None]])

    @staticmethod
    def at_apex(x):
        """Whether x (each column of x) is the apex: norm at most 1e-10."""
        return np.linalg.norm(x, axis=0) <= 1e-10

    def tangent_test(self, x, y, tol: float):
        """One row Qx on the surface; at the apex the tangent cone is the
        cone itself, so there the residual is the cone's own violation of y,
        refuting above max(tol, _ROUNDING) as flux_residual does."""
        inside, residual = super().tangent_test(x, y, tol)
        apex = self.at_apex(x)
        if np.any(apex):
            residual[apex] = outside_violation_batch(self, y[:, apex])
            inside[apex] = residual[apex] <= max(tol, _ROUNDING)
        return inside, residual


ConvexSet = HPolyhedron | VPolytope | VCone | Ellipsoid | LorenzCone

FAMILIES = {cls.TAG: cls for cls in (HPolyhedron, Orthant, VPolytope, VCone, Ellipsoid,
                                     LorenzCone)}


orthant_h = Orthant  # the orthant's halfspace form, beside orthant_v


def orthant_v(n: int) -> VCone:
    """Nonnegative orthant of R^n generated by the standard basis rays."""
    return VCone(np.eye(_check_dim(n, "n")))


def membership(s: ConvexSet, x, tol: float = DEFAULT_TOL):
    """Classify a point as inside, boundary, or outside of the set; given
    points as the columns of an n x N array, an array with the class of each.

    Outside when a slack exceeds its band, boundary when a face row is
    within it, inside otherwise. Each defining inequality carries a band of
    tol relative to its right-hand side. Vertex and ray forms hold their
    facets and equality rows against tol*scale(x), at least
    _FACE_TOL*|lift(x)|, with "inside" meaning the relative interior; a form
    above the facet cap (_FACET_RAYS) is decided by the LP feasibility of
    the combination coefficients. A bad tol or x is an InputError.
    """
    _check_real(tol, "tol", nonnegative=True)
    x = as_point(s, x, "x", batch=True)
    pts = x if x.ndim == 2 else x[:, None]  # a single point is a one-column batch
    slack, band = s._slack(pts), s._band(pts, tol)
    cls = _CLASSES[np.where(np.any(slack > band, axis=0), 2,
                            np.where(np.any(slack[:s._faces] >= -band, axis=0), 1, 0))]
    return cls[0] if x.ndim == 1 else cls


def active_constraints(p: HPolyhedron, x, tol: float = DEFAULT_TOL) -> list[int]:
    """Indices of rows holding with equality at x, within the band tol
    (empty for interior points); InputError for a bad tol or a set with no
    rows, one that is not a halfspace form."""
    if not isinstance(p, HPolyhedron):
        raise InputError(f"active constraints are rows of a halfspace form, "
                         f"not of a {type(p).__name__}")
    _check_real(tol, "tol", nonnegative=True)
    return np.flatnonzero(p._binding(as_point(p, x, "x")[:, None], tol)[:, 0]).tolist()


def outside_violation_batch(s: ConvexSet, states) -> np.ndarray:
    """Scale-adjusted amount by which each column of states (shape n x N)
    violates the set's description: its largest slack, 0 if none is positive.

    For vertex/ray forms the slacks are minus the facet values (a
    barycentric coordinate for a simplex) and the distance from the
    generators' span, in one product for all columns. Only a form above the
    facet cap (_FACET_RAYS) solves the membership LP column by column.
    """
    return s._slack(np.asarray(states, dtype=float)).max(axis=0, initial=0.0)


def _unit_rows(rng, rows, cols):
    u = rng.normal(size=(rows, cols))
    norms = np.linalg.norm(u, axis=1)
    for k in np.nonzero(norms < 1e-12)[0]:
        u[k] = 0.0
        u[k, 0] = 1.0
        norms[k] = 1.0
    return u / norms[:, None]


def sample_boundary(s: ConvexSet, count: int, seed: int,
                    tol: float = DEFAULT_TOL) -> list[BoundaryPoint]:
    """Deterministic boundary samples driven entirely by the seed.

    Ellipsoid: random directions mapped through the inverse square root of Q
    and rescaled onto the unit quadric. Quadratic cone: the apex first, then
    unit-norm points of the surface built from its spectral factorization.
    Halfspace form: per-facet anchors found by LP (the orthant's are the
    points 1 - e_i), each moved a random distance along its facet, up to
    the nearest other facet. Vertex forms:
    the vertices (rays) on the relative boundary first, then random convex
    (conic, at unit norm) combinations of one facet's generators, boundary
    points by construction. A vertex form above the facet cap (_FACET_RAYS)
    draws two-point combinations instead and keeps those the membership LP
    calls boundary. A bad count, seed or tol is an InputError.
    """
    _check_sampling(count, seed, tol, "count")
    return [BoundaryPoint(p) for p in s.sample(count, np.random.default_rng(seed), tol)]

