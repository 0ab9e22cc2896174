"""Tangent cones at boundary points and membership of directions in them.

At an interior point the tangent cone is the whole space. On the boundary
of a polyhedron it is the set of directions with nonpositive inner product
against every row that binds there: the rows of a halfspace form, or the
facets and equality rows of a vertex or ray form, within the band. On the
smooth part of a quadratic surface it is the halfspace under the outward
normal Qx. Every halfspace kind keeps its rows in one payload, normals,
which cone_test reads in one branch. At the apex of a quadratic cone the
tangent cone is the cone itself, which cone_test hands to the cone's own
tangent_test at the apex. Only a vertex
or ray form above the facet cap (sets._FACET_RAYS) gets a generated cone,
tested by an LP: the differences to all vertices, or all rays plus the
point sign-free. Every cone is read from the point alone.

tangent_cone_at is the one constructor of a cone, for every family, and
cone_test tests one direction against it. first_outside tests a whole
batch of sampled points at once through each family's tangent_test, which
reads the rows tangent_cone_at holds, and one formula (sets.flux_residual)
judges both paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotMember
from .numerics import _check_real, as_point
from .sets import (
    DEFAULT_TOL,
    ConvexSet,
    HPolyhedron,
    LorenzCone,
    Membership,
    VCone,
    VPolytope,
    flux_residual,
    membership,
)
from .solvers import phase_one_feasibility

FULLSPACE = "fullspace"
HALFSPACES = "halfspaces"
GENERATED = "generated"
QUADRATIC = "quadratic-halfspace"
SELF_CONE = "cone-itself"


@dataclass
class TangentCone:
    """Local cone of admissible directions at a boundary point.

    kind selects the payload. The halfspace kinds keep their rows g in
    normals (k x n), and the cone is g'y <= 0 for all of them: "halfspaces"
    holds the binding rows of a halfspace, vertex or ray form,
    "quadratic-halfspace" the one row Qx of a quadratic surface, and
    "fullspace" no rows (0 x n). "generated" (a vertex or ray form above
    the facet cap) uses generators rows with nonnegative coefficients plus
    an optional sign-free generator; "cone-itself" defers to set_ref's
    tangent_test at the apex. The payload fixes dim, the dimension of the
    directions that cone_test accepts.
    """

    kind: str
    normals: np.ndarray | None = None
    generators: np.ndarray | None = None
    free_generator: np.ndarray | None = None
    set_ref: object = None

    @property
    def dim(self) -> int:
        payload = self.generators if self.kind == GENERATED else self.normals
        return self.set_ref.dim if self.kind == SELF_CONE else payload.shape[1]


def tangent_cone_at(s, x, tol: float = DEFAULT_TOL) -> TangentCone:
    """Tangent cone at a boundary point x of any supported set.

    A point that membership puts outside the set is NotMember. Otherwise
    the cone is read from the point: the rows binding at it (a vertex or
    ray form's are the rows its tangent_test reads, so the two agree), the
    apex of a quadratic cone, or, for a vertex or ray form above the facet
    cap, the general finitely-generated cone (differences to all vertices;
    all rays plus the point itself sign-free). A bad tol or x is an InputError.
    """
    if not isinstance(s, ConvexSet):
        raise InputError(f"unsupported set type {type(s).__name__}")
    pt = as_point(s, x, "x")
    if membership(s, pt, tol) is Membership.OUTSIDE:  # membership checks tol too
        raise NotMember("point is outside the set")
    return _cone_at(s, pt, tol)


def _cone_at(s, pt, tol: float) -> TangentCone:
    """tangent_cone_at's cone at pt, unchecked (a sample pays no membership LP)."""
    if isinstance(s, HPolyhedron):
        active = s._binding(pt[:, None], tol)[:, 0]
        return TangentCone(HALFSPACES if active.any() else FULLSPACE, normals=s.G[active])
    if isinstance(s, (VPolytope, VCone)):
        bound = s._rows(pt[:, None], tol)
        if bound is not None:
            rows = bound[0][bound[1][:, 0]]
            return TangentCone(HALFSPACES if rows.size else FULLSPACE, normals=rows)
        if isinstance(s, VPolytope):
            return TangentCone(GENERATED, generators=s.vertices - pt)
        return TangentCone(GENERATED, generators=s.rays, free_generator=pt)
    if isinstance(s, LorenzCone) and s.at_apex(pt):
        return TangentCone(SELF_CONE, set_ref=s)
    return TangentCone(QUADRATIC, normals=(s.Q @ pt)[None, :])


def cone_test(t: TangentCone, y, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether direction y lies in the tangent cone within tol, and by how
    much it misses.

    The halfspace kinds (fullspace, halfspaces, quadratic-halfspace) test
    every row of normals against tol scaled by the norms; the residual is
    the largest normalized inner product, 0 without rows. Generated kinds
    solve the coefficient feasibility LP once and accept an L1 residual up
    to tol*(1 + ||y||). The apex kind is the set's own tangent_test at the
    apex, which holds y against the cone itself.
    A y of another dimension than the cone's, or a bad tol, is an InputError.
    """
    _check_real(tol, "tol", nonnegative=True)
    y = as_point(t, y, "y")
    if t.kind in (FULLSPACE, HALFSPACES, QUADRATIC):
        inside, worst = flux_residual((t.normals @ y)[:, None],
                                      np.linalg.norm(t.normals, axis=1)[:, None],
                                      np.linalg.norm(y), tol)
        return bool(inside[0]), float(worst[0])
    if t.kind == GENERATED:
        gens, free = t.generators, ()
        if t.free_generator is not None:
            gens, free = np.vstack([gens, t.free_generator]), (len(gens),)
        opt, _ = phase_one_feasibility(gens.T, y, free)
        return opt <= tol * (1.0 + float(np.linalg.norm(y))), float(opt)
    if t.kind == SELF_CONE:
        inside, residual = t.set_ref.tangent_test(np.zeros((t.dim, 1)), y[:, None], tol)
        return bool(inside[0]), float(residual[0])
    raise InputError(f"unknown tangent cone kind {t.kind!r}")


def first_outside(s, points, y, tol: float = DEFAULT_TOL) -> tuple[int, float] | None:
    """The first sampled point whose direction leaves its tangent cone.

    points holds boundary points as columns, and column k of y is the
    direction at point k (finite). What binds at each point is read from
    the point within the band tol. Returns (k, residual) for the lowest such
    k, or None when every direction passes within tol. All points are tested
    at once through the set's tangent_test, whose residual is
    flux_residual's; a vertex or ray form without enumerated facets tests
    point by point with tangent_cone_at's cone and cone_test's LP, stopping
    at the first miss.
    """
    tested = s.tangent_test(points, y, tol)
    if tested is None:
        for k in range(points.shape[1]):
            inside, residual = cone_test(_cone_at(s, points[:, k], tol), y[:, k], tol)
            if not inside:
                return k, residual
        return None
    inside, residual = tested
    out = np.flatnonzero(~inside)
    return (int(out[0]), float(residual[out[0]])) if out.size else None


def cone_contains(t: TangentCone, y, tol: float = DEFAULT_TOL) -> bool:
    """Whether direction y lies in the tangent cone, within tolerance (see
    cone_test)."""
    return cone_test(t, y, tol)[0]
