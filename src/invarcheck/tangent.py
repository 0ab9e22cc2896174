"""Tangent cones at boundary points and membership of directions in them.

At an interior point the tangent cone is the whole space. On a facet of a
halfspace form it is the set of directions with nonpositive inner product
against every active row. At a vertex of a polytope it is generated by the
differences to the other vertices with nonnegative coefficients; at an
extreme ray of a cone the ray itself enters with a sign-free coefficient.
On the smooth part of a quadratic surface it is the halfspace under the
outward normal Qx, the same object as the cone on a facet: every halfspace
kind keeps its rows in one payload, normals, which cone_test reads in one
branch. The apex of a quadratic cone is special: the tangent cone there is
the cone itself, represented by a membership-backed kind.
Every cone is read from the point alone: which rows bind, which vertex or
ray the point coincides with, whether it is the apex.

tangent_cone_at is the one constructor of a cone, for every family, and
cone_test tests one direction against it.
first_outside tests a whole batch of sampled points at once: each set
family's tangent_test gives the outward flux of every direction against
the halfspace rows that bind at its point, with facets in place of the
generated cones of vertex and ray forms, and one formula
(sets.flux_residual) judges both paths. Only a vertex or ray form above
the facet cap (sets._FACET_RAYS) still solves one LP per point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InputError, NotMember
from .numerics import as_vector
from .sets import (
    DEFAULT_TOL,
    _ROUNDING,
    ConvexSet,
    HPolyhedron,
    LorenzCone,
    Membership,
    VCone,
    VPolytope,
    _check_tol_seed,
    active_constraints,
    as_point,
    flux_residual,
    membership,
    outside_violation_batch,
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
    holds the binding rows of a halfspace form, "quadratic-halfspace" the
    one row Qx of a quadratic surface, and "fullspace" no rows (0 x n).
    "generated" uses generators rows with nonnegative coefficients plus an
    optional sign-free generator; "cone-itself" defers to membership in
    set_ref (apex case). The payload fixes the dimension n of the directions
    that cone_test accepts.
    """

    kind: str
    normals: np.ndarray | None = None
    generators: np.ndarray | None = None
    free_generator: np.ndarray | None = None
    set_ref: object = None


def tangent_cone_at(s, x, tol: float = DEFAULT_TOL) -> TangentCone:
    """Tangent cone at a boundary point x of any supported set.

    A point that membership puts outside the set is NotMember. Otherwise
    the point is located: the rows binding at it, the first vertex within
    1e-8*(1 + |v|) of it (max norms), the first ray it points along, or the
    apex of a quadratic cone. At vertex i the generators are the edges
    V - V[i] out of it; along ray i they are the other rays, with ray i
    sign-free. Other vertex-form points get the general finitely-generated
    cone (differences to all vertices; all rays plus the point itself
    sign-free), which reduces to the vertex/ray formulas there. A tol that
    is negative or not finite is an InputError.
    """
    if not isinstance(s, ConvexSet):
        raise InputError(f"unsupported set type {type(s).__name__}")
    pt = as_point(s, x)
    if membership(s, pt, tol) is Membership.OUTSIDE:  # membership checks tol too
        raise NotMember("point is outside the set")
    return _cone_at(s, pt, tol)


def _cone_at(s, pt, tol: float) -> TangentCone:
    """tangent_cone_at's cone at pt, unchecked (a sample pays no membership LP)."""
    if isinstance(s, HPolyhedron):
        active = active_constraints(s, pt, tol)
        return TangentCone(HALFSPACES if active else FULLSPACE, normals=s.G[active])
    if isinstance(s, VPolytope):
        v = s.vertices
        at = np.flatnonzero(np.max(np.abs(v - pt), axis=1)
                            <= 1e-8 * (1.0 + np.max(np.abs(v), axis=1)))
        gens = v - (v[at[0]] if at.size else pt)
        return TangentCone(GENERATED, generators=gens[np.max(np.abs(gens), axis=1) > 1e-12])
    if isinstance(s, VCone):
        r = s.rays
        cross = np.linalg.norm(pt) * np.linalg.norm(r, axis=1)
        along = np.flatnonzero((cross > 0) & (r @ pt >= (1.0 - 1e-10) * cross))[:1]
        return TangentCone(GENERATED, generators=np.delete(r, along, axis=0),
                           free_generator=r[along[0]].copy() if along.size else pt)
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
    to tol*(1 + ||y||). The apex kind uses the cone's own violation measure,
    refuting only above max(tol, _ROUNDING) as flux_residual does.
    A y of another dimension than the cone's is a DimensionMismatch, and a
    tol that is negative or not finite an InputError.
    """
    _check_tol_seed(tol)
    y = as_vector(y, "y")
    n = t.set_ref.dim if t.kind == SELF_CONE else (
        t.generators if t.kind == GENERATED else t.normals).shape[1]
    if y.shape[0] != n:
        raise DimensionMismatch(f"direction has dimension {y.shape[0]}, cone has {n}")
    if t.kind in (FULLSPACE, HALFSPACES, QUADRATIC):
        inside, worst = flux_residual((t.normals @ y)[:, None],
                                      np.linalg.norm(t.normals, axis=1)[:, None],
                                      np.linalg.norm(y), tol)
        return bool(inside[0]), float(worst[0])
    if t.kind == GENERATED:
        cols = [t.generators.T]
        free: tuple[int, ...] = ()
        if t.free_generator is not None:
            cols.append(t.free_generator.reshape(-1, 1))
            free = (t.generators.shape[0],)
        opt, _ = phase_one_feasibility(np.hstack(cols), y, free)
        return opt <= tol * (1.0 + float(np.linalg.norm(y))), float(opt)
    if t.kind == SELF_CONE:
        violation = float(outside_violation_batch(t.set_ref, y[:, None])[0])
        return bool(violation <= max(tol, _ROUNDING)), violation
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
