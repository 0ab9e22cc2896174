"""Numpy-only re-checks of the program's outputs.

Each instance's ``oracle`` record describes its set in coordinates where
the geometry is explicit (halfspaces, a 1-norm ball, barycentric
coordinates, an orthant image, a quadric) and its field in closed form.
``judge`` compares a normalised result against the construction:

- a verdict that contradicts the instance's known answer is wrong;
- a not-invariant witness must lie on the boundary with positive outward
  flux (the field leaves the tangent cone there);
- an eta certificate must pass ``numpy.linalg.eigvalsh``; decomposition
  and facet-LP certificates are re-multiplied;
- a falsifier exit is re-integrated from its start and must end outside.

None of this calls into ``invarcheck``.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-6


def field(osys, x):
    """The instance's vector field at x (shape (n,) or (n, N))."""
    kind = osys["kind"]
    if kind == "linear":
        return osys["A"] @ x
    if kind == "radial":
        if osys["sign"] < 0:
            return -(1.0 + np.sum(x * x, axis=0)) * x
        return (1.5 + 0.5 * np.sin(x[0])) * x
    if kind == "cubic_decay":
        return -x ** 3
    raise ValueError(kind)


def violation(oset, x):
    """Signed distance-like measure: <= 0 inside, > 0 outside (relative)."""
    kind = oset["kind"]
    nx = float(np.linalg.norm(x))
    if kind == "hpoly":
        g, b = oset["G"], oset["b"]
        return float(np.max((g @ x - b) / (1.0 + np.abs(b) + np.linalg.norm(g, axis=1) * nx)))
    if kind == "l1":
        return float(np.sum(np.abs(np.linalg.solve(oset["T"], x))) - 1.0)
    if kind == "simplex":
        return float(-np.min(_bary(oset["V"], x)))
    if kind == "orthant":
        y = np.linalg.solve(oset["T"], x)
        return float(-np.min(y) / (1.0 + float(np.linalg.norm(y))))
    if kind == "ellipsoid":
        return float(x @ oset["Q"] @ x - 1.0)
    if kind == "lorenz":
        q = oset["Q"]
        return max(float(x @ q @ x) / (1.0 + nx * nx), float(x @ q @ oset["u"]) / (1.0 + nx))
    raise ValueError(kind)


def _bary(v, x):
    """Barycentric coordinates of x in the simplex with vertex rows v."""
    n = v.shape[1]
    m = np.vstack([v.T, np.ones((1, n + 1))])
    return np.linalg.solve(m, np.concatenate([x, [1.0]]))


def outward_flux(oset, x, f):
    """Largest rate at which the field f pushes x across an active face;
    positive means the trajectory leaves the set immediately."""
    kind = oset["kind"]
    nf = float(np.linalg.norm(f))
    if kind == "hpoly":
        g, b = oset["G"], oset["b"]
        ng = np.linalg.norm(g, axis=1)
        slack = g @ x - b
        active = np.abs(slack) <= TOL * (1.0 + np.abs(b) + ng * float(np.linalg.norm(x)))
        if not np.any(active):
            return -np.inf
        return float(np.max((g[active] @ f) / (ng[active] * (1.0 + nf))))
    if kind == "l1":
        y = np.linalg.solve(oset["T"], x)
        d = np.linalg.solve(oset["T"], f)
        zero = np.abs(y) <= TOL
        rate = float(np.sum(np.sign(y[~zero]) * d[~zero]) + np.sum(np.abs(d[zero])))
        return rate / (1.0 + float(np.linalg.norm(d)))
    if kind == "simplex":
        v = oset["V"]
        lam = _bary(v, x)
        m = np.vstack([v.T, np.ones((1, v.shape[0]))])
        dlam = np.linalg.solve(m, np.concatenate([f, [0.0]]))
        active = lam <= TOL
        if not np.any(active):
            return -np.inf
        return float(np.max(-dlam[active]) / (1.0 + float(np.linalg.norm(dlam))))
    if kind == "orthant":
        y = np.linalg.solve(oset["T"], x)
        d = np.linalg.solve(oset["T"], f)
        active = y <= TOL * (1.0 + float(np.linalg.norm(y)))
        if not np.any(active):
            return -np.inf
        return float(np.max(-d[active]) / (1.0 + float(np.linalg.norm(d))))
    if kind in ("ellipsoid", "lorenz"):
        grad = oset["Q"] @ x
        return float(grad @ f) / (1.0 + float(np.linalg.norm(grad)) * nf)
    raise ValueError(kind)


def on_boundary(oset, x):
    kind = oset["kind"]
    if kind == "lorenz":
        nx = float(np.linalg.norm(x))
        q = oset["Q"]
        return (abs(float(x @ q @ x)) <= TOL * (1.0 + nx * nx)
                and float(x @ q @ oset["u"]) <= TOL * (1.0 + nx))
    if kind == "orthant":
        y = np.linalg.solve(oset["T"], x)
        return abs(float(np.min(y))) <= TOL * (1.0 + float(np.linalg.norm(y)))
    return abs(violation(oset, x)) <= TOL


def _rk4(osys, x, step, nsteps):
    for _ in range(nsteps):
        k1 = field(osys, x)
        k2 = field(osys, x + 0.5 * step * k1)
        k3 = field(osys, x + 0.5 * step * k2)
        k4 = field(osys, x + step * k3)
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _generators(inst):
    """Vertex or ray rows of a V-form instance, in the order the program saw them."""
    if inst["set"] is not None:
        d = inst["set"]
        return np.asarray(d["vertices"] if d["type"] == "vpolytope" else d["rays"], dtype=float)
    oset = inst["oracle"]["set"]  # shipped problem files
    return oset["V"] if oset["kind"] == "simplex" else oset["T"].T


def _check_certificate(inst, cert):
    """Problems with an invariance certificate, as a list of strings."""
    oset, osys = inst["oracle"]["set"], inst["oracle"]["system"]
    kind, data = cert["kind"], cert["data"]
    if kind in ("lyapunov-pencil", "cone-pencil"):
        q, a = oset["Q"], osys["A"]
        m = a.T @ q + q @ a
        eta = float(data["eta"])
        top = float(np.linalg.eigvalsh(0.5 * (m + m.T) - eta * q)[-1])
        scale = 1.0 + float(np.linalg.norm(m)) + abs(eta) * float(np.linalg.norm(q))
        bad = [] if top <= 1e-7 * scale else [f"{kind}: max eig {top:.3e} > 0"]
        if kind == "lyapunov-pencil" and eta > 1e-7 * scale:
            bad.append(f"lyapunov-pencil: eta {eta:.3e} > 0")
        return bad
    if kind in ("vertex-decomposition", "ray-decomposition"):
        gens = _generators(inst)
        bad = []
        for rec in data["vertices" if kind[0] == "v" else "rays"]:
            i, alpha = rec["index"], np.asarray(rec["alpha"])
            f = field(osys, gens[i])
            resid = float(np.max(np.abs(gens.T @ alpha - f)))
            others = np.delete(alpha, i)
            sum_ok = kind[0] == "r" or abs(float(np.sum(alpha))) <= 1e-7 * (1.0 + np.abs(alpha).sum())
            if resid > 1e-7 * (1.0 + float(np.max(np.abs(f)))) or not sum_ok or \
                    (others.size and float(others.min()) < -1e-9):
                bad.append(f"{kind}: record {i} does not decompose the field")
        return bad
    if kind == "facet-lp":
        g, b, a = oset["G"], oset["b"], osys["A"]
        bad = []
        for rec in data["facets"]:
            if rec.get("vacuous"):
                continue
            i, x = rec["index"], np.asarray(rec["argmax"])
            flux = float(g[i] @ a @ x)
            scale = 1.0 + float(np.linalg.norm(g[i] @ a)) * float(np.linalg.norm(x))
            if rec["optimum"] > 1e-7 * scale or abs(flux - rec["optimum"]) > 1e-6 * scale:
                bad.append(f"facet-lp: facet {i} optimum {rec['optimum']:.3e} / flux {flux:.3e}")
        return bad
    if kind == "metzler":
        a = osys["A"]
        off = a[~np.eye(a.shape[0], dtype=bool)]
        if off.size and float(off.min()) < -1e-10:
            return ["metzler: negative off-diagonal entry"]
        return []
    return [f"unrecognised certificate kind {kind!r}"]


def judge(inst, result):
    """Problems with one op's normalised result, as a list of strings.

    result: {"decision": "invariant" | "not_invariant" | "unknown",
             "certificate": {...} | None, "counterexample": {"point": ...} | None}
    for check, or {"exit_found": bool, "witness": {"x0", "t_exit"} | None,
    "step": float} for falsify. An empty list means the output is correct.
    """
    oset, osys = inst["oracle"]["set"], inst["oracle"]["system"]
    expect = inst["expect"]
    if inst["op"] == "falsify":
        if not result["exit_found"]:
            return []
        if expect == "invariant":
            return ["falsify reported an exit from an invariant set"]
        x0 = np.asarray(result["witness"]["x0"], dtype=float)
        t_exit = float(result["witness"]["t_exit"])
        step = float(result["step"])
        bad = []
        if violation(oset, x0) > TOL:
            bad.append("falsify witness starts outside the set")
        x_end = _rk4(osys, x0, step, max(1, int(round(t_exit / step))))
        if not violation(oset, x_end) > 0.0:
            bad.append("falsify witness does not leave the set on re-integration")
        return bad
    decision = result["decision"]
    if decision == "unknown":
        return []
    if decision != expect:
        return [f"verdict {decision} contradicts the construction ({expect})"]
    if decision == "invariant":
        cert = result.get("certificate")
        return ["invariant verdict without a certificate"] if cert is None else \
            _check_certificate(inst, cert)
    x = np.asarray(result["counterexample"]["point"], dtype=float)
    bad = []
    if not on_boundary(oset, x):
        bad.append(f"witness is not on the boundary (violation {violation(oset, x):.3e})")
    flux = outward_flux(oset, x, field(osys, x))
    if not flux > 1e-9:
        bad.append(f"witness has no outward flux ({flux:.3e})")
    return bad
