"""Metric cones over a chart: construction, lifts, and identity residuals.

The cone over a base chart (dim 2n+1) is realised as an ordinary chart of
dimension 2n+2 with coordinates (base coords, r) and block metric

    g_cone = dr^2 + r^2 g_base,

so all of the generic tensor machinery applies unchanged.  Identity checks
are deliberately dual-path: left-hand sides come from the cone chart's own
connection and curvature, right-hand sides from base-chart quantities plus
explicit powers of r.  Nothing is tautological.  The cone is nothing but
that chart: its caller keeps the base chart it was built from and passes it
wherever base quantities are needed.  Every residual kernel takes the cone
geometry and the base geometry its caller built, so one suite evaluates all
of its identities on one pair of jet points.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .chart import ManifoldChart, jet_point
from .geometry import (
    PointGeometry,
    constant_tensor,
    frame_norm,
    interior_product,
    tvalues,
)


# radial range of every catalog cone; the apex r = 0 is excluded
R_RANGE = (0.25, 4.0)


def build_cone(base: ManifoldChart) -> ManifoldChart:
    """The cone over `base` as a chart of one more dimension, r last; it does
    not keep `base`, which its caller already holds."""
    d = base.dim

    def cone_metric(x):
        gb = base.metric(x[:d])
        r2 = x[d] * x[d]
        out = [[0.0] * (d + 1) for _ in range(d + 1)]
        for i in range(d):
            for j in range(d):
                out[i][j] = r2 * gb[i][j]
        out[d][d] = 1.0
        return out

    return ManifoldChart(
        dim=d + 1,
        coords=base.coords + ("r",),
        domain=base.domain + (R_RANGE,),
        periodic=base.periodic + (None,),
        metric=cone_metric,
        label=f"cone({base.label})",
    )


# -- lifts --------------------------------------------------------------------


def lift_form(base_fn: Callable, degree: int) -> Callable:
    """Pull a base p-form (p >= 1) back along the projection, dr parts zero."""

    def fn(x):
        comps = base_fn(x[:-1])
        like = comps.flat[0]
        out = constant_tensor(np.zeros((like.batch,) + (len(x),) * degree),
                              like.dim, like.order)
        out[(slice(0, len(x) - 1),) * degree] = comps
        return out

    return fn


# -- residual kernels ---------------------------------------------------------
#
# The kernels below take the cone geometry `geo` and the base geometry `bgeo`
# at the same batched base points (cone_geometry and base_geometry), plus
# constant direction components, and return per-sample residual magnitudes
# measured with frame_norm on the cone.  The radii are the values of the
# cone's radial coordinate jet.


def cone_geometry(cone: ManifoldChart, base_pts, radii, order):
    pts = np.column_stack([np.atleast_2d(base_pts), np.asarray(radii, float)])
    return PointGeometry(cone, jet_point(cone, pts, order))


def base_geometry(base: ManifoldChart, base_pts, order):
    return PointGeometry(base, jet_point(base, base_pts, order))


def connection_relation_residuals(geo, bgeo, dir_x, dir_y):
    """Residuals of the five vector-level cone connection identities."""
    d = bgeo.dim
    r = geo.x[-1].value
    B = len(r)

    X = np.column_stack([dir_x, np.zeros(B)])
    Y = np.column_stack([dir_y, np.zeros(B)])
    dr_vec = np.zeros((B, d + 1))
    dr_vec[:, d] = 1.0

    nab = {}
    for name, vals in (("x", X), ("y", Y), ("dr", dr_vec)):
        fld = constant_tensor(vals, geo.dim, geo.order)
        nab[name] = tvalues(geo.covd(fld, (1, 0)))  # (B, m, a)

    res = {}
    # nab_dr dr = 0
    res["radial-geodesic"] = frame_norm(geo, nab["dr"][:, d, :], "u")
    # nab_X dr = X / r
    lhs = np.einsum("bm,bma->ba", X, nab["dr"])
    res["radial-lift"] = frame_norm(geo, lhs - X / r[:, None], "u")
    # nab_dr X = X / r
    res["radial-transport"] = frame_norm(geo, nab["x"][:, d, :] - X / r[:, None], "u")
    # torsion symmetry of the two mixed derivatives
    res["mixed-symmetry"] = frame_norm(geo, nab["x"][:, d, :] - lhs, "u")
    # nab_X Y = nab^base_X Y - r g(X,Y) dr
    base_nab = tvalues(bgeo.covd(constant_tensor(dir_y, bgeo.dim, bgeo.order), (1, 0)))
    nab_xy_base = np.einsum("bm,bma->ba", dir_x, base_nab)
    gb = bgeo.g_values
    gxy = np.einsum("bi,bij,bj->b", dir_x, gb, dir_y)
    rhs = np.zeros((B, d + 1))
    rhs[:, :d] = nab_xy_base
    rhs[:, d] = -r * gxy
    lhs = np.einsum("bm,bma->ba", X, nab["y"])
    res["horizontal-connection"] = frame_norm(geo, lhs - rhs, "u")
    return res


def form_relation_residuals(geo, bgeo, dir_x, base_form_fn, degree):
    """Residuals of both lifted-form derivative identities for one p-form."""
    d = bgeo.dim
    r = geo.x[-1].value
    B = len(r)
    sig = "l" * degree

    lifted = lift_form(base_form_fn, degree)
    omega_cone = lifted(geo.x)
    nab = tvalues(geo.covd(omega_cone, (0, degree)))  # (B, m, idx...)
    omega_vals = tvalues(omega_cone)

    # nab_dr omega = -(p/r) omega
    lhs_r = nab[:, d]
    scale = (degree / r).reshape((B,) + (1,) * degree)
    res_radial = frame_norm(geo, lhs_r + scale * omega_vals, sig)

    # nab_X omega = nab^base_X omega - (1/r) dr wedge (X i omega)
    base_omega = base_form_fn(bgeo.x)
    base_nab = tvalues(bgeo.covd(base_omega, (0, degree)))
    lhs = np.einsum("bm,bm...->b...", dir_x, nab[:, :d])

    rhs = np.zeros((B,) + (d + 1,) * degree)
    base_part = np.einsum("bm,bm...->b...", dir_x, base_nab)
    core = (slice(None),) + (slice(0, d),) * degree
    rhs[core] = base_part

    # wedge term, assembled at value level
    xvec = constant_tensor(dir_x, bgeo.dim, bgeo.order)
    int_vals = tvalues(interior_product(xvec, base_omega))  # (B,) + (d,)*(degree-1)
    # one slice per slot m: d there, the base indices everywhere else
    r_b = r.reshape((B,) + (1,) * (degree - 1))
    for m in range(degree):
        rhs[core[:m + 1] + (d,) + core[m + 2:]] -= (-1.0) ** m * int_vals / r_b
    res_dir = frame_norm(geo, lhs - rhs, sig)
    return {"form-radial": res_radial, "form-directional": res_dir}


def dr_relation_residuals(geo, bgeo, dir_x):
    """Residuals of both identities for the exact radial 1-form dr."""
    d = bgeo.dim
    r = geo.x[-1].value
    B = len(r)

    dr_vals = np.zeros((B, d + 1))
    dr_vals[:, d] = 1.0
    nab = tvalues(geo.covd(constant_tensor(dr_vals, geo.dim, geo.order), (0, 1)))
    res_radial = frame_norm(geo, nab[:, d, :], "l")

    lhs = np.einsum("bm,bmi->bi", np.column_stack([dir_x, np.zeros(B)]), nab)
    flat = np.einsum("bij,bj->bi", bgeo.g_values, dir_x)  # base X-flat
    rhs = np.zeros((B, d + 1))
    rhs[:, :d] = r[:, None] * flat
    res_dir = frame_norm(geo, lhs - rhs, "l")
    return {"dr-radial": res_radial, "dr-hessian": res_dir}


def curvature_relation_residuals(geo, bgeo, dir_x, dir_y, dir_z):
    """Residuals of both curvature identities relating cone and base."""
    d = bgeo.dim
    B = len(dir_x)

    R_cone = tvalues(geo.riemann)  # (B, a, i, j, k)
    X = np.column_stack([dir_x, np.zeros(B)])
    Y = np.column_stack([dir_y, np.zeros(B)])
    Z = np.column_stack([dir_z, np.zeros(B)])

    # R(dr, X) Y = 0
    radial = np.einsum("bajk,bj,bk->ba", R_cone[:, :, d, :, :], X, Y)
    res_radial = frame_norm(geo, radial, "u")

    lhs = np.einsum("baijk,bi,bj,bk->ba", R_cone, X, Y, Z)
    R_base = tvalues(bgeo.riemann)
    base_part = np.einsum("baijk,bi,bj,bk->ba", R_base, dir_x, dir_y, dir_z)
    gb = bgeo.g_values
    gxz = np.einsum("bi,bij,bj->b", dir_x, gb, dir_z)
    gyz = np.einsum("bi,bij,bj->b", dir_y, gb, dir_z)
    rhs = np.zeros((B, d + 1))
    rhs[:, :d] = base_part + gxz[:, None] * dir_y - gyz[:, None] * dir_x
    res_dir = frame_norm(geo, lhs - rhs, "u")
    return {"curvature-radial": res_radial, "curvature-horizontal": res_dir}


def lemma_codifferential_residuals(geo, bgeo, sigma_base_fn, k):
    """|delta_cone(r^k sigma) - r^{k-2} delta_base(sigma)| per sample."""
    r = geo.x[-1].value

    def weighted(x):
        sig = lift_form(sigma_base_fn, 1)(x)
        rk = x[-1] ** k
        return np.array([rk * s for s in sig], dtype=object)

    lhs = geo.codifferential_oneform(weighted(geo.x)).value
    rhs = bgeo.codifferential_oneform(sigma_base_fn(bgeo.x)).value * r ** (k - 2)
    return np.abs(lhs - rhs), lhs, rhs


def lemma_laplacian_residuals(geo, bgeo, f_base_fn, k):
    """|Lap_cone(r^k f) - r^{k-2}(Lap_base f - k(2n+k) f)| per sample."""
    n = (bgeo.dim - 1) // 2
    r = geo.x[-1].value

    f_cone = f_base_fn(geo.x[:-1]) * (geo.x[-1] ** k)
    lhs = geo.laplacian_scalar(f_cone).value
    f_base = f_base_fn(bgeo.x)
    rhs = (bgeo.laplacian_scalar(f_base).value
           - k * (2 * n + k) * f_base.value) * r ** (k - 2)
    return np.abs(lhs - rhs), lhs, rhs


def block_metric_residuals(base: ManifoldChart, base_pts, radii):
    """Literal check of the block structure of the cone that build_cone
    makes over `base`."""
    pts = np.column_stack([np.atleast_2d(base_pts), np.asarray(radii, float)])
    gc = build_cone(base).metric_values(pts)
    gb = base.metric_values(np.atleast_2d(base_pts))
    r = np.asarray(radii, float)
    d = base.dim
    res_rr = np.abs(gc[:, d, d] - 1.0)
    res_mixed = np.max(np.abs(gc[:, d, :d]), axis=1)
    res_base = np.max(np.abs(gc[:, :d, :d] - r[:, None, None] ** 2 * gb), axis=(1, 2))
    return np.maximum(res_rr, np.maximum(res_mixed, res_base))
