"""Metric cones over a chart: construction, lifts, and identity residuals.

The cone over a base chart (dim 2n+1) is realised as an ordinary chart of
dimension 2n+2 with coordinates (base coords, r) and block metric

    g_cone = dr^2 + r^2 g_base,

so all of the generic tensor machinery applies unchanged.  Identity checks
are deliberately dual-path: left-hand sides come from the cone chart's own
connection and curvature, right-hand sides from base-chart quantities plus
explicit powers of r.  Nothing is tautological.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import ManifoldChart, jet_point
from .errors import ConeCompletionError
from .geometry import (
    PointGeometry,
    interior_product,
    norm_squared,
    tvalues,
)
from .jets import Jet


@dataclass(frozen=True)
class ConeChart:
    """Cone over `base`, realised as the derived chart `chart`."""

    base: ManifoldChart
    r_range: tuple
    chart: ManifoldChart

    @property
    def n(self) -> int:
        return (self.base.dim - 1) // 2

    @property
    def dim(self) -> int:
        return self.base.dim + 1


# radial range of every catalog cone; the apex r = 0 is excluded
R_RANGE = (0.25, 4.0)


def build_cone(base: ManifoldChart, r_range=R_RANGE) -> ConeChart:
    lo, hi = r_range
    if lo <= 0.0:
        raise ConeCompletionError(
            "radial range must stay inside (0, inf); the apex is excluded")
    d = base.dim

    def cone_metric(x):
        gb = base.metric(x[:d])
        r2 = x[d] * x[d]
        out = [[0.0] * (d + 1) for _ in range(d + 1)]
        for i in range(d):
            for j in range(d):
                out[i][j] = r2 * gb[i][j]
        out[d][d] = _one_like(x[d])
        return out

    chart = ManifoldChart(
        dim=d + 1,
        coords=base.coords + ("r",),
        domain=base.domain + ((lo, hi),),
        periodic=base.periodic + (None,),
        metric=cone_metric,
        label=f"cone({base.label})",
    )
    return ConeChart(base, (lo, hi), chart)


def _one_like(v):
    if isinstance(v, Jet):
        return Jet.constant(np.ones(v.batch), v.dim, v.order)
    return np.ones_like(np.asarray(v, float))


def _zero(like: Jet) -> Jet:
    return Jet.constant(np.zeros(like.batch), like.dim, like.order)


# -- lifts --------------------------------------------------------------------


def lift_form(base_fn: Callable, degree: int) -> Callable:
    """Pull a base p-form back along the projection (zero dr components)."""

    def fn(x):
        comps = base_fn(x[:-1])
        d = len(x)
        if degree == 0:
            return comps
        out = np.empty((d,) * degree, object)
        zero = None
        for idx in np.ndindex(*out.shape):
            if all(i < d - 1 for i in idx):
                out[idx] = comps[idx]
            else:
                if zero is None:
                    zero = _zero(comps[(0,) * degree])
                out[idx] = zero
        return out

    return fn


# -- residual kernels ---------------------------------------------------------
#
# All functions below take batched base points / radii / constant direction
# components and return per-sample residual magnitudes measured with the
# frozen orthonormal-frame tensor norm on the cone.


def cone_geometry(cone: ConeChart, base_pts, radii, order):
    pts = np.column_stack([np.atleast_2d(base_pts), np.asarray(radii, float)])
    return PointGeometry(cone.chart, jet_point(cone.chart, pts, order))


def base_geometry(cone: ConeChart, base_pts, order):
    return PointGeometry(cone.base, jet_point(cone.base, base_pts, order))


def _vec_norm(geo, comps_vals):
    return np.sqrt(np.abs(norm_squared(geo.g_values, geo.ginv_values, comps_vals, "u")))


def _form_norm(geo, comps_vals, rank):
    return np.sqrt(np.abs(norm_squared(geo.g_values, geo.ginv_values, comps_vals, "l" * rank)))


def connection_relation_residuals(cone, base_pts, radii, dir_x, dir_y,
                                  geo=None, bgeo=None):
    """Residuals of the five vector-level cone connection identities."""
    geo = geo or cone_geometry(cone, base_pts, radii, 3)
    bgeo = bgeo or base_geometry(cone, base_pts, 3)
    d = cone.base.dim
    B = geo.g_values.shape[0]
    r = np.asarray(radii, float)

    def const_cone_field(vals):
        def fn(x):
            out = np.empty(d + 1, object)
            for i in range(d + 1):
                out[i] = Jet.constant(vals[:, i], x[0].dim, x[0].order)
            return out
        return fn

    X = np.column_stack([dir_x, np.zeros(B)])
    Y = np.column_stack([dir_y, np.zeros(B)])
    dr_vec = np.zeros((B, d + 1))
    dr_vec[:, d] = 1.0

    nab = {}
    for name, vals in (("x", X), ("y", Y), ("dr", dr_vec)):
        fld = const_cone_field(vals)
        nab[name] = tvalues(geo.covd(fld(geo.x), (1, 0)))  # (B, m, a)

    res = {}
    # nab_dr dr = 0
    res["radial-geodesic"] = _vec_norm(geo, nab["dr"][:, d, :])
    # nab_X dr = X / r
    lhs = np.einsum("bm,bma->ba", X, nab["dr"])
    res["radial-lift"] = _vec_norm(geo, lhs - X / r[:, None])
    # nab_dr X = X / r
    res["radial-transport"] = _vec_norm(geo, nab["x"][:, d, :] - X / r[:, None])
    # torsion symmetry of the two mixed derivatives
    res["mixed-symmetry"] = _vec_norm(geo, nab["x"][:, d, :] - lhs)
    # nab_X Y = nab^base_X Y - r g(X,Y) dr
    base_nab = tvalues(bgeo.covd(_const_base(bgeo, dir_y), (1, 0)))
    nab_xy_base = np.einsum("bm,bma->ba", dir_x, base_nab)
    gb = bgeo.g_values
    gxy = np.einsum("bi,bij,bj->b", dir_x, gb, dir_y)
    rhs = np.zeros((B, d + 1))
    rhs[:, :d] = nab_xy_base
    rhs[:, d] = -r * gxy
    lhs = np.einsum("bm,bma->ba", X, nab["y"])
    res["horizontal-connection"] = _vec_norm(geo, lhs - rhs)
    return res


def _const_base(bgeo, comps):
    B, d = comps.shape
    out = np.empty(d, object)
    for i in range(d):
        out[i] = Jet.constant(comps[:, i], bgeo.x[0].dim, bgeo.x[0].order)
    return out


def form_relation_residuals(cone, base_pts, radii, dir_x, base_form_fn,
                            degree, geo=None, bgeo=None):
    """Residuals of both lifted-form derivative identities for one p-form."""
    geo = geo or cone_geometry(cone, base_pts, radii, 3)
    bgeo = bgeo or base_geometry(cone, base_pts, 3)
    d = cone.base.dim
    B = geo.g_values.shape[0]
    r = np.asarray(radii, float)

    lifted = lift_form(base_form_fn, degree)
    omega_cone = lifted(geo.x)
    nab = tvalues(geo.covd(omega_cone, (0, degree)))  # (B, m, idx...)
    omega_vals = tvalues(omega_cone)

    # nab_dr omega = -(p/r) omega
    lhs_r = nab[:, d]
    scale = (degree / r).reshape((B,) + (1,) * degree)
    res_radial = _form_norm(geo, lhs_r + scale * omega_vals, degree)

    # nab_X omega = nab^base_X omega - (1/r) dr wedge (X i omega)
    base_omega = base_form_fn(bgeo.x)
    base_nab = tvalues(bgeo.covd(base_omega, (0, degree)))
    lhs = np.einsum("bm,bm...->b...", dir_x, nab[:, :d])

    rhs = np.zeros((B,) + (d + 1,) * degree)
    base_part = np.einsum("bm,bm...->b...", dir_x, base_nab)
    core = (slice(None),) + (slice(0, d),) * degree
    rhs[core] = base_part

    # wedge term, assembled at value level
    xvec = _const_base(bgeo, dir_x)
    contracted = interior_product(xvec, base_omega, degree)
    if degree == 1:
        # X i omega is a function f, and dr ^ f is just f dr
        interior_vals = tvalues(np.array([contracted], dtype=object))[:, 0]
        rhs[:, d] -= interior_vals / r
    else:
        int_vals = tvalues(contracted)  # (B,) + (d,)*(degree-1)
        for idx in np.ndindex(*(d + 1,) * degree):
            positions = [m for m, i in enumerate(idx) if i == d]
            if len(positions) != 1:
                continue
            m = positions[0]
            rest = tuple(i for i in idx if i != d)
            sign = (-1.0) ** m
            rhs[(slice(None),) + idx] -= sign * int_vals[(slice(None),) + rest] / r
    res_dir = _form_norm(geo, lhs - rhs, degree)
    return {"form-radial": res_radial, "form-directional": res_dir}


def dr_relation_residuals(cone, base_pts, radii, dir_x, geo=None, bgeo=None):
    """Residuals of both identities for the exact radial 1-form dr."""
    geo = geo or cone_geometry(cone, base_pts, radii, 2)
    bgeo = bgeo or base_geometry(cone, base_pts, 1)
    d = cone.base.dim
    B = geo.g_values.shape[0]
    r = np.asarray(radii, float)

    def dr_fn(x):
        out = np.empty(d + 1, object)
        for i in range(d + 1):
            out[i] = Jet.constant(np.full(B, 1.0 if i == d else 0.0),
                                  x[0].dim, x[0].order)
        return out

    nab = tvalues(geo.covd(dr_fn(geo.x), (0, 1)))  # (B, m, i)
    res_radial = _form_norm(geo, nab[:, d, :], 1)

    lhs = np.einsum("bm,bmi->bi", np.column_stack([dir_x, np.zeros(B)]), nab)
    flat = np.einsum("bij,bj->bi", bgeo.g_values, dir_x)  # base X-flat
    rhs = np.zeros((B, d + 1))
    rhs[:, :d] = r[:, None] * flat
    res_dir = _form_norm(geo, lhs - rhs, 1)
    return {"dr-radial": res_radial, "dr-hessian": res_dir}


def curvature_relation_residuals(cone, base_pts, radii, dir_x, dir_y, dir_z,
                                 geo=None, bgeo=None):
    """Residuals of both curvature identities relating cone and base."""
    geo = geo or cone_geometry(cone, base_pts, radii, 3)
    bgeo = bgeo or base_geometry(cone, base_pts, 3)
    d = cone.base.dim
    B = geo.g_values.shape[0]

    R_cone = tvalues(geo.riemann)  # (B, a, i, j, k)
    X = np.column_stack([dir_x, np.zeros(B)])
    Y = np.column_stack([dir_y, np.zeros(B)])
    Z = np.column_stack([dir_z, np.zeros(B)])

    # R(dr, X) Y = 0
    radial = np.einsum("bajk,bj,bk->ba", R_cone[:, :, d, :, :], X, Y)
    res_radial = _vec_norm(geo, radial)

    lhs = np.einsum("baijk,bi,bj,bk->ba", R_cone, X, Y, Z)
    R_base = tvalues(bgeo.riemann)
    base_part = np.einsum("baijk,bi,bj,bk->ba", R_base, dir_x, dir_y, dir_z)
    gb = bgeo.g_values
    gxz = np.einsum("bi,bij,bj->b", dir_x, gb, dir_z)
    gyz = np.einsum("bi,bij,bj->b", dir_y, gb, dir_z)
    rhs = np.zeros((B, d + 1))
    rhs[:, :d] = base_part + gxz[:, None] * dir_y - gyz[:, None] * dir_x
    res_dir = _vec_norm(geo, lhs - rhs)
    return {"curvature-radial": res_radial, "curvature-horizontal": res_dir}


def lemma_codifferential_residuals(cone, base_pts, radii, sigma_base_fn, k,
                                   geo=None, bgeo=None):
    """|delta_cone(r^k sigma) - r^{k-2} delta_base(sigma)| per sample."""
    geo = geo or cone_geometry(cone, base_pts, radii, 2)
    bgeo = bgeo or base_geometry(cone, base_pts, 2)
    d = cone.base.dim
    r = np.asarray(radii, float)

    def weighted(x):
        sig = lift_form(sigma_base_fn, 1)(x)
        rk = x[-1] ** k
        return np.array([rk * s for s in sig], dtype=object)

    lhs = geo.codifferential_oneform(weighted(geo.x)).value
    rhs = bgeo.codifferential_oneform(sigma_base_fn(bgeo.x)).value * r ** (k - 2)
    return np.abs(lhs - rhs), lhs, rhs


def lemma_laplacian_residuals(cone, base_pts, radii, f_base_fn, k,
                              geo=None, bgeo=None):
    """|Lap_cone(r^k f) - r^{k-2}(Lap_base f - k(2n+k) f)| per sample."""
    geo = geo or cone_geometry(cone, base_pts, radii, 3)
    bgeo = bgeo or base_geometry(cone, base_pts, 3)
    n = cone.n
    r = np.asarray(radii, float)

    f_cone = f_base_fn(geo.x[:-1]) * (geo.x[-1] ** k)
    lhs = geo.laplacian_scalar(f_cone).value
    f_base = f_base_fn(bgeo.x)
    rhs = (bgeo.laplacian_scalar(f_base).value
           - k * (2 * n + k) * f_base.value) * r ** (k - 2)
    return np.abs(lhs - rhs), lhs, rhs


def block_metric_residuals(cone, base_pts, radii):
    """Literal check of the block structure of the cone metric."""
    pts = np.column_stack([np.atleast_2d(base_pts), np.asarray(radii, float)])
    gc = cone.chart.metric_values(pts)
    gb = cone.base.metric_values(np.atleast_2d(base_pts))
    r = np.asarray(radii, float)
    d = cone.base.dim
    res_rr = np.abs(gc[:, d, d] - 1.0)
    res_mixed = np.max(np.abs(gc[:, d, :d]), axis=1)
    res_base = np.max(np.abs(gc[:, :d, :d] - r[:, None, None] ** 2 * gb), axis=(1, 2))
    return np.maximum(res_rr, np.maximum(res_mixed, res_base))
