"""Contact metric structures and their cone symplectic data.

A candidate Reeb field xi on a chart (dim 2n+1) carries the fields of a
contact metric structure: eta = g(xi, .) and the endomorphism phi solved
from half the exterior derivative of eta (g(phi X, Y) = (d eta)(X, Y) / 2).
Nothing here decides whether the candidate is one.  The kernels below
measure each axiom and hypothesis as a residual per point, and the suites
classify by residual magnitude, never by a bare boolean: their reports say
how badly an axiom fails and where.

On the cone the structure induces the 2-form

    Omega = r dr ^ eta + (r^2 / 2) d eta,

compatible with the cone metric; J is solved from Omega by raising an index.
Omega is parallel exactly when the structure is Sasakian, which is what the
residual suites quantify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import ManifoldChart, jet_point
from .cone import ConeChart
from .geometry import (
    PointGeometry,
    exterior_derivative,
    frame_norm,
    norm_squared,
    orthonormal_frame_values,
    tvalues,
)
from .jets import Jet


@dataclass(frozen=True)
class ContactMetricStructure:
    """Candidate (xi, eta, phi) bundle on a chart; the suites classify it."""

    chart: ManifoldChart
    xi: Callable  # jet coordinates -> contravariant components
    name: str = "xi"
    # catalogued classification: sasakian | contact-metric | not-contact-metric
    expected: str = ""

    @property
    def n(self) -> int:
        return (self.chart.dim - 1) // 2

    # -- derived fields, all evaluable on jet coordinates -------------------

    def eta(self, geo: PointGeometry):
        """eta = g(xi, .) as an object 1-form."""
        return np.tensordot(geo.g, self.xi(geo.x), axes=([1], [0]))

    def half_deta(self, geo: PointGeometry):
        return 0.5 * exterior_derivative(self.eta(geo))

    def phi(self, geo: PointGeometry):
        """phi[a, i] = phi^a_i solved from g(phi X, Y) = (d eta)(X, Y)/2."""
        return _endomorphism(geo, self.half_deta(geo))


def _endomorphism(geo: PointGeometry, form):
    """E[a, i] = g^{ab} form[i, b], so that form(X, Y) = g(E X, Y)."""
    return np.tensordot(geo.ginv, form, axes=([1], [1]))


def _kc_defect(structure: ContactMetricStructure, points):
    """phi^2 + Id - eta (x) xi as floats, with the geometry it was read at."""
    geo = PointGeometry(structure.chart, jet_point(structure.chart, points, 2))
    d = structure.chart.dim
    phi = tvalues(structure.phi(geo))
    eta = tvalues(structure.eta(geo))
    xi = tvalues(structure.xi(geo.x))
    phi2 = np.einsum("bam,bmi->bai", phi, phi)
    return geo, phi2 + np.eye(d)[None, :, :] - np.einsum("ba,bi->bai", xi, eta)


def kc_residuals(structure: ContactMetricStructure, points):
    """Max orthonormal-frame residual of phi^2 + Id - eta (x) xi per point."""
    geo, defect = _kc_defect(structure, points)
    return frame_norm(geo, defect, "ul")


def kc_max_component_residuals(structure, points):
    """Largest orthonormal-frame entry of the axiom defect.

    For the unnormalised flat-torus fixture this is exactly 3/4 at every
    point (the defect is 3/4 of the projector onto ker eta).
    """
    geo, defect = _kc_defect(structure, points)
    E = orthonormal_frame_values(geo.g_values)
    E_dual = np.einsum("bai,bij->baj", E, geo.g_values)
    on = np.einsum("baj,bji,bci->bac", E_dual, defect, E)
    return np.max(np.abs(on), axis=(1, 2))


def unit_length_residuals(structure, points):
    g = structure.chart.metric_values(points)
    geo = PointGeometry(structure.chart, jet_point(structure.chart, points, 0))
    xi = tvalues(structure.xi(geo.x))
    return np.abs(np.einsum("bi,bij,bj->b", xi, g, xi) - 1.0)


def reeb_residuals(structure, points):
    """Derived Reeb conditions: eta(xi) = 1, phi(xi) = 0, xi i d(eta) = 0."""
    geo = PointGeometry(structure.chart, jet_point(structure.chart, points, 2))
    xi = tvalues(structure.xi(geo.x))
    eta = tvalues(structure.eta(geo))
    phi = tvalues(structure.phi(geo))
    deta = 2.0 * tvalues(structure.half_deta(geo))
    pairing = np.abs(np.einsum("bi,bi->b", eta, xi) - 1.0)
    kernel = frame_norm(geo, np.einsum("bai,bi->ba", phi, xi), "u")
    interior = frame_norm(geo, np.einsum("bi,bij->bj", xi, deta), "l")
    return {"reeb-pairing": pairing, "reeb-kernel": kernel,
            "reeb-interior": interior}


def killing_residuals(structure, points):
    """Max orthonormal component of L_xi g per point."""
    geo = PointGeometry(structure.chart, jet_point(structure.chart, points, 2))
    nab_xi = tvalues(geo.covd(structure.xi(geo.x), (1, 0)))  # (B, m, a)
    lowered = np.einsum("bma,bai->bmi", nab_xi, geo.g_values)
    lie = lowered + np.swapaxes(lowered, 1, 2)
    E = orthonormal_frame_values(geo.g_values)
    lie_on = np.einsum("bai,bcj,bij->bac", E, E, lie)
    return np.max(np.abs(lie_on), axis=(1, 2))


def ricci_reeb_deficit(structure, points):
    """Ric(xi, xi) - 2n, signed, per point."""
    geo = PointGeometry(structure.chart, jet_point(structure.chart, points, 3))
    ric = tvalues(geo.ricci)
    xi = tvalues(structure.xi(geo.x))
    return np.einsum("bi,bij,bj->b", xi, ric, xi) - 2.0 * structure.n


def sasaki_residuals(structure, points):
    """Residual of nab_X(nab xi) = g(xi, .) X - g(X, .) xi, frame norm."""
    geo = PointGeometry(structure.chart, jet_point(structure.chart, points, 3))
    d = structure.chart.dim
    xi_j = structure.xi(geo.x)
    nab_xi = geo.covd(xi_j, (1, 0))           # [i, a] = (nab_i xi)^a
    endo = np.moveaxis(nab_xi, 0, 1)          # [a, i] endomorphism layout
    nab2 = tvalues(geo.covd(endo, (1, 1)))    # (B, m, a, i)
    eta = np.einsum("bij,bj->bi", geo.g_values, tvalues(xi_j))
    xi_v = tvalues(xi_j)
    wedge = (np.einsum("bi,am->bmai", eta, np.eye(d))
             - np.einsum("bmi,ba->bmai", geo.g_values, xi_v))
    defect = nab2 - wedge
    # signature: m covariant, a contravariant, i covariant
    defect = np.moveaxis(defect, 2, 1)        # (B, a, m, i)
    return frame_norm(geo, defect, "ull")


# -- cone symplectic data -----------------------------------------------------


@dataclass(frozen=True)
class ConeSymplecticData:
    """Cone 2-form Omega and the solved almost complex structure J."""

    cone: ConeChart
    structure: ContactMetricStructure

    def omega(self, geo: PointGeometry):
        """Omega = r dr ^ eta + (r^2/2) d eta on cone jet coordinates."""
        d = self.cone.base.dim
        base_geo = _base_view(self.cone, geo)
        eta = self.structure.eta(base_geo)
        h = self.structure.half_deta(base_geo)  # (d, d) object, = d(eta)/2
        r = geo.x[-1]
        r2 = r * r
        out = np.empty((d + 1, d + 1), object)
        for i in range(d):
            for j in range(d):
                out[i, j] = r2 * h[i, j]
            out[d, i] = r * eta[i]
            out[i, d] = -(r * eta[i])
        out[d, d] = Jet.constant(np.zeros(r.batch), r.dim, r.order)
        return out

    def complex_structure(self, geo: PointGeometry):
        """J[a, i] = J^a_i with Omega(X, Y) = g_cone(J X, Y)."""
        return _endomorphism(geo, self.omega(geo))


def _base_view(cone: ConeChart, geo: PointGeometry) -> PointGeometry:
    """Base-chart geometry over the base slice of cone jet coordinates."""
    return PointGeometry(cone.base, geo.x[:-1])


def symplectic_residuals(data: ConeSymplecticData, points):
    """dOmega = 0, |Omega|^2 = dim, J isometry; per-point residuals."""
    cone = data.cone
    geo = PointGeometry(cone.chart, jet_point(cone.chart, points, 2))
    d = cone.dim
    om = data.omega(geo)
    dom = tvalues(exterior_derivative(om))
    closed = frame_norm(geo, dom, "lll")
    om_v = tvalues(om)
    norm = np.abs(norm_squared(geo.g_values, geo.ginv_values, om_v, "ll") - d)
    j = tvalues(data.complex_structure(geo))
    pulled = np.einsum("zai,zab,zbj->zij", j, geo.g_values, j)
    isometry = frame_norm(geo, pulled - geo.g_values, "ll")
    square = np.einsum("bam,bmi->bai", j, j) + np.eye(d)[None, :, :]
    sq_res = frame_norm(geo, square, "ul")
    return {"symplectic-closed": closed, "symplectic-norm": norm,
            "complex-square": sq_res, "complex-isometry": isometry}


def parallel_omega_residuals(data: ConeSymplecticData, points):
    """|nab Omega| per cone point (vanishes iff the base is Sasakian)."""
    geo = PointGeometry(data.cone.chart, jet_point(data.cone.chart, points, 3))
    nab = tvalues(geo.covd(data.omega(geo), (0, 2)))
    return frame_norm(geo, nab, "lll")
