"""Algebra of two compatible structures on one cone metric.

Given two cone complex structures J and J' built from two Reeb fields on the
same chart metric, the anticommutator Q = JJ' + J'J must be a constant
multiple of the identity on an irreducible cone; the constant obeys the
Cauchy-Schwarz bound |lambda| <= 2 with equality only for J' = +-J.  Away
from the degenerate case the normalised commutator

    I = (JJ' - J'J) / sqrt(4 - lambda^2)

is a third parallel compatible complex structure anticommuting with both, so
(I, J, K = IJ) is a quaternionic triple and J' lands in its unit 2-sphere.
All of that is what these kernels measure, never assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .chart import jet_point
from .contact import ContactMetricStructure
from .errors import DegeneratePairError, ImpossiblePairError
from .geometry import PointGeometry, frame_norm, tvalues


@dataclass(frozen=True)
class StructurePair:
    """Two contact metric structures on one chart, so on one cone."""

    first: ContactMetricStructure
    second: ContactMetricStructure

    def __post_init__(self):
        if self.first.chart.label != self.second.chart.label:
            raise ValueError("structures live on different cones")

    @property
    def cone(self):
        return self.first.cone


def _j_values(pair: StructurePair, points):
    geo = PointGeometry(pair.cone, jet_point(pair.cone, points, 1))
    j1 = tvalues(pair.first.complex_structure(geo))
    j2 = tvalues(pair.second.complex_structure(geo))
    return geo, j1, j2


def anticommutator_lambda(pair: StructurePair, points):
    """(lambda, max |Q - lambda Id|, pointwise lambda variation)."""
    geo, j1, j2 = _j_values(pair, points)
    d = pair.cone.dim
    q = np.einsum("zam,zmi->zai", j1, j2) + np.einsum("zam,zmi->zai", j2, j1)
    lam_point = np.einsum("zaa->z", q) / d
    lam = float(np.mean(lam_point))
    variation = float(np.max(np.abs(lam_point - lam)))
    defect = q - lam * np.eye(d)[None, :, :]
    residual = frame_norm(geo, defect, "ul")
    if abs(lam) > 2.0 + 1e-6:
        raise ImpossiblePairError(
            f"anticommutator trace gives lambda = {lam:.6f}, beyond the "
            "Cauchy-Schwarz bound 2")
    return lam, residual, variation


def commutator_square_residuals(pair: StructurePair, points, lam: float):
    """|A^2 - (lambda^2 - 4) Id| with A = JJ' - J'J, per point."""
    geo, j1, j2 = _j_values(pair, points)
    d = pair.cone.dim
    a = np.einsum("zam,zmi->zai", j1, j2) - np.einsum("zam,zmi->zai", j2, j1)
    a2 = np.einsum("zam,zmi->zai", a, a)
    defect = a2 - (lam**2 - 4.0) * np.eye(d)[None, :, :]
    return frame_norm(geo, defect, "ul")


def third_structure_values(pair: StructurePair, points, lam: float):
    """I = A / sqrt(4 - lambda^2) at the given points, with its J, J'."""
    if abs(lam) >= 2.0 - 1e-6:
        raise DegeneratePairError(
            f"lambda = {lam:.6f}; structures coincide up to sign, no third "
            "structure exists")
    geo, j1, j2 = _j_values(pair, points)
    a = np.einsum("zam,zmi->zai", j1, j2) - np.einsum("zam,zmi->zai", j2, j1)
    return geo, j1, j2, a / np.sqrt(4.0 - lam**2)


def third_structure_residuals(pair: StructurePair, points, lam: float):
    """Square, isometry, and anticommutation residuals of I."""
    geo, j1, j2, i_ = third_structure_values(pair, points, lam)
    gv = geo.g_values
    eye = np.eye(pair.cone.dim)[None, :, :]
    return {
        "square": frame_norm(geo, np.einsum("zam,zmi->zai", i_, i_) + eye, "ul"),
        "isometry": frame_norm(
            geo, np.einsum("zai,zab,zbj->zij", i_, gv, i_) - gv, "ll"),
        "anticommute-first": frame_norm(
            geo, np.einsum("zam,zmi->zai", i_, j1) + np.einsum("zam,zmi->zai", j1, i_),
            "ul"),
        "anticommute-second": frame_norm(
            geo, np.einsum("zam,zmi->zai", i_, j2) + np.einsum("zam,zmi->zai", j2, i_),
            "ul"),
    }


def parallel_third_structure_residuals(pair: StructurePair, points, lam: float):
    """|nab I| per point, I evaluated as a jet field through both J's."""
    if abs(lam) >= 2.0 - 1e-6:
        raise DegeneratePairError("no third structure for |lambda| near 2")
    cone = pair.cone
    geo = PointGeometry(cone, jet_point(cone, points, 3))
    j1 = pair.first.complex_structure(geo)
    j2 = pair.second.complex_structure(geo)
    # one [x, y] term per m: a whole [x, m, y] product tensor costs peak memory
    a = reduce(np.add, (j1[:, m, None] * j2[m] - j2[:, m, None] * j1[m]
                        for m in range(cone.dim)))
    a = (1.0 / np.sqrt(4.0 - lam**2)) * a
    nab = tvalues(geo.covd(a, (1, 1)))  # (B, m, a, i)
    nab = np.moveaxis(nab, 2, 1)        # contravariant axis first
    return frame_norm(geo, nab, "ull")


def quaternion_relation_residuals(pair: StructurePair, points, lam: float):
    """K = IJ closes the triple: JK = I, KI = J, K^2 = -Id."""
    geo, j1, j2, i_ = third_structure_values(pair, points, lam)
    k = np.einsum("zam,zmi->zai", i_, j1)
    eye = np.eye(pair.cone.dim)[None, :, :]
    return {
        "k-square": frame_norm(geo, np.einsum("zam,zmi->zai", k, k) + eye, "ul"),
        "jk-closes": frame_norm(geo, np.einsum("zam,zmi->zai", j1, k) - i_, "ul"),
        "ki-closes": frame_norm(geo, np.einsum("zam,zmi->zai", k, i_) - j1, "ul"),
        "ij-anticommute": frame_norm(
            geo, np.einsum("zam,zmi->zai", i_, j1) + np.einsum("zam,zmi->zai", j1, i_),
            "ul"),
    }


def s2_family_coefficients(pair: StructurePair, third: ContactMetricStructure,
                           points, lam: float):
    """Expand the third structure's J'' over the triple (I, J, K).

    Returns per-point (a, b, c) with J'' = a I + b J + c K, the expansion
    residual, and |a^2+b^2+c^2 - 1|.
    """
    geo, j1, j2, i_ = third_structure_values(pair, points, lam)
    jpp = tvalues(third.complex_structure(geo))
    d = pair.cone.dim
    k = np.einsum("zam,zmi->zai", i_, j1)
    coeffs = np.stack([
        -np.einsum("zam,zma->z", jpp, i_) / d,
        -np.einsum("zam,zma->z", jpp, j1) / d,
        -np.einsum("zam,zma->z", jpp, k) / d,
    ], axis=1)
    recon = (coeffs[:, 0, None, None] * i_ + coeffs[:, 1, None, None] * j1
             + coeffs[:, 2, None, None] * k)
    residual = frame_norm(geo, jpp - recon, "ul")
    unit_defect = np.abs(np.einsum("zc,zc->z", coeffs, coeffs) - 1.0)
    return coeffs, residual, unit_defect
