"""Product quadrature on chart domains and cone level sets.

Periodic coordinates use the plain trapezoidal rule (spectrally exact for
trigonometric polynomials of degree below the node count); bounded
coordinates use Gauss-Legendre.  Level-set integrals over {r = const} carry
the volume element of (M, r^2 g), i.e. an explicit r^{2n+1} scaling on top of
the base volume form.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_legendre

from .chart import ManifoldChart


def coordinate_rule(lo: float, hi: float, period, n: int):
    """Nodes and weights for one coordinate."""
    if period is not None:
        nodes = lo + period * np.arange(n) / n
        weights = np.full(n, period / n)
    else:
        x, w = roots_legendre(n)
        nodes = lo + (hi - lo) * (x + 1.0) / 2.0
        weights = w * (hi - lo) / 2.0
    return nodes, weights


def product_rule(chart: ManifoldChart, counts):
    """Tensor-product rule over the chart domain: (points (N, d), weights)."""
    counts = _normalize_counts(chart.dim, counts)
    axes = [coordinate_rule(lo, hi, period, n)
            for (lo, hi), period, n in zip(chart.domain, chart.periodic, counts)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    points = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for w in wgrids:
        weights = weights * w.reshape(-1)
    return points, weights


def _normalize_counts(dim, counts):
    if isinstance(counts, (int, np.integer)):
        return (int(counts),) * dim
    counts = tuple(int(c) for c in counts)
    if len(counts) != dim:
        raise ValueError(f"need {dim} node counts, got {len(counts)}")
    return counts


def volume_element(chart: ManifoldChart, points):
    g = chart.metric_values(points)
    return np.sqrt(np.linalg.det(g))


def integrate_chart(chart: ManifoldChart, fn, counts):
    """Integral of fn(points) -> (N,) against the chart volume form."""
    points, weights = product_rule(chart, counts)
    dens = volume_element(chart, points)
    vals = np.asarray(fn(points), float)
    return float(np.dot(weights * dens, vals))


def chart_volume(chart: ManifoldChart, counts) -> float:
    return integrate_chart(chart, lambda pts: np.ones(pts.shape[0]), counts)


def integrate_level_set(cone, r: float, fn, counts) -> float:
    """Integral over M_r = {r = const} of the cone.

    fn(base_pts, r) -> (N,) values of the integrand at the slice; the
    measure is r^{2n+1} times the base volume form.
    """
    base = cone.base
    points, weights = product_rule(base, counts)
    dens = volume_element(base, points)
    vals = np.asarray(fn(points, r), float)
    return float(np.dot(weights * dens, vals)) * r ** (2 * cone.n + 1)
