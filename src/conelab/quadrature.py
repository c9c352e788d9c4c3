"""Product quadrature on chart domains and cone level sets.

Periodic coordinates use the plain trapezoidal rule (spectrally exact for
trigonometric polynomials of degree below the node count); bounded
coordinates use Gauss-Legendre.  Level-set integrals over {r = const} carry
the volume element of (M, r^2 g), i.e. an explicit r^dim scaling on top of
the base volume form (r^{2n+1} on a contact base of dimension 2n+1).
"""

from __future__ import annotations

import numpy as np

from .chart import ManifoldChart


def coordinate_rule(lo: float, hi: float, period, n: int):
    """Nodes and weights for one coordinate."""
    if period is not None:
        nodes = lo + period * np.arange(n) / n
        weights = np.full(n, period / n)
    else:
        # imported here: scipy costs a fresh process about 0.1 s, and only
        # bounded-coordinate rules use it (numpy's leggauss differs in the
        # last bits for n >= 3, which would move pinned residuals)
        from scipy.special import roots_legendre

        x, w = roots_legendre(n)
        nodes = lo + (hi - lo) * (x + 1.0) / 2.0
        weights = w * (hi - lo) / 2.0
    return nodes, weights


def product_rule(chart: ManifoldChart, counts):
    """Tensor-product rule, one node count per coordinate: (points (N, d), weights)."""
    axes = [coordinate_rule(lo, hi, period, n) for (lo, hi), period, n
            in zip(chart.domain, chart.periodic, counts, strict=True)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    points = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    weights = np.ones(points.shape[0])
    for w in wgrids:
        weights = weights * w.reshape(-1)
    return points, weights


def integrate_chart(chart: ManifoldChart, fn, counts):
    """Integral of fn(points) -> (N,) against the chart volume form."""
    points, weights = product_rule(chart, counts)
    dens = np.sqrt(np.linalg.det(chart.metric_values(points)))
    vals = np.asarray(fn(points), float)
    return float(np.dot(weights * dens, vals))


def chart_volume(chart: ManifoldChart, counts) -> float:
    return integrate_chart(chart, lambda pts: np.ones(pts.shape[0]), counts)


def integrate_level_set(base: ManifoldChart, r: float, fn, counts) -> float:
    """Integral over M_r = {r = const} of the cone over `base`.

    fn(base_pts, r) -> (N,) values of the integrand at the slice; the
    measure is r^dim times the base volume form, dim = base.dim.
    """
    base_integral = integrate_chart(base, lambda pts: fn(pts, r), counts)
    return base_integral * r ** base.dim
