"""Quadrature exactness, closed-form volumes, level-set measure."""

import numpy as np
import pytest

from conelab import quadrature as Q
from conelab.chart import ManifoldChart

# the flat 2-torus, an even-dimensional base
T2 = ManifoldChart(
    2, ("u", "v"), ((0.0, 2 * np.pi), (0.0, 2 * np.pi)),
    (2 * np.pi, 2 * np.pi), lambda x: [[1.0, 0.0], [0.0, 1.0]], "t2")


def test_trapezoid_exact_for_trig_polynomials():
    """Degree < node count integrates exactly over a full period."""
    nodes, weights = Q.coordinate_rule(0.0, 2 * np.pi, 2 * np.pi, 16)
    for k in range(1, 16):
        val = np.dot(weights, np.cos(k * nodes))
        assert abs(val) < 1e-12
    assert np.dot(weights, np.cos(16 * nodes)) == pytest.approx(2 * np.pi)
    assert np.dot(weights, np.ones(16)) == pytest.approx(2 * np.pi, rel=1e-14)


def test_gauss_legendre_polynomial_exactness():
    nodes, weights = Q.coordinate_rule(0.0, 1.0, None, 6)
    for k in range(12):  # exact through degree 2n-1 = 11
        val = np.dot(weights, nodes**k)
        assert val == pytest.approx(1.0 / (k + 1), rel=1e-13)


def test_catalog_volumes(blair, unnormalized, s3, s5):
    for entry in (blair, unnormalized, s3, s5):
        vol = Q.chart_volume(entry.chart, entry.quadrature)
        assert vol == pytest.approx(entry.known_values["volume"], rel=1e-9)


def test_grid_refinement_agreement(blair):
    """32 vs 64 nodes per periodic coordinate agree for trig integrands."""
    def fn(pts):
        return 1.0 + np.cos(pts[:, 0]) ** 2 * np.sin(pts[:, 1])

    v32 = Q.integrate_chart(blair.chart, fn, (32,) * 3)
    v64 = Q.integrate_chart(blair.chart, fn, (64,) * 3)
    assert abs(v32 - v64) < 1e-9


def test_level_set_measure(blair, s3):
    """Integral of 1 over M_r carries the r^dim factor of the base: r^{2n+1}
    on the contact bases, r^2 on the flat 2-torus."""
    cases = [(entry.chart, entry.known_values["volume"], entry.quadrature, 3)
             for entry in (blair, s3)]
    cases.append((T2, (2 * np.pi) ** 2, (8, 4), 2))
    for base, base_vol, counts, power in cases:
        for r in (1.0, 2.0):
            got = Q.integrate_level_set(
                base, r, lambda pts, rr: np.ones(len(pts)), counts)
            assert got == pytest.approx(base_vol * r**power, rel=1e-9)


def test_anisotropic_counts():
    pts, w = Q.product_rule(T2, (8, 4))
    assert pts.shape == (32, 2)
    assert np.dot(w, np.ones(32)) == pytest.approx((2 * np.pi) ** 2)
    with pytest.raises(ValueError):
        Q.product_rule(T2, (8, 4, 2))
