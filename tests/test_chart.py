"""Catalog chart metrics, sampling and domain handling."""

from dataclasses import replace

import numpy as np
import pytest

from conelab import catalog
from conelab.chart import SAMPLE_MARGIN, ManifoldChart, jet_point
from conelab.errors import DomainError
from conelab.rng import SplitMix64


def periodic_drift(chart, pts):
    """{coordinate: largest |g(p + period e_i) - g(p)|} over the sampled
    points, one entry per periodic coordinate."""
    g = chart.metric_values(pts)
    drift = {}
    for i, period in enumerate(chart.periodic):
        if period is None:
            continue
        shifted = pts.copy()
        shifted[:, i] += period
        drift[chart.coords[i]] = np.max(np.abs(g - chart.metric_values(shifted)))
    return drift


def test_validate_catalog_charts():
    """Each catalog metric, at sampled points, is symmetric, positive definite
    and periodic in each periodic coordinate."""
    for key in catalog.keys():
        chart = catalog.get(key).chart
        pts = chart.sample_points(25, SplitMix64(2023))
        g = chart.metric_values(pts)
        assert np.max(np.abs(g - np.swapaxes(g, 1, 2))) < 1e-10, key
        np.linalg.cholesky(g)
        for coord, drift in periodic_drift(chart, pts).items():
            assert drift < 1e-9, (key, coord)


def test_periodic_drift_catches_a_wrong_period():
    """Every catalog metric is independent of its periodic coordinates, so
    the drift check above cannot fail on the catalog.  g = diag(1, 2 + cos
    theta) depends on theta: it passes at theta's period 2 pi and fails at
    pi."""
    chart = ManifoldChart(
        dim=2, coords=("x", "theta"), domain=((0.0, 1.0), (0.0, 2 * np.pi)),
        periodic=(None, 2 * np.pi),
        metric=lambda x: [[1.0, 0.0], [0.0, 2.0 + np.cos(x[1])]])
    pts = chart.sample_points(25, SplitMix64(2023))
    assert periodic_drift(chart, pts)["theta"] < 1e-9
    wrong = replace(chart, periodic=(None, np.pi))
    assert periodic_drift(wrong, wrong.sample_points(25, SplitMix64(2023)))["theta"] > 0.1


def test_sampling_respects_margin_and_period(s3):
    rng = SplitMix64(3)
    pts = s3.chart.sample_points(500, rng)
    lo, hi = s3.chart.domain[0]
    assert np.all(pts[:, 0] >= lo + SAMPLE_MARGIN)
    assert np.all(pts[:, 0] <= hi - SAMPLE_MARGIN)
    assert np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] < 2 * np.pi)


def test_sampling_is_deterministic(blair):
    a = blair.chart.sample_points(50, SplitMix64(99))
    b = blair.chart.sample_points(50, SplitMix64(99))
    assert np.array_equal(a, b)


def test_domain_error(blair, s3):
    with pytest.raises(DomainError):
        jet_point(s3.chart, [2.0, 0.0, 0.0], 2)  # alpha beyond pi/2
    # periodic coordinates accept any value
    jet_point(blair.chart, [17.0, -5.0, 100.0], 2)


_FLAT2 = dict(dim=2, coords=("x", "y"), domain=((0.0, 1.0), (0.0, 1.0)),
              periodic=(None, 1.0), metric=lambda x: [[1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("fields, message", [
    ({"domain": ((0.0, 1.0),)}, "inconsistent chart dimensions"),
    ({"periodic": (None, 1.0, 1.0)}, "inconsistent chart dimensions"),
    ({"domain": ((0.0, 1.0), (2.0, 2.0))}, "empty coordinate interval"),
    ({"periodic": (None, 0.0)}, "period > 0"),
    ({"periodic": (-1.0, None)}, "period > 0"),
], ids=["domain-dim", "periodic-dim", "empty-interval", "zero-period",
        "negative-period"])
def test_malformed_chart_is_refused(fields, message):
    ManifoldChart(**_FLAT2)  # the well-formed chart these cases each break once
    with pytest.raises(ValueError, match=message):
        ManifoldChart(**{**_FLAT2, **fields})
