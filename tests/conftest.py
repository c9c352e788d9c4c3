import numpy as np
import pytest

from conelab import catalog
from conelab import cone as C
from conelab.chart import jet_point
from conelab.geometry import PointGeometry
from conelab.rng import SplitMix64


@pytest.fixture(scope="session")
def blair():
    return catalog.get("t3-blair")


@pytest.fixture(scope="session")
def unnormalized():
    return catalog.get("t3-unnormalized")


@pytest.fixture(scope="session")
def s3():
    return catalog.get("s3-round")


@pytest.fixture(scope="session")
def s5():
    return catalog.get("s5-round")


@pytest.fixture()
def rng():
    return SplitMix64(0xC0FFEE)


def geometry(chart, points, order):
    """PointGeometry at one point or a batch of points, seeded at order."""
    return PointGeometry(chart, jet_point(chart, points, order))


def cone_geometries(cn, pts, radii, order=3):
    """Cone and base geometry at the same base points, as the suites build
    them for the residual kernels."""
    return (C.cone_geometry(cn, pts, radii, order),
            C.base_geometry(cn, pts, order))


def sample(chart, n, seed=0xC0FFEE):
    gen = SplitMix64(seed)
    pts = chart.sample_points(n, gen)
    radii = gen.uniforms(n, 0.5, 3.0)
    dirs = [np.array([gen.unit_vector(chart.dim) for _ in range(n)])
            for _ in range(3)]
    return pts, radii, dirs
