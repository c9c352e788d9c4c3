"""Connection, curvature and first-order operators against oracles.

Expected values marked by hand were computed from the closed forms of the
catalog metrics (round-sphere curvature, flat tori); everything else is
cross-checked against the finite-difference oracles in oracles.py.
"""

import numpy as np
import pytest

from conelab import geometry as G
from conelab.chart import ManifoldChart
from conelab.errors import JetOrderError
from conelab.geometry import tvalues
from conelab.jets import Jet, sin

from .conftest import geometry, sample
from . import oracles


def codifferential(chart, sigma_fn, point):
    geo = geometry(chart, point, 2)
    return float(geo.codifferential_oneform(sigma_fn(geo.x)).value[0])


def laplacian(chart, f_fn, point):
    geo = geometry(chart, point, 3)
    return float(geo.laplacian_scalar(f_fn(geo.x)).value[0])


@pytest.fixture(scope="module")
def sphere2():
    return ManifoldChart(
        2, ("theta", "phi"), ((0.0, np.pi), (0.0, 2 * np.pi)),
        (None, 2 * np.pi),
        lambda x: [[x[0] * 0.0 + 1.0, x[0] * 0.0],
                   [x[0] * 0.0, sin(x[0]) * sin(x[0])]],
        "s2")


def test_christoffel_sphere_pinned(sphere2):
    gam = tvalues(geometry(sphere2, [np.pi / 4, 1.0], 1).gamma)[0]
    # Gamma^theta_{phi phi} = -sin(theta) cos(theta) = -1/2 at pi/4
    assert gam[0, 1, 1] == pytest.approx(-0.5, abs=1e-12)
    assert gam[1, 0, 1] == pytest.approx(1.0, abs=1e-12)
    # symmetry in the lower pair
    assert np.allclose(gam, np.swapaxes(gam, 1, 2))


def test_christoffel_flat_zero(blair):
    gam = tvalues(geometry(blair.chart, [1.0, 2.0, 3.0], 1).gamma)
    assert np.max(np.abs(gam)) == 0.0


def test_jet_metric_derivatives_match_finite_differences(
        blair, unnormalized, s3, s5):
    """First and second metric derivatives vs Richardson stencils."""
    for entry in (blair, unnormalized, s3, s5):
        chart = entry.chart
        pts, _, _ = sample(chart, 3, seed=11)
        for p in pts:
            geo = geometry(chart, p, 2)
            for i in range(chart.dim):
                jet_d1 = tvalues(G.dpartial(geo.g, i))[0]
                fd = oracles.metric_d1(chart, p, i)
                assert np.max(np.abs(jet_d1 - fd)) < 1e-6 * max(1, np.max(np.abs(fd)))
            jet_d2 = tvalues(G.dpartial(G.dpartial(geo.g, 0), 1))[0]
            fd2 = oracles.metric_d2(chart, p, 0, 1)
            assert np.max(np.abs(jet_d2 - fd2)) < 1e-5 * max(1, np.max(np.abs(fd2)))


def test_christoffel_matches_finite_differences(s3, s5):
    for entry in (s3, s5):
        pts, _, _ = sample(entry.chart, 3, seed=21)
        for p in pts:
            got = tvalues(geometry(entry.chart, p, 1).gamma)[0]
            want = oracles.christoffel_fd(entry.chart, p)
            assert np.max(np.abs(got - want)) < 1e-6


def test_riemann_sphere_closed_form(s3):
    """Unit S^3: R(X,Y)Z = g(Y,Z)X - g(X,Z)Y."""
    pts, _, _ = sample(s3.chart, 4, seed=31)
    for p in pts:
        rl = tvalues(geometry(s3.chart, p, 2).riemann_low)[0]
        g = s3.chart.metric_values([p])[0]
        want = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
        assert np.max(np.abs(rl - want)) < 1e-9


def test_riemann_matches_finite_differences(s3):
    pts, _, _ = sample(s3.chart, 2, seed=41)
    for p in pts:
        got = tvalues(geometry(s3.chart, p, 2).riemann)[0]
        want = oracles.riemann_fd(s3.chart, p)
        assert np.max(np.abs(got - want)) < 2e-6


def test_riemann_symmetries_and_bianchi(s3, s5):
    for entry in (s3, s5):
        pts, _, _ = sample(entry.chart, 200, seed=51)
        geo = geometry(entry.chart, pts, 2)
        rl = tvalues(geo.riemann_low)
        assert np.max(np.abs(rl + np.swapaxes(rl, 1, 2))) < 1e-8
        assert np.max(np.abs(rl + np.swapaxes(rl, 3, 4))) < 1e-8
        first_bianchi = (rl + np.moveaxis(rl, [1, 2, 3], [2, 3, 1])
                         + np.moveaxis(rl, [1, 2, 3], [3, 1, 2]))
        assert np.max(np.abs(first_bianchi)) < 1e-8


def test_ricci_einstein_constants(blair, s3, s5):
    # flat torus: Ric = 0; S^{2n+1}: Ric = 2n g, s = 2n(2n+1)
    flat = geometry(blair.chart, [0.3, 1.0, 2.0], 2)
    assert np.max(np.abs(tvalues(flat.ricci))) == 0.0
    for entry, const in ((s3, 2.0), (s5, 4.0)):
        pts, _, _ = sample(entry.chart, 3, seed=61)
        for p in pts:
            geo = geometry(entry.chart, p, 2)
            ric = tvalues(geo.ricci)[0]
            g = entry.chart.metric_values([p])[0]
            assert np.max(np.abs(ric - const * g)) < 1e-9
            s = float(geo.scalar_curvature.value[0])
            assert s == pytest.approx(entry.known_values["scalar_curvature"],
                                      abs=1e-9)


def test_ricci_matches_finite_differences(s5):
    p = [0.7, 0.8, 1.0, 2.0, 3.0]
    got = tvalues(geometry(s5.chart, p, 2).ricci)[0]
    want = oracles.ricci_fd(s5.chart, p)
    assert np.max(np.abs(got - want)) < 2e-6


def test_metric_compatibility_all_charts(blair, unnormalized, s3, s5):
    """nab g = 0 at random points on every catalog chart."""
    for entry in (blair, unnormalized, s3, s5):
        pts, _, _ = sample(entry.chart, 200, seed=71)
        geo = geometry(entry.chart, pts, 2)
        nab_g = tvalues(geo.covd(geo.g, (0, 2)))
        assert np.max(np.abs(nab_g)) < 1e-9


def test_covariant_derivative_leibniz(s3):
    """nab(f sigma) = df (x) sigma + f nab sigma for a sample 1-form."""
    def f_fn(x):
        return sin(x[0]) * sin(x[1])

    def sigma_fn(x):
        out = np.empty(3, object)
        out[0] = sin(x[1])
        out[1] = x[0] * x[0]
        out[2] = x[0] * 0.0 + 1.0
        return out

    def fsigma_fn(x):
        f = f_fn(x)
        sig = sigma_fn(x)
        return np.array([f * s for s in sig], dtype=object)

    pts, _, _ = sample(s3.chart, 5, seed=81)
    geo = geometry(s3.chart, pts, 2)
    lhs = tvalues(geo.covd(fsigma_fn(geo.x), (0, 1)))
    f = f_fn(geo.x)
    df = np.stack([f.partial(m).value for m in range(3)], axis=1)
    sig = tvalues(sigma_fn(geo.x))
    nab_sig = tvalues(geo.covd(sigma_fn(geo.x), (0, 1)))
    rhs = np.einsum("bm,bi->bmi", df, sig) + f.value[:, None, None] * nab_sig
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_codifferential_pinned_and_exact_forms(unnormalized, s3):
    # sigma = sin t dt on the standard flat torus: delta sigma = -cos t
    def sig_fn(x):
        out = np.empty(3, object)
        out[0] = sin(x[0])
        out[1] = x[0] * 0.0
        out[2] = x[0] * 0.0
        return out

    val = codifferential(unnormalized.chart, sig_fn, [1.2, 0.1, 0.2])
    assert val == pytest.approx(-np.cos(1.2), abs=1e-12)
    # dt is parallel there
    def dt_fn(x):
        out = np.empty(3, object)
        out[0] = x[0] * 0.0 + 1.0
        out[1] = x[0] * 0.0
        out[2] = x[0] * 0.0
        return out

    assert codifferential(unnormalized.chart, dt_fn, [1.2, 0.1, 0.2]) == 0.0

    # delta(df) = Delta(f) on the sphere
    def f_field(x):
        return sin(x[0]) * sin(x[1] + x[2])

    def df_fn(x):
        f = f_field(x)
        out = np.empty(3, object)
        for i in range(3):
            out[i] = f.partial(i)
        return out

    pts, _, _ = sample(s3.chart, 5, seed=91)
    for p in pts:
        lap = laplacian(s3.chart, f_field, p)
        cod = codifferential(s3.chart, df_fn, p)
        assert lap == pytest.approx(cod, rel=1e-8, abs=1e-10)


def test_laplacian_pinned(unnormalized, blair):
    f = lambda x: sin(x[0])
    # standard torus: Delta sin t = sin t; quarter metric scales by 4
    assert laplacian(unnormalized.chart, f, [0.7, 0, 0]) == pytest.approx(
        np.sin(0.7), abs=1e-12)
    assert laplacian(blair.chart, f, [0.7, 0, 0]) == pytest.approx(
        4 * np.sin(0.7), abs=1e-12)
    const = lambda x: x[0] * 0.0 + 3.0
    assert laplacian(blair.chart, const, [0.7, 0, 0]) == 0.0


def test_laplacian_sign_convention(unnormalized):
    """Geometer's convention: Delta of a coordinate square is negative."""
    f = lambda x: x[0] * x[0]
    assert laplacian(unnormalized.chart, f, [0.3, 0, 0]) == pytest.approx(
        -2.0, abs=1e-12)


def test_orthonormal_frame(blair, s3):
    E = G.orthonormal_frame_values(blair.chart.metric_values([[1.0, 2.0, 3.0]]))
    assert np.allclose(E[0], 2 * np.eye(3))
    pts, _, _ = sample(s3.chart, 5, seed=101)
    g = s3.chart.metric_values(pts)
    E = G.orthonormal_frame_values(g)
    gram = np.einsum("zai,zij,zbj->zab", E, g, E)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    assert np.all(np.linalg.det(E) > 0)


def test_frame_independence_of_invariants(s5):
    """|Ric|^2 via coordinate contractions vs a rotated orthonormal frame."""
    pts, _, _ = sample(s5.chart, 3, seed=111)
    geo = geometry(s5.chart, pts, 2)
    ric = tvalues(geo.ricci)
    coord = G.norm_squared(geo.g_values, geo.ginv_values, ric, "ll")
    E = G.orthonormal_frame_values(geo.g_values)
    # rotate the frame by a fixed special-orthogonal matrix
    theta = 0.81
    rot = np.eye(5)
    rot[0, 0] = rot[3, 3] = np.cos(theta)
    rot[0, 3] = -np.sin(theta)
    rot[3, 0] = np.sin(theta)
    E2 = np.einsum("ab,zbi->zai", rot, E)
    framed = np.einsum("zai,zbj,zij->zab", E2, E2, ric)
    summed = np.sum(framed**2, axis=(1, 2))
    assert np.max(np.abs(coord - summed)) < 1e-9


def test_insufficient_jet_order_raises(s3):
    geo = geometry(s3.chart, [0.7, 1.0, 2.0], 1)
    with pytest.raises(JetOrderError):
        geo.riemann  # needs two metric derivative levels
    f = Jet.variables([[0.7, 1.0, 2.0]], 1)[0].sin()
    with pytest.raises(JetOrderError):
        geo.laplacian_scalar(f)
