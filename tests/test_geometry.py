"""Connection, curvature and first-order operators against oracles.

Expected values marked by hand were computed from the closed forms of the
catalog metrics (round-sphere curvature, flat tori); everything else is
cross-checked against the finite-difference oracles in oracles.py.
"""

import numpy as np
import pytest

from conelab import cone as C
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


def test_tensordot_folds_jet_products_like_the_loop():
    """np.tensordot on object arrays forms each entry as a0*b0, then
    acc + a_k*b_k in C order of the contracted indices, left operand on the
    left: the hand-written fold the geometry contractions replace, bit for
    bit.  Some entries are identically zero, so the zero-factor product runs."""
    rng = np.random.default_rng(7)
    d = 3

    def jets(shape):
        out = np.empty(shape, object)
        for idx in np.ndindex(*shape):
            out[idx] = Jet.constant(np.zeros(4), 2, 3)
            if rng.random() < 0.7:
                out[idx].c[:] = rng.standard_normal(out[idx].c.shape)
        return out

    def fold(pairs):
        acc = None
        for a, b in pairs:
            term = a * b
            acc = term if acc is None else acc + term
        return acc.c

    A, B = jets((d, d)), jets((d, d, d))
    one = np.tensordot(A, B, axes=([1], [0]))
    for i, k, l in np.ndindex(d, d, d):
        want = fold((A[i, j], B[j, k, l]) for j in range(d))
        assert np.array_equal(one[i, k, l].c, want)
    two = np.tensordot(A, B, 2)
    for k in range(d):
        pairs = [(A[i, j], B[i, j, k]) for i, j in np.ndindex(d, d)]
        assert np.array_equal(two[k].c, fold(pairs))
        # the check can tell fold orders apart: reversed, the bits move
        assert not np.array_equal(two[k].c, fold(pairs[::-1]))


def test_jet_product_counts_match_closed_forms(s3, monkeypatch):
    """Each kernel forms exactly its closed-form number of jet products, so
    a rewrite that adds or drops one fails here, not only under the
    benchmark's tracer.  P = d(d+1)/2 pairs i <= j, Q = d(d-1)/2 pairs i < j."""
    cn = C.build_cone(s3.chart)
    pts, radii, _ = sample(s3.chart, 5)
    geo = C.cone_geometry(cn, pts, radii, 4)
    geo.g, geo.ginv
    d, calls = geo.dim, [0]
    P, Q = d * (d + 1) // 2, d * (d - 1) // 2

    def counting(self, other, _mul=Jet.__mul__):
        calls[0] += 1
        return _mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counting)
    monkeypatch.setattr(Jet, "__rmul__", counting)

    def products(fn):
        before = calls[0]
        fn()
        return calls[0] - before

    assert products(lambda: geo.gamma) == d * P * d + d * P == 200
    assert products(lambda: geo.riemann) == Q * 2 * d**3 == 768
    assert products(lambda: geo.covd(geo.g, (0, 2))) == 2 * d**4 == 512
    assert products(lambda: geo.covd(geo.g, (1, 1))) == 2 * d**4
    f = geo.x[0]
    assert products(lambda: geo.laplacian_scalar(f)) == d**3 + d**2 == 80
    assert products(lambda: G.exterior_derivative(geo.g[0])) == 0


def test_kernels_fold_like_their_component_loops(s3):
    """Gamma, R, covd, the Laplacian and d form each entry with the products
    and fold of a per-component loop, left operand on the left, bit for
    bit: reports stay byte-identical only while this holds."""
    cn = C.build_cone(s3.chart)
    pts, radii, _ = sample(s3.chart, 3)
    geo = C.cone_geometry(cn, pts, radii, 5)   # enough terms for order to show
    d, g, gam, ginv = geo.dim, geo.g, geo.gamma, geo.ginv
    dg, dgam, R = G.grad(g, d), G.grad(gam, d), geo.riemann

    def same(jet, want):
        assert np.array_equal(jet.c, want.c)

    for k, i, j in np.ndindex(d, d, d):
        acc = ginv[k, 0] * (dg[i, j, 0] + dg[j, i, 0] - dg[0, i, j])
        for l in range(1, d):
            acc = acc + ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
        same(gam[k, i, j], 0.5 * acc)
    for a, i, j, k in np.ndindex(d, d, d, d):
        if i < j:
            acc = dgam[i, a, j, k] - dgam[j, a, i, k]
            for b in range(d):
                acc = acc + gam[a, i, b] * gam[b, j, k]
                acc = acc - gam[a, j, b] * gam[b, i, k]
            same(R[a, i, j, k], acc)
            same(R[a, j, i, k], -acc)
    nab = geo.covd(g, (1, 1))
    for m, x, y in np.ndindex(d, d, d):
        acc = dg[m, x, y]
        for b in range(d):
            acc = acc + gam[x, m, b] * g[b, y]
        for b in range(d):
            acc = acc - gam[b, m, y] * g[x, b]
        same(nab[m, x, y], acc)
    f = geo.x[0] * geo.x[d - 1]
    df = [f.partial(i) for i in range(d)]
    hess = np.empty((d, d), object)
    for i, j in np.ndindex(d, d):
        hess[i, j] = df[i].partial(j)
        for k in range(d):
            hess[i, j] = hess[i, j] - gam[k, i, j] * df[k]
    same(geo.laplacian_scalar(f), -np.tensordot(geo.ginv, hess, 2)[()])
    dw = G.exterior_derivative(g[0])
    for i, j in np.ndindex(d, d):
        same(dw[i, j], dg[i, 0, j] + -dg[j, 0, i])


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
