"""Cone construction, the connection/curvature relations, and the lemma.

Everything dual-path: cone-chart quantities on the left, base quantities with
explicit r powers on the right.  The flat-cone and Ricci facts are also
cross-checked against the finite-difference curvature oracle.
"""

import numpy as np
import pytest

from conelab import cone as C
from conelab import geometry as G
from conelab.jets import cos, sin

from .conftest import cone_geometries, geometry, sample
from . import oracles


@pytest.fixture(scope="module")
def tcone(blair):
    return C.build_cone(blair.chart)


@pytest.fixture(scope="module")
def scone(s3):
    return C.build_cone(s3.chart)


def test_block_metric(tcone, scone, blair, s3):
    for cn, entry in ((tcone, blair), (scone, s3)):
        pts, radii, _ = sample(entry.chart, 50, seed=7)
        assert np.max(C.block_metric_residuals(cn, pts, radii)) < 1e-13


def test_radial_christoffel_pinned(tcone):
    gam = G.tvalues(geometry(tcone.chart, [1.0, 2.0, 3.0, 2.0], 1).gamma)[0]
    # nab_{d_r} d_t = d_t / r: Gamma^t_{r t} = 1/2 at r = 2
    assert gam[0, 3, 0] == pytest.approx(0.5, abs=1e-12)
    assert gam[3, 3, 3] == pytest.approx(0.0, abs=1e-14)


def test_sphere_cone_is_flat(scone):
    pts, radii, _ = sample(scone.base, 8, seed=17)
    for p, r in zip(pts, radii):
        cp = list(p) + [r]
        assert np.max(np.abs(G.tvalues(geometry(scone.chart, cp, 2).riemann))) < 1e-9
    # independent path: finite differences on the 4-dim chart, evaluated
    # away from the alpha wall where the stencil stays well conditioned
    for cp in ([0.6, 1.0, 2.0, 1.3], [1.0, 4.0, 5.5, 2.4]):
        assert np.max(np.abs(oracles.riemann_fd(scone.chart, cp))) < 2e-6


def test_torus_cone_ricci(tcone, blair):
    """Cone over the flat torus: Ric = -2 g_base on lifted directions.

    The base-block components are r-independent (-2 g_base, not -2 r^2 g),
    and the radial row vanishes; the finite-difference oracle agrees.
    """
    gb = blair.chart.metric_values([[1.0, 2.0, 3.0]])[0]
    for r in (1.0, 2.0):
        cp = [1.0, 2.0, 3.0, r]
        ric = G.tvalues(geometry(tcone.chart, cp, 2).ricci)[0]
        assert np.max(np.abs(ric[:3, :3] + 2 * gb)) < 1e-10
        assert np.max(np.abs(ric[3, :])) < 1e-10
        fd = oracles.ricci_fd(tcone.chart, cp)
        assert np.max(np.abs(ric - fd)) < 1e-6


def test_connection_relations(tcone, scone, blair, s3):
    for cn, entry in ((tcone, blair), (scone, s3)):
        pts, radii, dirs = sample(entry.chart, 40, seed=27)
        geo, bgeo = cone_geometries(cn, pts, radii)
        res = C.connection_relation_residuals(geo, bgeo, dirs[0], dirs[1])
        for key, vals in res.items():
            assert np.max(vals) < 1e-8, key


def test_form_relations(tcone, scone, blair, s3):
    def oneform(x):
        out = np.empty(3, object)
        out[0] = sin(x[0])
        out[1] = cos(x[1])
        out[2] = x[0] * 0.0 + 0.4
        return out

    def twoform(x):
        z = x[0] * 0.0
        c = cos(x[0]) + sin(x[1])
        out = np.empty((3, 3), object)
        for i in range(3):
            for j in range(3):
                out[i, j] = z
        out[0, 1] = c
        out[1, 0] = z - c
        out[1, 2] = sin(x[0])
        out[2, 1] = z - sin(x[0])
        return out

    for cn, entry in ((tcone, blair), (scone, s3)):
        pts, radii, dirs = sample(entry.chart, 30, seed=37)
        geo, bgeo = cone_geometries(cn, pts, radii)
        res = C.form_relation_residuals(geo, bgeo, dirs[0], oneform, 1)
        assert np.max(res["form-radial"]) < 1e-8
        assert np.max(res["form-directional"]) < 1e-8
        res = C.form_relation_residuals(geo, bgeo, dirs[0], twoform, 2)
        assert np.max(res["form-radial"]) < 1e-8
        assert np.max(res["form-directional"]) < 1e-8


def test_lifted_form_r_scaling(tcone, blair):
    """Components of nab(lifted form) obey the exact r powers."""
    def oneform(x):
        out = np.empty(3, object)
        out[0] = sin(x[0])
        out[1] = cos(x[0])
        out[2] = x[0] * 0.0
        return out

    pts, _, _ = sample(blair.chart, 10, seed=47)
    lifted = C.lift_form(oneform, 1)
    vals = {}
    for r in (1.0, 2.0):
        geo = C.cone_geometry(tcone, pts, np.full(10, r), 2)
        vals[r] = G.tvalues(geo.covd(lifted(geo.x), (0, 1)))
    d = 3
    # base-base block is r-independent; dr-row scales like 1/r;
    # dr-column block (from the wedge term) is r-independent as well
    assert np.max(np.abs(vals[1.0][:, :d, :d] - vals[2.0][:, :d, :d])) < 1e-12
    assert np.max(np.abs(vals[1.0][:, d, :d] - 2.0 * vals[2.0][:, d, :d])) < 1e-12


def test_dr_relations(tcone, blair):
    pts, radii, dirs = sample(blair.chart, 40, seed=57)
    res = C.dr_relation_residuals(*cone_geometries(tcone, pts, radii), dirs[0])
    assert np.max(res["dr-radial"]) < 1e-10
    assert np.max(res["dr-hessian"]) < 1e-10


def test_curvature_relations(tcone, scone, blair, s3):
    for cn, entry in ((tcone, blair), (scone, s3)):
        pts, radii, dirs = sample(entry.chart, 30, seed=67)
        res = C.curvature_relation_residuals(
            *cone_geometries(cn, pts, radii), *dirs)
        assert np.max(res["curvature-radial"]) < 1e-8
        assert np.max(res["curvature-horizontal"]) < 1e-8


def test_lemma_codifferential_dual_path(tcone, scone, blair, s3):
    def oneform(x):
        out = np.empty(3, object)
        out[0] = sin(x[0])
        out[1] = cos(x[1]) * sin(x[0])
        out[2] = x[0] * 0.0 + 1.0
        return out

    for cn, entry in ((tcone, blair), (scone, s3)):
        pts, radii, _ = sample(entry.chart, 25, seed=77)
        geo, bgeo = cone_geometries(cn, pts, radii)
        for k in (-2, 0, 1, 2, 3):
            res, _, _ = C.lemma_codifferential_residuals(geo, bgeo, oneform, k)
            assert np.max(res) < 1e-8, k


def test_lemma_codifferential_pinned_value(unnormalized):
    """k = 0 on the standard torus cone at r = 2: both sides -cos(t)/4."""
    cn = C.build_cone(unnormalized.chart)

    def sigma(x):
        out = np.empty(3, object)
        out[0] = sin(x[0])
        out[1] = x[0] * 0.0
        out[2] = x[0] * 0.0
        return out

    pts, _, _ = sample(unnormalized.chart, 8, seed=87)
    geo, bgeo = cone_geometries(cn, pts, np.full(8, 2.0))
    res, lhs, rhs = C.lemma_codifferential_residuals(geo, bgeo, sigma, 0)
    assert np.max(np.abs(lhs - (-np.cos(pts[:, 0]) / 4))) < 1e-12
    assert np.max(np.abs(rhs - (-np.cos(pts[:, 0]) / 4))) < 1e-12
    # k = 3 at r = 2: r^{k-2} delta sigma = -2 cos t
    res, lhs, rhs = C.lemma_codifferential_residuals(geo, bgeo, sigma, 3)
    assert np.max(np.abs(lhs - (-2 * np.cos(pts[:, 0])))) < 1e-12


def test_lemma_laplacian_dual_path(tcone, scone, blair, s3):
    fns = [
        lambda x: x[0] * 0.0 + 1.0,
        lambda x: sin(x[0]),
        lambda x: sin(x[0]) * cos(x[1]),
    ]
    for cn, entry in ((tcone, blair), (scone, s3)):
        pts, radii, _ = sample(entry.chart, 25, seed=97)
        geo, bgeo = cone_geometries(cn, pts, radii)
        for k in (-2, 0, 1, 2, 3):
            for fn in fns:
                res, _, _ = C.lemma_laplacian_residuals(geo, bgeo, fn, k)
                assert np.max(res) < 1e-8


def test_laplacian_of_r_squared(tcone, scone):
    """Delta(r^2) = -2(2n+2) on any cone: -8 for the n = 1 catalog cones."""
    one = lambda x: x[0] * 0.0 + 1.0
    for cn in (tcone, scone):
        pts, radii, _ = sample(cn.base, 20, seed=107)
        _, lhs, _ = C.lemma_laplacian_residuals(
            *cone_geometries(cn, pts, radii), one, 2)
        assert np.max(np.abs(lhs + 8.0)) < 1e-9


def test_lemma_negative_weight_matches_balance_step(tcone):
    """k = -2: Delta(f / r^2) = r^{-4}(Delta f + 2(2n-2) f); n = 1 kills
    the zeroth-order term."""
    fn = lambda x: sin(x[0])
    pts, radii, _ = sample(tcone.base, 15, seed=117)
    _, lhs, _ = C.lemma_laplacian_residuals(
        *cone_geometries(tcone, pts, radii), fn, -2)
    want = (4.0 * np.sin(pts[:, 0])) / radii**4  # Delta^M sin t = 4 sin t here
    assert np.max(np.abs(lhs - want)) < 1e-10


def test_lifted_contact_form_radial_derivative(s3, scone):
    """nab_{d_r} (lifted eta) = -eta / r for the sphere's contact 1-form."""
    from conelab import contact as CT
    from conelab.geometry import PointGeometry

    st = CT.ContactMetricStructure(s3.chart, s3.structure("i").xi, "i")

    def eta_fn(x):
        return st.eta(PointGeometry(s3.chart, x))

    pts, radii, _ = sample(s3.chart, 15, seed=127)
    lifted = C.lift_form(eta_fn, 1)
    geo = C.cone_geometry(scone, pts, radii, 2)
    nab = G.tvalues(geo.covd(lifted(geo.x), (0, 1)))
    bgeo = C.base_geometry(scone, pts, 1)
    eta_vals = G.tvalues(eta_fn(bgeo.x))
    want = -eta_vals / radii[:, None]
    assert np.max(np.abs(nab[:, 3, :3] - want)) < 1e-12
    assert np.max(np.abs(nab[:, 3, 3])) < 1e-12


def test_check_report_operations(tcone):
    """Reports over the transfer kernels pass at their default tolerances."""
    from conelab.report import make_report

    pts, radii, dirs = sample(tcone.base, 25, seed=12)
    cpts = np.column_stack([pts, radii])

    def generic_oneform(x):
        out = np.empty(3, object)
        out[0] = sin(x[0])
        out[1] = cos(x[1]) + sin(x[0])
        out[2] = x[0] * 0.0 + 0.5
        return out

    geo, bgeo = cone_geometries(tcone, pts, radii)
    res = C.connection_relation_residuals(geo, bgeo, dirs[0], dirs[1])
    res.update(C.form_relation_residuals(geo, bgeo, dirs[0], generic_oneform, 1))
    res.update(C.dr_relation_residuals(geo, bgeo, dirs[0]))
    res.update(C.curvature_relation_residuals(geo, bgeo, *dirs))
    assert set(res) >= {"radial-geodesic", "horizontal-connection",
                        "curvature-radial", "curvature-horizontal"}
    reports = [make_report(key, "Eqs. (1)-(4)", vals, 1e-7, cpts)
               for key, vals in res.items()]
    assert all(r.verdict == "pass" for r in reports)

    def sigma(x):
        out = np.empty(3, object)
        out[0] = sin(x[0])
        out[1] = x[0] * 0.0
        out[2] = x[0] * 0.0
        return out

    r, _, _ = C.lemma_codifferential_residuals(geo, bgeo, sigma, 3)
    rep = make_report("codifferential-k+3", "Lemma 2.2(i)", r, 1e-6, cpts)
    assert rep.verdict == "pass"
    r, _, _ = C.lemma_laplacian_residuals(geo, bgeo, lambda x: sin(x[0]), -2)
    rep = make_report("laplacian-k-2", "Lemma 2.2(ii)", r, 1e-6, cpts)
    assert rep.verdict == "pass"
