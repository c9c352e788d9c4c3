"""Contact metric structures: axioms, classification residuals, cone data."""

import numpy as np
import pytest

from conelab import contact as CT
from conelab.chart import jet_point
from conelab.geometry import PointGeometry, tvalues
from conelab.rng import SplitMix64

from .conftest import sample
from . import oracles


def test_blair_phi_closed_form(blair):
    """phi matches the hand-derived endomorphism of the normalised torus."""
    st = CT.ContactMetricStructure(blair.chart, blair.structures[0].xi, "blair")
    pts, _, _ = sample(blair.chart, 12, seed=5)
    geo = PointGeometry(blair.chart, jet_point(blair.chart, pts, 2))
    phi = tvalues(st.phi(geo))
    t = pts[:, 0]
    want = np.zeros_like(phi)
    # phi d_t = -sin t d_x + cos t d_y; phi d_x = sin t d_t; phi d_y = -cos t d_t
    want[:, 1, 0] = -np.sin(t)
    want[:, 2, 0] = np.cos(t)
    want[:, 0, 1] = np.sin(t)
    want[:, 0, 2] = -np.cos(t)
    assert np.max(np.abs(phi - want)) < 1e-13


def test_blair_validates_and_kc_exact(blair):
    st = blair.structures[0]
    pts, _, _ = sample(blair.chart, 100, seed=15)
    assert np.max(CT.kc_residuals(st, pts)) < 1e-10
    reeb = CT.reeb_residuals(st, pts)
    for vals in reeb.values():
        assert np.max(vals) < 1e-12


def test_unnormalized_fails_kc_with_three_quarters(unnormalized):
    """The printed 1-form on the unit torus misses the axiom by exactly 3/4."""
    spec = unnormalized.structures[0]
    st = CT.ContactMetricStructure(unnormalized.chart, spec.xi, spec.name)
    pts, _, _ = sample(unnormalized.chart, 60, seed=25)
    assert np.max(CT.unit_length_residuals(st, pts)) < 1e-12
    # 3/4 of the rank-2 projector onto ker eta: frame norm sqrt(2) * 3/4
    res = CT.kc_residuals(st, pts)
    assert np.max(np.abs(res - np.sqrt(2.0) * 0.75)) < 1e-12


def test_sphere_structures_validate(s3, s5):
    for entry in (s3, s5):
        for st in entry.structures:
            pts, _, _ = sample(entry.chart, 30, seed=35)
            assert np.max(CT.kc_residuals(st, pts)) < 1e-8


def test_s3_reeb_fields_match_quaternion_oracle(s3):
    """Catalog j/k fields equal the ambient left multiplications."""
    pts, _, _ = sample(s3.chart, 20, seed=45)
    for spec, quat in zip(s3.structures,
                          (oracles.QUAT_I, oracles.QUAT_J, oracles.QUAT_K), strict=True):
        xi = spec.xi
        geo = PointGeometry(s3.chart, jet_point(s3.chart, pts, 0))
        vals = tvalues(xi(geo.x))
        for b, p in enumerate(pts):
            want = oracles.s3_reeb_ambient(p, quat)
            assert np.max(np.abs(vals[b] - want)) < 1e-12, name


def test_killing_classification(blair, s3, s5):
    pts3 = sample(blair.chart, 80, seed=55)[0]
    st = CT.ContactMetricStructure(blair.chart, blair.structures[0].xi, "blair")
    res = CT.killing_residuals(st, pts3)
    assert np.max(res) >= 0.4
    # witness from the statement: coordinate value t = pi/2
    wit = CT.killing_residuals(st, np.array([[np.pi / 2, 1.0, 2.0]]))
    assert wit[0] >= 0.4
    # sign flip leaves the Lie derivative residual unchanged
    def neg(x):
        return np.array([v * (-1.0) for v in blair.structures[0].xi(x)], dtype=object)

    st_neg = CT.ContactMetricStructure(blair.chart, neg, "minus")
    assert np.max(np.abs(CT.killing_residuals(st_neg, pts3) - res)) < 1e-12
    for entry in (s3, s5):
        st = CT.ContactMetricStructure(entry.chart, entry.structures[0].xi, "i")
        pts, _, _ = sample(entry.chart, 25, seed=65)
        assert np.max(CT.killing_residuals(st, pts)) < 1e-8


def test_ricci_reeb_criterion(blair, s3, s5):
    st = CT.ContactMetricStructure(blair.chart, blair.structures[0].xi, "blair")
    pts, _, _ = sample(blair.chart, 50, seed=75)
    deficit = CT.ricci_reeb_deficit(st, pts)
    assert np.max(np.abs(deficit + 2.0)) < 1e-10     # flat: 0 - 2n = -2
    for entry in (s3, s5):
        st = CT.ContactMetricStructure(entry.chart, entry.structures[0].xi, "i")
        pts, _, _ = sample(entry.chart, 25, seed=85)
        assert np.max(np.abs(CT.ricci_reeb_deficit(st, pts))) < 1e-8


def test_sasaki_classification(blair, s3, s5):
    st = CT.ContactMetricStructure(blair.chart, blair.structures[0].xi, "blair")
    pts, _, _ = sample(blair.chart, 50, seed=95)
    assert np.max(CT.sasaki_residuals(st, pts)) >= 0.4
    for entry in (s3, s5):
        pts, _, _ = sample(entry.chart, 25, seed=105)
        for spec in entry.structures:
            st = CT.ContactMetricStructure(entry.chart, spec.xi, spec.name)
            assert np.max(CT.sasaki_residuals(st, pts)) < 1e-7


def test_cone_symplectic_data(blair, s3):
    for entry in (blair, s3):
        pts, radii, _ = sample(entry.chart, 30, seed=115)
        cpts = np.column_stack([pts, radii])
        res = CT.symplectic_residuals(entry.structures[0], cpts)
        assert np.max(res["symplectic-closed"]) < 1e-9
        assert np.max(res["symplectic-norm"]) < 1e-9   # |Omega|^2 = dim = 2n+2
        assert np.max(res["complex-square"]) < 1e-9
        assert np.max(res["complex-isometry"]) < 1e-9


def test_cone_symplectic_rejects_invalid_base(unnormalized):
    """Over a base that misses the contact metric axiom, J^2 != -Id."""
    st = unnormalized.structures[0]
    cpts = st.cone.sample_points(25, SplitMix64(1202))
    assert np.max(CT.symplectic_residuals(st, cpts)["complex-square"]) > 1e-8


def test_j_radial_action_and_ambient_match(s3):
    """J d_r = xi / r, and on the flat cone J matches the ambient i."""
    st = s3.structures[0]
    pts, radii, _ = sample(s3.chart, 15, seed=125)
    cpts = np.column_stack([pts, radii])
    cone = st.cone
    geo = PointGeometry(cone, jet_point(cone, cpts, 1))
    j = tvalues(st.complex_structure(geo))
    xi = tvalues(st.xi(geo.x[:-1]))
    for b in range(len(cpts)):
        want_r = np.concatenate([xi[b] / radii[b], [0.0]])
        assert np.max(np.abs(j[b, :, 3] - want_r)) < 1e-12
        ambient = oracles.ambient_complex_structure_on_cone(cpts[b], oracles.QUAT_I)
        agree = min(np.max(np.abs(j[b] - ambient)), np.max(np.abs(j[b] + ambient)))
        assert agree < 1e-9


def test_parallel_omega_iff_sasaki(blair, s3):
    pts_b, radii_b, _ = sample(blair.chart, 40, seed=135)
    st_b = CT.ContactMetricStructure(blair.chart, blair.structures[0].xi, "blair")
    par_b = CT.parallel_omega_residuals(st_b, np.column_stack([pts_b, radii_b]))
    sas_b = CT.sasaki_residuals(st_b, pts_b)
    assert np.min(par_b) > 0.1 and np.max(sas_b) > 0.1

    pts_s, radii_s, _ = sample(s3.chart, 40, seed=145)
    st_s = CT.ContactMetricStructure(s3.chart, s3.structures[0].xi, "i")
    par_s = CT.parallel_omega_residuals(st_s, np.column_stack([pts_s, radii_s]))
    sas_s = CT.sasaki_residuals(st_s, pts_s)
    assert np.max(par_s) < 1e-7 and np.max(sas_s) < 1e-7


def test_phi_solves_defining_linear_system(s3):
    """g(phi X, Y) = d(eta)(X, Y) / 2 literally, on random directions."""
    st = s3.structures[1]
    pts, _, dirs = sample(s3.chart, 20, seed=155)
    geo = PointGeometry(s3.chart, jet_point(s3.chart, pts, 2))
    phi = tvalues(st.phi(geo))
    half = tvalues(st.half_deta(geo))
    g = geo.g_values
    lhs = np.einsum("zai,zi,zab,zb->z", phi, dirs[0], g, dirs[1])
    rhs = np.einsum("zij,zi,zj->z", half, dirs[0], dirs[1])
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_report_operations(blair, s3):
    """Reports over the classification kernels carry the expected verdicts."""
    from conelab.report import make_report

    st_b = CT.ContactMetricStructure(blair.chart, blair.structures[0].xi, "blair")
    pts, radii, _ = sample(blair.chart, 20, seed=165)
    rep = make_report("killing-field", "K-contact (xi Killing)",
                      CT.killing_residuals(st_b, pts), 1e-7, pts)
    assert rep.verdict == "fail" and rep.max_residual >= 0.4
    rep = make_report("ricci-reeb-criterion", "Ric(xi,xi) = 2n",
                      np.abs(CT.ricci_reeb_deficit(st_b, pts)), 1e-7, pts)
    assert rep.verdict == "fail"
    assert rep.max_residual == pytest.approx(2.0, abs=1e-10)
    rep = make_report("sasaki-defect", "Eq. (xd)",
                      CT.sasaki_residuals(st_b, pts), 1e-7, pts)
    assert rep.verdict == "fail" and rep.witness is not None

    st_s = CT.ContactMetricStructure(s3.chart, s3.structures[0].xi, "i")
    pts_s, radii_s, _ = sample(s3.chart, 20, seed=175)
    cpts_s = np.column_stack([pts_s, radii_s])
    rep = make_report("parallel-omega", "parallel Omega iff Sasakian",
                      CT.parallel_omega_residuals(st_s, cpts_s), 1e-7, cpts_s)
    assert rep.verdict == "pass"
