"""Acceptance gate: every exit criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Tolerances are pinned here, not configurable.
"""

import numpy as np

from conelab import catalog
from conelab import cone as C
from conelab import contact as CT
from conelab import pairs as P
from conelab import weitzenboeck as W
from conelab.report import SuiteConfig, report_json
from conelab.rng import SplitMix64
from conelab.suites import (
    _lemma_functions,
    _lemma_oneforms,
    _test_twoform,
    run_suite,
)

SAMPLES = 200


def _record(criterion, label, ok, detail=""):
    import sys

    state = "PASS" if ok else "FAIL"
    line = f"[ACCEPTANCE {criterion}] {state}  {label}  {detail}"
    print(line)
    # the per-criterion line must be visible even under pytest capture
    print(line, file=sys.__stdout__)
    assert ok, f"criterion {criterion}: {label} {detail}"


def _draw(chart, n=SAMPLES, seed=0xACCE97):
    rng = SplitMix64(seed)
    pts = chart.sample_points(n, rng)
    radii = rng.uniforms(n, 0.5, 3.0)
    dirs = [np.array([rng.unit_vector(chart.dim) for _ in range(n)])
            for _ in range(3)]
    return rng, pts, radii, dirs


def test_criterion_1_cone_calculus():
    """Eqs. (1)-(4): residuals < 1e-7 on both catalog cones, 200 samples."""
    worst = 0.0
    for key in ("t3-blair", "s3-round"):
        entry = catalog.get(key)
        cn = C.build_cone(entry.chart)
        _, pts, radii, dirs = _draw(entry.chart)
        # one order-3 geometry pair, as the cone-identities suite builds it
        geo = C.cone_geometry(cn, pts, radii, 3)
        bgeo = C.base_geometry(cn, pts, 3)
        res = C.connection_relation_residuals(geo, bgeo, dirs[0], dirs[1])
        worst = max(worst, max(np.max(v) for v in res.values()))
        res = C.form_relation_residuals(geo, bgeo, dirs[0],
                                        _lemma_oneforms(3)[3], 1)
        worst = max(worst, max(np.max(v) for v in res.values()))
        res = C.form_relation_residuals(geo, bgeo, dirs[0], _test_twoform(3), 2)
        worst = max(worst, max(np.max(v) for v in res.values()))
        res = C.dr_relation_residuals(geo, bgeo, dirs[0])
        worst = max(worst, max(np.max(v) for v in res.values()))
        res = C.curvature_relation_residuals(geo, bgeo, *dirs)
        worst = max(worst, max(np.max(v) for v in res.values()))
    _record(1, "cone calculus Eqs. (1)-(4) on both cones", worst < 1e-7,
            f"max residual {worst:.3e} < 1e-7")


def test_criterion_2_lemma_dual_paths():
    """Lemma 2.2: dual-path residuals < 1e-6; Delta(r^2) = -8 to 1e-9."""
    worst = 0.0
    drift = 0.0
    for key in ("t3-blair", "s3-round"):
        entry = catalog.get(key)
        cn = C.build_cone(entry.chart)
        _, pts, radii, _ = _draw(entry.chart, n=60)
        geo = C.cone_geometry(cn, pts, radii, 3)
        bgeo = C.base_geometry(cn, pts, 3)
        for k in (-2, 0, 1, 2, 3):
            for fn in _lemma_oneforms(entry.chart.dim):
                r, _, _ = C.lemma_codifferential_residuals(geo, bgeo, fn, k)
                worst = max(worst, np.max(r))
            for fn in _lemma_functions():
                r, _, _ = C.lemma_laplacian_residuals(geo, bgeo, fn, k)
                worst = max(worst, np.max(r))
        one = lambda x: x[0] * 0.0 + 1.0
        _, lhs, _ = C.lemma_laplacian_residuals(geo, bgeo, one, 2)
        drift = max(drift, np.max(np.abs(lhs + 8.0)))
    ok = worst < 1e-6 and drift < 1e-9
    _record(2, "Lemma 2.2(i)-(ii) dual paths + Delta(r^2) = -8", ok,
            f"sweep {worst:.3e} < 1e-6, quadratic {drift:.3e} < 1e-9")


def test_criterion_3_blair_counterexample():
    """Flat Einstein contact torus that is not K-contact, end to end."""
    entry = catalog.get("t3-blair")
    st = entry.structure()
    _, pts, _, _ = _draw(entry.chart)
    kc = np.max(CT.kc_residuals(st, pts))
    killing_witness = CT.killing_residuals(
        st, np.array([[np.pi / 2, 1.0, 2.0]]))[0]
    deficit = CT.ricci_reeb_deficit(st, pts)
    sasaki = np.max(CT.sasaki_residuals(st, pts))
    ok = (kc < 1e-10 and killing_witness >= 0.4
          and np.max(np.abs(deficit + 2.0)) < 1e-10 and sasaki >= 0.4)
    _record(3, "Blair counterexample reproduced", ok,
            f"kc {kc:.2e} < 1e-10, killing@t=pi/2 {killing_witness:.2f} >= 0.4, "
            f"Ric(xi,xi)-2n = -2 +- {np.max(np.abs(deficit + 2.0)):.1e}, "
            f"sasaki {sasaki:.2f} >= 0.4")


def test_criterion_4_einstein_k_contact_instances():
    """S^3 and S^5 pass every positive check; their cones are Kaehler."""
    worst = 0.0
    for key in ("s3-round", "s5-round"):
        entry = catalog.get(key)
        n = SAMPLES if key == "s3-round" else 60
        _, pts, radii, _ = _draw(entry.chart, n=n)
        st = entry.structure()
        worst = max(worst, np.max(CT.kc_residuals(st, pts)))
        worst = max(worst, np.max(CT.killing_residuals(st, pts)))
        worst = max(worst, np.max(np.abs(CT.ricci_reeb_deficit(st, pts))))
        worst = max(worst, np.max(CT.sasaki_residuals(st, pts)))
        sympl = CT.ConeSymplecticData(C.build_cone(entry.chart), st)
        cpts = np.column_stack([pts, radii])
        worst = max(worst, np.max(CT.parallel_omega_residuals(sympl, cpts)))
    _record(4, "Einstein K-contact spheres are Sasakian with Kaehler cones",
            worst < 1e-7, f"max residual {worst:.3e} < 1e-7")


def test_criterion_5_weitzenboeck_blair_cone():
    entry = catalog.get("t3-blair")
    sympl = CT.ConeSymplecticData(C.build_cone(entry.chart), entry.structure())
    rng, pts, radii, _ = _draw(entry.chart)
    data = W.weitzenboeck_data(sympl, pts, radii)

    star = np.max(W.star_scalar_consistency(data))
    dirs = np.array([rng.unit_vector(4) for _ in range(len(pts))])
    phi_id = np.max(W.phi_identity_residuals(data, dirs))
    nonneg = float(np.min(data.solved_rpp_sq))

    d1 = W.weitzenboeck_data(sympl, pts, np.ones(len(pts)))
    d2 = W.weitzenboeck_data(sympl, pts, np.full(len(pts), 2.0))
    f1 = d1.s_star
    f2 = d2.s_star * 4.0
    prof = np.max(np.abs(f1 - f2) / np.maximum(np.abs(f1), 1e-12))
    fmin = float(np.min(d1.s_star))
    scale = np.max(W.scaling_ratio(d1.solved_rpp_sq, d2.solved_rpp_sq,
                                   1.0, 2.0))
    ok = (star < 1e-6 and prof < 1e-6 and fmin > 0 and phi_id < 1e-7
          and nonneg >= -1e-5 and scale < 1e-4)
    _record(5, "Weitzenboeck suite on the Blair cone", ok,
            f"s*-s {star:.1e} < 1e-6, profile {prof:.1e} < 1e-6, "
            f"f_min {fmin:.2f} > 0, phi {phi_id:.1e} < 1e-7, "
            f"solved_min {nonneg:.2e} >= -1e-5, scaling {scale:.1e} < 1e-4")


def test_criterion_6_integrated_step():
    def worst_integral(manifold, r):
        """Largest |integral| over M_r; each integral-* residual is one."""
        reports = run_suite(SuiteConfig(manifold=manifold, suite="integration",
                                        radii=(r,)))
        return max(rep.max_residual for rep in reports
                   if rep.identity.startswith("integral-"))

    worst_div = max(worst_integral("t3-blair", r) for r in (1.0, 2.0))
    worst_nonneg = worst_integral("s3-round", 1.0)
    ok = worst_div < 1e-6 and worst_nonneg < 1e-8
    _record(6, "integrated balance terms", ok,
            f"divergence {worst_div:.3e} < 1e-6, "
            f"nonnegative {worst_nonneg:.3e} < 1e-8")


def test_criterion_7_structure_algebra():
    entry = catalog.get("s3-round")
    cn = C.build_cone(entry.chart)

    def sympl(name):
        st = CT.ContactMetricStructure(entry.chart, entry.structure(name).xi,
                                       name)
        return CT.ConeSymplecticData(cn, st)

    pair = P.StructurePair(sympl("i"), sympl("j"))
    rng, pts, radii, _ = _draw(entry.chart)
    cpts = np.column_stack([pts, radii])
    lam, qres, var = P.anticommutator_lambda(pair, cpts)
    a2 = np.max(P.commutator_square_residuals(pair, cpts, lam))
    par = np.max(P.parallel_third_structure_residuals(pair, cpts, lam))
    quat = max(np.max(v) for v in
               P.quaternion_relation_residuals(pair, cpts, lam).values())
    _, resid_k, unit_k = P.s2_family_coefficients(pair, sympl("k"), cpts, lam)

    raw = np.array([rng.uniform(-1, 1) for _ in range(3)])
    a, b, c_ = raw / np.linalg.norm(raw)
    st = CT.ContactMetricStructure(
        entry.chart, catalog.reeb_combination(entry.structures, (a, b, c_)),
        "combo")
    sas = np.max(CT.sasaki_residuals(st, pts))
    combo = CT.ConeSymplecticData(cn, st)
    coeffs, resid_c, unit_c = P.s2_family_coefficients(pair, combo, cpts, lam)
    landed = np.max(np.abs(coeffs - np.array([c_, a, b])))

    ok = (abs(lam) < 1e-8 and np.max(qres) < 1e-8 and a2 < 1e-8
          and par < 1e-7 and quat < 1e-8
          and np.max(unit_k) < 1e-8 and np.max(resid_k) < 1e-8
          and sas < 1e-6 and np.max(unit_c) < 1e-8 and landed < 1e-8)
    _record(7, "two Sasakian structures force the quaternionic triple", ok,
            f"lambda {lam:.1e}, Q-defect {np.max(qres):.1e}, A^2 {a2:.1e}, "
            f"nab I {par:.1e}, quaternion {quat:.1e}, unit {np.max(unit_c):.1e}, "
            f"random member sasaki {sas:.1e}, landed {landed:.1e}")


def test_criterion_8_determinism():
    config_a = SuiteConfig(manifold="t3-blair", suite="kcontact", samples=40,
                           seed=90210)
    config_b = SuiteConfig(manifold="t3-blair", suite="kcontact", samples=40,
                           seed=90210)
    bytes_a = report_json(config_a, run_suite(config_a)).encode()
    bytes_b = report_json(config_b, run_suite(config_b)).encode()
    ok = bytes_a == bytes_b
    _record(8, "identical config implies byte-identical report", ok,
            f"{len(bytes_a)} bytes compared")
