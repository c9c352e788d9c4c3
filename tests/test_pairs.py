"""Two-structure algebra on the flat sphere cone: the quaternionic triple."""

import numpy as np
import pytest

from conelab import catalog
from conelab import cone as C
from conelab import contact as CT
from conelab import pairs as P
from conelab.errors import DegeneratePairError
from conelab.geometry import tvalues

from .conftest import geometry, sample


@pytest.fixture(scope="module")
def sphere_pair(s3):
    cn = C.build_cone(s3.chart)

    def sympl(name):
        st = CT.ContactMetricStructure(s3.chart, s3.structure(name).xi, name)
        return CT.ConeSymplecticData(cn, st)

    return P.StructurePair(sympl("i"), sympl("j")), sympl("k"), cn


@pytest.fixture(scope="module")
def cone_samples(s3):
    pts, radii, _ = sample(s3.chart, 40, seed=3)
    return np.column_stack([pts, radii]), pts


def test_lambda_vanishes_for_orthogonal_pair(sphere_pair, cone_samples):
    pair, _, _ = sphere_pair
    cpts, _ = cone_samples
    lam, res, var = P.anticommutator_lambda(pair, cpts)
    assert abs(lam) < 1e-10
    assert np.max(res) < 1e-10
    assert var < 1e-10


def test_lambda_boundary_cases(sphere_pair, cone_samples):
    """J' = J gives lambda = -2; J' = -J gives +2; both are degenerate."""
    pair, _, cn = sphere_pair
    cpts, _ = cone_samples
    same = P.StructurePair(pair.first, pair.first)
    lam, _, _ = P.anticommutator_lambda(same, cpts)
    assert lam == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(DegeneratePairError):
        P.third_structure_values(same, cpts, lam)

    first = pair.first

    def neg_xi(x):
        return np.array([v * (-1.0) for v in first.structure.xi(x)],
                        dtype=object)

    st_neg = CT.ContactMetricStructure(first.structure.chart, neg_xi, "neg")
    flipped = P.StructurePair(first, CT.ConeSymplecticData(cn, st_neg))
    lam2, _, _ = P.anticommutator_lambda(flipped, cpts)
    assert lam2 == pytest.approx(2.0, abs=1e-12)


def test_commutator_square(sphere_pair, cone_samples):
    pair, _, _ = sphere_pair
    cpts, _ = cone_samples
    assert np.max(P.commutator_square_residuals(pair, cpts, 0.0)) < 1e-10


def test_third_structure_is_k(sphere_pair, cone_samples):
    """I from the (i, j) pair equals the catalog k-structure's J exactly."""
    pair, sympl_k, _ = sphere_pair
    cpts, _ = cone_samples
    geo, _, _, i_ = P.third_structure_values(pair, cpts, 0.0)
    jk = tvalues(sympl_k.complex_structure(geo))
    assert np.max(np.abs(i_ - jk)) < 1e-10

    res = P.third_structure_residuals(pair, cpts, 0.0)
    for key, vals in res.items():
        assert np.max(vals) < 1e-10, key


def test_third_structure_parallel(sphere_pair, cone_samples):
    pair, _, _ = sphere_pair
    cpts, _ = cone_samples
    assert np.max(P.parallel_third_structure_residuals(pair, cpts, 0.0)) < 1e-10


def test_quaternion_relations(sphere_pair, cone_samples):
    pair, _, _ = sphere_pair
    cpts, _ = cone_samples
    res = P.quaternion_relation_residuals(pair, cpts, 0.0)
    for key, vals in res.items():
        assert np.max(vals) < 1e-10, key


def test_s2_family_readout(sphere_pair, cone_samples):
    """The k-structure reads out as the I axis; unit norm; constant."""
    pair, sympl_k, _ = sphere_pair
    cpts, _ = cone_samples
    coeffs, resid, unit = P.s2_family_coefficients(pair, sympl_k, cpts, 0.0)
    assert np.max(np.abs(coeffs - np.array([1.0, 0.0, 0.0]))) < 1e-10
    assert np.max(resid) < 1e-10
    assert np.max(unit) < 1e-10


def test_s2_family_random_combination(sphere_pair, cone_samples, s3, rng):
    """xi = a i + b j + c k is Sasakian and reads out as (c, a, b).

    The basis relabeling is forced by the construction: the expansion runs
    over (I, J, K) with J the i-structure and I the k-structure, and the
    cone map xi -> J(xi) is linear, with K = I J recovering the j-structure.
    """
    pair, _, _ = sphere_pair
    cpts, pts = cone_samples
    raw = np.array([rng.uniform(-1, 1) for _ in range(3)])
    a, b, c = raw / np.linalg.norm(raw)
    xi = catalog.reeb_combination(s3.structures, (a, b, c))
    st = CT.ContactMetricStructure(s3.chart, xi, "combo")
    assert np.max(CT.sasaki_residuals(st, pts)) < 1e-6
    combo = CT.ConeSymplecticData(pair.cone, st)
    coeffs, resid, unit = P.s2_family_coefficients(pair, combo, cpts, 0.0)
    assert np.max(resid) < 1e-10
    assert np.max(unit) < 1e-10
    assert np.max(np.abs(coeffs - np.array([c, a, b]))) < 1e-10
    assert np.max(np.abs(coeffs - coeffs[0:1])) < 1e-10  # spatially constant


def test_mismatched_cones_rejected(s3, blair):
    cn_s = C.build_cone(s3.chart)
    cn_t = C.build_cone(blair.chart)
    st_s = CT.ContactMetricStructure(s3.chart, s3.structure("i").xi, "i")
    st_t = CT.ContactMetricStructure(blair.chart, blair.structure().xi, "b")
    with pytest.raises(ValueError):
        P.StructurePair(CT.ConeSymplecticData(cn_s, st_s),
                        CT.ConeSymplecticData(cn_t, st_t))


def test_theorem_dichotomy_disjunction(sphere_pair, cone_samples, s3):
    """Either branch may hold; the flat sphere cone realises both, and the
    tests assert only the disjunction: quaternionic triple or flat cone."""
    pair, _, cn = sphere_pair
    cpts, _ = cone_samples
    flat = np.max(np.abs(tvalues(geometry(cn.chart, cpts[0], 2).riemann))) < 1e-9
    res = P.quaternion_relation_residuals(pair, cpts, 0.0)
    triple = max(np.max(v) for v in res.values()) < 1e-8
    assert triple or flat
    assert triple and flat  # this example exhibits both branches


def test_third_structure_algebra_and_family_report(sphere_pair, cone_samples):
    """I passes its algebra to 1e-6, and the k-structure reads out as a unit
    member of the family, as a passing report."""
    from conelab.report import make_report

    pair, sympl_k, _ = sphere_pair
    cpts, _ = cone_samples
    res = P.third_structure_residuals(pair, cpts, 0.0)
    assert max(float(np.max(v)) for v in res.values()) <= 1e-6
    _, _, _, i_ = P.third_structure_values(pair, cpts, 0.0)
    assert i_.shape == (len(cpts), 4, 4)
    _, resid, unit = P.s2_family_coefficients(pair, sympl_k, cpts, 0.0)
    rep = make_report("s2-family-unit", "S^2-family of Sasakian structures",
                      np.maximum(resid, unit), 1e-8, cpts)
    assert rep.verdict == "pass"
