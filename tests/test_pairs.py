"""Two-structure algebra on the flat sphere cone: the quaternionic triple."""

import numpy as np
import pytest

from conelab import catalog
from conelab import contact as CT
from conelab import pairs as P
from conelab.errors import DegeneratePairError
from conelab.geometry import tvalues

from .conftest import geometry, sample


@pytest.fixture(scope="module")
def sphere_pair(s3):
    st_i, st_j, st_k = (CT.ContactMetricStructure(s3.chart, spec.xi, spec.name)
                        for spec in s3.structures)
    return P.StructurePair(st_i, st_j), st_k


@pytest.fixture(scope="module")
def cone_samples(s3):
    pts, radii, _ = sample(s3.chart, 40, seed=3)
    return np.column_stack([pts, radii]), pts


def test_lambda_vanishes_for_orthogonal_pair(sphere_pair, cone_samples):
    pair, _ = sphere_pair
    cpts, _ = cone_samples
    lam, res, var = P.anticommutator_lambda(pair, cpts)
    assert abs(lam) < 1e-10
    assert np.max(res) < 1e-10
    assert var < 1e-10


def test_lambda_boundary_cases(sphere_pair, cone_samples):
    """J' = J gives lambda = -2; J' = -J gives +2; both are degenerate."""
    pair, _ = sphere_pair
    cpts, _ = cone_samples
    same = P.StructurePair(pair.first, pair.first)
    lam, _, _ = P.anticommutator_lambda(same, cpts)
    assert lam == pytest.approx(-2.0, abs=1e-12)
    with pytest.raises(DegeneratePairError):
        P.third_structure_values(same, cpts, lam)

    first = pair.first

    def neg_xi(x):
        return np.array([v * (-1.0) for v in first.xi(x)], dtype=object)

    st_neg = CT.ContactMetricStructure(first.chart, neg_xi, "neg")
    flipped = P.StructurePair(first, st_neg)
    lam2, _, _ = P.anticommutator_lambda(flipped, cpts)
    assert lam2 == pytest.approx(2.0, abs=1e-12)


def test_commutator_square(sphere_pair, cone_samples):
    pair, _ = sphere_pair
    cpts, _ = cone_samples
    assert np.max(P.commutator_square_residuals(pair, cpts, 0.0)) < 1e-10


def test_third_structure_is_k(sphere_pair, cone_samples):
    """I from the (i, j) pair equals the catalog k-structure's J exactly."""
    pair, st_k = sphere_pair
    cpts, _ = cone_samples
    geo, _, _, i_ = P.third_structure_values(pair, cpts, 0.0)
    jk = tvalues(st_k.complex_structure(geo))
    assert np.max(np.abs(i_ - jk)) < 1e-10

    res = P.third_structure_residuals(pair, cpts, 0.0)
    for key, vals in res.items():
        assert np.max(vals) < 1e-10, key


def test_third_structure_parallel(sphere_pair, cone_samples):
    pair, _ = sphere_pair
    cpts, _ = cone_samples
    assert np.max(P.parallel_third_structure_residuals(pair, cpts, 0.0)) < 1e-10


def test_quaternion_relations(sphere_pair, cone_samples):
    pair, _ = sphere_pair
    cpts, _ = cone_samples
    res = P.quaternion_relation_residuals(pair, cpts, 0.0)
    for key, vals in res.items():
        assert np.max(vals) < 1e-10, key


def test_s2_family_readout(sphere_pair, cone_samples):
    """The k-structure reads out as the I axis; unit norm; constant."""
    pair, st_k = sphere_pair
    cpts, _ = cone_samples
    coeffs, resid, unit = P.s2_family_coefficients(pair, st_k, cpts, 0.0)
    assert np.max(np.abs(coeffs - np.array([1.0, 0.0, 0.0]))) < 1e-10
    assert np.max(resid) < 1e-10
    assert np.max(unit) < 1e-10


def test_s2_family_random_combination(sphere_pair, cone_samples, s3, rng):
    """xi = a i + b j + c k is Sasakian and reads out as (c, a, b).

    The basis relabeling is forced by the construction: the expansion runs
    over (I, J, K) with J the i-structure and I the k-structure, and the
    cone map xi -> J(xi) is linear, with K = I J recovering the j-structure.
    """
    pair, _ = sphere_pair
    cpts, pts = cone_samples
    raw = rng.uniforms(3, -1, 1)
    a, b, c = raw / np.linalg.norm(raw)
    xi = catalog.reeb_combination(s3.structures, (a, b, c))
    st = CT.ContactMetricStructure(s3.chart, xi, "combo")
    assert np.max(CT.sasaki_residuals(st, pts)) < 1e-6
    coeffs, resid, unit = P.s2_family_coefficients(pair, st, cpts, 0.0)
    assert np.max(resid) < 1e-10
    assert np.max(unit) < 1e-10
    assert np.max(np.abs(coeffs - np.array([c, a, b]))) < 1e-10
    assert np.max(np.abs(coeffs - coeffs[0:1])) < 1e-10  # spatially constant


def test_mismatched_cones_rejected(s3, blair):
    st_s = CT.ContactMetricStructure(s3.chart, s3.structures[0].xi, "i")
    st_t = CT.ContactMetricStructure(blair.chart, blair.structures[0].xi, "b")
    with pytest.raises(ValueError):
        P.StructurePair(st_s, st_t)


def test_theorem_dichotomy_disjunction(sphere_pair, cone_samples, s3):
    """Either branch may hold; the flat sphere cone realises both, and the
    tests assert only the disjunction: quaternionic triple or flat cone."""
    pair, _ = sphere_pair
    cpts, _ = cone_samples
    flat = np.max(np.abs(tvalues(geometry(pair.cone, cpts[0], 2).riemann))) < 1e-9
    res = P.quaternion_relation_residuals(pair, cpts, 0.0)
    triple = max(np.max(v) for v in res.values()) < 1e-8
    assert triple or flat
    assert triple and flat  # this example exhibits both branches


def test_third_structure_algebra_and_family_report(sphere_pair, cone_samples):
    """I passes its algebra to 1e-6, and the k-structure reads out as a unit
    member of the family, as a passing report."""
    from conelab.report import make_report

    pair, st_k = sphere_pair
    cpts, _ = cone_samples
    res = P.third_structure_residuals(pair, cpts, 0.0)
    assert max(float(np.max(v)) for v in res.values()) <= 1e-6
    _, _, _, i_ = P.third_structure_values(pair, cpts, 0.0)
    assert i_.shape == (len(cpts), 4, 4)
    _, resid, unit = P.s2_family_coefficients(pair, st_k, cpts, 0.0)
    rep = make_report("s2-family-unit", "S^2-family of Sasakian structures",
                      np.maximum(resid, unit), 1e-8, cpts)
    assert rep.verdict == "pass"
