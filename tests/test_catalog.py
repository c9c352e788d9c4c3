"""Catalog entries reproduce their own expected classifications."""

import numpy as np
import pytest

from conelab import catalog
from conelab import contact as CT
from conelab.chart import jet_point
from conelab.geometry import PointGeometry, tvalues

from .conftest import sample

THRESHOLD = 1e-6


def classify(entry, spec):
    """contact-metric / k-contact / sasakian / not-contact-metric by residual."""
    st = CT.ContactMetricStructure(entry.chart, spec.xi, spec.name)
    pts, _, _ = sample(entry.chart, 20, seed=1)
    if np.max(CT.kc_residuals(st, pts)) > THRESHOLD:
        return "not-contact-metric"
    if np.max(CT.killing_residuals(st, pts)) > THRESHOLD:
        return "contact-metric"
    if np.max(CT.sasaki_residuals(st, pts)) > THRESHOLD:
        return "k-contact"
    return "sasakian"


def test_every_catalogued_classification_is_reproduced():
    for key in catalog.keys():
        entry = catalog.get(key)
        for spec in entry.structures:
            assert classify(entry, spec) == spec.expected, (key, spec.name)


def test_structure_lookup(s3):
    assert s3.structure().name == "i"
    assert s3.structure("k").name == "k"
    with pytest.raises(KeyError):
        s3.structure("h")


def test_known_values_present():
    for key in catalog.keys():
        entry = catalog.get(key)
        assert "volume" in entry.known_values
        assert entry.n in (1, 2)
        assert len(entry.quadrature) == entry.chart.dim


def test_known_values_match_the_engine():
    """Each catalogued einstein_constant, ricci_reeb_deficit and kc_residual
    is what the engine measures at sampled points."""
    checked = set()
    for key in catalog.keys():
        entry = catalog.get(key)
        known = entry.known_values
        pts, _, _ = sample(entry.chart, 20, seed=2)
        if "einstein_constant" in known:
            geo = PointGeometry(entry.chart, jet_point(entry.chart, pts, 3))
            ric = tvalues(geo.ricci)
            want = known["einstein_constant"] * geo.g_values
            assert np.max(np.abs(ric - want)) < 1e-12, key
            checked.add("einstein_constant")
        for st in entry.structures:
            if "ricci_reeb_deficit" in known:
                deficit = CT.ricci_reeb_deficit(st, pts)
                assert np.max(np.abs(deficit - known["ricci_reeb_deficit"])) < 1e-12, \
                    (key, st.name)
                checked.add("ricci_reeb_deficit")
            if "kc_residual" in known:
                comp = CT.kc_max_component_residuals(st, pts)
                assert np.max(np.abs(comp - known["kc_residual"])) < 1e-12, \
                    (key, st.name)
                checked.add("kc_residual")
    assert checked == {"einstein_constant", "ricci_reeb_deficit", "kc_residual"}
