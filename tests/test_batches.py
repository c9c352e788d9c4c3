"""Batch independence: a sample's outputs do not depend on its batchmates.

Jets cache their zero, finite and row-pattern facts over a whole batch, so a
defect in those facts could make one sample's residual depend on the other
samples it is batched with.  Each kernel below runs on one batch of samples
and on the pieces of a random split of it, batches of one included; the
pieces' per-sample outputs, concatenated in order, must equal the one-batch
outputs bit for bit, compared as int64 views so that the sign of zero counts.
"""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import catalog
from conelab import cone as C
from conelab import contact as CT
from conelab import pairs as P
from conelab import weitzenboeck as W
from conelab.suites import _lemma_functions, _lemma_oneforms

from .conftest import sample

SAMPLES = 3
# the least order that weitzenboeck_data supports (Suite.jet_orders)
WEITZENBOECK_ORDER = 4
# one lambda for the whole batch and every piece: anticommutator_lambda's
# lambda is a batch mean by design, so the pair kernels take it fixed
LAMBDA = 0.25


def _outputs(out):
    """The float arrays of a kernel's result, in a fixed order, samples first."""
    if out is None:
        return []
    if dataclasses.is_dataclass(out):
        return _outputs([getattr(out, f.name) for f in dataclasses.fields(out)])
    if isinstance(out, dict):
        return _outputs([out[key] for key in sorted(out)])
    if isinstance(out, (tuple, list)):
        return [a for part in out for a in _outputs(part)]
    return [np.asarray(out)]


def _structure(entry, k=0):
    spec = entry.structures[k]
    return CT.ContactMetricStructure(entry.chart, spec.xi, spec.name)


def _weitzenboeck(key, mode):
    entry = catalog.get(key)
    structure = _structure(entry)
    return lambda pts, radii: W.weitzenboeck_data(structure, pts, radii,
                                                  WEITZENBOECK_ORDER, mode)


def _lemmas(key):
    entry = catalog.get(key)
    cn = C.build_cone(entry.chart)

    def run(pts, radii):
        geo = C.cone_geometry(cn, pts, radii, 3)
        bgeo = C.base_geometry(entry.chart, pts, 3)
        oneforms, functions = _lemma_oneforms(entry.chart.dim), _lemma_functions()
        return [(C.lemma_codifferential_residuals(geo, bgeo, oneforms[i], k),
                 C.lemma_laplacian_residuals(geo, bgeo, functions[i], k))
                for i, k in ((1, -2), (3, 3), (4, 0))]

    return run


def _contact(key):
    entry = catalog.get(key)
    structure = _structure(entry)

    def run(pts, radii):
        cpts = np.column_stack([pts, radii])
        return [kernel(structure, pts) for kernel in (
            CT.unit_length_residuals, CT.kc_residuals, CT.reeb_residuals,
            CT.killing_residuals, CT.ricci_reeb_deficit, CT.sasaki_residuals)] + [
            CT.symplectic_residuals(structure, cpts),
            CT.parallel_omega_residuals(structure, cpts)]

    return run


def _pairs(key):
    entry = catalog.get(key)
    first, second, third = (_structure(entry, k) for k in range(3))
    pair = P.StructurePair(first, second)

    def run(pts, radii):
        cpts = np.column_stack([pts, radii])
        return [kernel(pair, cpts, LAMBDA) for kernel in (
            P.commutator_square_residuals, P.third_structure_residuals,
            P.parallel_third_structure_residuals,
            P.quaternion_relation_residuals)] + [
            P.s2_family_coefficients(pair, third, cpts, LAMBDA)]

    return run


KERNELS = {
    **{f"weitzenboeck-{mode}:{key}": (key, _weitzenboeck(key, mode))
       for key in ("t3-blair", "s3-round") for mode in ("full", "divergence")},
    **{f"cone-lemmas:{key}": (key, _lemmas(key)) for key in ("t3-blair", "s3-round")},
    **{f"contact:{key}": (key, _contact(key)) for key in ("t3-blair", "s3-round")},
    "pairs:s3-round": ("s3-round", _pairs("s3-round")),
}


@lru_cache(maxsize=None)
def _run(name, start, stop):
    """A kernel's outputs on samples start..stop-1 of its manifold's batch."""
    key, kernel = KERNELS[name]
    pts, radii, _ = sample(catalog.get(key).chart, SAMPLES, seed=26)
    return _outputs(kernel(pts[start:stop], radii[start:stop]))


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("name", list(KERNELS))
@settings(max_examples=3, deadline=None)
@given(cuts=st.sets(st.integers(1, SAMPLES - 1), min_size=1))
def test_outputs_do_not_depend_on_the_batch(name, cuts):
    whole = _run(name, 0, SAMPLES)
    bounds = [0, *sorted(cuts), SAMPLES]
    pieces = [_run(name, a, b) for a, b in zip(bounds, bounds[1:])]
    assert len(whole) == len(pieces[0]) and whole
    for k, want in enumerate(whole):
        got = np.concatenate([piece[k] for piece in pieces])
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want)), f"output {k}"
