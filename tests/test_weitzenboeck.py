"""Second-order almost-Kaehler diagnostics: calibration and the solve.

The convention pins live here: the star-scalar construction satisfies
s* - s = |nab Omega|^2 with the frozen constant 1 on every catalog cone, and
the phi sign makes |nab_X Omega|^2 = -phi(X, JX) hold.  phi itself comes out
antisymmetric (it pairs against the 2-form rho); its claimed symmetry would
contradict the norm identity, so antisymmetry is what we assert.
"""

import tracemalloc

import numpy as np
import pytest

from conelab import contact as CT
from conelab import weitzenboeck as W

from .conftest import sample


def _structure(entry):
    spec = entry.structures[0]
    return CT.ContactMetricStructure(entry.chart, spec.xi, spec.name)


@pytest.fixture(scope="module")
def blair_data(blair):
    st = _structure(blair)
    pts, radii, _ = sample(blair.chart, 40, seed=9)
    return st, pts, radii, W.weitzenboeck_data(st, pts, radii)


def test_calibration_constant_is_global(blair, s3, s5):
    """s* - s = |nab Omega|^2 with one frozen constant on all catalog cones."""
    cases = [(blair, 24), (s3, 24), (s5, 8)]
    for entry, n in cases:
        st = _structure(entry)
        pts, radii, _ = sample(entry.chart, n, seed=19)
        data = W.weitzenboeck_data(st, pts, radii)
        res = W.star_scalar_consistency(data)
        assert np.max(res) < 1e-6, entry.key


def test_blair_star_scalar_values(blair_data):
    """On the torus cone: s = -6/r^2, f = r^2 s* = 2 > 0 everywhere."""
    _, pts, radii, data = blair_data
    assert np.max(np.abs(data.s + 6.0 / radii**2)) < 1e-11
    f = data.s_star * radii**2
    assert np.max(np.abs(f - 2.0)) < 1e-11
    assert np.min(f) > 0
    assert np.max(np.abs(data.nab_omega_sq - 8.0 / radii**2)) < 1e-11


def test_phi_norm_identity(blair_data, rng):
    _, pts, radii, data = blair_data
    dirs = rng.unit_vectors(len(pts), 4)
    assert np.max(W.phi_identity_residuals(data, dirs)) < 1e-12


def test_phi_trace_identity(blair_data):
    """-sum_a phi(E_a, J E_a) = |nab Omega|^2 (frame sum via g^{-1})."""
    _, _, _, data = blair_data
    tr = -np.einsum("zij,zim,zjm->z", data.phi, data.ginv_values, data.j)
    assert np.max(np.abs(tr - data.nab_omega_sq)) < 1e-12


def test_phi_is_antisymmetric_and_j_invariant(blair_data):
    _, _, _, data = blair_data
    assert np.max(np.abs(data.phi + np.swapaxes(data.phi, 1, 2))) < 1e-12
    assert np.max(W.phi_invariance_residuals(data)) < 1e-12


def test_ricci_split(blair_data):
    _, _, _, data = blair_data
    assert np.max(W.ricci_split_residuals(data)) < 1e-12
    # Ric' + Ric'' = Ric, recovered through rho: Ric'(X,Y) = -rho(JX, Y)
    ric_inv = -np.einsum("zam,zai->zmi", data.j, data.rho)
    geo_ric = ric_inv + data.ric_anti
    assert np.max(np.abs(geo_ric - np.swapaxes(geo_ric, 1, 2))) < 1e-12


def test_radial_blocks(blair_data):
    st, pts, _, data = blair_data
    assert np.max(W.radial_parallel_residuals(data)) < 1e-12
    d1 = W.weitzenboeck_data(st, pts, np.ones(len(pts)))
    d2 = W.weitzenboeck_data(st, pts, np.full(len(pts), 2.0))
    b1, m1 = W.omega_derivative_blocks(d1)
    b2, m2 = W.omega_derivative_blocks(d2)
    assert np.max(np.abs(b1 - b2)) < 1e-12
    assert np.max(np.abs(m1 - m2)) < 1e-12


def test_pairing_form_profile(blair_data):
    """<rho*, nab_. Omega> = alpha / r^2 with a base 1-form alpha."""
    st, pts, _, _ = blair_data
    d1 = W.weitzenboeck_data(st, pts, np.ones(len(pts)))
    d2 = W.weitzenboeck_data(st, pts, np.full(len(pts), 2.0))
    a1 = d1.pairing_form * 1.0
    a2 = d2.pairing_form * 4.0
    assert np.max(np.abs(a1 - a2)) < 1e-11
    assert np.max(np.abs(a1[:, -1])) < 1e-12  # no dr component


def test_solved_curvature_nonnegative_and_scales(blair_data):
    st, pts, radii, data = blair_data
    assert np.min(data.solved_rpp_sq) > -1e-5
    d1 = W.weitzenboeck_data(st, pts, np.ones(len(pts)))
    d2 = W.weitzenboeck_data(st, pts, np.full(len(pts), 2.0))
    assert np.max(W.scaling_ratio(d1.solved_rpp_sq, d2.solved_rpp_sq,
                                  1.0, 2.0)) < 1e-10
    # every term of the balance scales as r^{-4}, checked across
    # radii 1, 2 and 3
    d3 = W.weitzenboeck_data(st, pts, np.full(len(pts), 3.0))
    for name in ("lap_s_diff", "div_term", "ric_div_term", "ric_anti_sq",
                 "rough_sq", "phi_sq", "rho_phi", "rho_rough",
                 "solved_rpp_sq"):
        v1, v2, v3 = getattr(d1, name), getattr(d2, name), getattr(d3, name)
        assert np.max(W.scaling_ratio(v1, v2, 1.0, 2.0)) < 1e-9, name
        assert np.max(W.scaling_ratio(v1, v3, 1.0, 3.0)) < 1e-9, name


def test_balance_identity_reassembles(blair_data):
    """The solve really is the rearranged balance: plugging back closes it."""
    _, _, _, d = blair_data
    lhs = d.lap_s_diff
    rhs = (-4 * d.ric_div_term + 8 * d.div_term + 2 * d.ric_anti_sq
           - d.solved_rpp_sq - d.rough_sq - d.phi_sq + 4 * d.rho_phi
           - 4 * d.rho_rough)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_kaehler_cone_everything_vanishes(s3):
    st = _structure(s3)
    pts, radii, _ = sample(s3.chart, 20, seed=29)
    data = W.weitzenboeck_data(st, pts, radii)
    for name in ("s", "s_star", "nab_omega_sq", "div_term", "ric_div_term",
                 "ric_anti_sq", "rough_sq", "phi_sq", "rho_phi", "rho_rough"):
        assert np.max(np.abs(getattr(data, name))) < 1e-9, name
    assert np.max(np.abs(data.solved_rpp_sq)) < 1e-6
    assert np.max(np.abs(data.lap_s_diff)) < 1e-6


def test_curvature_pass_peak_memory(blair):
    """No rank-4 jet tensor outlives the step that reads it.

    tracemalloc peak of one full order-6 pass over 20 t3-blair samples, after
    a warm-up pass that fills the jet tables: 10.37 MiB while nab^2 Omega
    lived to the end of the pass and R_low stayed in the geometry cache,
    7.52 MiB with each dropped after its step (s3-round: 10.70 -> 7.77 MiB).
    The bound sits between the two.
    """
    st = _structure(blair)
    pts, radii, _ = sample(blair.chart, 20)
    W.weitzenboeck_data(st, pts, radii, order=6)
    tracemalloc.start()
    try:
        W.weitzenboeck_data(st, pts, radii, order=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20, peak / 2**20


def test_divergence_mode_matches_full(blair_data):
    st, pts, radii, data = blair_data
    slim = W.weitzenboeck_data(st, pts, radii, order=4, mode="divergence")
    assert np.max(np.abs(slim.div_term - data.div_term)) < 1e-10
    assert np.max(np.abs(slim.ric_div_term - data.ric_div_term)) < 1e-10
    assert slim.solved_rpp_sq is None


def test_scalar_invariants_frame_independent(blair_data):
    """s, |Omega|^2, |nab Omega|^2 agree between coordinate contraction and
    an orthonormal-frame summation."""
    from conelab.geometry import orthonormal_frame_values

    _, _, _, data = blair_data
    E = orthonormal_frame_values(data.g_values)
    om_frame = np.einsum("zai,zbj,zij->zab", E, E, data.omega)
    assert np.max(np.abs(np.sum(om_frame**2, axis=(1, 2)) - 4.0)) < 1e-12
    nab_frame = np.einsum("zmk,zai,zbj,zkij->zmab", E, E, E, data.nab_omega)
    framed = np.sum(nab_frame**2, axis=(1, 2, 3))
    assert np.max(np.abs(framed - data.nab_omega_sq)) < 1e-11


def _profiles(st, pts, r1=1.0, r2=2.0):
    d1 = W.weitzenboeck_data(st, pts, np.full(len(pts), r1))
    d2 = W.weitzenboeck_data(st, pts, np.full(len(pts), r2))
    return W.radial_profiles(d1, d2, r1, r2)


def test_radial_profile_operation(blair, s3):
    st_b = _structure(blair)
    pts, _, _ = sample(blair.chart, 10, seed=39)
    prof = _profiles(st_b, pts)
    assert np.max(np.abs(prof["f"] - 2.0)) < 1e-11
    assert np.max(np.maximum(prof["f-drift"], prof["alpha-drift"])) < 1e-11
    assert np.max(prof["f-positivity"]) == 0.0
    assert np.max(np.abs(prof["alpha"])) < 1e-12

    st_s = _structure(s3)
    pts_s, _, _ = sample(s3.chart, 8, seed=49)
    prof_s = _profiles(st_s, pts_s)
    assert np.max(np.abs(prof_s["f"])) < 1e-10          # Kaehler: f == 0
    assert np.max(np.abs(prof_s["alpha"])) < 1e-10
    assert np.max(prof_s["f-positivity"]) == 0.0


def test_solve_wrapper(blair):
    """The solved 8|R''|^2 is positive on the torus cone and scales as r^-4."""
    st = _structure(blair)
    pts, radii, _ = sample(blair.chart, 6, seed=59)
    vals = W.weitzenboeck_data(st, pts, radii).solved_rpp_sq
    assert np.min(vals) > 0
    assert np.max(np.abs(vals * radii**4 - vals[0] * radii[0]**4)) < 1e-8
