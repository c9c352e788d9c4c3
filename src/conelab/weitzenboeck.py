"""Second-order almost-Kaehler diagnostics on the cone.

At each cone sample this module assembles, in one jet pass, everything the
pointwise balance identity

    Delta(s* - s) = -4 delta(J delta_nab (J Ric'')) + 8 delta(<rho*, nab_. Omega>)
                    + 2|Ric''|^2 - 8|R''|^2 - |nab*nab Omega|^2 - |phi|^2
                    + 4 <rho, phi> - 4 <rho, nab*nab Omega>

needs, and solves it for the one term whose internal definition the engine
does not own: the squared curvature component 8|R''|^2.  Nonnegativity of the
solved value, its r^{-4} scaling and the radial profiles of s* and of the
pairing 1-form are the actual checks.

Convention calibration (frozen here, pinned by tests):

* rho*(X, Y) = (1/2) sum_a g(R(X, Y) E_a, J E_a), scaled by RHO_STAR_SIGN so
  that s* = <rho*, Omega> satisfies s* - s = |nab Omega|^2 on every catalog
  cone with the frozen full-sum norms;
* phi(X, Y) = PHI_SIGN * <nab_{JX} Omega, nab_Y Omega>, sign fixed so that
  |nab_X Omega|^2 = -phi(X, JX) holds;
* (delta_nab T)(X) = -sum_a (nab_{E_a} T)(E_a, X) for 2-tensors,
  (J sigma)(X) = -sigma(JX) for 1-forms, (J T)(X, Y) = T(JX, Y) for 2-tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .chart import jet_point
from .contact import ContactMetricStructure
from .geometry import PointGeometry, frame_norm, inner_product, norm_squared, tvalues

# Calibrated once against the torus cone and frozen: with these conventions
# s* - s = |nab Omega|^2 holds with factor exactly 1 on every catalog cone,
# and |nab_X Omega|^2 = -phi(X, JX) holds pointwise.  The literal phi
# contraction is antisymmetric (it pairs against the 2-form rho), which the
# first-slot identity nab_{JX} Omega = (nab_X Omega)(J., .) makes inevitable.
RHO_STAR_SIGN = 1.0
PHI_SIGN = -1.0

# the order the recorded reports and benchmark counts were made at: every
# order from the least, 4 (Suite.jet_orders), gives the same reports, but
# another default would change the jet products the benchmark pins
DEFAULT_ORDER = 6


@dataclass
class WeitzenboeckPointData:
    """Float per-sample values of every term in the balance identity."""

    points: np.ndarray          # cone coordinates (B, dim)
    s: np.ndarray               # scalar curvature of the cone
    s_star: np.ndarray
    nab_omega_sq: np.ndarray    # |nab Omega|^2
    div_term: np.ndarray        # delta(<rho*, nab_. Omega>)
    ric_div_term: np.ndarray    # delta(J delta_nab (J Ric''))
    ric_anti_sq: np.ndarray     # |Ric''|^2
    omega: np.ndarray           # (B, d, d)
    j: np.ndarray               # (B, d, d) endomorphism
    nab_omega: np.ndarray       # (B, d, d, d)
    rho: np.ndarray             # (B, d, d)
    ric_anti: np.ndarray        # (B, d, d)
    pairing_form: np.ndarray    # (B, d) <rho*, nab_. Omega>
    g_values: np.ndarray        # (B, d, d)
    ginv_values: np.ndarray     # (B, d, d)
    lap_s_diff: np.ndarray = None     # Delta(s* - s)
    rough_sq: np.ndarray = None       # |nab*nab Omega|^2
    phi_sq: np.ndarray = None         # |phi|^2
    rho_phi: np.ndarray = None        # <rho, phi>
    rho_rough: np.ndarray = None      # <rho, nab*nab Omega>
    solved_rpp_sq: np.ndarray = None  # 8|R''|^2 solved from the identity
    phi: np.ndarray = None            # (B, d, d)


def weitzenboeck_data(structure: ContactMetricStructure, base_pts, radii,
                      order: int = DEFAULT_ORDER,
                      mode: str = "full") -> WeitzenboeckPointData:
    """Evaluate the terms of the balance identity at batched cone samples.

    mode "divergence" computes only the two codifferential terms (what the
    level-set integrals need) and leaves the second-derivative fields None;
    it gets away with lower jet order and skips the rough Laplacian.

    Each rank-4 jet tensor lives only within the step that reads it:
    nab^2 Omega within the rough Laplacian, R_low within rho*.  Only the
    geometry's cached ``riemann`` outlives its first reader, because Ricci
    and the scalar curvature read it too.
    """
    cone = structure.cone
    d = cone.dim
    pts = np.column_stack([np.atleast_2d(base_pts), np.asarray(radii, float)])
    geo = PointGeometry(cone, jet_point(cone, pts, order))
    full = mode == "full"

    om = structure.omega(geo)                # jets, order-1
    jj = structure.complex_structure(geo)    # uses geo.ginv

    nab_om = geo.covd(om, (0, 2))            # [m, i, j]

    rough = _rough_laplacian(geo, nab_om) if full else None
    rho_star = _rho_star(geo, jj)

    # s* = <rho*, Omega> full sum (jet level, for the outer Laplacian)
    s_star = np.tensordot(rho_star, _raise2(geo, om), 2)[()]

    s = geo.scalar_curvature
    lap = geo.laplacian_scalar(s_star - s) if full else None

    # pairing 1-form sigma_i = <rho*, nab_i Omega>
    sigma = np.tensordot(_raise2(geo, rho_star), nab_om, axes=([0, 1], [1, 2]))
    div_term = geo.codifferential_oneform(sigma)

    # Ricci split: Ric' = (Ric + Ric(J., J.))/2, Ric'' the rest,
    # rho = Ric'(J., .)
    ric = geo.ricci
    ric_j = np.empty((d, d), object)
    for i in range(d):
        for j in range(d):
            acc = None
            for a in range(d):
                for b in range(d):
                    term = jj[a, i] * (ric[a, b] * jj[b, j])
                    acc = term if acc is None else acc + term
            ric_j[i, j] = acc
    ric_inv = 0.5 * (ric + ric_j)
    ric_anti = 0.5 * (ric - ric_j)
    rho = np.tensordot(jj, ric_inv, axes=([0], [0]))

    # delta(J delta_nab (J Ric''))
    nab_jric = geo.covd(np.tensordot(jj, ric_anti, axes=([0], [0])), (0, 2))
    delta_nab = -np.tensordot(geo.ginv, nab_jric, 2)
    j_sigma = -np.tensordot(jj, delta_nab, axes=([0], [0]))
    ric_div_term = geo.codifferential_oneform(j_sigma)

    # value-level pieces
    gv, giv = geo.g_values, geo.ginv_values
    nab_om_v = tvalues(nab_om)
    ric_anti_v = tvalues(ric_anti)
    data = WeitzenboeckPointData(
        points=pts, s=s.value, s_star=s_star.value,
        nab_omega_sq=norm_squared(gv, giv, nab_om_v, "lll"),
        div_term=div_term.value, ric_div_term=ric_div_term.value,
        ric_anti_sq=norm_squared(gv, giv, ric_anti_v, "ll"),
        omega=tvalues(om), j=tvalues(jj), nab_omega=nab_om_v,
        rho=tvalues(rho), ric_anti=ric_anti_v,
        pairing_form=tvalues(sigma), g_values=gv, ginv_values=giv)
    if not full:
        return data

    rough_v = tvalues(rough)
    phi_v = PHI_SIGN * np.einsum(
        "zmi,zmab,zjcd,zac,zbd->zij", data.j, nab_om_v, nab_om_v, giv, giv,
        optimize=True)
    rough_sq = norm_squared(gv, giv, rough_v, "ll")
    phi_sq = norm_squared(gv, giv, phi_v, "ll")
    rho_phi = inner_product(gv, giv, data.rho, phi_v, "ll")
    rho_rough = inner_product(gv, giv, data.rho, rough_v, "ll")
    lap_v = lap.value
    solved = (-lap_v - 4.0 * data.ric_div_term + 8.0 * data.div_term
              + 2.0 * data.ric_anti_sq - rough_sq - phi_sq + 4.0 * rho_phi
              - 4.0 * rho_rough)
    return replace(data, lap_s_diff=lap_v, rough_sq=rough_sq, phi_sq=phi_sq,
                   rho_phi=rho_phi, rho_rough=rho_rough, solved_rpp_sq=solved,
                   phi=phi_v)


def _rough_laplacian(geo, nab_om):
    """nab*nab Omega = -g^{nm} nab^2_{n m} Omega, a (0,2) object tensor.

    nab^2 Omega ([n, m, i, j], d^4 jets) is formed and dropped here.
    """
    return -np.tensordot(geo.ginv, geo.covd(nab_om, (0, 3)), 2)


def _rho_star(geo, jj):
    """rho* = (sign/2) Rlow[i,j,k,l] J^l_m g^{km}, an antisymmetric object 2-form.

    The orthonormal frame sum sum_a E_a (x) J E_a collapses to g^{km} J^l_m,
    so no frame is needed.  R_low (d^4 jets) is formed and dropped here.
    """
    d = geo.dim
    rlow = geo.riemann_low
    ginv = geo.ginv
    rho_star = np.empty((d, d), object)
    for i, j in zip(*np.triu_indices(d, 1)):
        # sum_{k,m} (sum_l Rlow[i,j,k,l] J^l_m) g^{km}
        acc = np.tensordot(np.tensordot(rlow[i, j], jj, 1), ginv, 2)[()]
        val = (0.5 * RHO_STAR_SIGN) * acc
        rho_star[i, j] = val
        rho_star[j, i] = -val
    np.fill_diagonal(rho_star, rho_star[0, 1] - rho_star[0, 1])
    return rho_star


def _raise2(geo, T):
    """Both indices of a (0,2) object tensor raised with the jet inverse."""
    d = T.shape[0]
    out = np.empty((d, d), object)
    for a in range(d):
        for b in range(d):
            acc = None
            for c in range(d):
                for e in range(d):
                    term = geo.ginv[a, c] * (geo.ginv[b, e] * T[c, e])
                    acc = term if acc is None else acc + term
            out[a, b] = acc
    return out


# -- derived diagnostics -------------------------------------------------------


def radial_parallel_residuals(data: WeitzenboeckPointData):
    """Sup of the nab_{d_r} Omega slot (must vanish identically)."""
    d = data.j.shape[1]
    return np.max(np.abs(data.nab_omega[:, d - 1, :, :]), axis=(1, 2))


def omega_derivative_blocks(data: WeitzenboeckPointData):
    """Base-level blocks of nab Omega: (omega, tau) with the r weights removed.

    nab_X Omega = r^2 omega + r dr ^ tau_X for base X; returns the divided
    blocks, which must be r-independent functions of the base point.
    """
    d = data.j.shape[1]
    r = data.points[:, -1]
    base = data.nab_omega[:, :d - 1, :d - 1, :d - 1] / r[:, None, None, None] ** 2
    mixed = data.nab_omega[:, :d - 1, d - 1, :d - 1] / r[:, None, None]
    return base, mixed


def phi_identity_residuals(data: WeitzenboeckPointData, directions):
    """|nab_X Omega|^2 + phi(X, JX) for given X components, per sample."""
    X = np.asarray(directions, float)
    nab_x = np.einsum("zm,zmij->zij", X, data.nab_omega)
    nsq = norm_squared(data.g_values, data.ginv_values, nab_x, "ll")
    jx = np.einsum("zai,zi->za", data.j, X)
    phi_xjx = np.einsum("zij,zi,zj->z", data.phi, X, jx)
    return np.abs(nsq + phi_xjx)


def phi_invariance_residuals(data: WeitzenboeckPointData):
    """phi(JX, JY) - phi(X, Y), frame norm per sample."""
    pulled = np.einsum("zai,zab,zbj->zij", data.j, data.phi, data.j)
    return frame_norm(data, pulled - data.phi, "ll")


def ricci_split_residuals(data: WeitzenboeckPointData):
    """Defining symmetries: Ric''(J., J.) = -Ric'', rho(J., J.) = rho."""
    anti = np.einsum("zai,zab,zbj->zij", data.j, data.ric_anti, data.j)
    res_anti = frame_norm(data, anti + data.ric_anti, "ll")
    inv = np.einsum("zai,zab,zbj->zij", data.j, data.rho, data.j)
    res_inv = frame_norm(data, inv - data.rho, "ll")
    return np.maximum(res_anti, res_inv)


def star_scalar_consistency(data: WeitzenboeckPointData):
    """Relative residual of s* - s = |nab Omega|^2 (the calibration pin)."""
    lhs = data.s_star - data.s
    rhs = data.nab_omega_sq
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return np.abs(lhs - rhs) / scale


def scaling_ratio(v1, v2, r1, r2):
    """Relative defect of v2 = v1 * (r1/r2)^4, the scaling of every term of
    the balance.

    Denominators are floored at 1e-6 so that terms which vanish identically
    (zero at both radii up to roundoff) register as ~0 instead of dividing
    noise by noise.
    """
    scale = (np.asarray(r1, float) / np.asarray(r2, float)) ** 4
    target = v1 * scale
    denom = np.maximum(np.abs(target), 1e-6)
    return np.abs(v2 - target) / denom


# -- radial profiles -------------------------------------------------------------


def radial_profiles(d1: WeitzenboeckPointData, d2: WeitzenboeckPointData,
                    r1: float, r2: float):
    """Base profiles f = r^2 s* and alpha = r^2 <rho*, nab_. Omega>.

    d1 and d2 hold the same base points at the fixed radii r1 and r2.  Returns
    f and alpha (dr component included) at r1 with three per-sample
    residuals: "f-drift", the relative r-dependence of f; "alpha-drift", the
    r-dependence of alpha or its dr component, whichever is larger (both must
    vanish); and "f-positivity", max(0, -f) wherever nab Omega != 0, since f
    is strictly positive on a genuinely non-Kaehler structure (NaN where f or
    |nab Omega|^2 is not finite).
    """
    f1 = d1.s_star * r1**2
    f2 = d2.s_star * r2**2
    a1 = d1.pairing_form * r1**2
    a2 = d2.pairing_form * r2**2
    active = d1.nab_omega_sq > 1e-8
    known = np.isfinite(f1) & np.isfinite(d1.nab_omega_sq)
    return {
        "f": f1,
        "alpha": a1,
        "f-drift": np.abs(f1 - f2) / np.maximum(np.maximum(np.abs(f1), np.abs(f2)), 1.0),
        "alpha-drift": np.maximum(np.max(np.abs(a1 - a2), axis=1), np.abs(a1[:, -1])),
        "f-positivity": np.where(known, np.where(active, np.maximum(0.0, -f1), 0.0),
                                 np.nan),
    }
