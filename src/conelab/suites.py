"""Identity suites: deterministic sampling and declarative identity tables.

Each suite draws its sample sets from a single splitmix64 stream seeded by
the config and lays its identities out as a table of rows.  A row lists the
identities that one kernel call measures, each with its anchor and default
tolerance, and a thunk that runs the kernel and returns (one residual array
per identity, witness points).  One runner turns the rows into one
CheckReport per identity; a kernel that raises becomes an `error` report for
every identity of its row, so a suite always emits the same identity set.
Failing identities are reported, not raised: the torus fixtures are supposed
to fail some of these checks, and the reports are the point.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, NamedTuple, Sequence, Tuple

import numpy as np

from . import catalog, cone as cone_mod, contact, pairs, quadrature, weitzenboeck
from .jets import cos, sin
from .report import SuiteConfig, error_report, make_report
from .rng import SplitMix64

SUITES = ("cone-identities", "contact-axioms", "kcontact", "sasaki",
          "weitzenboeck", "hypersasaki", "integration")

R_LO, R_HI = 0.5, 3.0


class SuiteUsageError(Exception):
    """Unknown name, bad suite/manifold combination or out-of-range value
    (CLI exit 2)."""


class Row(NamedTuple):
    """The identities one kernel call measures, in report order.

    checks holds (identity, anchor, default tolerance) per identity; kernel()
    returns (one residual array per check, witness points or None).
    """

    checks: Sequence[Tuple[str, str, float]]
    kernel: Callable[[], tuple]


def run_suite(config: SuiteConfig):
    if config.suite not in SUITES:
        raise SuiteUsageError(
            f"unknown suite {config.suite!r}; known: {', '.join(SUITES)}")
    entry = _entry(config.manifold)
    _validate(entry, config)
    rows = {
        "cone-identities": _cone_identities,
        "contact-axioms": _contact_axioms,
        "kcontact": _kcontact,
        "sasaki": _sasaki,
        "weitzenboeck": _weitzenboeck,
        "hypersasaki": _hypersasaki,
        "integration": _integration,
    }[config.suite](entry, config)
    emitted = {identity for checks, _ in rows for identity, _, _ in checks}
    unknown = sorted(set(config.tolerances) - emitted)
    if unknown:
        raise SuiteUsageError(
            f"suite {config.suite!r} on {config.manifold!r} emits no identity "
            f"{', '.join(map(repr, unknown))}; a tolerance applies only to "
            "an identity the suite reports")
    return _run_rows(config, rows)


def _run_rows(config, rows):
    """One report per identity; a kernel that raises errors its whole row."""
    reports = []
    for checks, kernel in rows:
        try:
            residuals, points = kernel()
        except Exception as exc:
            message = f"{type(exc).__name__}: {exc}"
            reports += [error_report(identity, anchor,
                                     config.tolerance(identity, tol), message)
                        for identity, anchor, tol in checks]
            continue
        reports += [make_report(identity, anchor, res,
                                config.tolerance(identity, tol), points)
                    for (identity, anchor, tol), res
                    in zip(checks, residuals, strict=True)]
    return reports


# -- input validation -----------------------------------------------------------


def _entry(manifold):
    try:
        return catalog.get(manifold)
    except KeyError as exc:
        raise SuiteUsageError(str(exc)) from None


# the only suites whose kernels take their jet order from the config, with
# the least order that seeds every derivative they take
_MIN_JET_ORDER = {"cone-identities": 2, "weitzenboeck": 4}
# exact jets give the same reports at any order above a suite's minimum, and
# the product tables grow as C(order + 2 dim, 2 dim): at order 99 on a 4-dim
# cone, building them ran for over a minute, so orders past this are refused
_MAX_JET_ORDER = 8
# how many of the config's radii each suite reads; the others read none
_RADII_READ = {"weitzenboeck": 2, "integration": 1}


def _validate(entry, config):
    if config.samples < 1:
        raise SuiteUsageError(f"samples must be at least 1, got {config.samples}")
    if not 0 <= config.seed < 2**64:
        raise SuiteUsageError(f"seed must lie in [0, 2**64), got {config.seed}")
    if config.jet_order is not None:
        least = _MIN_JET_ORDER.get(config.suite)
        if least is None:
            raise SuiteUsageError(
                f"suite {config.suite!r} runs at fixed jet orders; a jet order "
                f"applies only to {', '.join(_MIN_JET_ORDER)}")
        if config.jet_order < least:
            raise SuiteUsageError(
                f"suite {config.suite!r} needs jet order at least {least}, "
                f"got {config.jet_order}")
        if config.jet_order > _MAX_JET_ORDER:
            raise SuiteUsageError(
                f"jet order must be at most {_MAX_JET_ORDER}, got {config.jet_order}")
    if config.grid is not None:
        if config.suite != "integration":
            raise SuiteUsageError(
                f"suite {config.suite!r} has no quadrature; a grid applies "
                "only to integration")
        _grid_counts(entry, config.grid)
    for r in config.radii:
        _check_radius(r)
    radii = tuple(config.radii)
    if config.suite == "weitzenboeck" and (len(radii) != 2 or radii[0] == radii[1]):
        # the radial identities compare a pass at r1 with one at r2, and at
        # r1 = r2 they hold with residual 0 whatever the code computes
        raise SuiteUsageError(
            f"suite 'weitzenboeck' needs two distinct radii, got {radii!r}")
    used = _RADII_READ.get(config.suite, 0)
    if len(radii) > used and radii != SuiteConfig.radii:
        raise SuiteUsageError(
            f"suite {config.suite!r} reads {used} radii, got {len(config.radii)}")
    for identity, tol in config.tolerances.items():
        if not np.isfinite(tol) or tol < 0:
            raise SuiteUsageError(
                f"tolerance for {identity!r} must be finite and at least 0, "
                f"got {tol!r}")


def _grid_counts(entry, grid):
    """Node counts per base coordinate from an int or a per-coordinate tuple."""
    dim = entry.chart.dim
    counts = (grid,) * dim if np.ndim(grid) == 0 else tuple(grid)
    if len(counts) != dim or not all(
            isinstance(c, (int, np.integer)) and not isinstance(c, bool) and c >= 1
            for c in counts):
        raise SuiteUsageError(
            f"grid needs {dim} node counts of at least 1, got {grid!r}")
    return counts


def _check_radius(r):
    lo, hi = cone_mod.R_RANGE
    if not lo < r < hi:
        raise SuiteUsageError(
            f"radius {r!r} outside the cone's radial range ({lo}, {hi})")


# -- sampling -----------------------------------------------------------------


def _draw(entry, config):
    """Points, radii and three direction fields, all from one stream."""
    rng = SplitMix64(config.seed)
    B = config.samples
    pts = entry.chart.sample_points(B, rng)
    radii = rng.uniforms(B, R_LO, R_HI)
    d = entry.chart.dim
    dirs = [np.array([rng.unit_vector(d) for _ in range(B)]) for _ in range(3)]
    return rng, pts, radii, dirs


def _cone_points(pts, radii):
    return np.column_stack([pts, radii])


def _picked(res, keys, points):
    """Kernel result for the residuals stored under `keys` of a dict."""
    return [res[key] for key in keys], points


# -- lemma test fixtures --------------------------------------------------------


def _lemma_functions():
    return [
        lambda x: x[0] * 0.0 + 1.0,
        lambda x: sin(x[0]),
        lambda x: cos(x[0]),
        lambda x: sin(x[0]) * cos(x[1]),
        lambda x: sin(x[0]) * sin(x[0]) + cos(x[1]),
    ]


def _lemma_oneforms(dim):
    def build(coeffs):
        def fn(x):
            out = np.empty(dim, object)
            zero = x[0] * 0.0
            for i in range(dim):
                out[i] = zero
            for i, c in coeffs(x):
                out[i] = out[i] + c
            return out

        return fn

    return [
        build(lambda x: [(0, x[0] * 0.0 + 1.0)]),
        build(lambda x: [(0, sin(x[0]))]),
        build(lambda x: [(1, cos(x[0]))]),
        build(lambda x: [(0, cos(x[1])), (1, sin(x[0]))]),
        build(lambda x: [(1, sin(x[0]) * cos(x[1]))]),
    ]


def _test_twoform(dim):
    def fn(x):
        zero = x[0] * 0.0
        out = np.empty((dim, dim), object)
        for i in range(dim):
            for j in range(dim):
                out[i, j] = zero
        c = cos(x[0])
        out[0, 1] = c
        out[1, 0] = zero - c
        return out

    return fn


# -- suites ---------------------------------------------------------------------

_CONNECTION = ("radial-geodesic", "radial-lift", "radial-transport",
               "mixed-symmetry", "horizontal-connection")
_LEMMA_WEIGHTS = (-2, 0, 1, 2, 3)


def _cone_identities(entry, config):
    cn = cone_mod.build_cone(entry.chart)
    _, pts, radii, dirs = _draw(entry, config)
    cpts = _cone_points(pts, radii)
    order = config.jet_order or 3
    geo = cone_mod.cone_geometry(cn, pts, radii, order)
    bgeo = cone_mod.base_geometry(cn, pts, order)
    dim = entry.chart.dim

    def forms(fn, degree):
        res = cone_mod.form_relation_residuals(geo, bgeo, dirs[0], fn, degree)
        return _picked(res, ("form-radial", "form-directional"), cpts)

    def codiff_sweep():
        return [np.maximum.reduce([
            cone_mod.lemma_codifferential_residuals(geo, bgeo, fn, k)[0]
            for k in _LEMMA_WEIGHTS for fn in _lemma_oneforms(dim)])], cpts

    def lap_sweep():
        return [np.maximum.reduce([
            cone_mod.lemma_laplacian_residuals(geo, bgeo, fn, k)[0]
            for k in _LEMMA_WEIGHTS for fn in _lemma_functions()])], cpts

    def lap_r2():
        one = lambda x: x[0] * 0.0 + 1.0
        _, lhs, _ = cone_mod.lemma_laplacian_residuals(geo, bgeo, one, 2)
        return [np.abs(lhs - (-2.0 * (2 * cn.n + 2)))], cpts

    return [
        Row([("cone-block-metric", "ConeChart (g = dr^2 + r^2 g_M)", 1e-12)],
            lambda: ([cone_mod.block_metric_residuals(cn, pts, radii)], cpts)),
        Row([(f"cone-{key}", "Eq. (1)", 1e-7) for key in _CONNECTION],
            lambda: _picked(cone_mod.connection_relation_residuals(
                geo, bgeo, dirs[0], dirs[1]), _CONNECTION, cpts)),
        Row([("cone-oneform-radial", "Eq. (2)", 1e-7),
             ("cone-oneform-directional", "Eq. (2)", 1e-7)],
            lambda: forms(_lemma_oneforms(dim)[3], 1)),
        Row([("cone-twoform-radial", "Eq. (2)", 1e-7),
             ("cone-twoform-directional", "Eq. (2)", 1e-7)],
            lambda: forms(_test_twoform(dim), 2)),
        Row([("cone-dr-radial", "Eq. (3)", 1e-7),
             ("cone-dr-hessian", "Eq. (3)", 1e-7)],
            lambda: _picked(cone_mod.dr_relation_residuals(geo, bgeo, dirs[0]),
                            ("dr-radial", "dr-hessian"), cpts)),
        Row([("cone-curvature-radial", "Eq. (4)", 1e-7),
             ("cone-curvature-horizontal", "Eq. (4)", 1e-7)],
            lambda: _picked(cone_mod.curvature_relation_residuals(
                geo, bgeo, *dirs), ("curvature-radial", "curvature-horizontal"),
                cpts)),
        Row([("cone-codifferential-weights", "Lemma 2.2(i)", 1e-6)],
            codiff_sweep),
        Row([("cone-laplacian-weights", "Lemma 2.2(ii)", 1e-6)], lap_sweep),
        Row([("cone-laplacian-radial-quadratic", "Lemma 2.2(ii)", 1e-9)],
            lap_r2),
    ]


def _structures(entry):
    """(identity suffix, structure) per catalogued structure."""
    tagged = len(entry.structures) > 1
    return [(f":{st.name}" if tagged else "", st) for st in entry.structures]


def _contact_axioms(entry, config):
    _, pts, radii, _ = _draw(entry, config)
    cpts = _cone_points(pts, radii)
    sympl_keys = ("symplectic-closed", "symplectic-norm", "complex-square",
                  "complex-isometry")

    def reeb(st):
        res = contact.reeb_residuals(st, pts)
        return [np.maximum(res["reeb-pairing"],
                           np.maximum(res["reeb-kernel"],
                                      res["reeb-interior"]))], pts

    rows = []
    for tag, st in _structures(entry):
        sympl = contact.ConeSymplecticData(cone_mod.build_cone(entry.chart), st)
        rows += [
            Row([(f"contact-unit-length{tag}", "ContactMetricStructure", 1e-9)],
                lambda st=st: ([contact.unit_length_residuals(st, pts)], pts)),
            Row([(f"contact-metric-axiom{tag}", "Eq. (kc)", 1e-8)],
                lambda st=st: ([contact.kc_residuals(st, pts)], pts)),
            Row([(f"contact-reeb-conditions{tag}", "Eq. (kc)", 1e-8)],
                lambda st=st: reeb(st)),
            Row([(f"cone-{key}{tag}", "Eq. (om)", 1e-8) for key in sympl_keys],
                lambda sympl=sympl: _picked(
                    contact.symplectic_residuals(sympl, cpts), sympl_keys, cpts)),
        ]
    return rows


def _kcontact(entry, config):
    _, pts, _, _ = _draw(entry, config)
    rows = []
    for tag, st in _structures(entry):
        rows += [
            Row([(f"killing-field{tag}", "K-contact (xi Killing)", 1e-7)],
                lambda st=st: ([contact.killing_residuals(st, pts)], pts)),
            Row([(f"ricci-reeb-criterion{tag}", "Ric(xi,xi) = 2n", 1e-7)],
                lambda st=st: ([np.abs(contact.ricci_reeb_deficit(st, pts))],
                               pts)),
        ]
    return rows


def _sasaki(entry, config):
    _, pts, radii, _ = _draw(entry, config)
    cpts = _cone_points(pts, radii)
    rows = []
    for tag, st in _structures(entry):
        sympl = contact.ConeSymplecticData(cone_mod.build_cone(entry.chart), st)
        sas = cache(lambda st=st: contact.sasaki_residuals(st, pts))
        par = cache(lambda sympl=sympl: contact.parallel_omega_residuals(sympl, cpts))

        def agreement(sas=sas, par=par):
            agree = (np.max(sas()) < 1e-6) == (np.max(par()) < 1e-6)
            return [np.array([0.0 if agree else 1.0])], None

        rows += [
            Row([(f"sasaki-defect{tag}", "Eq. (xd)", 1e-7)],
                lambda sas=sas: ([sas()], pts)),
            Row([(f"parallel-omega{tag}", "parallel Omega iff Sasakian", 1e-7)],
                lambda par=par: ([par()], cpts)),
            Row([(f"sasaki-parallel-equivalence{tag}",
                  "parallel Omega iff Sasakian", 0.5)], agreement),
        ]
    return rows


_SCALING_TERMS = ("lap_s_diff", "div_term", "ric_div_term", "ric_anti_sq",
                  "rough_sq", "phi_sq", "rho_phi", "rho_rough", "solved_rpp_sq")


def _weitzenboeck(entry, config):
    sympl = contact.ConeSymplecticData(cone_mod.build_cone(entry.chart),
                                       entry.structures[0])
    rng, pts, radii, dirs = _draw(entry, config)
    dirs4 = np.array([rng.unit_vector(entry.chart.dim + 1)
                      for _ in range(len(pts))])
    cpts = _cone_points(pts, radii)
    order = config.jet_order or weitzenboeck.DEFAULT_ORDER
    # radial structure: two more passes at fixed radii over the same points
    r1, r2 = (float(r) for r in config.radii)

    def pointwise():
        data = weitzenboeck.weitzenboeck_data(sympl, pts, radii, order)
        return [
            weitzenboeck.radial_parallel_residuals(data),
            weitzenboeck.star_scalar_consistency(data),
            weitzenboeck.phi_identity_residuals(data, dirs4),
            weitzenboeck.phi_invariance_residuals(data),
            weitzenboeck.ricci_split_residuals(data),
            np.maximum(0.0, -data.solved_rpp_sq),
        ], cpts

    def radial():
        d1 = weitzenboeck.weitzenboeck_data(sympl, pts, np.full(len(pts), r1), order)
        d2 = weitzenboeck.weitzenboeck_data(sympl, pts, np.full(len(pts), r2), order)
        prof = weitzenboeck.radial_profiles(d1, d2, r1, r2)
        b1, m1 = weitzenboeck.omega_derivative_blocks(d1)
        b2, m2 = weitzenboeck.omega_derivative_blocks(d2)
        blocks = np.maximum(np.max(np.abs(b1 - b2), axis=(1, 2, 3)),
                            np.max(np.abs(m1 - m2), axis=(1, 2)))
        scaling = np.maximum.reduce([
            weitzenboeck.scaling_ratio(getattr(d1, name), getattr(d2, name),
                                       r1, r2, power=4)
            for name in _SCALING_TERMS])
        return [prof["f-drift"], prof["f-positivity"], prof["alpha-drift"],
                blocks, scaling], pts

    return [
        Row([("omega-radial-parallel", "nab_r Omega = 0", 1e-8),
             ("star-scalar-consistency", "s* - s = |nab Omega|^2", 1e-6),
             ("phi-norm-identity", "|nab_X Omega|^2 = -phi(X, JX)", 1e-7),
             ("phi-invariance", "Eq. (la) (phi term)", 1e-7),
             ("ricci-split-invariance", "Eq. (la) (Ric'' term)", 1e-8),
             ("weitzenboeck-nonnegativity", "Eq. (la)", 1e-5)], pointwise),
        Row([("star-scalar-radial-profile", "Eq. (op)", 1e-6),
             ("radial-profile-positive", "Eq. (op)", 1e-9),
             ("pairing-form-profile", "Eq. (op2)", 1e-6),
             ("omega-derivative-blocks", "nab_X Omega = r^2 w + r dr ^ tau", 1e-8),
             ("weitzenboeck-radial-scaling", "Eq. (la2)", 1e-4)], radial),
    ]


def _hypersasaki(entry, config):
    sasakian = [s for s in entry.structures if s.expected == "sasakian"]
    if len(sasakian) < 2:
        raise SuiteUsageError(
            f"manifold {entry.key!r} does not catalogue two Sasakian "
            "structures; hypersasaki needs a pair")
    rng, pts, radii, _ = _draw(entry, config)
    cpts = _cone_points(pts, radii)
    cn = cone_mod.build_cone(entry.chart)
    sympl = [contact.ConeSymplecticData(cn, st) for st in sasakian]
    pair = pairs.StructurePair(sympl[0], sympl[1])
    # (lambda, |Q - lambda Id|, lambda variation); every later row needs lambda
    anticommutator = cache(lambda: pairs.anticommutator_lambda(pair, cpts))

    def lam():
        return anticommutator()[0]

    def anticommutator_row():
        _, qres, variation = anticommutator()
        return [np.maximum(qres, variation)], cpts

    def worst_of(kernel):
        return lambda: ([np.maximum.reduce(list(kernel(pair, cpts, lam()).values()))],
                        cpts)

    def family():
        _, resid, unit = pairs.s2_family_coefficients(pair, sympl[2], cpts, lam())
        return [np.maximum(resid, unit)], cpts

    rows = [
        Row([("pair-anticommutator", "Q = lambda Id", 1e-8)], anticommutator_row),
        Row([("pair-cauchy-schwarz", "|lambda| <= 2", 1e-9)],
            lambda: ([np.array([max(0.0, abs(lam()) - 2.0)])], None)),
        Row([("pair-commutator-square", "A^2 = (lambda^2 - 4) Id", 1e-8)],
            lambda: ([pairs.commutator_square_residuals(pair, cpts, lam())], cpts)),
        Row([("third-structure", "I = A / sqrt(4 - lambda^2)", 1e-8)],
            worst_of(pairs.third_structure_residuals)),
        Row([("third-structure-parallel", "nab I = 0", 1e-7)],
            lambda: ([pairs.parallel_third_structure_residuals(pair, cpts, lam())],
                     cpts)),
        Row([("quaternion-relations", "(g, I, J, K = IJ) hyperkaehler", 1e-8)],
            worst_of(pairs.quaternion_relation_residuals)),
    ]
    if len(sasakian) >= 3:
        # a random unit combination of the triple must itself be Sasakian
        # and land back on the unit sphere of the triple
        raw = np.array([rng.uniform(-1, 1) for _ in range(3)])
        raw = raw / np.linalg.norm(raw)

        def random_member():
            xi = catalog.reeb_combination(sasakian[:3], raw)
            st = contact.ContactMetricStructure(entry.chart, xi, "combo")
            sas = contact.sasaki_residuals(st, pts)
            combo_sympl = contact.ConeSymplecticData(cn, st)
            _, resid, unit = pairs.s2_family_coefficients(
                pair, combo_sympl, cpts, lam())
            return [np.maximum(sas, np.maximum(resid, unit))], pts

        rows += [
            Row([("s2-family-unit", "S^2-family of Sasakian structures", 1e-8)],
                family),
            Row([("s2-family-sasaki", "S^2-family of Sasakian structures", 1e-6)],
                random_member),
        ]
    return rows


# -- integration ---------------------------------------------------------------


INTEGRANDS = ("one", "divergence-pairing", "divergence-ricci", "f-term",
              "solved-curvature", "rough-laplacian", "phi-norm")

_DIVERGENCE = ("divergence-pairing", "divergence-ricci")
_NONNEGATIVE = ("f-term", "solved-curvature", "rough-laplacian", "phi-norm")


def integrand_values(entry, name, data, r):
    """A named integrand at radius r, read from one weitzenboeck_data pass."""
    if name in _DIVERGENCE:
        vals = data.div_term if name == "divergence-pairing" else data.ric_div_term
        return vals * r**4
    if name == "f-term":
        return 2.0 * (2 * entry.n - 2) * (data.s_star * r**2) / r**4
    if name == "solved-curvature":
        return data.solved_rpp_sq
    if name == "rough-laplacian":
        return data.rough_sq
    if name == "phi-norm":
        return data.phi_sq
    raise SuiteUsageError(
        f"unknown integrand {name!r}; known: {', '.join(INTEGRANDS)}")


def _level_set_integrals(entry, r, names, counts):
    """Quadratures over M_r of integrands of one family, in `names` order.

    Every quadrature call uses the same nodes, so the family's one pipeline
    pass, made at the first call, serves all of them; "one" needs no pass.
    """
    cn = cone_mod.build_cone(entry.chart)
    sympl = contact.ConeSymplecticData(cn, entry.structures[0])
    held = []

    def values(name):
        def fn(pts, rr):
            if name == "one":
                return np.ones(len(pts))
            if not held:
                order, mode = ((4, "divergence") if name in _DIVERGENCE
                               else (weitzenboeck.DEFAULT_ORDER, "full"))
                held.append(weitzenboeck.weitzenboeck_data(
                    sympl, pts, np.full(len(pts), float(rr)), order, mode=mode))
            return integrand_values(entry, name, held[0], rr)

        return fn

    return [quadrature.integrate_level_set(cn, r, values(name), counts)
            for name in names]


def integrate_level_set(manifold: str, r: float, integrand: str, grid=None):
    """Named-integrand quadrature over the level set M_r.

    Without a grid, "one" uses the catalog quadrature spec and the curvature
    integrands the entry's tuned curvature_quadrature.
    """
    entry = _entry(manifold)
    if integrand not in INTEGRANDS:
        raise SuiteUsageError(
            f"unknown integrand {integrand!r}; known: {', '.join(INTEGRANDS)}")
    _check_radius(r)
    if grid is not None:
        counts = _grid_counts(entry, grid)
    elif integrand == "one":
        counts = entry.quadrature
    else:
        counts = entry.curvature_quadrature
    return _level_set_integrals(entry, r, (integrand,), counts)[0]


def _integration(entry, config):
    grid = config.grid
    r = float(config.radii[0]) if config.radii else 1.0
    counts = (_grid_counts(entry, grid) if grid is not None
              else entry.curvature_quadrature)

    def volume():
        vol = quadrature.chart_volume(
            entry.chart, grid if grid is not None else entry.quadrature)
        expected = entry.known_values["volume"]
        return [np.array([abs(vol - expected) / abs(expected)])], None

    def integrals(names):
        return lambda: ([np.array([abs(v)]) for v in
                         _level_set_integrals(entry, r, names, counts)], None)

    rows = []
    if entry.known_values.get("volume"):
        rows.append(Row([("volume", "catalog closed form", 1e-9)], volume))
    if entry.key in ("t3-blair", "t3-unnormalized"):
        rows.append(Row([(f"integral-{name}", "level-set integral of Eq. (la)", 1e-6)
                         for name in _DIVERGENCE], integrals(_DIVERGENCE)))
    if entry.key == "s3-round":
        rows.append(Row([(f"integral-{name}", "level-set integral of Eq. (la)", 1e-8)
                         for name in _NONNEGATIVE], integrals(_NONNEGATIVE)))
    return rows
