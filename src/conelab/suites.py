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

import math
from dataclasses import fields, replace
from functools import cache
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import catalog, cone as cone_mod, contact, pairs, quadrature, weitzenboeck
from .jets import cos, sin
from .report import SuiteConfig, error_report, make_report
from .rng import SplitMix64

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


class Suite(NamedTuple):
    """One suite: its row builder and the config fields it reads."""

    rows: Callable[..., list]       # (catalog entry, config) -> [Row, ...]
    # (least, default) jet order if it reads one; the least seeds every
    # derivative the suite takes
    jet_orders: Optional[Tuple[int, int]] = None
    radii: int = 0                  # how many of the config's radii it reads
    grid: bool = False              # whether it reads a quadrature grid


def run_suite(config: SuiteConfig):
    for f in fields(SuiteConfig):
        check_field(f.name, getattr(config, f.name))
    suite = SUITES[config.suite]
    entry = catalog.get(config.manifold)
    _validate(entry, suite, config)
    if suite.jet_orders and config.jet_order is None:
        config = replace(config, jet_order=suite.jet_orders[1])
    rows = suite.rows(entry, config)
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

# exact jets give the same reports at any order above a suite's minimum, and
# the product tables grow as C(order + 2 dim, 2 dim): at order 99 on a 4-dim
# cone, building them ran for over a minute, so orders past this are refused
_MAX_JET_ORDER = 8


def _is(kinds, value):
    """Whether value has one of the JSON types kinds; a boolean is never a
    number, and a numpy integer is none (the report could not hold it)."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _radius(r):
    return _is((int, float), r) and cone_mod.R_RANGE[0] < r < cone_mod.R_RANGE[1]


# SuiteConfig field -> (whether a value has the field's JSON type and range,
# what the field must be); the rules that depend on the suite and the
# manifold are _validate's
_FIELDS = {
    "manifold": (lambda v: _is(str, v) and v in catalog.keys(),
                 "a catalog manifold id (see `conelab list`)"),
    "suite": (lambda v: _is(str, v) and v in SUITES,
              "a suite name (see `conelab list`)"),
    "grid": (lambda v: v is None or all(
        _is(int, c) and c >= 1
        for c in (v if isinstance(v, (list, tuple)) else [v])),
             "a node count of at least 1, or a list of them"),
    # distinct, as weitzenboeck's radial identities compare a pass at r1 with
    # one at r2, and at r1 = r2 they hold with residual 0 whatever the code does
    "radii": (lambda v: _is((list, tuple), v) and len(v) > 0
              and all(map(_radius, v)) and len(set(v)) == len(v),
              f"a non-empty list of distinct radii inside {cone_mod.R_RANGE}"),
    "jet_order": (lambda v: v is None or _is(int, v)
                  and 0 <= v <= _MAX_JET_ORDER,
                  f"an integer in [0, {_MAX_JET_ORDER}]"),
    # -0.0 passes 0 <= t, so a float's sign bit is read too (an int has none)
    "tolerances": (lambda v: _is(dict, v) and all(
        _is(str, k) and _is((int, float), t) and 0 <= t < math.inf
        and (_is(int, t) or math.copysign(1.0, t) > 0)
        for k, t in v.items()), "an object of finite tolerances of at least 0"),
    "seed": (lambda v: _is(int, v) and 0 <= v < 2**64,
             "an integer in [0, 2**64)"),
    "samples": (lambda v: _is(int, v) and v >= 1, "an integer of at least 1"),
}


def check_field(name, value):
    """Raise SuiteUsageError unless value has the JSON type and the range of
    the SuiteConfig field `name`."""
    valid, what = _FIELDS[name]
    if not valid(value):
        raise SuiteUsageError(f"{name} must be {what}, got {value!r}")


def _validate(entry, suite, config):
    """The field rules that depend on the suite and the manifold."""
    if config.jet_order is not None:
        if suite.jet_orders is None:
            raise SuiteUsageError(
                f"suite {config.suite!r} runs at fixed jet orders; a jet order "
                "applies only to "
                f"{', '.join(n for n, s in SUITES.items() if s.jet_orders)}")
        if config.jet_order < suite.jet_orders[0]:
            raise SuiteUsageError(
                f"suite {config.suite!r} needs jet order at least "
                f"{suite.jet_orders[0]}, got {config.jet_order}")
    if config.grid is not None:
        if not suite.grid:
            raise SuiteUsageError(
                f"suite {config.suite!r} has no quadrature; a grid applies only "
                f"to {', '.join(n for n, s in SUITES.items() if s.grid)}")
        _grid_counts(entry, config.grid)
    # the default radii are in every report's config, so every suite takes them
    radii = tuple(config.radii)
    if radii != SuiteConfig.radii and len(radii) != suite.radii:
        raise SuiteUsageError(
            f"suite {config.suite!r} reads {suite.radii} radii, got {len(radii)}")


def _grid_counts(entry, grid):
    """Node counts per base coordinate from a checked grid."""
    dim = entry.chart.dim
    counts = tuple(grid) if isinstance(grid, (list, tuple)) else (grid,) * dim
    if len(counts) != dim:
        raise SuiteUsageError(f"grid needs {dim} node counts, got {grid!r}")
    return counts


# -- sampling -----------------------------------------------------------------


def _draw(entry, config):
    """Points, radii and three direction fields, all from one stream."""
    rng = SplitMix64(config.seed)
    B = config.samples
    pts = entry.chart.sample_points(B, rng)
    radii = rng.uniforms(B, R_LO, R_HI)
    d = entry.chart.dim
    dirs = [rng.unit_vectors(B, d) for _ in range(3)]
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
            out.fill(x[0] * 0.0)
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
        out.fill(zero)
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
    geo = cone_mod.cone_geometry(cn, pts, radii, config.jet_order)
    bgeo = cone_mod.base_geometry(entry.chart, pts, config.jet_order)
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
        return [np.abs(lhs - (-2.0 * (2 * entry.n + 2)))], cpts

    return [
        # the reference string is report data, kept byte for byte
        Row([("cone-block-metric", "ConeChart (g = dr^2 + r^2 g_M)", 1e-12)],
            lambda: ([cone_mod.block_metric_residuals(entry.chart, pts, radii)],
                     cpts)),
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
        rows += [
            Row([(f"contact-unit-length{tag}", "ContactMetricStructure", 1e-9)],
                lambda st=st: ([contact.unit_length_residuals(st, pts)], pts)),
            Row([(f"contact-metric-axiom{tag}", "Eq. (kc)", 1e-8)],
                lambda st=st: ([contact.kc_residuals(st, pts)], pts)),
            Row([(f"contact-reeb-conditions{tag}", "Eq. (kc)", 1e-8)],
                lambda st=st: reeb(st)),
            Row([(f"cone-{key}{tag}", "Eq. (om)", 1e-8) for key in sympl_keys],
                lambda st=st: _picked(
                    contact.symplectic_residuals(st, cpts), sympl_keys, cpts)),
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
        sas = cache(lambda st=st: contact.sasaki_residuals(st, pts))
        par = cache(lambda st=st: contact.parallel_omega_residuals(st, cpts))

        def agreement(sas=sas, par=par):
            worst = np.array([np.max(sas()), np.max(par())])
            if not np.isfinite(worst).all():  # a non-finite side decides nothing
                return [np.array([np.nan])], None
            agree = (worst[0] < 1e-6) == (worst[1] < 1e-6)
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
    st = entry.structures[0]
    rng, pts, radii, dirs = _draw(entry, config)
    dirs4 = rng.unit_vectors(len(pts), entry.chart.dim + 1)
    cpts = _cone_points(pts, radii)
    order = config.jet_order
    # radial structure: two more passes at fixed radii over the same points
    r1, r2 = (float(r) for r in config.radii)

    def pointwise():
        data = weitzenboeck.weitzenboeck_data(st, pts, radii, order)
        return [
            weitzenboeck.radial_parallel_residuals(data),
            weitzenboeck.star_scalar_consistency(data),
            weitzenboeck.phi_identity_residuals(data, dirs4),
            weitzenboeck.phi_invariance_residuals(data),
            weitzenboeck.ricci_split_residuals(data),
            np.maximum(0.0, -data.solved_rpp_sq),
        ], cpts

    def radial():
        d1 = weitzenboeck.weitzenboeck_data(st, pts, np.full(len(pts), r1), order)
        d2 = weitzenboeck.weitzenboeck_data(st, pts, np.full(len(pts), r2), order)
        prof = weitzenboeck.radial_profiles(d1, d2, r1, r2)
        b1, m1 = weitzenboeck.omega_derivative_blocks(d1)
        b2, m2 = weitzenboeck.omega_derivative_blocks(d2)
        blocks = np.maximum(np.max(np.abs(b1 - b2), axis=(1, 2, 3)),
                            np.max(np.abs(m1 - m2), axis=(1, 2)))
        scaling = np.maximum.reduce([
            weitzenboeck.scaling_ratio(getattr(d1, name), getattr(d2, name), r1, r2)
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
    pair = pairs.StructurePair(sasakian[0], sasakian[1])
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
        _, resid, unit = pairs.s2_family_coefficients(pair, sasakian[2], cpts, lam())
        return [np.maximum(resid, unit)], cpts

    rows = [
        Row([("pair-anticommutator", "Q = lambda Id", 1e-8)], anticommutator_row),
        Row([("pair-cauchy-schwarz", "|lambda| <= 2", 1e-9)],
            lambda: ([np.maximum(0.0, [abs(lam()) - 2.0])], None)),
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
        raw = rng.uniforms(3, -1, 1)
        raw = raw / np.linalg.norm(raw)

        def random_member():
            xi = catalog.reeb_combination(sasakian[:3], raw)
            st = contact.ContactMetricStructure(entry.chart, xi, "combo")
            sas = contact.sasaki_residuals(st, pts)
            _, resid, unit = pairs.s2_family_coefficients(pair, st, cpts, lam())
            return [np.maximum(sas, np.maximum(resid, unit))], pts

        rows += [
            Row([("s2-family-unit", "S^2-family of Sasakian structures", 1e-8)],
                family),
            Row([("s2-family-sasaki", "S^2-family of Sasakian structures", 1e-6)],
                random_member),
        ]
    return rows


# -- integration ---------------------------------------------------------------


class Family(NamedTuple):
    """Level-set integrands read from one weitzenboeck_data pass; a catalog
    entry names the families whose integrals over M_r it runs."""

    members: Tuple[str, ...]
    order: int              # jet order of the pass
    mode: str               # weitzenboeck_data mode of the pass
    tolerance: float        # of each integral-* identity


INTEGRAND_FAMILIES = {
    # vanish by Stokes on a compact base
    "divergence": Family(("divergence-pairing", "divergence-ricci"), 4,
                         "divergence", 1e-6),
    # vanish only where the cone is flat, pointwise
    "nonnegative": Family(("f-term", "solved-curvature", "rough-laplacian",
                           "phi-norm"), weitzenboeck.DEFAULT_ORDER, "full", 1e-8),
}

INTEGRANDS = ("one",) + tuple(name for family in INTEGRAND_FAMILIES.values()
                              for name in family.members)


def integrand_values(entry, name, data, r):
    """A named integrand at radius r, read from one weitzenboeck_data pass."""
    if name == "divergence-pairing":
        return data.div_term * r**4
    if name == "divergence-ricci":
        return data.ric_div_term * r**4
    if name == "f-term":
        return 2.0 * (2 * entry.n - 2) * (data.s_star * r**2) / r**4
    if name == "solved-curvature":
        return data.solved_rpp_sq
    if name == "rough-laplacian":
        return data.rough_sq
    return data.phi_sq  # "phi-norm"


def _level_set_integrals(entry, r, family, names, grid):
    """Quadratures over M_r of integrands of one family (None for "one"), in
    `names` order.  Every quadrature call uses the same nodes, so the
    family's one pipeline pass, made at the first call, serves them all."""
    st = entry.structures[0]
    counts = _node_counts(entry, family, grid)
    held = []

    def values(name):
        def fn(pts, rr):
            if family is None:
                return np.ones(len(pts))
            if not held:
                held.append(weitzenboeck.weitzenboeck_data(
                    st, pts, np.full(len(pts), float(rr)), family.order,
                    mode=family.mode))
            return integrand_values(entry, name, held[0], rr)

        return fn

    return [quadrature.integrate_level_set(entry.chart, r, values(name), counts)
            for name in names]


def integrate_level_set(manifold: str, r: float, integrand: str, grid=None):
    """Named-integrand quadrature over the level set M_r, on the nodes
    `_node_counts` picks."""
    check_field("manifold", manifold)
    entry = catalog.get(manifold)
    if integrand not in INTEGRANDS:
        raise SuiteUsageError(
            f"unknown integrand {integrand!r}; known: {', '.join(INTEGRANDS)}")
    check_field("radii", (r,))
    check_field("grid", grid)
    family = next((f for f in INTEGRAND_FAMILIES.values()
                   if integrand in f.members), None)
    return _level_set_integrals(entry, r, family, (integrand,), grid)[0]


def _node_counts(entry, family, grid):
    """Node counts per base coordinate: a grid's, else the entry's
    `quadrature` for the volume and "one" (family None), else its tuned
    `curvature_quadrature` for an integrand family."""
    if grid is not None:
        return _grid_counts(entry, grid)
    return entry.quadrature if family is None else entry.curvature_quadrature


def _integration(entry, config):
    r = float(config.radii[0])

    def volume():
        vol = quadrature.chart_volume(entry.chart,
                                      _node_counts(entry, None, config.grid))
        expected = entry.known_values["volume"]
        return [np.array([abs(vol - expected) / abs(expected)])], None

    def integrals(family):
        return lambda: ([np.array([abs(v)]) for v in _level_set_integrals(
            entry, r, family, family.members, config.grid)], None)

    rows = []
    if entry.known_values.get("volume"):
        rows.append(Row([("volume", "catalog closed form", 1e-9)], volume))
    for family in (INTEGRAND_FAMILIES[key] for key in entry.level_set_integrals):
        rows.append(Row([(f"integral-{name}", "level-set integral of Eq. (la)",
                          family.tolerance) for name in family.members],
                        integrals(family)))
    return rows


# -- the suite table --------------------------------------------------------------

SUITES = {
    "cone-identities": Suite(_cone_identities, jet_orders=(2, 3)),
    "contact-axioms": Suite(_contact_axioms),
    "kcontact": Suite(_kcontact),
    "sasaki": Suite(_sasaki),
    "weitzenboeck": Suite(_weitzenboeck,
                          jet_orders=(4, weitzenboeck.DEFAULT_ORDER), radii=2),
    "hypersasaki": Suite(_hypersasaki),
    "integration": Suite(_integration, radii=1, grid=True),
}
