"""Closed-form test manifolds with contact data and quadrature specs.

Every entry is a single almost-everywhere chart and holds its candidate
contact structures as ContactMetricStructures on that chart, each with its
expected classification.  All structure fields are evaluable expressions
over jets, never sampled tables, so differentiation stays exact.  Entries
are addressable by stable string ids:

    t3-blair         flat 3-torus, Blair's non-K-contact structure (normalised)
    t3-unnormalized  the same 1-form on the unit flat torus; negative fixture
                     whose phi^2 = -(Id - eta (x) xi)/4 misses the axiom by 3/4
    s3-round         unit round S^3 in Hopf-type coordinates, three Reeb fields
                     from the ambient quaternion structures
    s5-round         unit round S^5, standard Sasakian Reeb field

The torus structure follows the normalisation g -> g/4, eta -> eta/2 under
which the defining axiom holds exactly; the unnormalised entry keeps the
plain unit metric so the axiom failure itself can be asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

import numpy as np

from .chart import ManifoldChart
from .contact import ContactMetricStructure
from .jets import cos, sin

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    chart: ManifoldChart
    structures: Tuple[ContactMetricStructure, ...]
    quadrature: Tuple[int, ...]      # default nodes per coordinate
    # tuned nodes for the curvature-heavy level-set integrands
    curvature_quadrature: Tuple[int, ...]
    # the suites.INTEGRAND_FAMILIES whose integrals over M_r it runs
    level_set_integrals: Tuple[str, ...]
    known_values: Dict[str, float] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return (self.chart.dim - 1) // 2


def _vec(fn):
    def wrapped(x):
        comps = fn(x)
        out = np.empty(len(comps), object)
        for i, c in enumerate(comps):
            out[i] = c
        return out

    return wrapped


# -- flat torus entries -------------------------------------------------------


def _torus_chart(scale: float, label: str) -> ManifoldChart:
    """Flat torus (t, x, y) with periods 2 pi and metric scale * Id."""
    return ManifoldChart(
        dim=3,
        coords=("t", "x", "y"),
        domain=((0.0, TWO_PI),) * 3,
        periodic=(TWO_PI,) * 3,
        metric=lambda x: [[scale, 0.0, 0.0], [0.0, scale, 0.0], [0.0, 0.0, scale]],
        label=label,
    )


def blair_t3() -> CatalogEntry:
    """Blair's contact metric structure on the flat torus, normalised.

    g = (dt^2 + dx^2 + dy^2)/4 on periods 2 pi, xi = 2(cos t d_x + sin t d_y);
    flat and Einstein with constant 0, yet not K-contact.
    """
    chart = _torus_chart(0.25, "t3-blair")
    xi = _vec(lambda x: [x[0] * 0.0, 2.0 * cos(x[0]), 2.0 * sin(x[0])])
    return CatalogEntry(
        key="t3-blair",
        chart=chart,
        structures=(ContactMetricStructure(chart, xi, "blair", "contact-metric"),),
        quadrature=(32, 32, 32),
        # every structure scalar depends on t alone, and the trapezoidal
        # rule is exact transversally with a handful of nodes
        curvature_quadrature=(32, 8, 8),
        level_set_integrals=("divergence",),
        known_values={
            "volume": np.pi**3,
            "scalar_curvature": 0.0,
            "einstein_constant": 0.0,
            "ricci_reeb_deficit": -2.0,
        },
    )


def flat_t3_unnormalized() -> CatalogEntry:
    """The torus structure as printed with the unit metric; negative fixture."""
    chart = _torus_chart(1.0, "t3-unnormalized")
    xi = _vec(lambda x: [x[0] * 0.0, cos(x[0]), sin(x[0])])
    return CatalogEntry(
        key="t3-unnormalized",
        chart=chart,
        structures=(
            ContactMetricStructure(chart, xi, "printed", "not-contact-metric"),),
        quadrature=(32, 32, 32),
        curvature_quadrature=(32, 8, 8),
        level_set_integrals=("divergence",),
        known_values={"volume": TWO_PI**3, "kc_residual": 0.75},
    )


# -- round spheres ------------------------------------------------------------


def s3_reeb_i() -> Callable:
    """Hopf field of the ambient complex structure i: d_beta + d_gamma."""
    return _vec(lambda x: [x[0] * 0.0, x[0] * 0.0 + 1.0, x[0] * 0.0 + 1.0])


def s3_reeb_j() -> Callable:
    def comps(x):
        al, be, ga = x[0], x[1], x[2]
        phase = be + ga
        t = sin(al) / cos(al)
        ct = cos(al) / sin(al)
        return [cos(phase), t * sin(phase), -(ct * sin(phase))]

    return _vec(comps)


def s3_reeb_k() -> Callable:
    def comps(x):
        al, be, ga = x[0], x[1], x[2]
        phase = be + ga
        t = sin(al) / cos(al)
        ct = cos(al) / sin(al)
        return [sin(phase), -(t * cos(phase)), ct * cos(phase)]

    return _vec(comps)


def reeb_combination(structures, coeffs) -> Callable:
    """Reeb field sum_k coeffs[k] * xi_k, summed left to right per component."""

    def comps(x):
        terms = [[c * v for v in st.xi(x)] for c, st in zip(coeffs, structures)]
        return [sum(column[1:], column[0]) for column in zip(*terms)]

    return _vec(comps)


def s3_round() -> CatalogEntry:
    """Unit round S^3 with the three Sasakian Reeb fields of its quaternions."""

    def metric(x):
        al = x[0]
        c, s = cos(al), sin(al)
        return [[1.0, 0.0, 0.0], [0.0, c * c, 0.0], [0.0, 0.0, s * s]]

    chart = ManifoldChart(
        dim=3,
        coords=("alpha", "beta", "gamma"),
        domain=((0.0, np.pi / 2), (0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(None, TWO_PI, TWO_PI),
        metric=metric,
        label="s3-round",
    )
    return CatalogEntry(
        key="s3-round",
        chart=chart,
        structures=tuple(
            ContactMetricStructure(chart, xi, name, "sasakian")
            for name, xi in (("i", s3_reeb_i()), ("j", s3_reeb_j()),
                             ("k", s3_reeb_k()))),
        quadrature=(24, 16, 16),
        # the nonnegative integrands vanish pointwise on the flat cone,
        # so positive-weight quadrature bounds them by their sup
        curvature_quadrature=(8, 6, 6),
        level_set_integrals=("nonnegative",),
        known_values={
            "volume": 2 * np.pi**2,
            "scalar_curvature": 6.0,
            "einstein_constant": 2.0,
            "ricci_reeb_deficit": 0.0,
        },
    )


def s5_round() -> CatalogEntry:
    """Unit round S^5 with its standard Sasakian Reeb field."""

    def metric(x):
        al, th = x[0], x[1]
        sa, ca = sin(al), cos(al)
        st, ct = sin(th), cos(th)
        z = x[0] * 0.0
        return [
            [1.0, z, z, z, z],
            [z, sa * sa, z, z, z],
            [z, z, ca * ca, z, z],
            [z, z, z, sa * sa * (ct * ct), z],
            [z, z, z, z, sa * sa * (st * st)],
        ]

    chart = ManifoldChart(
        dim=5,
        coords=("alpha", "theta", "beta", "gamma", "delta"),
        domain=((0.0, np.pi / 2), (0.0, np.pi / 2),
                (0.0, TWO_PI), (0.0, TWO_PI), (0.0, TWO_PI)),
        periodic=(None, None, TWO_PI, TWO_PI, TWO_PI),
        metric=metric,
        label="s5-round",
    )
    one = lambda x: x[0] * 0.0 + 1.0
    xi = _vec(lambda x: [x[0] * 0.0, x[0] * 0.0, one(x), one(x), one(x)])
    return CatalogEntry(
        key="s5-round",
        chart=chart,
        structures=(ContactMetricStructure(chart, xi, "i", "sasakian"),),
        quadrature=(16, 16, 12, 12, 12),
        curvature_quadrature=(6, 6, 4, 4, 4),  # dim-6 cone: keep it small
        level_set_integrals=(),
        known_values={
            "volume": np.pi**3,
            "scalar_curvature": 20.0,
            "einstein_constant": 4.0,
            "ricci_reeb_deficit": 0.0,
        },
    )


_BUILDERS = {
    "t3-blair": blair_t3,
    "t3-unnormalized": flat_t3_unnormalized,
    "s3-round": s3_round,
    "s5-round": s5_round,
}


def keys():
    return tuple(_BUILDERS)


def get(key: str) -> CatalogEntry:
    try:
        return _BUILDERS[key]()
    except KeyError:
        raise KeyError(f"unknown manifold id {key!r}; known: {', '.join(keys())}")
