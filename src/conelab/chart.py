"""Coordinate charts: domain bookkeeping, metric evaluation, sampling.

A chart is the only way a manifold enters the engine: a coordinate box, a
per-coordinate periodicity flag, and a smooth metric callback that must accept
jets as well as plain batched floats.  Charts cover their manifold almost
everywhere; identities are open conditions, so random samples keep a safety
margin away from non-periodic domain walls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .jets import Jet
from .rng import SplitMix64

# absolute distance kept from non-periodic boundaries when sampling
SAMPLE_MARGIN = 0.05


@dataclass(frozen=True)
class ManifoldChart:
    """A single almost-everywhere coordinate chart with its metric."""

    dim: int
    coords: tuple
    domain: tuple              # (lo, hi) per coordinate
    periodic: tuple            # period length per coordinate, or None
    metric: Callable           # coords -> dim x dim symmetric matrix
    label: str = "chart"

    def __post_init__(self):
        if self.dim < 1 or len(self.domain) != self.dim or len(self.periodic) != self.dim:
            raise ValueError("inconsistent chart dimensions")
        for (lo, hi), period in zip(self.domain, self.periodic):
            if hi <= lo:
                raise ValueError("empty coordinate interval")
            if period is not None and period <= 0:
                raise ValueError("periodic coordinates need period > 0")

    # -- evaluation ---------------------------------------------------------

    def metric_components(self, x) -> np.ndarray:
        """Metric as a (dim, dim) object array of jets (entries lifted)."""
        raw = self.metric(x)
        like = next(v for v in x if isinstance(v, Jet))
        out = np.empty((self.dim, self.dim), object)
        for i in range(self.dim):
            for j in range(self.dim):
                v = raw[i][j]
                if not isinstance(v, Jet):
                    v = Jet.constant(
                        np.broadcast_to(np.asarray(v, float), (like.batch,)),
                        like.dim, like.order)
                out[i, j] = v
        return out

    def metric_values(self, points) -> np.ndarray:
        """Metric matrices at batched float points, shape (B, dim, dim)."""
        pts = np.atleast_2d(np.asarray(points, float))
        cols = [pts[:, i] for i in range(self.dim)]
        raw = self.metric(cols)
        out = np.empty((pts.shape[0], self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                out[:, i, j] = raw[i][j]
        return out

    # -- domain handling ------------------------------------------------

    def require_inside(self, points):
        """Raise DomainError for the first of a batch of points that lies
        outside a non-periodic coordinate interval."""
        lo, hi = np.array(self.domain, float).T
        walled = np.array([period is None for period in self.periodic])
        outside = (walled & ~((lo < points) & (points < hi))).any(axis=1)
        if outside.any():
            point = points[outside.argmax()]
            raise DomainError(f"point {tuple(point)} outside domain of {self.label}")

    # -- sampling ---------------------------------------------------------

    def sample_points(self, n: int, rng: SplitMix64) -> np.ndarray:
        """n interior points; margin kept from non-periodic boundaries.

        One block of n * dim uniforms, point by point in coordinate order.
        """
        lo, hi = [], []
        for (a, b), period in zip(self.domain, self.periodic):
            if period is None:
                a, b = a + SAMPLE_MARGIN, b - SAMPLE_MARGIN
            else:
                b = a + period
            lo.append(a)
            hi.append(b)
        lo = np.array(lo, float)
        u = rng.uniforms(n * self.dim).reshape(n, self.dim)
        return lo + u * (np.array(hi, float) - lo)


def jet_point(chart: ManifoldChart, points, order: int) -> list:
    """Seed coordinate jets for one point or a batch of points."""
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.shape[1] != chart.dim:
        raise DomainError(f"expected {chart.dim} coordinates, got {pts.shape[1]}")
    chart.require_inside(pts)
    return Jet.variables(pts, order)
