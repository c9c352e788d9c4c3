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

from .errors import DegenerateMetricError, DomainError
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

    def contains(self, point) -> bool:
        for v, (lo, hi), period in zip(point, self.domain, self.periodic):
            if period is None and not (lo < v < hi):
                return False
        return True

    def require_inside(self, point):
        if not self.contains(point):
            raise DomainError(f"point {tuple(point)} outside domain of {self.label}")

    def check_spd(self, points):
        """Cholesky screen; raises DegenerateMetricError on failure."""
        g = self.metric_values(points)
        sym = np.max(np.abs(g - np.swapaxes(g, 1, 2)))
        if sym > 1e-10:
            raise DegenerateMetricError(f"metric of {self.label} not symmetric ({sym:.2e})")
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise DegenerateMetricError(f"metric of {self.label} not positive definite") from exc
        return g

    # -- sampling ---------------------------------------------------------

    def sample_points(self, n: int, rng: SplitMix64) -> np.ndarray:
        """n interior points; margin kept from non-periodic boundaries."""
        pts = np.empty((n, self.dim))
        for k in range(n):
            for i, ((lo, hi), period) in enumerate(zip(self.domain, self.periodic)):
                if period is None:
                    pts[k, i] = rng.uniform(lo + SAMPLE_MARGIN, hi - SAMPLE_MARGIN)
                else:
                    pts[k, i] = rng.uniform(lo, lo + period)
        return pts

    def validate(self):
        """SPD at 25 random probes plus a periodicity spot-check."""
        pts = self.sample_points(25, SplitMix64(2023))
        self.check_spd(pts)
        for i, period in enumerate(self.periodic):
            if period is None:
                continue
            shifted = pts.copy()
            shifted[:, i] += period
            drift = np.max(np.abs(self.metric_values(pts) - self.metric_values(shifted)))
            if drift > 1e-9:
                raise DegenerateMetricError(
                    f"metric of {self.label} not {period:g}-periodic in "
                    f"coordinate {self.coords[i]} (drift {drift:.2e})")
        return self


def jet_point(chart: ManifoldChart, points, order: int) -> list:
    """Seed coordinate jets for one point or a batch of points."""
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.shape[1] != chart.dim:
        raise DomainError(f"expected {chart.dim} coordinates, got {pts.shape[1]}")
    for p in pts:
        chart.require_inside(p)
    return Jet.variables(pts, order)
