"""Pointwise chart geometry: connection, curvature, first-order operators.

Everything evaluates at a *jet point*: chart coordinates seeded as truncated
Taylor variables.  ``PointGeometry(chart, jet_point(chart, points, order))``
is the one entry point; it caches the metric, its inverse, the connection
and the curvature of a batch of points, and ``tvalues`` reads any of its
tensors as floats.  Derived tensors are object arrays of jets, so downstream
operators keep differentiating until the seeded order is exhausted.
Contractions of jet tensors go through ``np.tensordot``, which folds the
products in C order of the contracted indices, left operand on the left;
byte-identical reports rely on that order.

Conventions, frozen once and pinned by calibration fixtures in the tests:

* curvature   R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z,
  so the unit round sphere has R(X,Y)Z = g(Y,Z)X - g(X,Z)Y;
* Ricci       Ric(X,Y) = tr(Z -> R(Z,X)Y), scalar s = tr_g Ric;
* codifferential  delta sigma = -g^{mi} (nab sigma)_{mi}   (= -div);
* Laplacian   Delta = delta d = -tr_g Hess, so Delta(r^2) < 0 on flat space;
* tensor norms are full sums over all index tuples in an orthonormal frame,
  no 1/p! weight; inner products likewise.

Component layout: contravariant indices first, then covariant.  A covariant
derivative prepends one covariant index, i.e. (nab T)[m, ...] = nab_m T.
"""

from __future__ import annotations

import numpy as np

from .chart import ManifoldChart
from .errors import DegenerateMetricError, JetOrderError
from .jets import Jet

# -- object-array helpers ----------------------------------------------------


def tmap(fn, T):
    out = np.empty(T.shape, object)
    for idx in np.ndindex(*T.shape):
        out[idx] = fn(T[idx])
    return out


def dpartial(T, i):
    """Elementwise jet partial along coordinate i."""
    return tmap(lambda v: v.partial(i), T)


def grad(T, dim):
    """Coordinate gradient; new first axis runs over d/dx_m."""
    out = np.empty((dim,) + T.shape, object)
    for m in range(dim):
        out[m] = dpartial(T, m)
    return out


def tvalues(T) -> np.ndarray:
    """Float values of an object tensor, shape (batch,) + T.shape."""
    first = T[next(iter(np.ndindex(*T.shape)))] if T.shape else T[()]
    batch = first.batch
    out = np.empty((batch,) + T.shape)
    for idx in np.ndindex(*T.shape):
        out[(slice(None),) + idx] = T[idx].value
    return out


# no caller; named only by perfbench/tracing.py's SPAN_GROUPS
contract = np.tensordot


# -- metric inverse ----------------------------------------------------------


def inverse_metric(g) -> np.ndarray:
    """Jet-valued inverse via a truncating Neumann series.

    g = G0 + N with N the zero-value part; then
    g^{-1} = sum_k (-G0^{-1} N)^k G0^{-1}, exact at the jets' order because N
    is nilpotent under truncated multiplication.
    """
    d = g.shape[0]
    sample = g[0, 0]
    order = min(v.order for v in g.flat)
    g0 = tvalues(g)                       # (B, d, d)
    try:
        g0_inv = np.linalg.inv(g0)
    except np.linalg.LinAlgError as exc:
        raise DegenerateMetricError("singular metric value") from exc
    inv0 = np.empty((d, d), object)
    for i in range(d):
        for j in range(d):
            inv0[i, j] = Jet.constant(g0_inv[:, i, j], sample.dim, order)
    n_part = np.empty((d, d), object)
    for i in range(d):
        for j in range(d):
            entry = g[i, j].truncate(order) - g0[:, i, j]
            n_part[i, j] = entry
    step = -np.tensordot(inv0, n_part, axes=([1], [0]))  # -G0^{-1} N
    out = inv0
    term = inv0
    for _ in range(order):
        term = np.tensordot(step, term, axes=([1], [0]))
        out = out + term
    return out


# -- cached geometry at one (batched) jet point -------------------------------


class PointGeometry:
    """Lazily-computed connection and curvature data at a jet point."""

    def __init__(self, chart: ManifoldChart, x):
        self.chart = chart
        self.x = x
        self.dim = chart.dim
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def order(self):
        return self.x[0].order

    @property
    def g(self):
        return self._get("g", lambda: self.chart.metric_components(self.x))

    @property
    def ginv(self):
        return self._get("ginv", lambda: inverse_metric(self.g))

    @property
    def g_values(self):
        return self._get("gv", lambda: tvalues(self.g))

    @property
    def ginv_values(self):
        return self._get("giv", lambda: np.linalg.inv(self.g_values))

    @property
    def gamma(self):
        """Christoffel symbols, gamma[k, i, j] = Gamma^k_ij."""

        def build():
            d = self.dim
            g = self.g
            dg = [dpartial(g, m) for m in range(d)]
            ginv = tmap(lambda v: v.truncate(self.order - 1), self.ginv)
            out = np.empty((d, d, d), object)
            for i in range(d):
                for j in range(i, d):
                    for k in range(d):
                        acc = None
                        for l in range(d):
                            term = ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                            acc = term if acc is None else acc + term
                        val = 0.5 * acc
                        out[k, i, j] = val
                        out[k, j, i] = val
            return out

        return self._get("gamma", build)

    @property
    def riemann(self):
        """R[a, i, j, k]: component along dx_a of R(d_i, d_j) d_k."""

        def build():
            d = self.dim
            gam = self.gamma
            dgam = [dpartial(gam, m) for m in range(d)]
            out = np.empty((d, d, d, d), object)
            for i in range(d):
                for j in range(d):
                    for k in range(d):
                        for a in range(d):
                            if i == j:
                                out[a, i, j, k] = (gam[a, i, k] - gam[a, i, k]).truncate(
                                    self.order - 2)
                                continue
                            if i > j:
                                out[a, i, j, k] = -out[a, j, i, k]
                                continue
                            acc = dgam[i][a, j, k] - dgam[j][a, i, k]
                            for b in range(d):
                                acc = acc + gam[a, i, b] * gam[b, j, k]
                                acc = acc - gam[a, j, b] * gam[b, i, k]
                            out[a, i, j, k] = acc
            return out

        return self._get("riemann", build)

    @property
    def riemann_low(self):
        """Rlow[i, j, k, l] = g(R(d_i, d_j) d_k, d_l)."""

        def build():
            return np.tensordot(
                np.moveaxis(self.riemann, 0, -1), self.g, axes=([3], [0]))

        return self._get("riemann_low", build)

    @property
    def ricci(self):
        return self._get("ricci", lambda: np.trace(self.riemann, axis1=0, axis2=1))

    @property
    def scalar_curvature(self):
        return self._get(
            "scal", lambda: np.tensordot(self.ginv, self.ricci, 2)[()])

    # -- first-order operators -------------------------------------------

    def covd(self, T, valence):
        """Covariant derivative; new first (covariant) axis is nabla_m."""
        p, q = valence
        d = self.dim
        gam = self.gamma
        DT = grad(T, d)
        out = np.empty((d,) + T.shape, object)
        for m in range(d):
            for idx in np.ndindex(*T.shape):
                acc = DT[(m,) + idx]
                for s in range(p):
                    a = idx[s]
                    for b in range(d):
                        swapped = idx[:s] + (b,) + idx[s + 1:]
                        acc = acc + gam[a, m, b] * T[swapped]
                for s in range(q):
                    a = idx[p + s]
                    for b in range(d):
                        swapped = idx[:p + s] + (b,) + idx[p + s + 1:]
                        acc = acc - gam[b, m, a] * T[swapped]
                out[(m,) + idx] = acc
        return out

    def codifferential_oneform(self, sigma):
        """delta(sigma) = -g^{mi} (nab sigma)_{mi} for an object 1-form."""
        nab = self.covd(sigma, (0, 1))
        return -np.tensordot(self.ginv, nab, 2)[()]

    def laplacian_scalar(self, f):
        """Geometer's Laplacian of a scalar jet: -trace_g Hess f."""
        if f.order < 2:
            raise JetOrderError("Laplacian needs two derivative orders")
        d = self.dim
        df = [f.partial(i) for i in range(d)]
        gam = self.gamma
        hess = np.empty((d, d), object)
        for i in range(d):
            for j in range(d):
                h = df[i].partial(j)
                for k in range(d):
                    h = h - gam[k, i, j] * df[k]
                hess[i, j] = h
        return -np.tensordot(self.ginv, hess, 2)[()]

    # -- index gymnastics ---------------------------------------------------

    def raise_index(self, T, axis):
        """g^{ab} contraction on a covariant slot of an object tensor."""
        moved = np.moveaxis(T, axis, -1)
        return np.moveaxis(
            np.tensordot(moved, self.ginv, axes=([-1], [0])), -1, axis)

    def lower_index(self, T, axis):
        moved = np.moveaxis(T, axis, -1)
        return np.moveaxis(
            np.tensordot(moved, self.g, axes=([-1], [0])), -1, axis)


# -- differential forms -------------------------------------------------------


def exterior_derivative(T):
    """d of a p-form, p >= 1, given as a full antisymmetric object array.

    (d w)_{i0..ip} = sum_m (-1)^m  d_{i_m} w_{i0..^i_m..ip}
    """
    dim, degree = T.shape[0], T.ndim
    shape = (dim,) * (degree + 1)
    DW = grad(T, dim)
    out = np.empty(shape, object)
    for idx in np.ndindex(*shape):
        acc = None
        for m in range(degree + 1):
            term = DW[(idx[m],) + idx[:m] + idx[m + 1:]]
            if m % 2:
                term = -term
            acc = term if acc is None else acc + term
        out[idx] = acc
    return out


def wedge_oneform(sigma, tau, degree):
    """sigma ^ tau for a 1-form sigma and p-form tau (full component arrays).

    (sigma ^ tau)_{i0..ip} = sum_m (-1)^m sigma_{i_m} tau_{i0..^i_m..ip}
    """
    dim = sigma.shape[0]
    shape = (dim,) * (degree + 1)
    out = np.empty(shape, object)
    for idx in np.ndindex(*shape):
        acc = None
        for m in range(degree + 1):
            rest = idx[:m] + idx[m + 1:]
            term = sigma[idx[m]] * tau[rest] if degree else sigma[idx[m]] * tau
            if m % 2:
                term = -term
            acc = term if acc is None else acc + term
        out[idx] = acc
    return out


def interior_product(vec, T):
    """Contraction of a vector with the first slot of a covariant tensor."""
    return np.tensordot(vec, T, axes=([0], [0]))


# -- value-level norms ---------------------------------------------------------


def norm_squared(g_values, ginv_values, comps, sig):
    """|T|^2 with the frozen full-sum convention, batched floats.

    comps has shape (B,) + (dim,)*rank; sig marks each axis "u" (contravariant,
    paired with g) or "l" (covariant, paired with g^{-1}).
    """
    return inner_product(g_values, ginv_values, comps, comps, sig)


def inner_product(g_values, ginv_values, A, B, sig):
    """Full-sum pairing <A, B> of same-signature batched tensors."""
    rank = len(sig)
    letters = "abcdefgh"
    t1 = "Z" + letters[:rank]
    t2 = "Z" + "".join(ch.upper() for ch in letters[:rank])
    mats = []
    subs = [t1, t2]
    for k, s in enumerate(sig):
        mats.append(g_values if s == "u" else ginv_values)
        subs.append("Z" + letters[k] + letters[k].upper())
    expr = ",".join(subs) + "->Z"
    return np.einsum(expr, A, B, *mats, optimize=True)


def orthonormal_frame_values(g_values) -> np.ndarray:
    """Gram-Schmidt frame from the coordinate basis, batched.

    Returns E with E[b, a, :] the coordinate components of e_a; the frame is
    triangular w.r.t. coordinate order and positively oriented.
    """
    L = np.linalg.cholesky(g_values)
    E = np.linalg.inv(np.swapaxes(L, 1, 2))  # rows of L^{-T}: E[b][:, a]?
    return np.swapaxes(E, 1, 2)

