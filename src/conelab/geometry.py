"""Pointwise chart geometry: connection, curvature, first-order operators.

Everything evaluates at a *jet point*: chart coordinates seeded as truncated
Taylor variables.  ``PointGeometry(chart, jet_point(chart, points, order))``
is the one entry point; it caches the metric and its inverse (jets and
values), the Christoffel symbols, ``riemann``, ``ricci`` and the scalar
curvature of a batch of points.  ``riemann_low`` is formed on each read
instead: its one reader reads it once, and the rank-4 tensor should not
outlive that step.  ``tvalues`` reads any of its tensors as floats.
Derived tensors are object arrays of jets, so downstream operators keep
differentiating until the seeded order is exhausted.
Contractions go through ``np.tensordot``, elementwise jet arithmetic
through numpy's object ufuncs (``_addmul``/``_submul`` fuse acc +- x * y),
folds through ``reduce(np.add, ...)``: each applies one jet operation per
entry in C order, left operand on the left, from the first term on.  A jet
product sums in the order of its left factor, so byte-identical reports rely
on both orders.

Conventions, frozen once and pinned by calibration fixtures in the tests:

* curvature   R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_[X,Y] Z,
  so the unit round sphere has R(X,Y)Z = g(Y,Z)X - g(X,Z)Y;
* Ricci       Ric(X,Y) = tr(Z -> R(Z,X)Y), scalar s = tr_g Ric;
* codifferential  delta sigma = -g^{mi} (nab sigma)_{mi}   (= -div);
* Laplacian   Delta = delta d = -tr_g Hess, so Delta(r^2) < 0 on flat space;
* tensor norms are full sums over all index tuples in an orthonormal frame,
  no 1/p! weight; inner products likewise.  ``frame_norm`` is the residual
  measure of most kernels, sqrt|<T, T>| of the defect T; the Killing check
  (``contact.killing_residuals``) reports the largest orthonormal-frame
  component of its defect instead.

Component layout: contravariant indices first, then covariant.  A covariant
derivative prepends one covariant index, i.e. (nab T)[m, ...] = nab_m T.
"""

from __future__ import annotations

from functools import wraps

import numpy as np

from .chart import ManifoldChart
from .errors import DegenerateMetricError, JetOrderError
from .jets import Jet

# -- object-array helpers ----------------------------------------------------


def tmap(fn, T):
    return np.frompyfunc(fn, 1, 1)(T, out=np.empty(T.shape, object))


def dpartial(T, i):
    """Elementwise jet partial along coordinate i."""
    return tmap(lambda v: v.partial(i), T)


def grad(T, dim):
    """Coordinate gradient; new first axis runs over d/dx_m."""
    return np.stack([dpartial(T, m) for m in range(dim)])


# acc + x * y and acc - x * y per entry, one jet product alive at a time
_addmul = np.frompyfunc(lambda acc, x, y: acc + x * y, 3, 1)
_submul = np.frompyfunc(lambda acc, x, y: acc - x * y, 3, 1)


def constant_tensor(values, dim, order) -> np.ndarray:
    """Object tensor of constant jets from (batch,) + shape float values."""
    values = np.asarray(values, float)
    out = np.empty(values.shape[1:], object)
    out.flat = [Jet.constant(v, dim, order) for v in values.reshape(len(values), -1).T]
    return out


def tvalues(T) -> np.ndarray:
    """Float values of an object tensor, shape (batch,) + T.shape."""
    entries = T.ravel()
    out = np.empty((entries[0].batch, len(entries)))
    for k, v in enumerate(entries):
        out[:, k] = v.c[0]
    return out.reshape(out.shape[:1] + T.shape)


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
    inv0 = constant_tensor(g0_inv, sample.dim, order)
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


def _cached(build):
    """A property that computes build(self) once, kept in self._cache."""
    key = build.__name__

    @wraps(build)
    def get(self):
        if key not in self._cache:
            self._cache[key] = build(self)
        return self._cache[key]

    return property(get)


class PointGeometry:
    """Lazily-computed connection and curvature data at a jet point."""

    def __init__(self, chart: ManifoldChart, x):
        self.chart = chart
        self.x = x
        self.dim = chart.dim
        self._cache = {}

    @property
    def order(self):
        return self.x[0].order

    @_cached
    def g(self):
        return self.chart.metric_components(self.x)

    @_cached
    def ginv(self):
        return inverse_metric(self.g)

    @_cached
    def g_values(self):
        return tvalues(self.g)

    @_cached
    def ginv_values(self):
        return np.linalg.inv(self.g_values)

    @_cached
    def gamma(self):
        """Christoffel symbols, gamma[k, i, j] = Gamma^k_ij."""
        d = self.dim
        dg = grad(self.g, d)
        out = np.empty((d, d, d), object)
        # one pair i <= j at a time: a whole [pair, l] sum tensor raised
        # peak RSS by 0.6 MB on hypersasaki/s3-round
        for i, j in zip(*np.triu_indices(d)):
            s = dg[i, j] + dg[j, i] - dg[:, i, j]   # [l]
            out[:, i, j] = out[:, j, i] = 0.5 * np.tensordot(self.ginv, s, 1)
        return out

    @_cached
    def riemann(self):
        """R[a, i, j, k]: component along dx_a of R(d_i, d_j) d_k."""
        d = self.dim
        gam = self.gamma
        dgam = grad(gam, d)
        out = np.empty((d, d, d, d), object)
        diag = np.arange(d)
        out[:, diag, diag] = tmap(lambda v: (v - v).truncate(self.order - 2), gam)
        # one [a, k] block per pair i < j, folded in place with fused
        # products: a product block per term raised peak RSS by up to 1.1 MB
        for i, j in zip(*np.triu_indices(d, 1)):
            acc = dgam[i, :, j] - dgam[j, :, i]
            for b in range(d):
                _addmul(acc, gam[:, i, b, None], gam[b, j], out=acc)
                _submul(acc, gam[:, j, b, None], gam[b, i], out=acc)
            out[:, i, j] = acc
            out[:, j, i] = -acc
        return out

    @property
    def riemann_low(self):
        """Rlow[i, j, k, l] = g(R(d_i, d_j) d_k, d_l), formed on every read."""
        # Not cached: its one reader, weitzenboeck's rho* step, reads it once
        # per pass, and a cached copy (27 MiB of jets on the t3-blair cone at
        # order 6 and 200 samples) would outlive that step.  d^5 products (1,024
        # on a 4-dimensional cone), but rho* takes only the blocks with i < j
        # (384 of them): the other 640 are formed and never read.  Forming
        # only those blocks moves the benchmark's pinned product counts.
        return np.tensordot(np.moveaxis(self.riemann, 0, -1), self.g, axes=([3], [0]))

    @_cached
    def ricci(self):
        return np.trace(self.riemann, axis1=0, axis2=1)

    @_cached
    def scalar_curvature(self):
        return np.tensordot(self.ginv, self.ricci, 2)[()]

    # -- first-order operators -------------------------------------------

    def covd(self, T, valence):
        """Covariant derivative; new first (covariant) axis is nabla_m."""
        p, q = valence
        d = self.dim
        gam = self.gamma
        # each entry folds the partial, then one Christoffel term per slot s
        # and b, in place: no product tensor is ever held
        out = grad(T, d)
        for s in range(p + q):
            shape = [d] + [1] * T.ndim      # Gamma as [m, slot s]
            shape[s + 1] = d
            for b in range(d):
                Tb = np.take(T, [b], axis=s)[None]
                if s < p:
                    _addmul(out, gam[:, :, b].T.reshape(shape), Tb, out=out)
                else:
                    _submul(out, gam[b].reshape(shape), Tb, out=out)
        return out

    def codifferential_oneform(self, sigma):
        """delta(sigma) = -g^{mi} (nab sigma)_{mi} for an object 1-form."""
        nab = self.covd(sigma, (0, 1))
        return -np.tensordot(self.ginv, nab, 2)[()]

    def laplacian_scalar(self, f):
        """Geometer's Laplacian of a scalar jet: -trace_g Hess f."""
        if f.order < 2:
            raise JetOrderError("Laplacian needs two derivative orders")
        df = np.array([f.partial(i) for i in range(self.dim)], object)
        # Gamma's symmetric entries are one jet each, so covd's [j, i] entry
        # is the Hessian's [i, j] product for product
        hess = self.covd(df, (0, 1)).T
        return -np.tensordot(self.ginv, hess, 2)[()]

    # -- index gymnastics ---------------------------------------------------
    # no caller (raise_index, lower_index); named only by perfbench/tracing.py

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
    DW = grad(T, T.shape[0])
    out = DW.copy()   # summed in place: a sum per m would hold one more tensor
    for m in range(1, T.ndim + 1):
        moved = np.moveaxis(DW, 0, m)   # moved[i0..ip] = DW[i_m, i0..^i_m..ip]
        if m % 2:
            out -= moved
        else:
            out += moved
    return out


# no caller; named only by perfbench/tracing.py's SPAN_GROUPS
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


def frame_norm(geo, T, sig):
    """sqrt|<T, T>| for batched values T; geo carries g_values, ginv_values."""
    return np.sqrt(np.abs(norm_squared(geo.g_values, geo.ginv_values, T, sig)))


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
    # g = L L^T, so E[b] = L^{-1} (the transpose of inv(L^T)) gives E g E^T = Id:
    # row a of L^{-1} holds the coordinate components of e_a
    E = np.linalg.inv(np.swapaxes(L, 1, 2))
    return np.swapaxes(E, 1, 2)

