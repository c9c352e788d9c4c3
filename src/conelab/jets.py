"""Batched truncated multivariate Taylor (jet) arithmetic.

A ``Jet`` stores the Taylor coefficients of a scalar quantity at a point:

    f(x0 + h) = sum_alpha  c[alpha] * h^alpha,   |alpha| <= order,

with c[alpha] = (d^alpha f)(x0) / alpha!.  Coefficients are stored
coefficient-major, one C-contiguous ``(ncoef, batch)`` array per jet
(``Jet.coeffs`` is its ``(batch, ncoef)`` transpose view).  The multi-index
list is graded by total degree, so truncating a jet to a lower order is a
prefix of rows.  Analytic primitives (sin, exp, sqrt, reciprocal, ...) are
Horner evaluations of the outer function's univariate Taylor series in the
zero-constant part of the argument; on polynomial data the arithmetic is
exact up to roundoff.

Structural zeros are common (constant chart entries, the cone's radial
blocks), so each jet caches two facts about its coefficients: whether all
are zero and whether all are finite.  Each is scanned at most once, and only
when asked; operations that know a fact hand it on.  The zero rule: a product
with an identically zero factor returns fresh zeros without multiplying, as
long as both truncated factors are finite (a NaN or inf must still
propagate), and the result is known zero.  A sum with a zero operand returns
the other operand, truncated and if need be broadcast, without adding.
Negation keeps both facts (a zero jet is its own negation), truncation keeps
zero and finite, and a zero jet's partial is zero.

Nonzero jets are sparse too: most entries depend on one or two variables.
So each jet also caches its row pattern, a mask of the coefficient rows that
are not identically zero across the batch.  The pattern is conservative: a
marked row may be zero, an unmarked row is exactly zero.  Products, sums
(the union), truncation (a prefix), negation, broadcasting and partials (the
mask through the derivative map) hand it on; a jet scans for it only when a
product needs it and nothing handed it on.  A product looks up, by the two
factors' patterns, a plan on its ``_JetTable``: the left and right rows of
the pairs whose rows are both marked and whose degrees fit the order, and
one CSR sum that adds each pair into the coefficient of its summed
multi-index.  Every target sums its pairs from zero in lexicographic order of
the left multi-index, so the result is the dense product bit for bit: a
skipped pair is the product of an exactly zero row and a finite one, so it
is +0 or -0, and a sum that starts at +0 never becomes -0 (x + (-x) is +0),
so adding +0 or -0 to it changes nothing.  When either truncated factor is
not finite, the product takes the plan of all rows, so NaN and inf reach
every coefficient they reach densely.

``_compose`` is the one code that writes coefficients after construction:
it zeroes the value row of its own copy of the argument before any fact
about it is known, and adds each series coefficient into the value row of a
fresh product, dropping that product's facts, pattern included (the plan
left the value row unmarked), as it does.

Extracting a partial derivative lowers the available order by the derivative
degree; going past order 0 raises ``JetOrderError``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .errors import JetOrderError


@lru_cache(maxsize=None)
def _table(dim: int, order: int):
    """Multi-index bookkeeping for jets of a given dimension and order."""
    exps = []
    for deg in range(order + 1):
        exps.extend(sorted(_compositions(deg, dim)))
    pos = {e: i for i, e in enumerate(exps)}
    # prefix length of each order: all multi-indices with degree <= k
    sizes = [0] * (order + 1)
    for e in exps:
        for k in range(sum(e), order + 1):
            sizes[k] += 1
    return _JetTable(dim, order, tuple(exps), pos, tuple(sizes))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class _JetTable:
    """Multi-index bookkeeping and product plans for one (dim, order).

    ``pairs`` lists every coefficient pair (left row, right row) whose degrees
    fit the order, sorted by (target row, left multi-index): the order in
    which a product sums a coefficient's pairs.  ``plan`` keeps the pairs of
    two row patterns; each plan is built once per pair of patterns and kept
    on the table, so plans are keyed by content only and live as long as
    the table.
    """

    def __init__(self, dim, order, exps, pos, sizes):
        self.dim = dim
        self.order = order
        self.exps = exps
        self.pos = pos
        self.sizes = sizes
        self._pairs = None
        self._plans = {}
        self._diff = None

    @property
    def pairs(self):
        """(target, left, right) row arrays of every pair, in summation order."""
        if self._pairs is None:
            terms = []
            for i, alpha in enumerate(self.exps):
                for j in range(self.sizes[self.order - sum(alpha)]):
                    gamma = tuple(a + b for a, b in zip(alpha, self.exps[j]))
                    terms.append((self.pos[gamma], alpha, i, j))
            target, _, left, right = zip(*sorted(terms))
            self._pairs = (np.array(target), np.array(left), np.array(right))
        return self._pairs

    def plan(self, pa, pb):
        """The product of factors whose rows outside masks pa and pb are zero.

        Returns the left and right rows of the pairs with both rows marked,
        the (ncoef, pairs) CSR sum taking them to their target rows, and the
        result's pattern: the targets that receive a pair.
        """
        key = (pa.tobytes(), pb.tobytes())
        plan = self._plans.get(key)
        if plan is None:
            target, left, right = self.pairs
            keep = pa[left] & pb[right]
            target = target[keep]
            n = len(self.exps)
            indptr = np.searchsorted(target, np.arange(n + 1))
            total = sp.csr_matrix((np.ones(len(target)), np.arange(len(target)), indptr),
                                  shape=(n, len(target)))
            pattern = indptr[1:] > indptr[:-1]
            pattern.flags.writeable = False  # shared by every product of this plan
            plan = self._plans[key] = (left[keep], right[keep], total, pattern)
        return plan

    @property
    def diff(self):
        # diff[i] = (source index, factor) rows graded like the index list;
        # the first sizes[k-1] rows differentiate an order-k jet.
        if self._diff is None:
            maps = []
            for i in range(self.dim):
                src = np.empty(self.sizes[self.order - 1] if self.order else 0, int)
                fac = np.empty_like(src, dtype=float)
                for t, alpha in enumerate(self.exps[: len(src)]):
                    shifted = list(alpha)
                    shifted[i] += 1
                    src[t] = self.pos[tuple(shifted)]
                    fac[t] = alpha[i] + 1
                maps.append((src, fac))
            self._diff = maps
        return self._diff


def _batch(m, n):
    """The batch of a result from operands of batches m and n."""
    if m != n and 1 not in (m, n):
        raise ValueError(f"jet batches {m} and {n} do not broadcast")
    return max(m, n)


def _as_batch(value):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = arr[None]
    return arr


class Jet:
    """One truncated Taylor expansion, batched over sample points."""

    __slots__ = ("dim", "order", "c", "_zero", "_finite", "_pattern")
    __array_ufunc__ = None  # keep numpy from broadcasting over us
    __array_priority__ = 1000

    def __init__(self, dim, order, c, zero=None, finite=None, pattern=None):
        self.dim = dim
        self.order = order
        self.c = c  # C-contiguous, shape (sizes[order], batch)
        # cached facts about c: None until known
        self._zero = zero
        self._finite = True if zero else finite
        self._pattern = pattern

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, value, dim, order):
        v = _as_batch(value)
        c = np.zeros((_table(dim, order).sizes[order], v.shape[0]))
        c[0] = v
        return cls(dim, order, c)

    @classmethod
    def variables(cls, point, order):
        """Seed jets for the coordinates of ``point`` (rows = batch)."""
        pt = np.atleast_2d(np.asarray(point, dtype=float))
        dim = pt.shape[1]
        tab = _table(dim, order)
        out = []
        for i in range(dim):
            c = np.zeros((tab.sizes[order], pt.shape[0]))
            c[0] = pt[:, i]
            if order >= 1:
                unit = [0] * dim
                unit[i] = 1
                c[tab.pos[tuple(unit)]] = 1.0
            out.append(cls(dim, order, c))
        return out

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a (batch, ncoef) view."""
        return self.c.T

    @property
    def value(self):
        return self.c[0]

    @property
    def batch(self):
        return self.c.shape[1]

    def coefficient(self, alpha):
        alpha = tuple(alpha)
        if sum(alpha) > self.order:
            raise JetOrderError(
                f"coefficient {alpha} exceeds jet order {self.order}"
            )
        return self.c[_table(self.dim, self.order).pos[alpha]]

    def derivative(self, alpha):
        """d^alpha f at the base point (coefficient times alpha!)."""
        fac = 1.0
        for a in alpha:
            for m in range(2, a + 1):
                fac *= m
        return self.coefficient(alpha) * fac

    def is_zero(self):
        """Whether every coefficient is zero; scanned at most once."""
        if self._zero is None:
            c = self.c
            # the value row first: most nonzero jets are settled by one scan of it
            self._zero = not (c[0].any() or c.any())
            if self._zero:
                self._finite = True
        return self._zero

    def is_finite(self):
        """Whether no coefficient is NaN or inf; scanned at most once."""
        if self._finite is None:
            self._finite = bool(np.isfinite(self.c).all())
        return self._finite

    def pattern(self):
        """Mask of the rows not identically zero; scanned at most once.

        Conservative when handed on: a marked row may be zero, an unmarked
        row is exactly zero.
        """
        if self._pattern is None:
            self._pattern = (self.c != 0).any(axis=1)
        return self._pattern

    def _finite_to(self, order):
        """Whether the rows up to ``order`` are finite; the full scan is cached."""
        return self.is_finite() or self.truncate(order).is_finite()

    def truncate(self, order):
        if order >= self.order:
            return self
        n = _table(self.dim, self.order).sizes[order]
        # zero and finite survive truncation; nonzero and non-finite need not
        return Jet(self.dim, order, self.c[:n], self._zero or None, self._finite or None,
                   None if self._pattern is None else self._pattern[:n])

    def partial(self, i):
        """Jet of df/dx_i; available order drops by one."""
        if self.order < 1:
            raise JetOrderError("derivative requested beyond jet order")
        if self._zero:
            return self.truncate(self.order - 1)
        tab = _table(self.dim, self.order)
        src, fac = tab.diff[i]
        n = tab.sizes[self.order - 1]
        pattern = None if self._pattern is None else self._pattern[src[:n]]
        return Jet(self.dim, self.order - 1, self.c[src[:n]] * fac[:n, None], pattern=pattern)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.dim != self.dim:
                raise ValueError("jet dimension mismatch")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            v = _as_batch(other)
            c = np.empty((len(self.c), max(self.batch, len(v))))
            c[:] = self.c
            c[0] += v
            return Jet(self.dim, self.order, c)
        order = min(self.order, o.order)
        x, y = self.truncate(order), o.truncate(order)
        if y.is_zero():
            return x._widen(_batch(x.batch, y.batch))
        if x.is_zero():
            return y._widen(_batch(x.batch, y.batch))
        pattern = None
        if x._pattern is not None and y._pattern is not None:
            pattern = x._pattern | y._pattern
        return Jet(self.dim, order, x.c + y.c, pattern=pattern)

    __radd__ = __add__

    def _widen(self, batch):
        """This jet, or a copy broadcast to a larger batch."""
        if batch == self.batch:
            return self
        c = np.empty((len(self.c), batch))
        c[:] = self.c
        return Jet(self.dim, self.order, c, self._zero, self._finite, self._pattern)

    def __neg__(self):
        if self._zero:
            return self
        return Jet(self.dim, self.order, -self.c, self._zero, self._finite, self._pattern)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other, float))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            w = _as_batch(other)
            return Jet(self.dim, self.order, self.c * w[None, :])
        order = min(self.order, o.order)
        x, y = self.truncate(order), o.truncate(order)
        a, b = x.c, y.c
        batch = _batch(x.batch, y.batch)
        # A fresh array: _compose writes into the product's value row.
        if (x.is_zero() or y.is_zero()) and x.is_finite() and y.is_finite():
            return Jet(self.dim, order, np.zeros((len(a), batch)), zero=True)
        n = len(a)
        if self._finite_to(order) and o._finite_to(order):
            pa, pb = self.pattern()[:n], o.pattern()[:n]
        else:  # every pair, so that NaN and inf reach the targets they reach densely
            pa = pb = np.ones(n, bool)
        left, right, total, pattern = _table(self.dim, order).plan(pa, pb)
        return Jet(self.dim, order, total @ (a[left] * b[right]), pattern=pattern)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return self * (1.0 / _as_batch(other))
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            if exponent < 0:
                return (self ** (-exponent)).reciprocal()
            out = Jet.constant(np.ones(self.batch), self.dim, self.order)
            for _ in range(exponent):
                out = out * self
            return out
        return self.power(float(exponent))

    # -- analytic primitives ------------------------------------------------

    def _compose(self, series):
        """Horner evaluation of sum_k series[k] * (self - value)^k."""
        u = Jet(self.dim, self.order, self.c.copy())
        u.c[0] = 0.0
        out = Jet.constant(series[-1], self.dim, self.order)
        for k in range(len(series) - 2, -1, -1):
            out = out * u
            out.c[0] += series[k]
            # the write outdates them, and the product's pattern may omit row 0
            out._zero = out._finite = out._pattern = None
        return out

    def sin(self):
        v = self.value
        table = [np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)]
        series, fac = [], 1.0
        for k in range(self.order + 1):
            if k:
                fac *= k
            series.append(table[k % 4] / fac)
        return self._compose(series)

    def cos(self):
        v = self.value
        table = [np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)]
        series, fac = [], 1.0
        for k in range(self.order + 1):
            if k:
                fac *= k
            series.append(table[k % 4] / fac)
        return self._compose(series)

    def exp(self):
        e = np.exp(self.value)
        series, fac = [], 1.0
        for k in range(self.order + 1):
            if k:
                fac *= k
            series.append(e / fac)
        return self._compose(series)

    def log(self):
        v = self.value
        series = [np.log(v)]
        for k in range(1, self.order + 1):
            series.append((-1.0) ** (k - 1) / (k * v**k))
        return self._compose(series)

    def power(self, p: float):
        """self**p for real p (positive base values)."""
        v = self.value
        series, coef = [], 1.0
        for k in range(self.order + 1):
            if k:
                coef *= (p - k + 1) / k
            series.append(coef * v ** (p - k))
        return self._compose(series)

    def sqrt(self):
        return self.power(0.5)

    def reciprocal(self):
        v = self.value
        series = [((-1.0) ** k) * v ** (-1 - k) for k in range(self.order + 1)]
        return self._compose(series)

    def __repr__(self):
        return f"Jet(dim={self.dim}, order={self.order}, batch={self.batch})"


# -- dual-use math helpers (jets or plain arrays) ----------------------------

def sin(v):
    return v.sin() if isinstance(v, Jet) else np.sin(v)


def cos(v):
    return v.cos() if isinstance(v, Jet) else np.cos(v)
