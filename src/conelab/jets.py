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

One computation has one batch: jets of different batches do not combine
(``ValueError``), and a plain number or array has length 1 or the jet's
batch.

Structural zeros are common (constant chart entries, the cone's radial
blocks), so each jet caches two facts about its coefficients: whether all
are zero and whether all are finite.  Each is scanned at most once, and only
when asked; operations that know a fact hand it on.  A product makes one
zero decision, on its operands as they are: when either is zero and both
are finite to the lower order (a NaN or inf must still propagate), it
returns fresh zeros at that order, known zero, without multiplying.  A
factor that is zero only up to the lower order is multiplied out instead,
which gives the same +0 bits (below).  A sum with a zero operand returns
the other operand, truncated.  Negation keeps both facts (a zero jet is its
own negation), truncation keeps zero and finite, and a zero jet's partial
is zero.

Nonzero jets are sparse too: most entries depend on one or two variables.
So each jet also caches its row pattern, a mask of the coefficient rows that
are not identically zero across the batch.  The pattern is conservative: a
marked row may be zero, an unmarked row is exactly zero.  Products, sums
(the union), truncation (a prefix), negation and partials (the mask through
the derivative map) hand it on; a jet scans for it only when a product
needs it and nothing handed it on.  A product reads both factors at their
common order as row-prefix views and looks up, by the two factors'
patterns, a plan on its ``_JetTable``: the left and right rows of the pairs
whose rows are both marked and whose degrees fit the order, laid out in
rounds: the targets (the summed multi-indices) are sorted by descending
pair count, and round k holds the k-th pair of each target that has one, so
those targets are a prefix of the sorted list.  The product forms round 0
and adds +0 to it, forms each later round and adds it into the prefix of
its targets with one contiguous add, and scatters the sums into a fresh
array of zeros.  So every target sums its pairs from +0 in lexicographic
order of the left multi-index, and the result is the dense product bit for
bit: a skipped pair is the product of an exactly zero row and a finite one,
so it is +0 or -0, and a sum that starts at +0 never becomes -0 (x + (-x)
is +0), so adding +0 or -0 to it changes nothing; a target with no pair
keeps the +0 it started with.  When either factor is not finite to the
common order, the product takes the plan of all rows, so NaN and inf reach
every coefficient they reach densely.

Only construction writes a jet's coefficients, so a fact, once known, holds
for the jet's lifetime.

The ring operations are called about 200k times in one pass over the
identity suites, mostly on small tables, so their Python overhead is most
of their cost.  They read the cached facts as attributes and call a scanner
only for a fact still unknown; operands of one order skip truncation.
``x - y`` subtracts directly, without building -y: IEEE 754 defines a - b
as a + (-b), so the bits are those of the sum with the negation, signed
zeros included (only the sign of a NaN, which the standard leaves
unspecified, may differ).  Every product enters through ``Jet.__mul__`` (or
``__rmul__``, the same function) and keeps the order and batch it would
have densely; the benchmark counts products there, so no caller reaches the
product's internals directly.

Extracting a partial derivative lowers the available order by the derivative
degree; going past order 0 raises ``JetOrderError``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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

        Returns the rounds of the pairs with both rows marked, the targets
        and the result's pattern: the targets are the rows that receive a
        pair, sorted by descending pair count (ties by row), so the targets
        that take a k-th pair are a prefix of them.  Round k holds the left
        and right rows of the k-th pair of each such target, in target order;
        round 0 is there even when no pair is.
        """
        key = (pa.tobytes(), pb.tobytes())
        plan = self._plans.get(key)
        if plan is None:
            target, left, right = self.pairs
            keep = pa[left] & pb[right]
            target, left, right = target[keep], left[keep], right[keep]
            counts = np.bincount(target, minlength=len(self.exps))
            # each pair's place among its target's pairs, in summation order
            rank = np.arange(len(target)) - (np.cumsum(counts) - counts)[target]
            targets = np.argsort(-counts, kind="stable")[:np.count_nonzero(counts)]
            place = np.empty_like(counts)
            place[targets] = np.arange(len(targets))
            order = np.lexsort((place[target], rank))
            cuts = np.cumsum(np.bincount(rank))[:-1]
            rounds = tuple(zip(np.split(left[order], cuts), np.split(right[order], cuts)))
            pattern = counts > 0
            pattern.flags.writeable = False  # shared by every product of this plan
            plan = self._plans[key] = (rounds, targets, pattern)
        return plan

    @property
    def diff(self):
        # diff[i] = (source rows, factor column) of d/dx_i: row t of the
        # partial, one for each multi-index of degree < order, is the source
        # row times its factor.
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
                maps.append((src, fac[:, None]))
            self._diff = maps
        return self._diff


def _union(pa, pb):
    """The pattern of a sum: the union of its operands', if both are known."""
    if pa is None or pb is None:
        return None
    return pa | pb


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

    def _finite_to(self, n):
        """Whether the first n rows are finite; the full scan is cached."""
        return self._finite or self.is_finite() or bool(np.isfinite(self.c[:n]).all())

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
        src, fac = _table(self.dim, self.order).diff[i]
        pattern = None if self._pattern is None else self._pattern[src]
        return Jet(self.dim, self.order - 1, self.c.take(src, 0) * fac, pattern=pattern)

    # -- ring operations ---------------------------------------------------
    #
    # ``x._zero or x.is_zero()`` reads a known fact without a call when it is
    # True and scans an unknown one; a known False costs one call.

    def _operands(self, other):
        """self and other truncated to their common order."""
        if other.dim != self.dim or other.c.shape[1] != self.c.shape[1]:
            raise ValueError(f"{self} and {other} do not combine")
        if other.order > self.order:
            return self, other.truncate(self.order)
        if other.order < self.order:
            return self.truncate(other.order), other
        return self, other

    def __add__(self, other):
        if not isinstance(other, Jet):
            c = self.c.copy()
            c[0] += _as_batch(other)
            return Jet(self.dim, self.order, c)
        x, y = self._operands(other)
        if y._zero or y.is_zero():
            return x
        if x._zero or x.is_zero():
            return y
        return Jet(x.dim, x.order, x.c + y.c, pattern=_union(x._pattern, y._pattern))

    __radd__ = __add__

    def __sub__(self, other):
        # directly, not as self + (-other): the same bits (module docstring)
        if not isinstance(other, Jet):
            c = self.c.copy()
            c[0] -= _as_batch(other)
            return Jet(self.dim, self.order, c)
        x, y = self._operands(other)
        if y._zero or y.is_zero():
            return x
        if x._zero or x.is_zero():
            return -y
        return Jet(x.dim, x.order, x.c - y.c, pattern=_union(x._pattern, y._pattern))

    # no caller; named only by perfbench/tracing.py's JET_KINDS
    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        if self._zero:
            return self
        return Jet(self.dim, self.order, -self.c, self._zero, self._finite, self._pattern)

    def __mul__(self, other):
        if not isinstance(other, Jet):  # into the jet's shape: no batch broadcast
            return Jet(self.dim, self.order,
                       np.multiply(self.c, _as_batch(other), out=np.empty_like(self.c)))
        if other.dim != self.dim or other.c.shape[1] != self.c.shape[1]:
            raise ValueError(f"{self} and {other} do not combine")
        order = min(self.order, other.order)
        n, batch = min(len(self.c), len(other.c)), self.c.shape[1]
        finite = self._finite_to(n) and other._finite_to(n)
        if finite and (self._zero or other._zero or self.is_zero() or other.is_zero()):
            return Jet(self.dim, order, np.zeros((n, batch)), zero=True)
        if finite:
            pa, pb = self.pattern()[:n], other.pattern()[:n]
        else:  # every pair, so that NaN and inf reach the targets they reach densely
            pa = pb = np.ones(n, bool)
        (first, *later), targets, pattern = _table(self.dim, order).plan(pa, pb)
        a, b = self.c[:n], other.c[:n]
        # Round 0 starts each target's sum at +0; round k adds its k-th pair.
        # Forming a round only when it is added keeps every temporary at one
        # round's size.  One (pairs, batch) array of all pairs, up to 8 MB at
        # the integration batches, made glibc's allocator hand pages back
        # and fault them in again: 7x the page faults of an `integration`
        # op on t3-blair.
        acc = a.take(first[0], 0) * b.take(first[1], 0)
        acc += 0.0
        for left, right in later:
            acc[:len(left)] += a.take(left, 0) * b.take(right, 0)
        c = np.zeros((n, batch))
        c[targets] = acc
        return Jet(self.dim, order, c, pattern=pattern)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / _as_batch(other))
        return self * other.reciprocal()

    def __pow__(self, exponent: int):
        if exponent < 0:
            return (self ** (-exponent)).reciprocal()
        out = Jet.constant(np.ones(self.batch), self.dim, self.order)
        for _ in range(exponent):
            out = out * self
        return out

    # -- analytic primitives ------------------------------------------------

    def _compose(self, series):
        """Horner evaluation of sum_k series[k] * (self - value)^k."""
        c = self.c.copy()
        c[0] = 0.0
        u = Jet(self.dim, self.order, c)
        out = Jet.constant(series[-1], self.dim, self.order)
        for k in range(len(series) - 2, -1, -1):
            out = out * u + series[k]
        return out

    def _compose_periodic(self, derivatives):
        """Horner evaluation of the Taylor series whose k-th derivative at the
        value is derivatives[k % len(derivatives)]."""
        series, fac = [], 1.0
        for k in range(self.order + 1):
            if k:
                fac *= k
            series.append(derivatives[k % len(derivatives)] / fac)
        return self._compose(series)

    def sin(self):
        v = self.value
        return self._compose_periodic([np.sin(v), np.cos(v), -np.sin(v), -np.cos(v)])

    def cos(self):
        v = self.value
        return self._compose_periodic([np.cos(v), -np.sin(v), -np.cos(v), np.sin(v)])

    # no caller; named only by perfbench/tracing.py's JET_KINDS
    def exp(self):
        return self._compose_periodic([np.exp(self.value)])

    # no caller; named only by perfbench/tracing.py's JET_KINDS
    def log(self):
        v = self.value
        series = [np.log(v)]
        for k in range(1, self.order + 1):
            series.append((-1.0) ** (k - 1) / (k * v**k))
        return self._compose(series)

    # no caller; named only by perfbench/tracing.py's JET_KINDS
    def power(self, p: float):
        """self**p for real p (positive base values)."""
        v = self.value
        series, coef = [], 1.0
        for k in range(self.order + 1):
            if k:
                coef *= (p - k + 1) / k
            series.append(coef * v ** (p - k))
        return self._compose(series)

    # no caller; named only by perfbench/tracing.py's JET_KINDS
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
