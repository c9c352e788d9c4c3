"""Truncated-Taylor arithmetic against closed forms and random polynomials."""

import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab.errors import JetOrderError
from conelab.jets import Jet, _table


def poly_eval(coeffs, x, y):
    """Dense bivariate polynomial sum c[i,j] x^i y^j."""
    out = 0.0
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            out += coeffs[i, j] * x**i * y**j
    return out


def poly_jet(coeffs, x, y):
    out = None
    for i in range(coeffs.shape[0]):
        for j in range(coeffs.shape[1]):
            term = (x**i) * (y**j) * coeffs[i, j]
            out = term if out is None else out + term
    return out


coeff_arrays = st.lists(
    st.floats(-3, 3, allow_nan=False), min_size=9, max_size=9
).map(lambda v: np.array(v).reshape(3, 3))


@settings(max_examples=40, deadline=None)
@given(coeff_arrays, coeff_arrays)
def test_product_is_taylor_convolution(ca, cb):
    """Degree-d product coefficients equal the convolution of the factors."""
    import math

    x0, y0 = 0.4, -0.8
    x, y = Jet.variables([[x0, y0]], order=4)
    prod = poly_jet(ca, x, y) * poly_jet(cb, x, y)
    # exact polynomial product, re-expanded around the base point
    cc = np.zeros((5, 5))
    for i in range(3):
        for j in range(3):
            cc[i:i + 3, j:j + 3] += ca[i, j] * cb
    for ax in range(5):
        for ay in range(5 - ax):
            want = 0.0
            for i in range(ax, 5):
                for j in range(ay, 5):
                    want += (cc[i, j] * math.comb(i, ax) * math.comb(j, ay)
                             * x0**(i - ax) * y0**(j - ay))
            got = prod.coefficient((ax, ay))[0]
            assert got == pytest.approx(want, rel=1e-9, abs=1e-8)


def convolution(dim, order_a, a, order_b, b):
    """Truncated product by direct multi-index convolution over the index lists.

    Each coefficient sums its pairs from zero in lexicographic order of the
    left multi-index, as ``Jet.__mul__`` does, so the two agree bit for bit.
    """
    order = min(order_a, order_b)
    pos = {e: k for k, e in enumerate(_table(dim, order).exps)}
    out = np.zeros((max(len(a), len(b)), len(pos)))
    for i, alpha in sorted(enumerate(_table(dim, order_a).exps), key=lambda t: t[1]):
        for j, beta in enumerate(_table(dim, order_b).exps):
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            if sum(gamma) <= order:
                out[:, pos[gamma]] += a[:, i] * b[:, j]
    return out


def jet_from_rows(dim, order, coeffs):
    """A jet whose ``coeffs`` are the given (batch, ncoef) array."""
    return Jet(dim, order, np.ascontiguousarray(coeffs.T))


@st.composite
def product_cases(draw):
    dim = draw(st.integers(1, 6))
    # cap the coefficient count so the reference's double loop stays quick
    top = max(k for k in range(7) if len(_table(dim, k).exps) <= 252)
    orders = draw(st.tuples(st.integers(0, top), st.integers(0, top)))
    batch = draw(st.integers(1, 4))
    batches = draw(st.sampled_from([(batch, batch), (1, batch), (batch, 1)]))
    zeros = draw(st.sampled_from([(False, False), (True, False), (False, True), (True, True)]))
    return dim, orders, batches, zeros, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(product_cases())
def test_product_matches_multi_index_convolution(case):
    """Any dim, mixed orders, batch-1 broadcasting on either side, and either
    factor, or both, zero up to the product's order (so all zero when it is
    the lower-order factor or the orders are equal)."""
    dim, orders, batches, zeros, seed = case
    rng = np.random.default_rng(seed)
    coeffs = [rng.normal(size=(n, len(_table(dim, k).exps)))
              for n, k in zip(batches, orders)]
    for c, zero in zip(coeffs, zeros):
        if zero:
            c[:, :len(_table(dim, min(orders)).exps)] = 0.0
    x, y = (jet_from_rows(dim, k, c) for k, c in zip(orders, coeffs))
    wants = (convolution(dim, orders[0], coeffs[0], orders[1], coeffs[1]),
             convolution(dim, orders[1], coeffs[1], orders[0], coeffs[0]))
    for prod, want in zip((x * y, y * x), wants):
        assert prod.order == min(orders)
        assert prod.coeffs.shape == want.shape == (max(batches), len(_table(dim, prod.order).exps))
        np.testing.assert_array_equal(prod.coeffs, want)


def test_zero_factor_propagates_non_finite_and_returns_a_fresh_array():
    dim, order = 2, 3
    n = len(_table(dim, order).exps)
    zero = jet_from_rows(dim, order, np.zeros((2, n)))
    rows = np.random.default_rng(5).normal(size=(2, n))
    bad = rows.copy()
    bad[0, 0], bad[1, 4] = np.nan, np.inf
    with np.errstate(invalid="ignore"):  # 0 * inf
        want = convolution(dim, order, np.zeros((2, n)), order, bad)
        prods = (zero * jet_from_rows(dim, order, bad), jet_from_rows(dim, order, bad) * zero)
    assert np.isnan(want).any() and not np.isnan(want).all()
    for prod in prods:
        np.testing.assert_array_equal(prod.coeffs, want)
    # the zero product is written in place (as _compose does): nothing else moves
    b = jet_from_rows(dim, order, rows)
    z = zero * b
    z.c[0] += 1.0
    assert not (zero * b).c.any()
    assert not zero.c.any()
    assert np.array_equal(b.coeffs, rows)


def dense_sum(dim, order_a, a, order_b, b):
    """Truncated sum of two (batch, ncoef) arrays, broadcasting batch 1."""
    n = len(_table(dim, min(order_a, order_b)).exps)
    return a[:, :n] + b[:, :n]


def dense_partial(dim, order, a, i):
    """d/dx_i of a (batch, ncoef) array: (alpha_i + 1) c[alpha + e_i]."""
    exps = _table(dim, order).exps
    pos = {e: k for k, e in enumerate(exps)}
    out = np.zeros((len(a), len(_table(dim, order - 1).exps)))
    for t, alpha in enumerate(exps[: out.shape[1]]):
        shifted = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
        out[:, t] = a[:, pos[shifted]] * (alpha[i] + 1)
    return out


def assert_pattern_holds(jet):
    """No row outside a jet's cached pattern is nonzero (NaN counts as nonzero)."""
    if jet._pattern is not None:
        assert jet._pattern.shape == (len(jet.c),)
        assert not (jet.c[~jet._pattern] != 0).any()


@st.composite
def chain_cases(draw):
    dim = draw(st.integers(1, 4))
    top = max(k for k in range(6) if len(_table(dim, k).exps) <= 56)
    orders = draw(st.tuples(*[st.integers(0, top)] * 3))
    batch = draw(st.integers(1, 4))
    batches = draw(st.tuples(*[st.sampled_from([1, batch])] * 3))
    zeros = draw(st.tuples(*[st.booleans()] * 3))
    # the share of each factor's rows zeroed at random, beside the prefix
    shares = draw(st.tuples(*[st.sampled_from([0.0, 0.5, 0.8, 1.0])] * 3))
    # one NaN or inf in one factor: which factor, where in its coefficients
    # (possibly above the order that a product keeps), and which value
    bad = draw(st.none() | st.tuples(st.integers(0, 2), st.floats(0, 1, exclude_max=True),
                                     st.sampled_from([np.nan, np.inf, -np.inf])))
    return dim, orders, batches, zeros, shares, bad, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(chain_cases())
def test_chains_of_operations_match_dense_oracles(case):
    """Products of products, sums with zero operands, negation, truncation and
    partials reuse each jet's cached zero, finite and row-pattern facts
    across operations; every result equals the dense oracle bit for bit, NaN
    and inf included, and no row outside a cached pattern is nonzero."""
    dim, orders, batches, zeros, shares, bad, seed = case
    rng = np.random.default_rng(seed)
    low = len(_table(dim, min(orders)).exps)
    rows = [rng.normal(size=(n, len(_table(dim, k).exps))) for n, k in zip(batches, orders)]
    for c, zero, share in zip(rows, zeros, shares):
        if zero:
            c[:, :low] = 0.0
        c[:, rng.random(c.shape[1]) < share] = 0.0
    if bad is not None:
        which, where, value = bad
        rows[which][-1, int(where * rows[which].shape[1])] = value
    x, y, z = (jet_from_rows(dim, k, c) for k, c in zip(orders, rows))
    (ox, oy, oz), (a, b, c) = orders, rows

    def check(jet, order, want):
        assert jet.order == order and jet.coeffs.shape == want.shape
        np.testing.assert_array_equal(jet.coeffs, want)
        assert_pattern_holds(jet)
        return jet

    oxy, oall = min(ox, oy), min(orders)
    with np.errstate(invalid="ignore", over="ignore"):
        xy = convolution(dim, ox, a, oy, b)
        want = {
            "xy": xy,
            "xy*z": convolution(dim, oxy, xy, oz, c),
            "z*xy": convolution(dim, oz, c, oxy, xy),
            "xy+z": dense_sum(dim, oxy, xy, oz, c),
            "-xy": -xy,
            "-xy*z": convolution(dim, oxy, -xy, oz, c),
            "z-xy": dense_sum(dim, oz, c, oxy, -xy),
        }
        if oxy:
            dxy = dense_partial(dim, oxy, xy, dim - 1)
            want["dxy"] = dxy
            want["dxy*z"] = convolution(dim, oxy - 1, dxy, oz, c)
            want["(xy+z)*dxy"] = convolution(dim, oall, want["xy+z"], oxy - 1, dxy)
        for _ in range(2):  # the second round reads every fact from the cache
            p = check(x * y, oxy, want["xy"])
            check(p * z, oall, want["xy*z"])
            check(z * p, oall, want["z*xy"])
            check(p + z, oall, want["xy+z"])
            check(z + p, oall, want["xy+z"])
            check(-p, oxy, want["-xy"])
            check((-p) * z, oall, want["-xy*z"])
            check(z - p, oall, want["z-xy"])
            check((x * y) * z, oall, want["xy*z"])
            check(p.truncate(oall), oall, want["xy"][:, :low])
            if oxy:
                dp = check(p.partial(dim - 1), oxy - 1, want["dxy"])
                check(dp * z, min(oxy - 1, oz), want["dxy*z"])
                check((p + z) * dp, min(oall, oxy - 1), want["(xy+z)*dxy"])
        for jet in (x, y, z):
            assert_pattern_holds(jet)


def test_exp_of_a_constant_is_nonzero_after_the_horner_writes():
    """Every Horner product of exp(const) has a zero factor, so each is
    marked zero before _compose writes its value row; the write must drop
    that mark, or the result would multiply as zero."""
    dim, order = 2, 3
    c = np.array([0.5, -1.0])
    e = Jet.constant(c, dim, order).exp()
    want = np.zeros((2, len(_table(dim, order).exps)))
    want[:, 0] = np.exp(c)
    assert np.array_equal(e.coeffs, want)
    assert not e.is_zero() and e.is_finite()
    x, y = Jet.variables([[0.3, 0.7], [1.1, -0.2]], order)
    np.testing.assert_allclose((e * y).coeffs, convolution(dim, order, want, order, y.coeffs),
                               rtol=1e-15)
    assert np.array_equal((e + x * 0.0).coeffs, want)


def dense_compose(dim, order, a, series):
    """Horner evaluation of sum_k series[k] (a - value)^k by dense convolution."""
    u = a.copy()
    u[:, 0] = 0.0
    out = np.zeros_like(a)
    out[:, 0] = series[-1]
    for k in range(len(series) - 2, -1, -1):
        out = convolution(dim, order, out, order, u)
        out[:, 0] += series[k]
    return out


def test_primitives_of_a_jet_with_few_nonzero_rows_see_every_horner_write():
    """After each Horner product _compose writes the value row, which the
    product's pattern does not mark (its factor u has a zero value row); the
    next product must still pair it.  Each primitive equals the dense Horner
    evaluation bit for bit, and exp the closed form."""
    dim, order = 2, 5
    tab = _table(dim, order)
    v = np.array([0.4, -1.3, 2.0])
    # f = v + 0.5 y + 0.3 y^2 - 0.2 x^2 y: a few rows, every one in use
    a = np.zeros((3, len(tab.exps)))
    a[:, 0] = v
    for alpha, c in (((0, 1), 0.5), ((0, 2), 0.3), ((2, 1), -0.2)):
        a[:, tab.pos[alpha]] = c
    f = jet_from_rows(dim, order, a)
    f.pattern()  # handed on to u in _compose
    fac = np.cumprod([1.0] + list(range(1, order + 1)))
    k = np.arange(order + 1)[:, None]
    series = {
        "sin": [(np.sin, np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t))[i % 4](v) / fac[i]
                for i in range(order + 1)],
        "cos": [(np.cos, lambda t: -np.sin(t), lambda t: -np.cos(t), np.sin)[i % 4](v) / fac[i]
                for i in range(order + 1)],
        "exp": list(np.exp(v) / fac[:, None]),
        "power": list(np.cumprod(np.r_[[1.0], (2.5 - k[1:, 0] + 1) / k[1:, 0]])[:, None]
                      * np.abs(v) ** (2.5 - k)),
    }
    g = jet_from_rows(dim, order, np.abs(a))   # positive base values for power
    for name, got in (("sin", f.sin()), ("cos", f.cos()), ("exp", f.exp()),
                      ("power", g.power(2.5))):
        base = np.abs(a) if name == "power" else a
        want = dense_compose(dim, order, base, series[name])
        np.testing.assert_array_equal(got.coeffs, want, err_msg=name)
        assert_pattern_holds(got)
        # its value row is nonzero, and a product with it sees that row
        assert got.pattern()[0] and got.value.all()
        np.testing.assert_array_equal((got * f).coeffs,
                                      convolution(dim, order, want, order, a))
    # exp(v + 0.5 y + 0.3 y^2 - 0.2 x^2 y) has y^2 coefficient e^v (0.3 + 0.125)
    e = f.exp()
    np.testing.assert_allclose(e.coefficient((0, 2)), np.exp(v) * 0.425, rtol=1e-14)
    np.testing.assert_allclose(e.coefficient((2, 1)), -0.2 * np.exp(v), rtol=1e-14)
    assert not e.coefficient((1, 0)).any() and not e.coefficient((3, 0)).any()


def test_truncate_negate_and_partial_keep_zero_known():
    dim, order = 3, 4
    x = Jet.variables([[0.2, 0.4, 0.6]] * 3, order)[0]
    zero = Jet.constant(0.0, dim, order) * x  # short-circuit: known zero
    assert zero._zero and zero._finite
    assert -zero is zero
    for jet, k in ((zero.truncate(2), 2), (zero.partial(1), order - 1),
                   (zero.partial(0).partial(2), order - 2)):
        assert jet.order == k and jet._zero and jet._finite
        assert jet.coeffs.shape == (3, len(_table(dim, k).exps)) and not jet.c.any()
    # a known-finite jet stays finite under truncation
    assert x.is_finite() and x.truncate(1)._finite


def test_non_finite_above_the_kept_order_short_circuits_as_the_oracle_says():
    dim = 2
    n2, n4 = (len(_table(dim, k).exps) for k in (2, 4))
    zero = jet_from_rows(dim, 2, np.zeros((2, n2)))
    rows = np.random.default_rng(8).normal(size=(2, n4))
    for index, value in ((n2, np.nan), (n4 - 1, np.inf), (n2 - 1, np.nan), (0, -np.inf)):
        bad = rows.copy()
        bad[1, index] = value
        jet = jet_from_rows(dim, 4, bad)
        assert not jet.is_finite()  # cached on the full jet, not its truncation
        with np.errstate(invalid="ignore"):
            want = convolution(dim, 2, np.zeros((2, n2)), 4, bad)
            for prod in (zero * jet, jet * zero):
                np.testing.assert_array_equal(prod.coeffs, want)
        # NaN reaches the product only from the kept order
        assert np.isnan(want).any() == (index < n2)


def test_sum_with_a_zero_operand_equals_the_dense_sum():
    dim = 2
    rng = np.random.default_rng(9)
    for (ox, bx), (oz, bz) in (((3, 3), (3, 3)), ((4, 3), (2, 3)), ((2, 1), (3, 1)),
                               ((3, 1), (3, 4)), ((2, 1), (4, 4)), ((3, 4), (2, 1))):
        a = rng.normal(size=(bx, len(_table(dim, ox).exps)))
        zero_rows = np.zeros((bz, len(_table(dim, oz).exps)))
        x, zero = jet_from_rows(dim, ox, a), jet_from_rows(dim, oz, zero_rows)
        want = dense_sum(dim, ox, a, oz, zero_rows)
        for total in (x + zero, zero + x, x - zero, zero - (-x)):
            assert total.order == min(ox, oz)
            assert np.array_equal(total.coeffs, want)
            assert total.c.flags.c_contiguous
    # batches that do not broadcast are refused, whether or not an operand is zero
    x = jet_from_rows(dim, 2, rng.normal(size=(3, 6)))
    for other in (np.zeros((2, 6)), rng.normal(size=(2, 6))):
        y = jet_from_rows(dim, 2, other)
        for pair in ((x, y), (y, x)):
            for op in (operator.add, operator.mul):
                with pytest.raises(ValueError):
                    op(*pair)


def test_product_matches_convolution_at_every_dim_and_order():
    rng = np.random.default_rng(4)
    for dim in range(1, 7):
        for order in range(7):
            n = len(_table(dim, order).exps)
            a, b = rng.normal(size=(2, 2, n))
            prod = jet_from_rows(dim, order, a) * jet_from_rows(dim, order, b[:1])
            want = convolution(dim, order, a, order, b[:1])
            assert prod.coeffs.shape == (2, n)
            np.testing.assert_array_equal(prod.coeffs, want)


def test_primitives_match_analytic_derivatives():
    pts = np.array([[0.3, -0.7], [1.1, 0.2]])
    x, y = Jet.variables(pts, 5)
    f = x.sin() * (x * y).exp() + (1 + x * x).log() - (2 + y.cos()).sqrt()
    import sympy

    X, Y = sympy.symbols("x y")
    F = (sympy.sin(X) * sympy.exp(X * Y) + sympy.log(1 + X**2)
         - sympy.sqrt(2 + sympy.cos(Y)))
    for alpha in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (3, 2)]:
        expr = sympy.diff(F, X, alpha[0], Y, alpha[1])
        fn = sympy.lambdify((X, Y), expr)
        for b, p in enumerate(pts):
            assert f.derivative(alpha)[b] == pytest.approx(fn(*p), rel=1e-12, abs=1e-12)


def test_reciprocal_and_power():
    x, y = Jet.variables([[0.9, 1.7]], 4)
    h = 1 + x * x + y
    one = h * h.reciprocal()
    assert one.value[0] == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(one.coeffs[0, 1:])) < 1e-13
    assert (h.power(2.5) - h * h * h.sqrt()).derivative((1, 1))[0] == pytest.approx(
        0.0, abs=1e-10)
    assert (x ** -3).value[0] == pytest.approx(0.9**-3, rel=1e-13)


def test_partial_lowers_order_and_errors_at_zero():
    x, y = Jet.variables([[0.5, 0.25]], 3)
    f = x * x * y
    assert f.partial(0).order == 2
    assert f.partial(0).partial(0).partial(1).order == 0
    with pytest.raises(JetOrderError):
        f.partial(0).partial(0).partial(1).partial(0)
    with pytest.raises(JetOrderError):
        f.coefficient((4, 0))


def test_batched_broadcasting():
    pts = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    x, y = Jet.variables(pts, 2)
    c = Jet.constant(2.0, 2, 2)       # batch 1 broadcasts against batch 3
    out = (c * x + np.array([1.0, 2.0, 3.0])) * y
    assert out.batch == 3
    want = (2 * pts[:, 0] + [1, 2, 3]) * pts[:, 1]
    assert np.allclose(out.value, want)
    # a batch-1 jet plus or minus an array broadcasts as a product does
    for jet in (c + np.array([1.0, 2.0, 3.0]), np.array([5.0, 6.0, 7.0]) - c,
                c * np.array([1.5, 2.0, 2.5])):
        assert jet.batch == 3 and jet.coeffs.shape == (3, 6)
        assert np.allclose(jet.value, [3.0, 4.0, 5.0])
        assert not np.any(jet.coeffs[:, 1:])


def test_truncation_is_prefix():
    x, y = Jet.variables([[0.2, 0.3]], 4)
    f = (x + y).sin()
    t = f.truncate(2)
    assert t.order == 2
    assert np.allclose(t.coeffs, f.coeffs[:, : t.coeffs.shape[1]])
