"""Block splitmix64 draws against the scalar recurrence, bit for bit.

The reference generator below is the splitmix64 recurrence in Python ints,
one output at a time, with the scalar uniform and Box-Muller formulas.
Block draws must equal it exactly, compared as int64 bits, and the draws
after a block must continue the same stream.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conelab import catalog
from conelab.chart import SAMPLE_MARGIN
from conelab.report import SuiteConfig
from conelab.rng import SplitMix64
from conelab.suites import _draw

MASK = (1 << 64) - 1

seeds = st.sampled_from([0, MASK, 1, 20200923, 987654321, 2**63 + 5]) | st.integers(0, MASK)
block_sizes = st.integers(0, 300)
dims = st.integers(1, 7)
intervals = st.sampled_from([(0.0, 1.0), (0.5, 3.0), (-1, 1), (0.05, np.pi / 2 - 0.05)])


class Reference:
    """splitmix64 one step at a time, in Python ints."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def uniform(self, lo=0.0, hi=1.0):
        return lo + ((self.next_u64() >> 11) * 2.0**-53) * (hi - lo)

    def unit_vector(self, dim):
        v = np.empty(dim)
        for i in range(0, dim, 2):
            u1 = max(self.uniform(), 2.0**-53)
            u2 = self.uniform()
            r = np.sqrt(-2.0 * np.log(u1))
            v[i] = r * np.cos(2.0 * np.pi * u2)
            if i + 1 < dim:
                v[i + 1] = r * np.sin(2.0 * np.pi * u2)
        return v / np.linalg.norm(v)

    def point(self, chart):
        out = []
        for (lo, hi), period in zip(chart.domain, chart.periodic):
            if period is None:
                out.append(self.uniform(lo + SAMPLE_MARGIN, hi - SAMPLE_MARGIN))
            else:
                out.append(self.uniform(lo, lo + period))
        return out


def assert_bits(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


@settings(max_examples=60, deadline=None)
@given(seeds, block_sizes)
def test_block_outputs_equal_the_scalar_recurrence(seed, n):
    gen, ref = SplitMix64(seed), Reference(seed)
    block = gen.next_u64s(n)
    assert block.dtype == np.uint64 and block.shape == (n,)
    assert [int(z) for z in block] == [ref.next_u64() for _ in range(n)]
    # the stream goes on where the block ended
    assert [int(gen.next_u64s(1)[0]) for _ in range(3)] == [ref.next_u64() for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(seeds, block_sizes, intervals)
def test_uniform_blocks_equal_scalar_uniforms(seed, n, interval):
    gen, ref = SplitMix64(seed), Reference(seed)
    assert_bits(gen.uniforms(n, *interval), [ref.uniform(*interval) for _ in range(n)])
    # one-element blocks continue the stream
    assert_bits([gen.uniforms(1, *interval)[0] for _ in range(3)],
                [ref.uniform(*interval) for _ in range(3)])


@settings(max_examples=60, deadline=None)
@given(seeds, block_sizes, dims)
def test_direction_blocks_equal_scalar_box_muller(seed, n, dim):
    gen, ref = SplitMix64(seed), Reference(seed)
    block = gen.unit_vectors(n, dim)
    assert block.shape == (n, dim)
    assert_bits(block, np.array([ref.unit_vector(dim) for _ in range(n)]).reshape(n, dim))
    # the one-element form continues the stream
    for _ in range(2):
        assert_bits(gen.unit_vector(dim), ref.unit_vector(dim))


@settings(max_examples=25, deadline=None)
@given(seeds, block_sizes)
def test_sample_points_on_every_catalog_chart(seed, n):
    for key in catalog.keys():
        chart = catalog.get(key).chart
        gen, ref = SplitMix64(seed), Reference(seed)
        pts = chart.sample_points(n, gen)
        assert_bits(pts, np.array([ref.point(chart) for _ in range(n)]).reshape(n, chart.dim))
        assert_bits(gen.uniforms(1), [ref.uniform()])


@settings(max_examples=15, deadline=None)
@given(seeds, st.integers(1, 40))
def test_scalar_draws_after_the_suite_draw_continue_the_stream(seed, n):
    """The hypersasaki suite draws its random Reeb combination right after
    the suite's points, radii and three direction fields."""
    entry = catalog.get("s3-round")
    rng, pts, radii, dirs = _draw(entry, SuiteConfig(manifold="s3-round", suite="hypersasaki",
                                                     seed=seed, samples=n))
    ref = Reference(seed)
    assert_bits(pts, [ref.point(entry.chart) for _ in range(n)])
    assert_bits(radii, [ref.uniform(0.5, 3.0) for _ in range(n)])
    for field in dirs:
        assert_bits(field, [ref.unit_vector(3) for _ in range(n)])
    # three one-element blocks, or one block of three: the same stream either way
    block = SplitMix64(0)
    block._state = rng._state
    want = [ref.uniform(-1, 1) for _ in range(3)]
    assert_bits([rng.uniforms(1, -1, 1)[0] for _ in range(3)], want)
    assert_bits(block.uniforms(3, -1, 1), want)
