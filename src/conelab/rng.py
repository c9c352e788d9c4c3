"""Seeded splitmix64 generator for reproducible sample draws.

The generator is specified exactly (Steele/Lea/Flood splitmix64) so that
sample points and directions are bit-identical across platforms and runs:

    state += 0x9E3779B97F4A7C15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z = z ^ (z >> 31)

Doubles are the top 53 bits of z scaled to [0, 1).

Draws come in blocks.  The generator is counter-based: its k-th output is
the mix of seed + k * gamma (mod 2^64), so ``next_u64s(n)`` forms the n
states of a block at once with numpy uint64 arithmetic, which wraps mod 2^64
like the masked Python ints of the recurrence, and the block equals n
scalar steps bit for bit.  Every operand is a numpy uint64: numpy 1.x
promotes a uint64 combined with a Python int to float64.  There are no
scalar draws (``unit_vector`` is a block of one), so there is one
generator.  Uniforms and Box-Muller directions are formed elementwise, with
the IEEE operations of one draw at a time; each direction is normalised by
its own ``np.linalg.norm`` call, because a batched row norm may sum in
another order and round differently.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_U64 = np.uint64
_GAMMA64 = _U64(_GAMMA)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)


class SplitMix64:
    """Deterministic 64-bit generator with uniform helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64s(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array."""
        z = np.arange(1, n + 1, dtype=_U64) * _GAMMA64 + _U64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        z = (z ^ (z >> _S30)) * _MIX1
        z = (z ^ (z >> _S27)) * _MIX2
        return z ^ (z >> _S31)

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        u = (self.next_u64s(n) >> _S11).astype(float) * 2.0**-53
        return lo + u * (hi - lo)

    def unit_vectors(self, n: int, dim: int) -> np.ndarray:
        """n directions on the unit sphere, shape (n, dim).

        Box-Muller over splitmix uniforms: each direction takes ceil(dim/2)
        pairs (u1, u2) in stream order, and pair i gives coordinates 2i and
        2i + 1 (the last one dropped when dim is odd).
        """
        pairs = -(-dim // 2)
        u = self.uniforms(2 * pairs * n).reshape(n, pairs, 2)
        u1 = np.maximum(u[..., 0], 2.0**-53)
        angle = 2.0 * np.pi * u[..., 1]
        r = np.sqrt(-2.0 * np.log(u1))
        v = np.empty((n, 2 * pairs))
        v[:, 0::2] = r * np.cos(angle)
        v[:, 1::2] = r * np.sin(angle)
        v = v[:, :dim]
        norms = np.array([np.linalg.norm(row) for row in v])
        return v / norms[:, None]

    # no caller; named only by perfbench/tracing.py's SPAN_GROUPS
    def unit_vector(self, dim: int) -> np.ndarray:
        """One direction on the unit sphere (a one-element block)."""
        return self.unit_vectors(1, dim)[0]
