"""Seeded splitmix64 generator mapped to standard normals.

The experiment CLI promises bitwise-identical output for identical
config+seed, so random data comes from this tiny fixed-algorithm generator
rather than from numpy's (version-dependent) bit generators.  The integer
stream comes in blocks, in numpy ``uint64`` arithmetic with the same bits
as :meth:`SplitMix64.next_u64`; its uniforms, on [-1, 1) and on (0, 1],
take integer and exact scaling steps only.  The Box-Muller step of the
normals stays a Python loop: ``np.log`` and ``math.log`` differ in the
last bit for some draws, and the normals make the CLI's instances.
"""

import math

import numpy as np

__all__ = ["SplitMix64", "normal_block"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64: deterministic 64-bit stream from one integer seed."""

    def __init__(self, seed):
        self.state = int(seed) & _MASK

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def u64_block(self, count):
        """The next ``count`` values of :meth:`next_u64` as a ``uint64``
        array; array arithmetic wraps modulo 2**64 as the mask does."""
        u64 = np.uint64
        z = np.arange(1, count + 1, dtype=u64) * u64(_GAMMA) + u64(self.state)
        self.state = (self.state + count * _GAMMA) & _MASK
        z = (z ^ (z >> u64(30))) * u64(_MIX1)
        z = (z ^ (z >> u64(27))) * u64(_MIX2)
        return z ^ (z >> u64(31))

    def signed_uniforms(self, count):
        """``count`` doubles on [-1, 1), multiples of 2**-52, from the top
        53 bits of :meth:`u64_block`."""
        return (self.u64_block(count) >> np.uint64(11)) * 2.0**-52 - 1.0

    def normal(self, count):
        """Standard normals via Box-Muller, a pair per two uniforms on (0, 1]
        from :meth:`u64_block`; an odd count drops the last pair's sine."""
        one = np.uint64(1)
        u = (((self.u64_block(count + count % 2) >> np.uint64(11)) + one) * 2.0**-53).tolist()
        out = np.empty(count)
        for i in range(0, count, 2):
            r = math.sqrt(-2.0 * math.log(u[i]))
            out[i] = r * math.cos(2.0 * math.pi * u[i + 1])
            if i + 1 < count:
                out[i + 1] = r * math.sin(2.0 * math.pi * u[i + 1])
        return out


def normal_block(seed, n, ell=1, norm=None):
    """Seeded n x ell real standard-normal block (complex dtype), optionally
    rescaled to a requested Frobenius norm."""
    gen = SplitMix64(seed)
    W = gen.normal(n * ell).reshape(n, ell)
    if norm is not None:
        W *= norm / np.linalg.norm(W)
    return W.astype(complex)
