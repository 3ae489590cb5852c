"""Deterministic randomness shared by every simulator in the package.

All random quantities are pure functions of a 64-bit master seed.  Bulk
draws (path increments, stable variates) come from numpy's counter-based
Philox generator keyed by ``(master_seed, stream_id)``, so any number of
streams can be split off without coordination and trials may run in any
order, on any worker, with identical results.  Lattice steps are decoded
from its raw 64-bit words (``random_raw``): a step of a law whose cuts
are exact in b of 1, 2, 4 or 8 bits is one b-bit field, lowest first, so
a word carries 64 / b of them (64 two-point steps, 32 lazy steps at
p = 1/2), and a step of any other law takes a whole word.  Site values
are decoded from hashed words, one per site.

Individual lattice sites (environment rows, scenery cells) are hashed
directly with a splitmix64 finalizer instead of consuming generator
state.  That makes site values lazy: a site can be evaluated at any
time, in any order, scalar or vectorized, and always yields the same
value for the same ``(seed, site)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INIT = 0x243F6A8885A308D3  # arbitrary nonzero sponge state


def _finalize(z: int) -> int:
    # scalar splitmix64 finalizer
    z = (z + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def mix64(*words: int) -> int:
    """Hash any tuple of integers down to one 64-bit word.

    Used to derive sub-seeds (environment keys, per-size seeds) from the
    master seed.  Order-sensitive, so mix64(a, b) != mix64(b, a) in
    general.  Negative inputs are folded in by their two's complement.
    """
    state = _INIT
    for w in words:
        state = _finalize(state ^ (w & _M64))
    return state


def _finalize_vec(z: np.ndarray, t: np.ndarray | None = None,
                  last: bool = True) -> np.ndarray:
    # splitmix64 finalizer in place on z, a uint64 array the caller owns,
    # with the scratch array t (a new one when None); 0-d input comes back
    # as a scalar.  Without last, the closing z ^= z >> 31 is left out: it
    # never changes the top bit, which is all a sign field reads.
    z = np.asarray(z)
    if t is None:
        t = np.empty_like(z)
    z += np.uint64(_GOLDEN)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
    if last:
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return z[()]


def site_hash(seed: int, sites, counter: int = 0) -> np.ndarray:
    """Vectorized ``mix64(seed, counter, site)`` over an integer array.

    Bit-identical to the scalar route: the scalar prefix is absorbed
    first, then each site gets one more finalizer round.
    """
    return _keyed_words(mix64(seed, counter), sites)


def _keyed_words(keys, sites, work=None, last: bool = True) -> np.ndarray:
    """site_hash's words under the keys mix64(seed, c), keys broadcasting
    against sites, so that one key per row hashes one field per row;
    hashed in the pair of uint64 arrays work when given (last as in
    _finalize_vec)."""
    h, t = (None, None) if work is None else work
    h = np.bitwise_xor(np.asarray(sites, dtype=np.int64).view(np.uint64),
                       np.asarray(keys, dtype=np.uint64), out=h)
    return _finalize_vec(h, t, last)


@dataclass(frozen=True)
class RngStream:
    """One independent random stream, identified by (master_seed, stream_id).

    The pair is the Philox key, so streams with distinct ids never share
    state and need no central bookkeeping.  ``generator()`` returns a
    fresh numpy Generator positioned at the start of the stream.
    """

    master_seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed & _M64, self.stream_id & _M64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, tag: int) -> "RngStream":
        """Split off a sub-stream, e.g. one per independent noise source."""
        return RngStream(mix64(self.master_seed, self.stream_id, tag), 0)


# raw words a row takes from Philox at a time, so a long row is not held twice
_RAW_SLICE = 1 << 16


def _word_rows(seeds, width: int, start: int = 0) -> np.ndarray:
    """Row r holds raw words start..start+width-1 of RngStream(seeds[r], 0),
    the words under its uniforms: one stream per trial, stacked into a block.

    A row of steps from step s on, per steps to a word (64 / b for steps
    of b bits), reads its words from s // per and skips the first s % per
    steps."""
    w = np.empty((len(seeds), width), dtype=np.uint64)
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    # a new stream's state, nothing buffered and counter start // 4 (where
    # advance(start // 4) puts it), is set per row rather than building a
    # generator per row, which costs four times more
    state = bits.state
    state["state"]["counter"][0] = start // 4
    skip = start % 4
    for row, seed in enumerate(seeds):
        state["state"]["key"][0] = seed
        bits.state = state
        if skip:
            bits.random_raw(skip)
        for j in range(0, width, _RAW_SLICE):
            w[row, j:j + _RAW_SLICE] = bits.random_raw(min(_RAW_SLICE, width - j))
    return w


def _mix64_vec(*words) -> np.ndarray:
    """mix64 elementwise over words that broadcast: ints and uint64 arrays."""
    state = np.uint64(_INIT)
    for w in words:
        state = _finalize_vec(np.asarray(w & _M64 if isinstance(w, int) else w,
                                         dtype=np.uint64) ^ state)
    return state


def as_generator(rng) -> np.random.Generator:
    """Accept either an RngStream or an already-built numpy Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")
