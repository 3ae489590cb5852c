"""Stable laws and the integer step/scenery laws attracted to them.

A stable law is specified through its characteristic function

    E[exp(i u X)] = exp(-|u|^index * (a1 + i * a2 * sgn(u))),

with 0 < index <= 2, a1 > 0 and |a2 / a1| <= |tan(pi * index / 2)|.  At
index 1 only the symmetric case a2 = 0 is supported (the asymmetric
index-1 family is not strictly stable in this parameterization), and at
index 2 the constraint forces a2 = 0, giving a centered Gaussian with
variance 2 * a1.

Lattice laws are integer-valued distributions used as walk steps and
scenery values.  All of them are symmetric, hence centered whenever the
mean exists, and their support generates the integers.  A site value
is decoded from one hashed 64-bit word w as the inverse CDF decodes the
uniform (w >> 11) * 2^-53, which only pareto_tail forms (a two-point
law reads the top bit).  A step drawn from a stream reads the fewest
bits b of 1, 2, 4 or 8 at which the law's cuts are exact, 64 / b steps
to a word, through a table of every byte's values: one bit for the
two-point laws, two for the lazy walk at p = 1/2.  Laws with no such b,
pareto_tail among them, take a whole word per step as sites do.

Both models' Monte Carlo kernels live here too.  Each model sums a
hashed site field along a walk: rwrs marks every arrival site, the
oriented walk's first coordinate each hold of the lazy vertical walk.
The kernels take that reading (walk law, field law, mark_moves,
at_origin), never the model: _marked_walk walks rows of steps,
_marked_trials streams trial rows in column chunks for the range
statistics, and _no_return_count counts escapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product

import numpy as np

from .rng import RngStream, _keyed_words, _mix64_vec, _word_rows, as_generator, site_hash

# ---------------------------------------------------------------------------
# stable laws


@dataclass(frozen=True)
class StableLaw:
    """Stable law with exponent -|u|^index * (a1 + i a2 sgn u)."""

    index: float
    a1: float
    a2: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.index <= 2.0:
            raise ValueError(f"stable index must lie in (0, 2], got {self.index}")
        if not 0.0 < self.a1 < math.inf:
            raise ValueError(f"a1 must be positive and finite, got {self.a1}")
        if self.index == 1.0:
            if self.a2 != 0.0:
                raise ValueError("index 1 supports only the symmetric case a2 = 0")
        elif self.index == 2.0:
            if self.a2 != 0.0:
                raise ValueError("index 2 forces a2 = 0")
        else:
            bound = abs(math.tan(math.pi * self.index / 2.0))
            if abs(self.a2) > bound * self.a1 * (1.0 + 1e-12):
                raise ValueError(
                    f"|a2/a1| = {abs(self.a2) / self.a1:.6g} exceeds "
                    f"|tan(pi*index/2)| = {bound:.6g}")


def stable_cf(law: StableLaw, u) -> np.ndarray:
    """Characteristic function of ``law`` evaluated at real u (vectorized)."""
    u = np.asarray(u, dtype=float)
    mag = np.abs(u) ** law.index
    return np.exp(-mag * law.a1 - 1j * mag * law.a2 * np.sign(u))


def _cms_parameters(law: StableLaw) -> tuple[float, float]:
    # Bridge to the standard (scale, skewness) parameterization:
    # scale = a1^(1/index), skewness = -a2 / (a1 * tan(pi*index/2)).
    if law.index == 1.0:
        return law.a1, 0.0
    if law.index == 2.0:
        return math.sqrt(law.a1), 0.0
    skew = -law.a2 / (law.a1 * math.tan(math.pi * law.index / 2.0))
    return law.a1 ** (1.0 / law.index), skew


def sample_stable(law: StableLaw, rng, size: int | None = None):
    """Draw from ``law``: a scaled normal at index 2, else the polar transform.

    With V uniform on (-pi/2, pi/2), W standard exponential, theta0 =
    atan(skew * tan(pi*index/2)) / index and s the matching tilt factor,

        X = s * sin(index*(V + theta0)) / cos(V)^(1/index)
              * (cos(V - index*(V + theta0)) / W)^((1-index)/index)

    is standard stable with the given skewness; multiplying by the scale
    gives the target law.  At index 1 (symmetric only) it collapses to
    tan(V), equal to the general form to the last bits, and W is still
    drawn, so indices below 2 move the stream equally far.  Index 2 draws
    N(0, 2) as sqrt(2) times a ziggurat normal, whose stream use varies
    by draw; no caller needs a fixed advance, as each draws its pieces in
    a fixed order from one generator.

    Returns a scalar when size is None, else an ndarray of that length.
    """
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    scale, skew = _cms_parameters(law)
    a = law.index
    if a == 2.0:
        x = gen.standard_normal(n)
        x *= math.sqrt(2.0) * scale
        return float(x[0]) if size is None else x
    v = gen.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = gen.standard_exponential(n)
    if a == 1.0:
        x = np.tan(v, out=v)
        x *= scale
    else:
        if skew == 0.0:
            theta0 = 0.0
            tilt = 1.0
        else:
            t = skew * math.tan(math.pi * a / 2.0)
            theta0 = math.atan(t) / a
            tilt = (1.0 + t * t) ** (1.0 / (2.0 * a))
        x = (tilt * np.sin(a * (v + theta0)) / np.cos(v) ** (1.0 / a)
             * (np.cos(v - a * (v + theta0)) / w) ** ((1.0 - a) / a))
        x = scale * x
    return float(x[0]) if size is None else x


# ---------------------------------------------------------------------------
# lattice laws

_KINDS = ("rademacher", "ternary", "lazy_vertical", "simple_symmetric",
          "pareto_tail")
_TWO_POINT = ("rademacher", "simple_symmetric")


@dataclass(frozen=True)
class LatticeLaw:
    """Symmetric integer law; construct through the helpers below.

    zero_mass is the weight of 0 for the ternary and lazy kinds.  For
    pareto_tail the pmf is tail_constant * |k|^(-1-index) on |k| >= 1
    with the leftover mass sitting in an atom at 0.
    """

    kind: str
    zero_mass: float = 0.0
    index: float = 0.0
    tail_constant: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown lattice law kind {self.kind!r}")
        if self.kind in ("ternary", "lazy_vertical"):
            if not 0.0 <= self.zero_mass < 1.0:
                raise ValueError(
                    f"zero mass must lie in [0, 1) so the support generates Z, "
                    f"got {self.zero_mass}")
        if self.kind == "pareto_tail":
            if not 0.0 < self.index < 2.0:
                raise ValueError(f"tail index must lie in (0, 2), got {self.index}")
            cap = 1.0 / (2.0 * _zeta1p(self.index))
            if not 0.0 < self.tail_constant <= cap:
                raise ValueError(
                    f"tail constant must lie in (0, {cap:.6g}] to leave "
                    f"nonnegative mass at 0, got {self.tail_constant}")


def rademacher() -> LatticeLaw:
    """Scenery values -1 or +1 with probability 1/2 each."""
    return LatticeLaw("rademacher")


def ternary(zero_mass: float) -> LatticeLaw:
    """Scenery values in {-1, 0, 1}; 0 has the given mass, the signs split the rest."""
    return LatticeLaw("ternary", zero_mass=zero_mass)


def lazy_vertical(hold_prob: float) -> LatticeLaw:
    """Walk step holding at 0 with probability hold_prob, else +-1 equally."""
    return LatticeLaw("lazy_vertical", zero_mass=hold_prob)


def simple_symmetric() -> LatticeLaw:
    """Nearest-neighbour walk step, +-1 with probability 1/2 each."""
    return LatticeLaw("simple_symmetric")


def pareto_tail(index: float, tail_constant: float | None = None) -> LatticeLaw:
    """Two-sided discrete heavy-tailed law, pmf ~ tail_constant * |k|^(-1-index).

    The default tail constant puts mass 1/2 in the atom at 0.
    """
    if tail_constant is None:
        tail_constant = 1.0 / (4.0 * _zeta1p(index))
    return LatticeLaw("pareto_tail", index=index, tail_constant=tail_constant)


@lru_cache(maxsize=1)
def _scipy_zeta():
    # only the pareto laws need zeta, so scipy.special loads on their first
    # use, not with the package; cached, since sampling calls it per bisection step
    from scipy.special import zeta
    return zeta


def _zeta1p(index: float) -> float:
    # zeta(1 + index) = sum over j >= 1 of j^(-1-index)
    return float(_scipy_zeta()(1.0 + index, 1.0))


def lattice_pmf(law: LatticeLaw, k: int) -> float:
    """Exact point mass of ``law`` at integer k."""
    k = int(k)
    if law.kind in ("rademacher", "simple_symmetric"):
        return 0.5 if k in (-1, 1) else 0.0
    if law.kind in ("ternary", "lazy_vertical"):
        if k == 0:
            return law.zero_mass
        return (1.0 - law.zero_mass) / 2.0 if k in (-1, 1) else 0.0
    # pareto_tail
    if k == 0:
        return 1.0 - 2.0 * law.tail_constant * _zeta1p(law.index)
    return law.tail_constant * abs(k) ** (-1.0 - law.index)


def lattice_support(law: LatticeLaw) -> list[tuple[int, float]]:
    """Finite support as (value, probability) pairs; heavy tails refuse."""
    if law.kind == "pareto_tail":
        raise ValueError("pareto_tail has unbounded support")
    if law.kind in ("rademacher", "simple_symmetric"):
        return [(-1, 0.5), (1, 0.5)]
    out = [(-1, (1.0 - law.zero_mass) / 2.0), (1, (1.0 - law.zero_mass) / 2.0)]
    if law.zero_mass > 0.0:
        out.insert(1, (0, law.zero_mass))
    return out


def stable_index(law: LatticeLaw) -> float:
    """Index of the stable law attracting the normalized partial sums."""
    return law.index if law.kind == "pareto_tail" else 2.0


# -- sampling ---------------------------------------------------------------


class ResourceCapError(RuntimeError):
    """The input is well-formed but exceeds a resource cap: the step budget,
    a size cap or, for a pareto draw, the int64 range; exit code 3."""


_TABLE_CUT = 4096


@lru_cache(maxsize=32)
def _pareto_tables(index: float, tail_constant: float):
    # cumulative pmf of the magnitude law q(k) proportional to k^(-1-index),
    # tabulated up to _TABLE_CUT; the remainder is inverted with Hurwitz zeta
    s = 1.0 + index
    z = _zeta1p(index)
    k = np.arange(1, _TABLE_CUT + 1, dtype=float)
    cdf = np.cumsum(k ** (-s)) / z
    return cdf, z


def _pareto_magnitude_cdf(index: float, z: float, k: np.ndarray) -> np.ndarray:
    # P(magnitude <= k) without tabulation, elementwise over the array k
    return 1.0 - _scipy_zeta()(1.0 + index, k + 1.0) / z


def _pareto_magnitudes(law: LatticeLaw, u: np.ndarray) -> np.ndarray:
    cdf, z = _pareto_tables(law.index, law.tail_constant)
    mags = np.searchsorted(cdf, u, side="left") + 1
    deep = np.flatnonzero(u >= cdf[-1])
    if deep.size:
        mags[deep] = _deep_magnitudes(law.index, z, u[deep])
    return mags.astype(np.int64)


def _deep_magnitudes(index: float, z: float, target: np.ndarray) -> np.ndarray:
    # the smallest k > _TABLE_CUT with cdf(k) >= target, for every target at
    # once: double hi from 2 * _TABLE_CUT until cdf(hi) >= target, then
    # bisect (lo, hi], so each target sees the cdf at the same k in the same
    # order as a one-at-a-time search.  uint64 holds hi up to 2^63; a
    # magnitude past int64 cannot be stored and raises ResourceCapError.
    lo = np.full(target.shape, _TABLE_CUT, dtype=np.uint64)
    hi = 2 * lo
    up = np.arange(target.size)
    while up.size:
        up = up[_pareto_magnitude_cdf(index, z, hi[up]) < target[up]]
        if (hi[up] >= np.uint64(1 << 63)).any():
            raise ResourceCapError("pareto magnitude beyond the int64 range")
        lo[up] = hi[up]
        hi[up] *= np.uint64(2)
    wide = np.arange(target.size)
    while wide.size:
        wide = wide[hi[wide] - lo[wide] > 1]
        mid = lo[wide] + (hi[wide] - lo[wide]) // np.uint64(2)
        below = _pareto_magnitude_cdf(index, z, mid) < target[wide]
        lo[wide[below]] = mid[below]
        hi[wide[~below]] = mid[~below]
    if (hi >= np.uint64(1 << 63)).any():
        raise ResourceCapError("pareto magnitude beyond the int64 range")
    return hi.astype(np.int64)


def _at_cut(w: np.ndarray, cut: float) -> np.ndarray:
    # (w >> 11) * 2^-53 >= cut without the float; no word reaches a cut of 1.0
    t = math.ceil(cut * 2.0**53)
    return w >= np.uint64(t << 11) if t < 1 << 53 else np.zeros(np.shape(w), dtype=bool)


@lru_cache(maxsize=32)
def _field_bits(law: LatticeLaw) -> int:
    """Bits a stream draw of law reads: the fewest b in (1, 2, 4, 8) at which
    its cuts are exact, so that a b-bit field f decodes as its uniform
    f / 2^b would; 64, a whole word through _cut_values, when there is none
    (pareto_tail, or a cut finer than 2^-8)."""
    if law.kind in _TWO_POINT:
        return 1
    if law.kind == "pareto_tail":
        return 64
    cuts = (law.zero_mass, law.zero_mass + (1.0 - law.zero_mass) / 2.0)
    return next((b for b in (1, 2, 4, 8) if all((c * 2**b).is_integer() for c in cuts)), 64)


@lru_cache(maxsize=32)
def _byte_table(law: LatticeLaw) -> np.ndarray:
    # row B: the values of byte B's 8 / b fields of b = _field_bits(law) bits,
    # lowest bits first.  A two-point field is a bit, +1 when set; any other
    # is the top b bits of a word whose uniform is f / 2^b, decoded as such
    b = _field_bits(law)
    f = (np.arange(256, dtype=np.uint64)[:, None] >> np.arange(0, 8, b, dtype=np.uint64)
         ) & np.uint64((1 << b) - 1)
    if law.kind in _TWO_POINT:
        return f.astype(np.int8) * 2 - 1
    return _cut_values(law, f << np.uint64(64 - b), None)


def _values_from_words(law: LatticeLaw, w0: np.ndarray,
                       w1: np.ndarray | None) -> np.ndarray:
    """Map raw 64-bit words to law values; the single decoder of stream draws.

    A law whose draws read b < 64 bits (_field_bits) reads every field of
    w0: the k words along its last axis give 64 / b * k values there,
    field j of word i, lowest bits first, being value 64 / b * i + j.  A
    table of every byte's 8 / b values (_byte_table) decodes them.  Any
    other law takes one value per word of w0 from _cut_values, pareto_tail
    its magnitudes from w1; the others accept None for it.
    """
    b = _field_bits(law)
    if b == 64:
        return _cut_values(law, w0, w1)
    # bytes in little-endian order, so field j of a word sits in byte
    # j * b // 8 whatever the host's byte order
    w0 = np.ascontiguousarray(w0, dtype="<u8")
    out = _byte_table(law).take(w0.view(np.uint8).reshape(-1), axis=0)
    return out.reshape(*w0.shape[:-1], w0.shape[-1] * 64 // b)


def _cut_values(law: LatticeLaw, w0: np.ndarray, w1: np.ndarray | None) -> np.ndarray:
    """One value of law per word of w0, as the inverse CDF decodes the
    uniform (w >> 11) * 2^-53: stream draws of the laws without a field
    (_field_bits 64), and site values but for the two-point signs
    (_keyed_signs).  Only pareto_tail reads w1, one magnitude per word; the
    bounded kinds come back as int8, pareto_tail as int64."""
    # the ternary kinds give 0, +1, -1 between their cuts, and so do the
    # atom and the two signed tails of pareto_tail
    zm = law.zero_mass if law.kind != "pareto_tail" else lattice_pmf(law, 0)
    out = _at_cut(w0, zm).view(np.int8)
    out -= 2 * _at_cut(w0, zm + (1.0 - zm) / 2.0).view(np.int8)
    if law.kind != "pareto_tail":
        return out
    out = np.asarray(out, dtype=np.int64)
    tail = out != 0
    if tail.any():
        out[tail] *= _pareto_magnitudes(law, (w1[tail] >> np.uint64(11)) * 2.0**-53)
    return out


def _keyed_signs(keys, sites, out=None, work=None) -> np.ndarray:
    """The two-point laws' values at keyed sites, as int8: into the int8
    array out, hashing in the pair of uint64 arrays work, when given.

    The sign is the top bit of the site's word, read before the
    finalizer's closing z ^= z >> 31, which never changes it.
    """
    h = _keyed_words(keys, sites, work, last=False)
    signs = np.less(np.asarray(h).view(np.int64), 0,
                    out=None if out is None else out.view(bool)).view(np.int8)
    signs += signs - 1
    return signs


def sample_lattice(law: LatticeLaw, rng, size: int | None = None):
    """Draw from ``law`` using a stream or generator; scalar when size is None.

    Draws decode the generator's raw 64-bit words.  A law whose cuts are
    exact in b of 1, 2, 4 or 8 bits (_field_bits: the two-point laws with
    b = 1, lazy_vertical(0.5) with b = 2) reads b bits per draw, draw k
    being field k % (64 / b) of word k * b // 64, lowest bits first, so n
    draws move the stream ceil(n * b / 64) words.  Any other law takes one
    word per draw, and pareto_tail n more for its magnitudes.
    """
    n = 1 if size is None else int(size)
    vals = next(_lattice_blocks(law, rng, n, max(n, 1)), np.zeros(0, dtype=np.int64))
    return int(vals[0]) if size is None else vals.astype(np.int64, copy=False)


def _lattice_blocks(law: LatticeLaw, rng, n: int, chunk: int):
    """Yield n draws from ``law`` in consecutive blocks of at most chunk draws,
    so that the blocks do not depend on chunk.

    The draws are the fields of the first ceil(n / per) raw words of rng,
    per = 64 // _field_bits(law) of them a word, as _values_from_words
    decodes them; the fields a block leaves unread open the next block.
    pareto_tail (per = 1) reads w1 from the n raw words after the first n.
    Across blocks w1 comes from a second generator of the stream moved past
    the first n (Philox advance(k) skips 4k words), so rng must then be an
    RngStream, not a Generator.
    """
    bits = as_generator(rng).bit_generator
    per = 64 // _field_bits(law)
    second = None
    if law.kind == "pareto_tail":
        second = bits
        if n > chunk:
            second = rng.generator().bit_generator
            second.advance(n // 4)
            second.random_raw(n % 4)
    spare = np.zeros(0, dtype=np.int8)
    for done in range(0, n, chunk):
        m = min(chunk, n - done)
        if spare.size < m:
            words = -(-(m - spare.size) // per)
            new = _values_from_words(  # arguments run in order: w0 before w1
                law, bits.random_raw(words), None if second is None else second.random_raw(words))
            spare = np.concatenate([spare, new]) if spare.size else new
        yield spare[:m]
        spare = spare[m:]


# draws the batch kernels decode and walk at a time, and trial-steps in a
# tile of _marked_trials or simulate_rwrs, so that their arrays stay in cache
_BATCH_STEPS = 1 << 15
# trial-steps a trial kernel holds at a time: a block of rows (trials)
# times a column chunk of their steps
_BLOCK_STEPS = 1 << 20


def _positions(steps: np.ndarray, start) -> np.ndarray:
    """Positions after each step of rows of steps from start, as int64."""
    # widening first and summing in place beats cumsum's int8-to-int64 loop
    pos = steps.astype(np.int64)
    pos[:, 0] += start
    return np.cumsum(pos, axis=1, out=pos)


def _block_rows(n: int) -> int:
    # trials per block of _row_blocks at n steps per trial
    return max(1, _BATCH_STEPS // n)


def _row_blocks(law: LatticeLaw, base: int, trials: int, n: int, chunk: int):
    """Yield (ids, steps) for consecutive blocks of trials, a few at a time:
    the trials' indices and one row of n draws from law per trial.  The m
    trials of chunk c (chunk at a time) draw sample_lattice(law,
    RngStream(base, c), m * n), laid out one row of n draws per trial, in
    blocks of _block_rows(n) trials (fewer at a chunk's end)."""
    per = _block_rows(n)
    for c0 in range(0, trials, chunk):
        m = min(chunk, trials - c0)
        for r, steps in zip(range(c0, c0 + m, per), _lattice_blocks(
                law, RngStream(base, c0 // chunk), m * n, per * n)):
            yield np.arange(r, r + len(steps) // n), steps.reshape(-1, n)


def _field_keys(seeds):
    """The hash keys (mix64(seed, 0), mix64(seed, 1)) of the site field
    seeded by each seed: an int, or a uint64 array for one field per row."""
    return _mix64_vec(seeds, 0), _mix64_vec(seeds, 1)


def lattice_at_sites(law: LatticeLaw, seed: int, sites) -> np.ndarray:
    """Lazy site-keyed draws: value at each site is a pure function of (seed, site).

    Revisiting a site always reproduces the same value, regardless of
    the order or batching of the queries.
    """
    values = lattice_at_keyed_sites(law, *_field_keys(seed), sites)
    return values.astype(np.int64, copy=False)


def lattice_at_keyed_sites(law: LatticeLaw, key0, key1, sites) -> np.ndarray:
    """Batched form of lattice_at_sites: one independent field per key row.

    key0 and key1 broadcast against sites (shape (m, 1) keys against
    (m, n) sites evaluates m fields at once); _field_keys gives them for
    a seed.  Each site reads one hashed word, however few bits a stream
    draw of law reads: _cut_values decodes it, or _keyed_signs for a
    two-point law.  Values come as int8 for the bounded kinds.
    """
    if law.kind in _TWO_POINT:
        return _keyed_signs(key0, sites)
    w1 = _keyed_words(key1, sites) if law.kind == "pareto_tail" else None
    return _cut_values(law, _keyed_words(key0, sites), w1)


# -- marked walks ---------------------------------------------------------------


def _marked_walk(steps, field: LatticeLaw, key0, key1, mark_moves, start=0, total=0):
    """(pos, total) for walks from rows of integer steps: the positions after
    each step, from start, and the running sums, from total, of the field
    of law field under the keys (key0, key1), each one per row or shared.
    Each step marks the walker's new site, adding the field there to the
    sum; without mark_moves only a step of 0 does."""
    pos = _positions(steps, start)
    marks = lattice_at_keyed_sites(field, key0, key1, pos)
    if not mark_moves:
        marks *= steps == 0
    return pos, _positions(marks, total)


def _marked_trials(walk: LatticeLaw, field: LatticeLaw, streams, fields, n: int,
                   chunk: int, mark_moves: bool, at_origin: bool, tallies=(),
                   counts: bool = True):
    """The trial kernels' one loop: row r takes n steps of law walk, drawn
    as sample_lattice(walk, RngStream(streams[r], 0), n) draws them, marked
    by _marked_walk with the field _field_keys(fields[r]) keys, chunk steps
    of every row at a time (the results do not depend on chunk).

    A chunk's words are drawn and decoded at once: from step c0 on, a row
    reads its words from c0 // per and skips c0 % per fields, per =
    64 // _field_bits(walk) steps a word.  Its steps are walked in
    tiles of at most _BATCH_STEPS trial-steps (whole rows or a piece of
    one row), and each tally's keys fill one array per chunk, which
    _row_counts adds to the counts carried from the chunks before: by
    offsets over the rows' spans when they are narrow, by a sort of each
    row otherwise.

    Returns per row the walker's end, the sum's end, min and max, the
    first return (the first time k >= 1 with sum 0 and, with at_origin,
    the walker at 0; 0 when there is none) and, for each f in tallies,
    the _row_counts(..., counts) result of the arrays f(pos, total).
    """
    if n < 0 or chunk < 1:
        raise ValueError(f"step count must be nonnegative and chunk >= 1: {n}, {chunk}")
    key0, key1 = (k[:, None] for k in _field_keys(fields))
    pos_end, end, lo, hi, first_return = np.zeros((5, len(streams)), dtype=np.int64)
    seen = [_row_counts(np.zeros((len(streams), 0), dtype=np.int64)) for _ in tallies]
    per_word = 64 // _field_bits(walk)
    for c0 in range(0, n, chunk):
        w = min(chunk, n - c0)
        # as sample_lattice: step k is field k % per_word of word k // per_word,
        # and pareto_tail's w1 of step k (one step a word) is word n + k
        skip = c0 % per_word
        w1 = _word_rows(streams, w, n + c0) if walk.kind == "pareto_tail" else None
        steps = _values_from_words(walk, _word_rows(
            streams, -(-(skip + w) // per_word), c0 // per_word), w1)[:, skip:skip + w]
        keys = [np.empty(steps.shape, dtype=np.int64) for _ in tallies]
        per = _block_rows(w)
        for r0, t0 in product(range(0, len(streams), per),
                              range(0, w, _BATCH_STEPS // per)):
            r, cols = slice(r0, r0 + per), slice(t0, t0 + _BATCH_STEPS // per)
            pos, total = _marked_walk(steps[r, cols], field, key0[r], key1[r],
                                      mark_moves, pos_end[r], end[r])
            home = (total | pos if at_origin else total) == 0
            hit = np.where(home.any(axis=1), c0 + t0 + home.argmax(axis=1) + 1, 0)
            first_return[r] = np.where(first_return[r] > 0, first_return[r], hit)
            np.minimum(lo[r], total.min(axis=1), out=lo[r])
            np.maximum(hi[r], total.max(axis=1), out=hi[r])
            pos_end[r], end[r] = pos[:, -1], total[:, -1]
            for k, f in zip(keys, tallies):
                k[r, cols] = f(pos, total)
        # a carry to the next chunk needs the values
        seen = [_row_counts(k, s, counts or c0 + w < n) for k, s in zip(keys, seen)]
    return pos_end, end, lo, hi, first_return, seen


# -- escape counts -------------------------------------------------------------

# the steps a time-major slab of trials holds, in bytes, and the trials it
# walks side by side: at 2^14 trials its per-trial vectors (positions, sums,
# keys, hash scratch) take about 1 MB, and at horizon 64 all its arrays
# about 2 MB, against 5 MB for one slab of 40,000 trials
_SLAB_BYTES = 1 << 22
_SLAB_TRIALS = 1 << 14
# fewer trials than this walk faster row by row: a time-major step costs a
# dozen vector calls on its unreturned trials, a row-major block two cumsums
_SLAB_MIN_TRIALS = 4096
# the share of a time-major slab's trials that, once returned, are dropped
_RETIRE = 0.25


def _no_return_count(walk: LatticeLaw, field: LatticeLaw, base: int, horizon: int,
                     trials: int, counters: tuple, mark_moves: bool, at_origin: bool,
                     even: bool) -> int:
    """Number of trials whose marked sum avoids 0 at every time 1..horizon:
    the Monte Carlo side of enumeration.no_return_probability, and the one
    kernel of both escape counters.

    Trial i takes horizon steps of law walk, drawn as _row_blocks draws
    them in chunks of 2^22 // horizon trials, marked as _marked_walk marks
    them by the field of law field under the keys site_hash(base, i,
    counter=c) for c in counters, key0 first and key1 last.  With
    at_origin a return also needs the walker at 0.  even says that returns
    fall at even times only, and only those are tested.

    A chunk is walked in slabs of consecutive trials holding at most
    _SLAB_BYTES of steps and _SLAB_TRIALS trials, in whole blocks of
    _block_rows(horizon) trials (at least one).  A slab of
    _SLAB_MIN_TRIALS trials or more stores its steps time-major, one row
    per time, and walks its trials side by side one step at a time until
    they return (see _RETIRE); a narrower one walks its blocks row by row.
    Both give the same count.
    """
    if horizon < 1 or trials < 0:
        raise ValueError(f"horizon must be at least 1 and trials nonnegative, "
                         f"got {horizon} and {trials}")
    chunk = max(1, (1 << 22) // horizon)
    per = _block_rows(horizon)
    item = 8 if walk.kind == "pareto_tail" else 1  # the decoder's dtype
    width = per * max(1, min(_SLAB_BYTES // (horizon * item * per), _SLAB_TRIALS // per))
    blocks = _row_blocks(walk, base, trials, horizon, chunk)
    survivors = 0
    for c0 in range(0, trials, chunk):
        end = min(c0 + chunk, trials)
        for s0 in range(c0, end, width):
            ids = np.arange(s0, min(s0 + width, end))
            # key1 only when the field reads it
            keys = [site_hash(base, ids, counter=c)
                    for c in counters[:1 + (field.kind == "pareto_tail")]]
            slab = islice(blocks, -(-ids.size // per))
            route = _time_major if ids.size >= _SLAB_MIN_TRIALS else _row_major
            survivors += route(slab, field, keys[0], keys[-1], mark_moves,
                               at_origin, even)
    return survivors


def _row_major(blocks, field, key0, key1, mark_moves, at_origin, even) -> int:
    # _no_return_count on (ids, steps) blocks whose trials have the keys
    # key0 and key1, one block of whole walks at a time; every time is tested
    survivors = r = 0
    for ids, steps in blocks:
        rows = slice(r, r + ids.size)
        r += ids.size
        pos, total = _marked_walk(steps, field, key0[rows, None], key1[rows, None],
                                  mark_moves)
        if at_origin:
            total |= pos  # 0 exactly where both are
        survivors += int(np.count_nonzero(total.all(axis=1)))
    return survivors


def _time_major(blocks, field, key0, key1, mark_moves, at_origin, even) -> int:
    # _row_major's count, from the blocks' steps stored one row per time and
    # walked a time at a time: each step adds into one vector per quantity.
    # Once _RETIRE of the trials walked have returned, only the others walk
    # on, reading their steps through cols, their columns in steps.
    steps = None
    col = 0
    for ids, part in blocks:
        if steps is None:
            steps = np.empty((part.shape[1], key0.size), dtype=part.dtype)
        steps[:, col:col + ids.size] = part.T
        col += ids.size
    pos, total = np.zeros((2, col), dtype=np.int64)
    alive, cols = np.ones(col, dtype=bool), None
    # buffers kept across steps; signs and work hash a two-point field
    either, hold = np.empty(col, dtype=np.int64), np.empty(col, dtype=bool)
    signs, work = np.empty(col, dtype=np.int8), np.empty((2, col), dtype=np.uint64)
    for t, step in enumerate(steps, 1):
        if cols is not None:
            step = step.take(cols)
        pos += step
        mark = (_keyed_signs(key0, pos, signs, work) if field.kind in _TWO_POINT
                else lattice_at_keyed_sites(field, key0, key1, pos))
        if not mark_moves:
            mark *= np.equal(step, 0, out=hold)
        total += mark
        if even and t % 2:
            continue
        np.logical_and(alive, np.bitwise_or(total, pos, out=either)
                       if at_origin else total, out=alive)
        left = np.count_nonzero(alive)
        if pos.size - left >= _RETIRE * pos.size:
            if not left:
                return 0
            keep = np.flatnonzero(alive)
            cols = keep if cols is None else cols[keep]
            pos, total, alive = pos[keep], total[keep], alive[keep]
            key0, key1 = (key0[keep],) * 2 if key1 is key0 else (key0[keep], key1[keep])
            either, hold, signs = either[:left], hold[:left], signs[:left]
            work = work[:, :left]
    return int(np.count_nonzero(alive))


# -- distinct values and local times -----------------------------------------
#
# Every range and local-time count in the package goes through _row_counts
# rather than numpy's unique, which under numpy 2.4 takes about 0.5 s on 10^6
# encoded sites where a plain sort takes 15 ms.  It counts each row of a
# block by one of two routes, chosen by one rule.  The offset route lays the
# rows side by side, value v of row r at index r * W + v - min_r with W the
# widest row's span, and counts them with one bincount; it touches every
# index below rows * W, so it is taken when that is at most twice the
# entries counted: walk positions, Z levels, rows and cells.  Anything wider,
# encoded (x, y) sites or a heavy-tailed walk, takes a sort of each row.
# Both give unique's values, counts and inverse exactly.

_MIN, _MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _row_counts(a: np.ndarray, carry=None, counts: bool = True, inverse: bool = False):
    """Count the values of each row of the 2-D int64 array a, added to carry,
    the result of an earlier call on the same rows.

    Returns (values, weights, runs, inv): each row's distinct values in
    increasing order, row after row, and their counts; how many distinct
    values each row has; and with inverse, each entry of a's index into
    values.  Without counts only runs is made (values and weights are
    None, and the result cannot be a carry), and a is the caller's
    scratch, which the sort route sorts in place; a is not changed
    otherwise.  The offset route is taken when rows x W is at most twice
    the entries of a and carry, W being the widest row's span
    max - min + 1 over both; a sort of each row otherwise.
    """
    rows = len(a)
    values, weights, runs = carry[:3] if carry is not None else \
        (np.empty(0, dtype=np.int64),) * 2 + (np.zeros(rows, dtype=np.intp),)
    lo, hi = a.min(axis=1, initial=_MAX), a.max(axis=1, initial=_MIN)
    if values.size:
        # every row of a carry holds values, sorted
        ends = np.cumsum(runs)
        np.minimum(lo, values[ends - runs], out=lo)
        np.maximum(hi, values[ends - 1], out=hi)
    # max - min is exact in uint64 (and 1 for a block with no entries), and
    # Python ints hold rows * W
    width = int((hi.view(np.uint64) - lo.view(np.uint64)).max(initial=0)) + 1
    inv = None
    if rows * width <= 2 * (a.size + values.size):
        # index r * W + v - min_r, wrapping in uint64 back into [0, rows * W)
        shift = np.arange(rows, dtype=np.uint64) * np.uint64(width) - lo.view(np.uint64)
        off = (a.view(np.uint64) + shift[:, None]).view(np.int64)
        tally = np.bincount(off.ravel(), minlength=rows * width)
        tally[(values.view(np.uint64) + np.repeat(shift, runs)).view(np.int64)] += weights
        kept = tally.reshape(rows, width) > 0
        if counts:
            at = np.flatnonzero(kept)
            values = (at.view(np.uint64) - shift[at // width]).view(np.int64)
            weights = tally[at]
        if inverse:
            inv = (np.cumsum(kept) - 1).take(off)
    else:
        # the carried values open their row, padded out with its max at
        # weight 0: a sorted run that a stable sort (timsort) merges with
        # the new values in linear time
        pad = int(runs.max(initial=0))
        s = a
        if pad:
            filled = np.arange(pad) < runs[:, None]
            s = np.concatenate([np.broadcast_to(hi[:, None], (rows, pad)), a], axis=1)
            s[:, :pad][filled] = values
            w = np.ones(s.shape, dtype=np.int64)
            w[:, :pad] = 0
            w[:, :pad][filled] = weights
        order = np.argsort(s, axis=1, kind="stable") if pad or inverse else None
        if order is not None:
            s = np.take_along_axis(s, order, axis=1)
        elif counts:
            s = np.sort(s, axis=1)
        else:
            s.sort(axis=1)
        kept = np.empty(s.shape, dtype=bool)
        kept[:, :1] = True
        np.not_equal(s[:, 1:], s[:, :-1], out=kept[:, 1:])
        if counts:
            at = np.flatnonzero(kept)
            values, s = s.ravel()[at], None  # s is freed before the weights are made
            weights = (np.add.reduceat(np.take_along_axis(w, order, axis=1).ravel(), at)
                       if pad else np.diff(at, append=kept.size))
        if inverse:
            inv = np.empty(kept.shape, dtype=np.intp)
            np.put_along_axis(inv, order, (np.cumsum(kept) - 1).reshape(kept.shape), axis=1)
            inv = inv[:, pad:]
    if not counts:
        values = weights = None
    return values, weights, np.count_nonzero(kept, axis=1), inv
