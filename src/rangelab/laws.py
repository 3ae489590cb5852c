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
mean exists, and their support generates the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .rng import as_generator, keyed_uniform, site_uniform

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
    """Draw from ``law`` by the polar (uniform angle, exponential) transform.

    With V uniform on (-pi/2, pi/2), W standard exponential, theta0 =
    atan(skew * tan(pi*index/2)) / index and s the matching tilt factor,

        X = s * sin(index*(V + theta0)) / cos(V)^(1/index)
              * (cos(V - index*(V + theta0)) / W)^((1-index)/index)

    is standard stable with the given skewness; multiplying by the scale
    gives the target law.  The same formula covers index = 1 (symmetric,
    where it degenerates to tan V) and index = 2 (where it degenerates
    to 2 sin(V) sqrt(W), a centered Gaussian of variance 2).

    Returns a scalar when size is None, else an ndarray of that length.
    """
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    scale, skew = _cms_parameters(law)
    a = law.index
    v = gen.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = gen.standard_exponential(n)
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


def _zeta1p(index: float) -> float:
    # zeta(1 + index) = sum over j >= 1 of j^(-1-index)
    return float(_hurwitz_zeta(1.0 + index, 1.0))


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


def lattice_tail(law: LatticeLaw, t: int) -> float:
    """Exact P(|X| > t) for integer t >= 0."""
    t = int(t)
    if law.kind != "pareto_tail":
        return 0.0 if t >= 1 else 1.0 - lattice_pmf(law, 0)
    return 2.0 * law.tail_constant * float(_hurwitz_zeta(1.0 + law.index, t + 1.0))


def lattice_variance(law: LatticeLaw) -> float:
    """Variance, for the finite-variance kinds."""
    if law.kind in ("rademacher", "simple_symmetric"):
        return 1.0
    if law.kind in ("ternary", "lazy_vertical"):
        return 1.0 - law.zero_mass
    raise ValueError(f"variance of {law.kind} is not finite for index < 2")


def stable_index(law: LatticeLaw) -> float:
    """Index of the stable law attracting the normalized partial sums."""
    return law.index if law.kind == "pareto_tail" else 2.0


def gaussian_limit(law: LatticeLaw) -> StableLaw:
    """Stable law of S_n / sqrt(n) for the finite-variance kinds (index 2)."""
    return StableLaw(2.0, lattice_variance(law) / 2.0, 0.0)


# -- sampling ---------------------------------------------------------------

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


def _pareto_magnitude_cdf(index: float, z: float, k: int) -> float:
    # P(magnitude <= k) without tabulation
    return 1.0 - float(_hurwitz_zeta(1.0 + index, k + 1.0)) / z


def _pareto_magnitudes(law: LatticeLaw, u: np.ndarray) -> np.ndarray:
    cdf, z = _pareto_tables(law.index, law.tail_constant)
    mags = np.searchsorted(cdf, u, side="left") + 1
    deep = u >= cdf[-1]
    if deep.any():
        for i in np.nonzero(deep)[0]:
            target = u[i]
            lo, hi = _TABLE_CUT, 2 * _TABLE_CUT
            while _pareto_magnitude_cdf(law.index, z, hi) < target:
                lo, hi = hi, hi * 2
            while hi - lo > 1:  # smallest k with cdf(k) >= target
                mid = (lo + hi) // 2
                if _pareto_magnitude_cdf(law.index, z, mid) < target:
                    lo = mid
                else:
                    hi = mid
            mags[i] = hi
    return mags.astype(np.int64)


def _values_from_uniforms(law: LatticeLaw, u0: np.ndarray,
                          u1: np.ndarray | None) -> np.ndarray:
    """Map uniform pairs to law values; the single shared inversion kernel.

    Only pareto_tail reads u1; the other kinds accept None for it.
    """
    if law.kind in ("rademacher", "simple_symmetric"):
        return np.where(u0 < 0.5, -1, 1).astype(np.int64)
    if law.kind in ("ternary", "lazy_vertical"):
        zm = law.zero_mass
        out = np.zeros(u0.shape, dtype=np.int64)
        out[u0 >= zm] = 1
        out[u0 >= zm + (1.0 - zm) / 2.0] = -1
        return out
    # pareto_tail: u0 picks atom vs signed tail, u1 picks the magnitude
    p0 = lattice_pmf(law, 0)
    out = np.zeros(u0.shape, dtype=np.int64)
    tail = u0 >= p0
    if tail.any():
        sign = np.where(u0[tail] < p0 + (1.0 - p0) / 2.0, 1, -1)
        out[tail] = sign * _pareto_magnitudes(law, u1[tail])
    return out


def sample_lattice(law: LatticeLaw, rng, size: int | None = None):
    """Draw from ``law`` using a stream or generator; scalar when size is None."""
    gen = as_generator(rng)
    n = 1 if size is None else int(size)
    u = gen.random((2, n))
    vals = _values_from_uniforms(law, u[0], u[1])
    return int(vals[0]) if size is None else vals


def _lattice_blocks(law: LatticeLaw, stream, n: int, chunk: int):
    """Yield sample_lattice(law, stream, size=n) in consecutive blocks of at
    most chunk draws, so that the blocks do not depend on chunk.

    The one-shot draw reads u0 from the stream's first n uniforms and u1
    from the next n; u1 comes from a second generator moved past the first
    n (Philox advance(k) skips 4k uniforms).
    """
    gen0 = stream.generator()
    gen1 = None
    if law.kind == "pareto_tail":
        gen1 = stream.generator()
        gen1.bit_generator.advance(n // 4)
        gen1.random(n % 4)
    for done in range(0, n, chunk):
        m = min(chunk, n - done)
        yield _values_from_uniforms(law, gen0.random(m),
                                    None if gen1 is None else gen1.random(m))


def lattice_at_sites(law: LatticeLaw, seed: int, sites) -> np.ndarray:
    """Lazy site-keyed draws: value at each site is a pure function of (seed, site).

    Revisiting a site always reproduces the same value, regardless of
    the order or batching of the queries.
    """
    sites = np.asarray(sites, dtype=np.int64)
    u0 = site_uniform(seed, sites, counter=0)
    u1 = site_uniform(seed, sites, counter=1) if law.kind == "pareto_tail" else None
    return _values_from_uniforms(law, u0, u1)


def lattice_at_keyed_sites(law: LatticeLaw, key0, key1, sites) -> np.ndarray:
    """Batched form of lattice_at_sites: one independent field per key row.

    key0 and key1 broadcast against sites (shape (m, 1) keys against
    (m, n) sites evaluates m fields at once).  With scalar keys
    mix64(seed, 0) and mix64(seed, 1) this reproduces lattice_at_sites
    exactly.
    """
    u1 = keyed_uniform(key1, sites) if law.kind == "pareto_tail" else None
    return _values_from_uniforms(law, keyed_uniform(key0, sites), u1)


# -- distinct values and local times -----------------------------------------
#
# Every range and local-time count in the package goes through these
# helpers rather than numpy's unique, which under numpy 2.4 takes about
# 0.5 s on 10^6 encoded sites where a plain sort takes 15 ms.  Their
# outputs (sorted values, counts, inverse) equal unique's exactly.


def _offset_counts(a: np.ndarray):
    # An offset bincount touches every value in [min, max], so it pays only
    # when that span is not much wider than the array: walk positions, rows
    # and Z levels, never encoded (x, y) sites.  Python ints keep max - min
    # from wrapping on spans near 2^64.
    if a.size == 0:
        return None
    lo = int(a.min())
    if int(a.max()) - lo > 2 * a.size:
        return None
    off = a - lo
    return lo, off, np.bincount(off)


def _first_of_runs(s: np.ndarray) -> np.ndarray:
    # True at the first element of each run of equal values in sorted s
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return keep


def _distinct(a) -> np.ndarray:
    """Sorted distinct values of an integer array, as numpy's unique(a)."""
    a = np.asarray(a, dtype=np.int64).ravel()
    narrow = _offset_counts(a)
    if narrow is not None:
        lo, _, cnt = narrow
        return np.flatnonzero(cnt) + lo
    s = np.sort(a)
    return s[_first_of_runs(s)]


def _merge_distinct(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct union of two sorted int64 arrays.

    The stable sort (timsort for int64) detects the two sorted runs and
    merges them in linear time.
    """
    s = np.sort(np.concatenate([a, b]), kind="stable")
    return s[_first_of_runs(s)]


def _local_times(a):
    """Distinct values, their counts, and each element's index into them.

    Equals numpy's unique(a, return_counts=True, return_inverse=True),
    with the counts moved before the inverse and the inverse flattened.
    Narrow inputs are counted by an offset bincount, wide ones (encoded
    sites) by a sort.
    """
    a = np.asarray(a, dtype=np.int64).ravel()
    narrow = _offset_counts(a)
    if narrow is not None:
        lo, off, cnt = narrow
        present = cnt > 0
        rank = np.cumsum(present) - 1
        return np.flatnonzero(present) + lo, cnt[present], rank[off]
    order = np.argsort(a)
    s = a[order]
    keep = _first_of_runs(s)
    inverse = np.empty(a.size, dtype=np.intp)
    inverse[order] = np.cumsum(keep) - 1
    return s[keep], np.diff(np.append(np.flatnonzero(keep), s.size)), inverse
