"""Random walks in random scenery on the integers.

A walk S takes i.i.d. integer steps; an independent scenery attaches an
i.i.d. integer value to every site.  The observable is the running sum
of the scenery along the walk,

    Z_n = sum over k = 1..n of xi(S_k),

equivalently the scenery integrated against the walk's local times.
The oriented-lattice walk's first coordinate is a close cousin (scenery
read only while the vertical walk holds still) and shares the same
normalizations and limit objects, which is what makes this model the
analytical route to that walk's horizontal range.

Scenery values are realized lazily through site hashing, so revisits at
any distance agree automatically and simulation memory scales with the
number of distinct visited sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enumeration import marked_sum_law
from .laws import (LatticeLaw, _distinct, _lattice_blocks, _local_times,
                   _merge_distinct, lattice_at_keyed_sites, lattice_at_sites,
                   lattice_support, sample_lattice, stable_index)
from .rng import RngStream, mix64, site_hash

ENUMERATION_CAP = 12

_WALK_TAG = 301
_SCENERY_TAG = 302
_BATCH_TAG = 304


@dataclass(frozen=True)
class RwrsModel:
    """Walk law, scenery law and the stable indices of their attractors.

    alpha is the index for the walk steps, beta for the scenery.  Both
    are derived from the laws when omitted; values passed explicitly
    must match the laws.  Every lattice law in this package is
    symmetric, so the centering conditions hold automatically.
    """

    walk_law: LatticeLaw
    scenery_law: LatticeLaw
    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        wa = stable_index(self.walk_law)
        sb = stable_index(self.scenery_law)
        if sb == 1.0:
            # the boundary scenery index sits outside every proved regime
            raise ValueError("scenery index 1 is not supported")
        if self.alpha == 0.0:
            object.__setattr__(self, "alpha", wa)
        elif self.alpha != wa:
            raise ValueError(f"alpha {self.alpha} contradicts walk law index {wa}")
        if self.beta == 0.0:
            object.__setattr__(self, "beta", sb)
        elif self.beta != sb:
            raise ValueError(f"beta {self.beta} contradicts scenery law index {sb}")


@dataclass
class LocalTimeMap:
    """Visit counts N_n(y) = #{k in 1..n : S_k = y}; time 0 not counted."""

    counts: dict
    steps: int

    @classmethod
    def from_positions(cls, s: np.ndarray) -> "LocalTimeMap":
        uniq, cnt, _ = _local_times(s[1:])
        return cls(counts={int(y): int(c) for y, c in zip(uniq, cnt)},
                   steps=len(s) - 1)


@dataclass
class ZPath:
    """A realized scenery walk: Z values, the driving walk, and what was seen."""

    model: RwrsModel
    walk: np.ndarray      # S_0..S_n
    values: np.ndarray    # Z_0..Z_n, Z_0 = 0
    scenery: dict         # site -> realized scenery value, visited sites only
    local_time: LocalTimeMap


def simulate_rwrs(model: RwrsModel, n: int, master_seed: int) -> ZPath:
    """Run the scenery walk for n steps.

    The walk stream and the scenery field are split off the master seed
    independently; the scenery value of a site is a pure function of
    (scenery seed, site), hence consistent across revisits and across
    simulations sharing the seed.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    gen = RngStream(mix64(master_seed, _WALK_TAG), 0).generator()
    steps = sample_lattice(model.walk_law, gen, size=n)
    s = np.concatenate([[0], np.cumsum(steps)])
    scenery_seed = mix64(master_seed, _SCENERY_TAG)
    sites = s[1:]
    uniq, cnt, inv = _local_times(sites)
    site_vals = lattice_at_sites(model.scenery_law, scenery_seed, uniq)
    z = np.concatenate([[0], np.cumsum(site_vals[inv])])
    scenery = {int(y): int(v) for y, v in zip(uniq, site_vals)}
    return ZPath(model=model, walk=s, values=z, scenery=scenery,
                 local_time=LocalTimeMap(
                     counts={int(y): int(c) for y, c in zip(uniq, cnt)},
                     steps=n))


def self_intersections(lt: LocalTimeMap) -> int:
    """V_n = sum of squared local times = #{(i, j) in [1,n]^2 : S_i = S_j}."""
    return sum(c * c for c in lt.counts.values())


def v_beta(lt: LocalTimeMap, beta: float) -> float:
    """Generalized self-intersections: sum of local times to the power beta."""
    if beta <= 0:
        raise ValueError("exponent must be positive")
    return float(sum(c ** beta for c in lt.counts.values()))


def range_z(zpath: ZPath) -> int:
    """Number of distinct values among Z_0..Z_n (the starting 0 included)."""
    return int(_distinct(zpath.values).size)


def z_spread(zpath: ZPath) -> int:
    """max - min of Z_0..Z_n; for {-1,0,1} sceneries range_z = z_spread + 1."""
    return int(zpath.values.max() - zpath.values.min())


def z_self_intersections(zpath: ZPath) -> int:
    """Level self-intersections of Z: sum over levels x of #{k in 1..n: Z_k = x}^2.

    Z_0 is excluded from the level counts, mirroring the local-time
    convention; the Cauchy-Schwarz bound n^2 <= range * this quantity
    holds regardless because every counted level lies in the range set.
    """
    _, cnt, _ = _local_times(zpath.values[1:])
    return int((cnt.astype(np.int64) ** 2).sum())


def scaling_exponent(alpha: float, beta: float) -> float:
    """Growth exponent 1 - 1/alpha + 1/(alpha*beta) of the scenery sum."""
    _check_indices(alpha, beta)
    return 1.0 - 1.0 / alpha + 1.0 / (alpha * beta)


def scaling_normalizer(alpha: float, beta: float, n: int) -> float:
    """The sequence a_n that renders Z_n/a_n convergent in law.

    Recurrent walks (alpha > 1) give n to the scaling exponent; the
    boundary alpha = 1 picks up a logarithmic factor; transient walks
    (alpha < 1) see every site O(1) times so only the scenery index
    matters.
    """
    _check_indices(alpha, beta)
    if n < 2:
        raise ValueError("normalizer defined for n >= 2")
    if alpha > 1.0:
        return float(n) ** scaling_exponent(alpha, beta)
    if alpha == 1.0:
        return float(n) ** (1.0 / beta) * math.log(n) ** (1.0 - 1.0 / beta)
    return float(n) ** (1.0 / beta)


def _check_indices(alpha: float, beta: float) -> None:
    if not (0.0 < alpha <= 2.0 and 0.0 < beta <= 2.0):
        raise ValueError(f"indices must lie in (0, 2], got alpha={alpha} beta={beta}")


# ---------------------------------------------------------------------------
# exact oracles


def exact_rwrs_law(model: RwrsModel, n: int) -> dict:
    """Exact law of Z_n as {value: probability} for finite-support laws.

    Walk paths are merged by their local-time profile; conditionally on
    the profile, Z_n is an independent sum over visited sites of
    (scenery value) * (local time), computed by convolution.
    """
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(f"exact law limited to horizons 0..{ENUMERATION_CAP}")
    steps = tuple(lattice_support(model.walk_law))
    scen = tuple(lattice_support(model.scenery_law))
    out: dict = {}
    for (val, _pos), w in marked_sum_law(steps, n, True, scen).items():
        out[val] = out.get(val, 0.0) + w
    return out


def exact_no_return_z(model: RwrsModel, horizon: int) -> float:
    """Exact P(Z_k != 0 for every k = 1..horizon).

    Joint depth-first search over walk steps and scenery values of newly
    visited sites; scenery values of already-visited sites are frozen on
    first use, so revisit consistency is exact.  Branches are pruned the
    moment Z touches 0.
    """
    if not 1 <= horizon <= ENUMERATION_CAP:
        raise ValueError(f"exact no-return limited to horizons 1..{ENUMERATION_CAP}")
    steps = lattice_support(model.walk_law)
    scen = lattice_support(model.scenery_law)
    total = 0.0
    seen: dict = {}

    def descend(k, pos, z, w):
        nonlocal total
        if k == horizon:
            total += w
            return
        for d, pw in steps:
            pos2 = pos + d
            known = seen.get(pos2)
            if known is not None:
                z2 = z + known
                if z2 != 0:
                    descend(k + 1, pos2, z2, w * pw)
            else:
                for v, pv in scen:
                    z2 = z + v
                    if z2 == 0:
                        continue
                    seen[pos2] = v
                    descend(k + 1, pos2, z2, w * pw * pv)
                    del seen[pos2]

    descend(0, 0, 0, 1.0)
    return total


# ---------------------------------------------------------------------------
# batches and streaming


def no_return_z_count(model: RwrsModel, horizon: int, trials: int,
                      master_seed: int) -> int:
    """Number of trials whose scenery sum avoids 0 at all times 1..horizon.

    Vectorized over trials: each trial row carries its own scenery field
    through a pair of per-trial hash keys, so revisited sites within a
    trial reproduce their value while trials stay independent.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    survivors = 0
    base = mix64(master_seed, _BATCH_TAG, horizon)
    chunk = max(1, (1 << 22) // horizon)
    for c0 in range(0, trials, chunk):
        m = min(chunk, trials - c0)
        gen = RngStream(base, c0 // chunk).generator()
        steps = sample_lattice(model.walk_law, gen, size=m * horizon)
        pos = np.cumsum(steps.reshape(m, horizon), axis=1)
        ids = np.arange(c0, c0 + m)
        key0 = site_hash(base, ids, counter=10)[:, None]
        key1 = site_hash(base, ids, counter=11)[:, None]
        vals = lattice_at_keyed_sites(model.scenery_law, key0, key1, pos)
        z = np.cumsum(vals, axis=1)
        survivors += int((z != 0).all(axis=1).sum())
    return survivors


@dataclass
class ScenerySummary:
    """Range and self-intersection statistics without retaining the path."""

    steps: int
    z_min: int
    z_max: int
    z_final: int
    distinct_z: int
    self_intersections: int
    returned: bool

    @property
    def z_range(self) -> int:
        return self.distinct_z


def rwrs_range_stats(model: RwrsModel, n: int, master_seed: int,
                     chunk: int = 1 << 20) -> ScenerySummary:
    """Chunked scenery-walk statistics for horizons too long to store.

    Lazy site hashing makes this exact: a site revisited in a later
    chunk reproduces the value it had in an earlier one.  The walk steps
    are those of simulate_rwrs at the same seed whatever the chunk size.
    """
    stream = RngStream(mix64(master_seed, _WALK_TAG), 0)
    scenery_seed = mix64(master_seed, _SCENERY_TAG)
    s0 = 0
    z0 = 0
    z_min = z_max = 0
    z_levels = np.zeros(1, dtype=np.int64)  # distinct Z values seen, sorted
    counts: dict = {}
    returned = False
    for steps in _lattice_blocks(model.walk_law, stream, n, chunk):
        s = s0 + np.cumsum(steps)
        uniq, cnt, inv = _local_times(s)
        site_vals = lattice_at_sites(model.scenery_law, scenery_seed, uniq)
        z = z0 + np.cumsum(site_vals[inv])
        for y, c in zip(uniq.tolist(), cnt.tolist()):
            counts[y] = counts.get(y, 0) + c
        z_levels = _merge_distinct(z_levels, _distinct(z))
        returned = returned or bool((z == 0).any())
        z_min = min(z_min, int(z.min()))
        z_max = max(z_max, int(z.max()))
        s0, z0 = int(s[-1]), int(z[-1])
    return ScenerySummary(steps=n, z_min=z_min, z_max=z_max, z_final=z0,
                          distinct_z=int(z_levels.size),
                          self_intersections=sum(c * c for c in counts.values()),
                          returned=returned)
