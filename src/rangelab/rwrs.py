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
any distance agree automatically.  _trial_block (the range and
self-intersection statistics; rwrs_range_stats is its one-row case) and
no_return_z_count run the marked-walk kernels of laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enumeration import marked_sum_law, no_return_probability
from .laws import (_BATCH_STEPS, _BLOCK_STEPS, _TWO_POINT, LatticeLaw, _field_keys,
                   _lattice_blocks, _marked_trials, _no_return_count, _row_counts,
                   lattice_at_keyed_sites, lattice_support, stable_index)
from .rng import _M64, RngStream, _mix64_vec, mix64

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

    The path is built in tiles of _BATCH_STEPS steps whose arrays stay in
    cache.  Each tile walks on, reads the scenery at every site it reaches
    through the site hash (as the trial kernels of laws do), and adds its
    sites to the local times that laws._row_counts carries from tile to
    tile.
    """
    if n < 0:
        raise ValueError("step count must be nonnegative")
    keys = _field_keys(mix64(master_seed, _SCENERY_TAG))
    walk, values = np.zeros((2, n + 1), dtype=np.int64)
    seen = _row_counts(walk[None, :0])
    for t, steps in zip(range(1, n + 1, _BATCH_STEPS), _lattice_blocks(
            model.walk_law, RngStream(mix64(master_seed, _WALK_TAG), 0), n,
            _BATCH_STEPS)):
        _carried_cumsum(walk, t, steps)
        sites = walk[t:t + steps.size]
        _carried_cumsum(values, t, lattice_at_keyed_sites(model.scenery_law, *keys, sites))
        seen = _row_counts(sites[None], seen)
    uniq, cnt = seen[:2]
    site_vals = lattice_at_keyed_sites(model.scenery_law, *keys, uniq)
    uniq = uniq.tolist()
    return ZPath(model=model, walk=walk, values=values,
                 scenery=dict(zip(uniq, site_vals.tolist())),
                 local_time=LocalTimeMap(dict(zip(uniq, cnt.tolist())), n))


def _carried_cumsum(a: np.ndarray, t: int, part: np.ndarray) -> None:
    # a[t:t + len(part)] = a[t - 1] + cumsum(part), summed in place
    seg = a[t - 1:t + part.size]
    seg[1:] = part
    np.cumsum(seg, out=seg)


def self_intersections(lt: LocalTimeMap) -> int:
    """V_n = sum of squared local times = #{(i, j) in [1,n]^2 : S_i = S_j}."""
    return sum(c * c for c in lt.counts.values())


def _power_sums(counts: np.ndarray, runs: np.ndarray, beta: float) -> np.ndarray:
    """Per row r, the sum of c ** beta over the next runs[r] entries of counts.

    The terms are Python's float pow, taken once per distinct count:
    numpy's power differs from it in the last bit at some beta.  They are
    added one at a time in order, as a Python loop over
    LocalTimeMap.counts adds them (np.cumsum adds in order, np.sum pairs
    terms up).
    """
    uniq, _, _, inv = _row_counts(counts[None], inverse=True)
    w = np.zeros((runs.size, int(runs.max(initial=0)) + 1))
    w[np.arange(w.shape[1]) < runs[:, None]] = \
        np.array([c ** beta for c in uniq.tolist()])[inv[0]]
    return np.cumsum(w, axis=1)[:, -1]


def range_z(zpath: ZPath) -> int:
    """Number of distinct values among Z_0..Z_n (the starting 0 included)."""
    return int(_row_counts(zpath.values[None])[2][0])


def z_spread(zpath: ZPath) -> int:
    """max - min of Z_0..Z_n; for {-1,0,1} sceneries range_z = z_spread + 1."""
    return int(zpath.values.max() - zpath.values.min())


def scaling_exponent(alpha: float, beta: float) -> float:
    """Growth exponent 1 - 1/alpha + 1/(alpha*beta) of the scenery sum."""
    if not (0.0 < alpha <= 2.0 and 0.0 < beta <= 2.0):
        raise ValueError(f"indices must lie in (0, 2], got alpha={alpha} beta={beta}")
    return 1.0 - 1.0 / alpha + 1.0 / (alpha * beta)


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
    """Exact P(Z_k != 0 for every k = 1..horizon) for finite-support laws.

    This is enumeration.no_return_probability with every step marking
    its arrival site, so a site's scenery value is revealed at its first
    visit and a return needs Z_k = 0 alone.
    """
    if not 1 <= horizon <= ENUMERATION_CAP:
        raise ValueError(f"exact no-return limited to horizons 1..{ENUMERATION_CAP}")
    return no_return_probability(lattice_support(model.walk_law), horizon, True,
                                 lattice_support(model.scenery_law), False)


# ---------------------------------------------------------------------------
# batches and range statistics


def no_return_z_count(model: RwrsModel, horizon: int, trials: int,
                      master_seed: int) -> int:
    """Number of trials whose scenery sum avoids 0 at all times 1..horizon.

    laws._no_return_count with every step reading the scenery at its
    arrival site: trial i has its own scenery field, under the keys
    site_hash(base, i, counter=10) and counter=11 with base
    mix64(master_seed, _BATCH_TAG, horizon), so revisited sites within a
    trial reproduce their value while trials stay independent.  A two-point
    scenery moves Z by one a step, so only even times are tested.  Batches
    of 4,096 trials or more at horizons up to 1,024 (128 for a pareto
    walk) walk their trials side by side, a step at a time, until they
    return; the others walk each trial's row whole.
    """
    return _no_return_count(model.walk_law, model.scenery_law,
                            mix64(master_seed, _BATCH_TAG, horizon), horizon, trials,
                            (10, 11), True, False, model.scenery_law.kind in _TWO_POINT)


@dataclass
class ScenerySummary:
    """Range and self-intersection statistics without retaining the path.

    vbeta is the sum of c ** beta over the local times c, at the scenery
    index beta and in site order; zv is the level self-intersection count,
    the sum over levels x of #{k in 1..n : Z_k = x}^2 (Z_0 excluded, as
    in the local times); first_return is the first time k >= 1 with
    Z_k = 0, 0 when there is none.
    """

    steps: int
    z_min: int
    z_max: int
    z_final: int
    distinct_z: int
    self_intersections: int
    vbeta: float
    zv: int
    first_return: int

    @property
    def returned(self) -> bool:
        return self.first_return > 0


def rwrs_range_stats(model: RwrsModel, n: int, master_seed: int,
                     chunk: int = _BLOCK_STEPS) -> ScenerySummary:
    """Statistics of the scenery walk simulate_rwrs runs at the same seed,
    read off chunk steps at a time (the results do not depend on chunk),
    so memory scales with the distinct sites and Z levels rather than the
    horizon.  Lazy site hashing makes this exact: a site revisited in a
    later chunk reproduces the value it had in an earlier one."""
    stats = _trial_block(model, n, np.array([int(master_seed) & _M64], dtype=np.uint64),
                         chunk)
    return ScenerySummary(n, *(v[0].item() for v in stats))


def _trial_block(model: RwrsModel, n: int, seeds, chunk: int):
    """rwrs_range_stats(model, n, seed) for each seed of the uint64 array
    seeds, as one (trials x n) kernel: one array per ScenerySummary field
    after steps, one entry per seed.

    Each walk has its own stream and scenery field, as in simulate_rwrs,
    walked by laws._marked_trials, which counts each row's sites and Z
    levels.
    """
    _, z_end, z_min, z_max, first_return, (sites, levels) = _marked_trials(
        model.walk_law, model.scenery_law, _mix64_vec(seeds, _WALK_TAG),
        _mix64_vec(seeds, _SCENERY_TAG), n, chunk, True, False,
        (lambda s, z: s, lambda s, z: z))
    _, counts, runs, _ = sites
    _, level_counts, distinct, _ = levels
    # per-row sums of squares; the appended 0 keeps reduceat's row starts
    # in range when n = 0
    vn, zv = (np.add.reduceat(np.append(c * c, 0), np.cumsum(k) - k)
              for c, k in ((counts, runs), (level_counts, distinct)))
    # Z_0 = 0 adds a level unless a later Z_k returns to it
    return (z_min, z_max, z_end, distinct + (first_return == 0), vn,
            _power_sums(counts, runs, model.beta), zv, first_return)
