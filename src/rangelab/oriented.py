"""Nearest-neighbour walk on Z^2 whose horizontal lines carry random one-way
orientations.

Each row y holds a fixed direction eps_y, +1 or -1 with probability 1/2,
frozen for the whole walk.  At every step the walker moves horizontally
along its current row, in that row's direction, with probability p, or
else steps up or down with probability (1-p)/2 each.  Quenched means the
orientation field is fixed; annealed averages over it, which is realized
here by drawing a fresh lazy environment per trial.

Alongside the direct simulators there is a second, measure-preserving
construction: iterate the shift T((e_k), (w_k)) = ((e_(k+w_0)), (w_(k+1)))
on the product of an orientation sequence and a step sequence, reading
off one increment per iterate.  Its increment k reads the sign sequence
at the walker's current row, so the shift-map path is the quenched walk
in that sign field and shares the walk kernel of the direct simulators.
Both routes must agree in law with the exact enumeration oracle, which
is the strongest correctness check in the test suite.

The first coordinate sums the row orientations at the holds of the lazy
vertical walk, so the batch samplers, no_return_count and _trial_block
(the range statistics; annealed_range_stats is its one-row case) run
the marked-walk kernels of laws.

The exact oracles merge step sequences by state instead of enumerating
them, both in enumeration.py: by per-row displacement profile, up to its
mirror image, for the endpoint law (horizons up to 14), and for
no-return (up to 18) by the DP the RWRS oracle also runs, whose states
are the walker's row, the row signs within reach, each revealed at the
row's first hold, and the first coordinate up to sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .enumeration import marked_sum_law, no_return_probability
from .laws import (_BLOCK_STEPS, _marked_trials, _marked_walk,
                   _no_return_count, _row_blocks, _row_counts, lattice_at_sites,
                   lazy_vertical, rademacher, sample_lattice)
from .rng import _M64, RngStream, _mix64_vec, mix64, site_hash

H, UP, DOWN = 0, 1, 2  # step-type codes: horizontal, vertical up, vertical down

ENUMERATION_CAP = 14  # endpoint laws (cp-law)
ESCAPE_CAP = 18       # no-return probabilities (cp-escape)

# sub-seed tags, one per independent noise source
_ENV_TAG = 201
_WALK_TAG = 202
_EPS_TAG = 203
_BATCH_TAG = 204

_BATCH_CHUNK = 1 << 16


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"horizontal probability must lie in (0, 1), got {p}")


@dataclass
class Environment:
    """Lazily realized orientation field eps: row -> {-1, +1}.

    Orientations are pure functions of (master_seed, row), so any row can
    be queried at any moment, scalar or vectorized, in any order, and
    distinct rows are i.i.d. fair signs.  Entries in ``overrides`` win
    over the hashed field; a nonrandom environment is just an override
    for every row it touches.
    """

    master_seed: int
    overrides: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if any(v not in (-1, 1) for v in self.overrides.values()):
            raise ValueError("orientation overrides must be -1 or +1")

    def orientation(self, row: int) -> int:
        row = int(row)
        v = self.overrides.get(row)
        if v is None:
            v = int(lattice_at_sites(rademacher(), self.master_seed, [row])[0])
        return v

    def orientations(self, rows) -> np.ndarray:
        # a walk revisits few rows many times: hash each distinct row once
        rows = np.asarray(rows, dtype=np.int64)
        uniq, _, _, inv = _row_counts(rows.reshape(1, -1), inverse=True)
        vals = lattice_at_sites(rademacher(), self.master_seed, uniq)
        if self.overrides:
            hit = np.isin(uniq, np.fromiter(self.overrides, dtype=np.int64,
                                            count=len(self.overrides)))
            if hit.any():
                vals[hit] = [self.overrides[int(r)] for r in uniq[hit]]
        return vals[inv].reshape(rows.shape)


@dataclass
class LatticePath:
    """A realized walk: positions (x_k, y_k), k = 0..n, and the step types."""

    p: float
    x: np.ndarray
    y: np.ndarray
    step_types: np.ndarray

    @property
    def steps(self) -> int:
        return len(self.step_types)


@dataclass
class HorizontalLocalTime:
    """Per-row horizontal step counts: row -> number of horizontal moves."""

    counts: dict
    steps: int


def simulate_quenched(env: Environment, p: float, n: int, rng) -> LatticePath:
    """Walk n steps in a fixed orientation field.

    Parameters
    ----------
    env : Environment
        The frozen orientation field supplying each row's direction.
    p : float
        Probability of a horizontal step; vertical steps split the rest.
    n : int
        Number of steps.
    rng : RngStream or numpy Generator
        Source for the step-type sequence only; orientations come from env.
    """
    _check_p(p)
    if n < 0:
        raise ValueError("step count must be nonnegative")
    dy = sample_lattice(lazy_vertical(p), rng, n)
    y = np.cumsum(dy)
    # a horizontal step stays on its row, so y there is the row it moves along
    x = np.cumsum(np.where(dy == 0, env.orientations(y), 0))
    types = np.where(dy == 0, H, np.where(dy > 0, UP, DOWN)).astype(np.uint8)
    return LatticePath(p=p, x=np.concatenate([[0], x]),
                       y=np.concatenate([[0], y]), step_types=types)


def simulate_annealed(p: float, n: int, master_seed: int) -> LatticePath:
    """Walk n steps in a fresh environment derived from master_seed.

    Environment rows and step types come from independent sub-seeds, so
    averaging over master seeds averages over both sources at once.
    """
    return simulate_quenched(annealed_environment(master_seed), p, n,
                             RngStream(mix64(master_seed, _WALK_TAG), 0))


def annealed_environment(master_seed: int) -> Environment:
    """The environment that simulate_annealed(p, n, master_seed) walks in."""
    return Environment(mix64(master_seed, _ENV_TAG))


def skew_product_path(p: float, n: int, rng) -> LatticePath:
    """Generate the walk by iterating the orientation/step shift map.

    The driving system is the two-sided product of an i.i.d. fair-sign
    sequence (e_k) and an i.i.d. step sequence (w_k) with w = 0 with
    probability p and +-1 otherwise.  One application of the shift
    advances the step sequence by one and slides the sign sequence by
    w_0; reading the increment (e_0, 0) when w_0 = 0 and (0, w_0)
    otherwise reproduces the annealed walk law exactly.

    Concretely, after k iterates the sign sequence has been slid by the
    partial sum of the first k steps, so increment k is e evaluated at
    the walker's current row: the path is the quenched walk in the sign
    field, drawn by the same kernel.  The sign sequence is realized
    lazily through a hashed field split off from ``rng``, which must be
    an RngStream.
    """
    return simulate_quenched(skew_product_environment(rng), p, n, rng)


def skew_product_environment(rng) -> Environment:
    """Orientation field that skew_product_path(p, n, rng) reads from."""
    return Environment(rng.child(_EPS_TAG).master_seed)


# ---------------------------------------------------------------------------
# functionals of a realized path


def _encode_sites(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # bijective for |x| < 2^31 and |y| < 2^31, comfortably above any horizon
    return ((x.astype(np.int64, copy=False) << 32)
            ^ (y.astype(np.int64, copy=False) & 0xFFFFFFFF))


def range_sites(path: LatticePath) -> int:
    """Number of distinct lattice sites visited up to time n (time 0 included)."""
    return int(_row_counts(_encode_sites(path.x, path.y)[None], counts=False)[2][0])


def horizontal_local_time(path: LatticePath) -> HorizontalLocalTime:
    """Count horizontal moves per row over the first n steps."""
    rows = path.y[:-1][path.step_types == H]
    uniq, cnt, *_ = _row_counts(rows[None])
    return HorizontalLocalTime(
        counts={int(r): int(c) for r, c in zip(uniq, cnt)},
        steps=len(path.step_types))


def first_coordinate_decomposition(path: LatticePath, env: Environment) -> int:
    """Recover x_n as the sum over rows of orientation times horizontal count.

    Raises if the path's horizontal moves contradict the environment, in
    which case the pair is inconsistent and the identity meaningless.
    """
    hor = path.step_types == H
    rows = path.y[:-1][hor]
    dirs = np.diff(path.x)[hor]
    if rows.size and (dirs != env.orientations(rows)).any():
        raise ValueError("path and environment disagree on a row direction")
    lt = horizontal_local_time(path)
    return sum(env.orientation(row) * count for row, count in lt.counts.items())


# ---------------------------------------------------------------------------
# vectorized batches (many independent trials at once)


def _batch_endpoints(p: float, n: int, trials: int, base: int, tag: int):
    """Endpoints of trials walks of n steps: the trials of chunk c draw their
    steps from stream (base, c), _BATCH_CHUNK trials at a time, and trial
    i reads its orientation field through the key site_hash(base, i,
    counter=tag)."""
    _check_p(p)
    if n < 0 or trials < 0:
        raise ValueError(f"n and trials must be nonnegative, got {n} and {trials}")
    xs = np.zeros(trials, dtype=np.int64)
    ys = np.zeros(trials, dtype=np.int64)
    if n == 0:  # a walk of no steps ends at the origin
        return xs, ys
    for ids, dy in _row_blocks(lazy_vertical(p), base, trials, n, _BATCH_CHUNK):
        keys = site_hash(base, ids, counter=tag)[:, None]
        y, x = _marked_walk(dy, rademacher(), keys, keys, False)
        xs[ids], ys[ids] = x[:, -1], y[:, -1]
    return xs, ys


def annealed_endpoints(p: float, n: int, trials: int,
                       master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (x_n, y_n) of many independent annealed walks.

    Chunked internally with fixed chunk size, so results depend only on
    (p, n, trials, master_seed).
    """
    return _batch_endpoints(p, n, trials, mix64(master_seed, _BATCH_TAG), _ENV_TAG)


def skew_product_endpoints(p: float, n: int, trials: int,
                           master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of many walks generated through the shift-map construction.

    Each trial realizes its own step sequence and sign field; increment k
    reads the sign field at the accumulated slide, i.e. the current row.
    """
    return _batch_endpoints(p, n, trials,
                            mix64(master_seed, _BATCH_TAG, _EPS_TAG), _EPS_TAG)


def no_return_count(p: float, horizon: int, trials: int, master_seed: int) -> int:
    """Number of trials whose walk avoids the origin at all times 1..horizon.

    laws._no_return_count with the lazy vertical walk reading its row's
    orientation at the holds, a return needing the walker on row 0: the
    same walks annealed_endpoints draws, under the seed
    mix64(master_seed, _BATCH_TAG, horizon).  Every step moves x + y by
    one, so returns are tested at even times only.  Batches of 4,096
    trials or more at horizons up to 1,024 walk their trials side by side,
    a step at a time, until they return; the others walk each row whole.
    """
    _check_p(p)
    return _no_return_count(lazy_vertical(p), rademacher(),
                            mix64(master_seed, _BATCH_TAG, horizon), horizon, trials,
                            (_ENV_TAG,), False, True, True)


# ---------------------------------------------------------------------------
# exact oracles (small horizons)


def _lazy_steps(p: float) -> tuple:
    return ((0, p), (1, (1.0 - p) / 2.0), (-1, (1.0 - p) / 2.0))


@lru_cache(maxsize=64)
def _exact_law_cached(p: float, n: int) -> dict:
    return marked_sum_law(_lazy_steps(p), n, False, ((-1, 0.5), (1, 0.5)))


def exact_annealed_law(p: float, n: int) -> dict:
    """Exact annealed law of (x_n, y_n) as {(x, y): probability}.

    Vertical-move sequences are merged by their per-row visit profile and
    the holds spread over the visits; given each row's hold count, the
    first coordinate is a sum of independent signed counts, one per row.
    """
    _check_p(p)
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(f"exact law limited to horizons 0..{ENUMERATION_CAP}")
    return dict(_exact_law_cached(p, n))


def exact_no_return_probability(p: float, horizon: int) -> float:
    """Exact P(walk avoids the origin at every time 1..horizon).

    The first coordinate is the sum of the row orientations read at the
    holds of the lazy vertical walk, so this is
    enumeration.no_return_probability on that walk, a row's sign revealed
    at its first hold and a return needing the walker on row 0.  Every
    step moves x + y by one, so returns fall at even times and an odd
    horizon gives the value of the even one below it, bit for bit.
    Horizons up to ESCAPE_CAP = 18 take under a second.
    """
    _check_p(p)
    if not 1 <= horizon <= ESCAPE_CAP:
        raise ValueError(f"exact no-return limited to horizons 1..{ESCAPE_CAP}")
    return no_return_probability(_lazy_steps(p), horizon - horizon % 2, False,
                                 ((-1, 0.5), (1, 0.5)), True)


# ---------------------------------------------------------------------------
# range statistics, streamed in column chunks


@dataclass
class WalkSummary:
    """Range statistics accumulated without retaining the whole path.

    first_return is the first time k >= 1 with the walk at the origin,
    0 when it never returns within its steps.
    """

    steps: int
    sites: int
    x_min: int
    x_max: int
    x_final: int
    y_final: int
    first_return: int

    @property
    def returned(self) -> bool:
        return self.first_return > 0

    @property
    def first_range(self) -> int:
        return self.x_max - self.x_min + 1


def annealed_range_stats(p: float, n: int, master_seed: int,
                         chunk: int = _BLOCK_STEPS) -> WalkSummary:
    """Range statistics of the path simulate_annealed walks at the same
    seed, read off chunk steps at a time (the results do not depend on
    chunk), so memory scales with the distinct visited sites rather than
    the horizon."""
    _check_p(p)
    stats = _trial_block(p, n, np.array([int(master_seed) & _M64], dtype=np.uint64),
                         True, chunk)
    return WalkSummary(n, *(int(v[0]) for v in stats))


def _trial_block(p: float, n: int, seeds, sites: bool, chunk: int):
    """annealed_range_stats(p, n, seed) for each seed of the uint64 array
    seeds, as one (trials x n) kernel: one array per WalkSummary field
    after steps, one entry per seed.

    Each walk has its own stream and orientation field, as in
    simulate_annealed, walked by laws._marked_trials.  Counting the sites
    takes a sort of the block (encoded sites are never narrow), so it is
    skipped (sites is None) unless asked for.
    """
    y_end, x_end, x_min, x_max, first_return, seen = _marked_trials(
        lazy_vertical(p), rademacher(), _mix64_vec(seeds, _WALK_TAG),
        _mix64_vec(seeds, _ENV_TAG), n, chunk, False, True,
        (lambda y, x: _encode_sites(x, y),) if sites else (), False)
    # distinct sites per row, plus the origin unless the walk came back
    count = seen[0][2] + (first_return == 0) if sites else None
    return count, x_min, x_max, x_end, y_end, first_return
