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
off one increment per iterate.  Both routes must agree in law with the
exact enumeration oracle, which is the strongest correctness check in
the test suite.

Horizons up to 14 admit exact computation by merging step sequences
that share the same per-row displacement profile; see enumeration.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .enumeration import marked_sum_law, profile_states, value_distribution
from .laws import (_distinct, _local_times, _merge_distinct, lattice_at_sites,
                   lazy_vertical, rademacher, sample_lattice)
from .rng import RngStream, _finalize_vec, as_generator, derive_stream, mix64, site_hash

H, UP, DOWN = 0, 1, 2  # step-type codes: horizontal, vertical up, vertical down

ENUMERATION_CAP = 14

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
        uniq, _, inv = _local_times(rows)
        vals = lattice_at_sites(rademacher(), self.master_seed, uniq)
        if self.overrides:
            hit = np.isin(uniq, np.fromiter(self.overrides, dtype=np.int64,
                                            count=len(self.overrides)))
            if hit.any():
                vals[hit] = [self.overrides[int(r)] for r in uniq[hit]]
        return vals[inv].reshape(np.shape(rows))


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

    def positions(self) -> list[tuple[int, int]]:
        return list(zip(self.x.tolist(), self.y.tolist()))


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
    gen = as_generator(rng)
    u = gen.random(n)
    horizontal = u < p
    up = ~horizontal & (u < p + (1.0 - p) / 2.0)
    dy = up.astype(np.int64) - (~horizontal & ~up).astype(np.int64)
    y = np.concatenate([[0], np.cumsum(dy)])
    rows = y[:-1]  # row occupied while each step is taken
    dx = np.where(horizontal, env.orientations(rows), 0)
    x = np.concatenate([[0], np.cumsum(dx)])
    types = np.where(horizontal, H, np.where(dy > 0, UP, DOWN)).astype(np.uint8)
    return LatticePath(p=p, x=x, y=y, step_types=types)


def simulate_annealed(p: float, n: int, master_seed: int) -> LatticePath:
    """Walk n steps in a fresh environment derived from master_seed.

    Environment rows and step types come from independent sub-seeds, so
    averaging over master seeds averages over both sources at once.
    """
    env = Environment(mix64(master_seed, _ENV_TAG))
    rng = RngStream(mix64(master_seed, _WALK_TAG), 0)
    return simulate_quenched(env, p, n, rng)


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
    the walker's current row.  The sign sequence is realized lazily
    through a hashed field split off from ``rng``.
    """
    _check_p(p)
    if n < 0:
        raise ValueError("step count must be nonnegative")
    omega = sample_lattice(lazy_vertical(p), rng, size=n)
    y = np.concatenate([[0], np.cumsum(omega)])
    shifts = y[:-1]  # accumulated slide of the sign sequence before step k
    signs = skew_product_environment(rng).orientations(shifts)
    dx = np.where(omega == 0, signs, 0)
    x = np.concatenate([[0], np.cumsum(dx)])
    types = np.where(omega == 0, H, np.where(omega > 0, UP, DOWN)).astype(np.uint8)
    return LatticePath(p=p, x=x, y=y, step_types=types)


def skew_product_environment(rng) -> Environment:
    """Orientation field that skew_product_path(p, n, rng) reads from."""
    return Environment(rng.child(_EPS_TAG).master_seed)


def validate_path(path: LatticePath, env: Environment | None = None) -> None:
    """Raise if the path violates the walk's structural constraints.

    Checks unit steps, the match between step types and displacements,
    and that horizontal moves on one row all share a single direction;
    with an environment, that the direction is the environment's.
    """
    x, y, types = path.x, path.y, path.step_types
    n = len(types)
    if len(x) != n + 1 or len(y) != n + 1 or x[0] != 0 or y[0] != 0:
        raise ValueError("path must start at the origin with n+1 positions")
    dx = np.diff(x)
    dy = np.diff(y)
    hor = types == H
    if not ((np.abs(dx[hor]) == 1).all() and (dy[hor] == 0).all()):
        raise ValueError("horizontal steps must move x by one and hold y")
    if not ((dx[~hor] == 0).all()
            and (dy[types == UP] == 1).all() and (dy[types == DOWN] == -1).all()):
        raise ValueError("vertical steps must move y by one and hold x")
    uniq, cnt, inv = _local_times(y[:-1][hor])
    rightward = np.bincount(inv[dx[hor] > 0], minlength=uniq.size)
    mixed = (rightward > 0) & (rightward < cnt)
    bad = mixed
    if env is not None:
        bad = mixed | (np.where(rightward > 0, 1, -1) != env.orientations(uniq))
    if bad.any():  # report the lowest offending row, mixed directions first
        i = int(np.argmax(bad))
        if mixed[i]:
            raise ValueError(f"row {uniq[i]} was crossed in both directions")
        raise ValueError(f"row {uniq[i]} direction contradicts the environment")


# ---------------------------------------------------------------------------
# functionals of a realized path


def _encode_sites(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # bijective for |x| < 2^31 and |y| < 2^31, comfortably above any horizon
    return (x.astype(np.int64) << 32) ^ (y.astype(np.int64) & 0xFFFFFFFF)


def range_sites(path: LatticePath) -> int:
    """Number of distinct lattice sites visited up to time n (time 0 included)."""
    return int(_distinct(_encode_sites(path.x, path.y)).size)


def range_first_coordinate(path: LatticePath) -> int:
    """Number of distinct x-values visited; equals max - min + 1 because the
    first coordinate moves by steps in {-1, 0, 1}."""
    return int(path.x.max() - path.x.min() + 1)


def first_coordinate_spread(path: LatticePath) -> int:
    """max - min of the first coordinate, the quantity with a scaling limit."""
    return int(path.x.max() - path.x.min())


def horizontal_local_time(path: LatticePath) -> HorizontalLocalTime:
    """Count horizontal moves per row over the first n steps."""
    rows = path.y[:-1][path.step_types == H]
    uniq, cnt, _ = _local_times(rows)
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


def _batch_steps(gen, m: int, n: int, p: float):
    u = gen.random((m, n))
    horizontal = u < p
    up = ~horizontal & (u < p + (1.0 - p) / 2.0)
    dy = up.astype(np.int64) - (~horizontal & ~up).astype(np.int64)
    y = np.cumsum(dy, axis=1)
    rows = np.concatenate([np.zeros((m, 1), dtype=np.int64), y[:, :-1]], axis=1)
    return horizontal, y, rows


def _batch_orientations(env_keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # one finalizer round over (per-trial key) xor (row): an independent
    # +-1 field per trial, constant per row within a trial
    h = _finalize_vec(env_keys[:, None] ^ rows.astype(np.uint64))
    return np.where((h >> np.uint64(63)).astype(bool), 1, -1)


def annealed_endpoints(p: float, n: int, trials: int,
                       master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (x_n, y_n) of many independent annealed walks.

    Chunked internally with fixed chunk size, so results depend only on
    (p, n, trials, master_seed).
    """
    _check_p(p)
    xs = np.empty(trials, dtype=np.int64)
    ys = np.empty(trials, dtype=np.int64)
    base = mix64(master_seed, _BATCH_TAG)
    for c0 in range(0, trials, _BATCH_CHUNK):
        m = min(_BATCH_CHUNK, trials - c0)
        gen = derive_stream(base, c0 // _BATCH_CHUNK).generator()
        horizontal, y, rows = _batch_steps(gen, m, n, p)
        env_keys = site_hash(base, np.arange(c0, c0 + m), counter=_ENV_TAG)
        eps = _batch_orientations(env_keys, rows)
        xs[c0:c0 + m] = np.where(horizontal, eps, 0).sum(axis=1)
        ys[c0:c0 + m] = y[:, -1]
    return xs, ys


def skew_product_endpoints(p: float, n: int, trials: int,
                           master_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of many walks generated through the shift-map construction.

    Each trial realizes its own step sequence and sign field; increment k
    reads the sign field at the accumulated slide, i.e. the current row.
    """
    _check_p(p)
    xs = np.empty(trials, dtype=np.int64)
    ys = np.empty(trials, dtype=np.int64)
    base = mix64(master_seed, _BATCH_TAG, _EPS_TAG)
    law = lazy_vertical(p)
    for c0 in range(0, trials, _BATCH_CHUNK):
        m = min(_BATCH_CHUNK, trials - c0)
        gen = derive_stream(base, c0 // _BATCH_CHUNK).generator()
        omega = sample_lattice(law, gen, size=m * n).reshape(m, n)
        y = np.cumsum(omega, axis=1)
        shifts = np.concatenate([np.zeros((m, 1), dtype=np.int64), y[:, :-1]], axis=1)
        sign_keys = site_hash(base, np.arange(c0, c0 + m), counter=_EPS_TAG)
        signs = _batch_orientations(sign_keys, shifts)
        xs[c0:c0 + m] = np.where(omega == 0, signs, 0).sum(axis=1)
        ys[c0:c0 + m] = y[:, -1]
    return xs, ys


def no_return_count(p: float, horizon: int, trials: int, master_seed: int) -> int:
    """Number of trials whose walk avoids the origin at all times 1..horizon."""
    _check_p(p)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    survivors = 0
    base = mix64(master_seed, _BATCH_TAG, horizon)
    rows_per_chunk = max(1, (1 << 22) // horizon)
    for c0 in range(0, trials, rows_per_chunk):
        m = min(rows_per_chunk, trials - c0)
        gen = derive_stream(base, c0 // rows_per_chunk).generator()
        horizontal, y, rows = _batch_steps(gen, m, horizon, p)
        env_keys = site_hash(base, np.arange(c0, c0 + m), counter=_ENV_TAG)
        eps = _batch_orientations(env_keys, rows)
        x = np.cumsum(np.where(horizontal, eps, 0), axis=1)
        hit = ((x == 0) & (y == 0)).any(axis=1)
        survivors += int((~hit).sum())
    return survivors


# ---------------------------------------------------------------------------
# exact oracles (small horizons)


def _lazy_steps(p: float) -> tuple:
    return ((0, p), (1, (1.0 - p) / 2.0), (-1, (1.0 - p) / 2.0))


@lru_cache(maxsize=64)
def _exact_law_cached(p: float, n: int) -> dict:
    signs = ((-1, 0.5), (1, 0.5))
    return {(x, y): w
            for (x, y), w in marked_sum_law(_lazy_steps(p), n, False, signs).items()}


def exact_annealed_law(p: float, n: int) -> dict:
    """Exact annealed law of (x_n, y_n) as {(x, y): probability}.

    Step sequences are merged by their per-row horizontal-move profile;
    conditionally on the profile the endpoint's first coordinate is a
    sum of independent signed counts, one per visited row.
    """
    _check_p(p)
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(f"exact law limited to horizons 0..{ENUMERATION_CAP}")
    return dict(_exact_law_cached(p, n))


def exact_return_probability(p: float, n: int) -> float:
    """Exact P(walk sits at the origin at time n); zero for odd n by parity."""
    _check_p(p)
    if not 0 <= n <= ENUMERATION_CAP:
        raise ValueError(f"exact law limited to horizons 0..{ENUMERATION_CAP}")
    total = 0.0
    for (ypos, prof), w in profile_states(_lazy_steps(p), n, False).items():
        if ypos != 0:
            continue
        counts = tuple(sorted(c for _, c in prof))
        total += w * value_distribution(counts, ((-1, 0.5), (1, 0.5))).get(0, 0.0)
    return total


def exact_no_return_probability(p: float, horizon: int) -> float:
    """Exact P(walk avoids the origin at every time 1..horizon).

    Depth-first search over step-type sequences, carrying the set of row
    orientation assignments that keep every origin-row visit away from
    x = 0.  Assignments are encoded as sign bitmasks over the rows that
    have taken a horizontal step, with the current first coordinate
    maintained incrementally per assignment.  Subtrees whose assignment
    set empties are pruned: every orientation choice there has already
    returned.  Work grows like 3^horizon; horizons up to 12 run in
    seconds, the cap of 14 in minutes.
    """
    _check_p(p)
    if not 1 <= horizon <= ENUMERATION_CAP:
        raise ValueError(f"exact no-return limited to horizons 1..{ENUMERATION_CAP}")
    ph = p
    pv = (1.0 - p) / 2.0
    total = 0.0

    def descend(k, y, active, masks, xs, w):
        nonlocal total
        if k == horizon:
            total += w * len(masks) * 2.0 ** (-len(active))
            return
        # horizontal step on the current row
        i = active.get(y)
        if i is None:
            bit = 1 << len(active)
            nm = [m | b for m in masks for b in (bit, 0)]
            nx = [v + d for v in xs for d in (1, -1)]
            act = {**active, y: len(active)}
        else:
            nm = masks
            nx = [v + 1 if (m >> i) & 1 else v - 1 for m, v in zip(masks, xs)]
            act = active
        if y == 0:
            kept = [(m, v) for m, v in zip(nm, nx) if v != 0]
            if kept:
                nm = [m for m, _ in kept]
                nx = [v for _, v in kept]
            else:
                nm = []
        if nm:
            descend(k + 1, y, act, nm, nx, w * ph)
        # vertical steps
        for dy in (1, -1):
            y2 = y + dy
            if y2 != 0:
                descend(k + 1, y2, active, masks, xs, w * pv)
            else:
                kept = [(m, v) for m, v in zip(masks, xs) if v != 0]
                if kept:
                    descend(k + 1, 0, active,
                            [m for m, _ in kept], [v for _, v in kept], w * pv)

    descend(0, 0, {}, [0], [0], 1.0)
    return total


# ---------------------------------------------------------------------------
# streaming statistics (constant memory in the horizon)


@dataclass
class WalkSummary:
    """Range statistics accumulated without retaining the whole path."""

    steps: int
    sites: int
    x_min: int
    x_max: int
    x_final: int
    y_final: int
    returned: bool

    @property
    def first_range(self) -> int:
        return self.x_max - self.x_min + 1


def annealed_range_stats(p: float, n: int, master_seed: int,
                         chunk: int = 1 << 20) -> WalkSummary:
    """Range statistics of an annealed walk, chunked so memory scales with
    the number of distinct visited sites rather than the horizon.

    Draws the same step sequence as simulate_annealed at the same seed,
    so for n within one chunk the two routes agree path by path.
    """
    _check_p(p)
    env = Environment(mix64(master_seed, _ENV_TAG))
    gen = RngStream(mix64(master_seed, _WALK_TAG), 0).generator()
    visited = _encode_sites(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64))
    x0 = y0 = 0
    x_min = x_max = 0
    returned = False
    done = 0
    while done < n:
        m = min(chunk, n - done)
        u = gen.random(m)
        horizontal = u < p
        up = ~horizontal & (u < p + (1.0 - p) / 2.0)
        dy = up.astype(np.int64) - (~horizontal & ~up).astype(np.int64)
        y = y0 + np.cumsum(dy)
        rows = np.concatenate([[y0], y[:-1]])
        dx = np.where(horizontal, env.orientations(rows), 0)
        x = x0 + np.cumsum(dx)
        visited = _merge_distinct(visited, _distinct(_encode_sites(x, y)))
        returned = returned or bool(((x == 0) & (y == 0)).any())
        x_min = min(x_min, int(x.min()))
        x_max = max(x_max, int(x.max()))
        x0, y0 = int(x[-1]), int(y[-1])
        done += m
    return WalkSummary(steps=n, sites=int(visited.size), x_min=x_min,
                       x_max=x_max, x_final=x0, y_final=y0, returned=returned)
