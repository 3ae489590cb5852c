"""Exact small-horizon laws and no-return probabilities by dynamic programming.

Both exact laws in this package reduce to the same computation: a walk
on Z takes i.i.d. integer steps, certain steps mark a site, and the
quantity of interest is a sum over sites of (i.i.d. site value) times
(mark count at the site).  Step sequences are merged breadth-first by
(position, mark profile), and under a symmetric step law also with the
mirror image, then grouped by position and the multiset of positive
counts, on which the marked sum's law depends.  When every step marks,
each group convolves the site values once.  When only holds mark, the
profiles are the visits of the walk without its holds, over which each
group spreads the holds (at horizon 12, 194 visit multisets in place of
10,474 merged hold profiles).

The no-return probabilities of both models come from one DP as well,
no_return_probability, over the same walk-and-marks reading: the RWRS
sum marks every step and reveals a site's value at its first visit,
while the oriented walk's first coordinate marks the holds of its lazy
vertical walk, reveals a row's sign at its first hold, and returns only
with the walker back on row 0.  Its states hold the walker's position
when a return needs it, the site values within reach of the walker, and
the marked sum up to sign.

Probabilities are float64 throughout and the DP only adds and multiplies
nonnegative numbers, so the total mass stays within a few ulp of 1.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import lru_cache

import numpy as np


def profile_states(steps: tuple[tuple[int, float], ...], n: int,
                   mark_moves: bool) -> dict:
    """Distribution of (position, lo, counts) after n steps.

    steps        -- ((delta, probability), ...) of one walk step
    mark_moves   -- True marks the arrival site of every step; False
                    marks only holds (delta == 0), which is the lazy
                    walk whose holds carry the horizontal displacement

    counts[i] is the mark count at site lo + i, over the smallest
    interval that holds every marked site; (0, ()) before the first mark.
    Under a symmetric step law a profile and its equally likely mirror
    image (-position, -(lo + len(counts) - 1), counts reversed) merge:
    the smaller of the two is kept with the weight of both.
    """
    return deque(_profile_layers(steps, n, mark_moves), maxlen=1).pop()


def _profile_layers(steps, n: int, mark_moves: bool):
    """Yield profile_states(steps, k, mark_moves) for k = 0..n in one pass."""
    mirror = _symmetric(steps)
    states: dict = {(0, 0, ()): 1.0}
    yield states
    for _ in range(n):
        nxt: dict = defaultdict(float)
        for (pos, lo, counts), w in states.items():
            for delta, q in steps:
                site = pos + delta
                lo2, c2 = (_mark(lo, counts, site) if mark_moves or delta == 0
                           else (lo, counts))
                state = (site, lo2, c2)
                if mirror:
                    state = min(state, (-site, 1 - lo2 - len(c2) if c2 else 0, c2[::-1]))
                nxt[state] += w * q
        states = dict(nxt)
        yield states


def _symmetric(steps) -> bool:
    return dict(steps) == {-d: q for d, q in steps}


def _mark(lo: int, counts: tuple, site: int) -> tuple:
    """(lo, counts) with one more mark at site."""
    i = site - lo
    if not counts:
        return site, (1,)
    if i < 0:
        return site, (1,) + (0,) * (-1 - i) + counts
    if i >= len(counts):
        return lo, counts + (0,) * (i - len(counts)) + (1,)
    return lo, counts[:i] + (counts[i] + 1,) + counts[i + 1:]


def value_distribution(counts: tuple[int, ...],
                       site_values: tuple[tuple[int, float], ...]) -> dict:
    """Law of sum over sites of (value at site) * count, values i.i.d.

    counts must be sorted so equal multisets share a cache entry.
    """
    return _value_distribution_cached(counts, site_values)


@lru_cache(maxsize=200_000)
def _value_distribution_cached(counts, site_values):
    dist = {0: 1.0}
    for c in counts:
        nxt: dict = defaultdict(float)
        for total, w in dist.items():
            for v, q in site_values:
                nxt[total + v * c] += w * q
        dist = dict(nxt)
    return dist


def marked_sum_law(steps, n: int, mark_moves: bool, site_values) -> dict:
    """Joint law of (marked sum, final position) after n steps.

    Returns {(value, position): probability}.
    """
    steps, site_values = tuple(steps), tuple(site_values)
    if not mark_moves:
        return _hold_law(steps, n, site_values)
    # a merged mirror pair's weight splits evenly between the two
    # positions: the marked sum's law depends on the multiset of counts only
    signs = (1, -1) if _symmetric(steps) else (1,)
    keys: dict = {}
    groups: dict = defaultdict(float)
    for (pos, _, counts), w in profile_states(steps, n, mark_moves).items():
        key = keys.get(counts)
        if key is None:
            key = keys[counts] = tuple(sorted(c for c in counts if c))
        for sign in signs:
            groups[(sign * pos, key)] += w / len(signs)
    out: dict = defaultdict(float)
    for (pos, counts), w in groups.items():
        for val, q in value_distribution(counts, site_values).items():
            out[(val, pos)] += w * q
    return dict(out)


def no_return_probability(steps, horizon: int, mark_moves: bool, site_values,
                          at_origin: bool) -> float:
    """P(the marked sum avoids 0 at every time 1..horizon).

    With at_origin a return also needs the walker back at position 0.
    Steps must lie in {-1, 0, 1} and the site-value law be symmetric.

    Breadth-first DP over states (y, vals, z): the walker's position y
    (kept only with at_origin), the site values vals on the sites within
    reach of the walker, None until the site's first mark reveals it,
    and the marked sum z.  After each step the window is re-sliced around
    the new position to the steps left, so out-of-reach sites drop out.
    Under the symmetric site law (y, -vals, -z) weighs as much as
    (y, vals, z), so only z >= 0 is kept.  A state that returns drops
    out; one with |z| + |y| above the steps left times the largest site
    value cannot return, so its weight counts at once.
    """
    steps, site_values = tuple(steps), tuple(site_values)
    if any(abs(d) > 1 for d, _ in steps) or not _symmetric(site_values):
        raise ValueError("steps must lie in {-1, 0, 1} and the site values "
                         "must be symmetric")
    top = max(abs(v) for v, _ in site_values)
    total = 0.0
    states = {(0, (None,) * (2 * horizon + 1), 0): 1.0}
    for left in range(horizon - 1, -1, -1):
        nxt: dict = defaultdict(float)
        for (y, vals, z), w in states.items():
            for d, q in steps:
                y2 = y + d if at_origin else 0
                window = vals[d + 1:d + 2 * left + 2]  # window[left] is the new site
                if not (mark_moves or d == 0):
                    moves = ((window, z, w * q),)
                elif window[left] is not None:
                    moves = ((window, z + window[left], w * q),)
                else:
                    moves = [(window[:left] + (v,) + window[left + 1:], z + v,
                              w * (q * qv)) for v, qv in site_values]
                for vs, z2, w2 in moves:
                    if abs(z2) + abs(y2) > left * top:
                        total += w2
                    elif z2 < 0:
                        nxt[(y2, tuple(v if v is None else -v for v in vs), -z2)] += w2
                    elif z2 or y2:  # else the walk has returned
                        nxt[(y2, vs, z2)] += w2
        states = nxt
    return total + sum(states.values())  # states is empty unless horizon is 0


def _hold_law(steps, n: int, site_values) -> dict:
    """marked_sum_law when only holds mark: n - V holds spread over the
    V + 1 visits (time 0 and after each move) of a V-move skeleton.

    Skeletons group by position and sorted visit counts; a group's law is
    a product over rows, kept as a table with one axis per site value:
    [i_1, .., i_k] weighs the ways i_a holds fall on rows of value a.  A
    visit takes any number of holds (L, the lower triangle of ones), so a
    row visited l times applies L^l along each value's axis, weighted by
    its probability.  Tables are built prefix by prefix, once per call.
    """
    hold = sum(q for d, q in steps if d == 0)
    moves = tuple((d, q) for d, q in steps if d)
    k = len(site_values)
    values = [v for v, _ in site_values]
    reach = n * max((abs(d) for d, _ in moves), default=0)
    top = n * max(map(abs, values))
    upper = np.triu(np.ones((n + 1, n + 1)))  # L transposed: acts on the last axis
    powers = {l: np.linalg.matrix_power(upper, l) for l in range(1, n + 2)}
    tables = {(): np.pad(np.ones((1,) * k), (0, n))}
    idx = np.indices((n + 1,) * k).reshape(k, -1)
    onto = (np.array(values) @ idx + top)[:, None] == np.arange(2 * top + 1)
    law = np.zeros((2 * reach + 1, 2 * top + 1))
    for holds, layer in zip(range(n, -1, -1), _profile_layers(moves, n, True)):
        weights: dict = defaultdict(lambda: [0.0] * (2 * reach + 1))
        for (pos, lo, counts), w in layer.items():
            visits = _mark(lo, counts, 0)[1]
            weights[tuple(sorted(c for c in visits if c))][reach + pos] += w
        for visits in weights:
            for j in range(len(visits)):
                if visits[:j + 1] not in tables:
                    a, u = tables[visits[:j]], powers[visits[j]]
                    tables[visits[:j + 1]] = sum(
                        q * np.swapaxes(np.swapaxes(a, i, -1) @ u, i, -1)
                        for i, (_, q) in enumerate(site_values))
        on = idx.sum(axis=0) == holds
        spread = np.array([tables[visits].reshape(-1)[on] for visits in weights])
        law += hold ** holds * (np.array([*weights.values()]).T @ (spread @ onto[on]))
    if _symmetric(moves):  # a merged mirror pair splits evenly between ±position
        law = (law + law[::-1]) / 2
    return {(x - top, pos - reach): float(w)
            for (pos, x), w in np.ndenumerate(law) if w}
