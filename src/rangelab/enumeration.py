"""Exact small-horizon laws via dynamic programming over occupation profiles.

Both exact laws in this package reduce to the same computation: a walk
on Z takes i.i.d. integer steps, certain steps mark a site, and the
quantity of interest is a sum over sites of (i.i.d. site value) times
(mark count at the site).  Step sequences are merged breadth-first by
(position, mark profile), and under a symmetric step law also with the
mirror image.  The profiles are then grouped by what the marked sum's
law depends on: the position and the multiset of positive mark counts.
Only one convolution with the site values runs per group (at horizon
12, 510 groups for the oriented walk's 10,474 merged profiles, 20,927
without the mirror).

Probabilities are float64 throughout; the DP performs only additions
and multiplications of nonnegative numbers, so the total mass stays
within a few ulp of 1.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache


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
    mirror = _symmetric(steps)
    states: dict = {(0, 0, ()): 1.0}
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
        states = nxt
    return dict(states)


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


def marked_sum_law(steps, n: int, mark_moves: bool,
                   site_values) -> dict:
    """Joint law of (marked sum, final position) after n steps.

    Returns {(value, position): probability}.
    """
    steps = tuple(steps)
    site_values = tuple(site_values)
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
