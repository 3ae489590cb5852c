"""Discretized scaling limits: stable paths and the local-time integral
against an independent stable field.

The limiting object for the scenery-walk sum is

    Delta_t = integral of L_t(x) dU(x),

with Y a stable process of index alpha > 1 (the walk limit), L its local
time, and U a two-sided stable process of index beta (the scenery
limit).  On a mesh of m time steps and space cells of width h this
becomes a single pass: cell increments dU are i.i.d. h^(1/beta) stable
draws attached to the occupied cells, and

    Delta(j/m) = (1/(m h)) * sum over i <= j of dU(cell(Y_i)),

which is exactly sum over cells of (occupation density) * dU.  The
occupation counts stay inside the sampler: the module hands out the
path Delta and its sup, inf and spread.  The first coordinate of the
oriented-lattice walk converges, after n^(3/4) scaling, to this object
built from two standard Brownian motions and multiplied by
p / (1-p)^(1/4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laws import StableLaw, _row_counts, sample_stable
from .rng import as_generator


@dataclass(frozen=True)
class PathFunctionals:
    """Supremum, infimum and spread of a path started at 0."""

    sup: float
    inf: float
    spread: float


def path_functionals(values) -> PathFunctionals:
    """Sup, inf and spread of a discretized path; the path must start at 0
    so that sup >= 0 >= inf."""
    values = np.asarray(values, dtype=float)
    if values.size == 0 or values[0] != 0.0:
        raise ValueError("path must start at 0")
    hi = float(values.max())
    lo = float(values.min())
    return PathFunctionals(sup=hi, inf=lo, spread=hi - lo)


def first_coordinate_scale(p: float) -> float:
    """Constant p / (1-p)^(1/4) linking the oriented walk to the limit."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    return p / (1.0 - p) ** 0.25


def sample_stable_path(law: StableLaw, m: int, rng) -> np.ndarray:
    """Path Y(j/m), j = 0..m, with exact stable marginals.

    Increments are i.i.d. m^(-1/index) copies of the law, so Y(1) has
    the law itself, not an approximation of it.
    """
    if m < 1:
        raise ValueError("mesh must have at least one step")
    inc = sample_stable(law, rng, size=m)
    inc *= float(m) ** (-1.0 / law.index)
    path = np.zeros(m + 1)
    np.cumsum(inc, out=path[1:])
    return path


def _draw_components(walk_law: StableLaw, scenery_law: StableLaw,
                     m: int, h: float, gen):
    """Stable path, the local times of its cells, and dU per occupied cell.

    The local times are laws._row_counts of the cell sequence: the
    sorted occupied cells, their visit counts and each step's index into
    them.  The field draws attach to the sorted cells, one h^(1/beta)
    stable variate each; drawing them after the path keeps both pieces
    independent and the whole sample a deterministic function of the
    stream, however many draws the path took.
    """
    if walk_law.index <= 1.0:
        raise ValueError("the walk limit must have index above 1 "
                         "(otherwise its local time degenerates)")
    if h <= 0.0:
        raise ValueError("cell width must be positive")
    y = sample_stable_path(walk_law, m, gen)
    # cell index of each step j = 1..m; time 0 is not counted, matching
    # the local-time convention of the lattice walks
    cells, counts, _, inv = _row_counts(np.floor(y[None, 1:] / h).astype(np.int64),
                                        inverse=True)
    du = sample_stable(scenery_law, gen, size=cells.size) \
        * h ** (1.0 / scenery_law.index)
    return y, (cells, counts, inv[0]), du


def sample_scenery_integral(walk_law: StableLaw, scenery_law: StableLaw,
                            m: int, h: float, rng) -> np.ndarray:
    """One sample path of the local-time integral Delta on the mesh: each
    step j adds its cell's dU draw, scaled by 1/(mh).

    One field draw serves every time point, which is what ties the
    values at different t to the same realization.
    """
    _, (_, _, inv), du = _draw_components(walk_law, scenery_law, m, h,
                                          as_generator(rng))
    return np.concatenate([[0.0], np.cumsum(du[inv])]) / (m * h)
