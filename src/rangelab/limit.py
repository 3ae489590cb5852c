"""Discretized scaling limits: stable paths, their local times, and the
local-time integral against an independent stable field.

The limiting object for the scenery-walk sum is

    Delta_t = integral of L_t(x) dU(x),

with Y a stable process of index alpha > 1 (the walk limit), L its local
time, and U a two-sided stable process of index beta (the scenery
limit).  On a mesh of m time steps and space cells of width h this
becomes a single pass: cell increments dU are i.i.d. h^(1/beta) stable
draws attached to the occupied cells, and

    Delta(j/m) = (1/(m h)) * sum over i <= j of dU(cell(Y_i)),

which is exactly sum over cells of (occupation density) * dU.  The
first coordinate of the oriented-lattice walk converges, after n^(3/4)
scaling, to this object built from two standard Brownian motions and
multiplied by p / (1-p)^(1/4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laws import StableLaw, _local_times, sample_stable
from .rng import as_generator


@dataclass(frozen=True)
class PathFunctionals:
    """Supremum, infimum and spread of a path started at 0."""

    sup: float
    inf: float
    spread: float


@dataclass
class LimitGrid:
    """One discretized limit sample: mesh, stable path, local time, field.

    time_mesh holds the m+1 grid times j/m; space_mesh is the cell width
    h (cell c covers [c*h, (c+1)*h)); local_time maps occupied cells to
    density estimates at t = 1; u_increments maps the same cells to
    their dU draws.
    """

    time_mesh: np.ndarray
    space_mesh: float
    y_path: np.ndarray
    local_time: dict
    u_increments: dict


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
    gen = as_generator(rng)
    inc = sample_stable(law, gen, size=m) * float(m) ** (-1.0 / law.index)
    return np.concatenate([[0.0], np.cumsum(inc)])


def _occupied_cells(y_path: np.ndarray, h: float) -> np.ndarray:
    # cell index of each step j = 1..m; time 0 is not counted, matching
    # the local-time convention of the lattice walks
    return np.floor(y_path[1:] / h).astype(np.int64)


def estimate_local_time(y_path: np.ndarray, h: float, t: float,
                        index: float) -> dict:
    """Occupation-density estimate per cell at time t.

    L_t(cell) is approximated by #{j <= t*m : Y(j/m) in cell} / (m*h).
    Only indices above 1 admit a local time; the index of the law that
    generated the path must be passed explicitly because the path alone
    does not carry it.
    """
    if index <= 1.0:
        raise ValueError("local time requires a stability index above 1")
    if h <= 0.0:
        raise ValueError("cell width must be positive")
    if not 0.0 < t <= 1.0:
        raise ValueError("time must lie in (0, 1]")
    m = len(y_path) - 1
    j_max = int(np.floor(t * m))
    cells = _occupied_cells(y_path, h)[:j_max]
    uniq, cnt, _ = _local_times(cells)
    scale = 1.0 / (m * h)
    return {int(c): float(k) * scale for c, k in zip(uniq, cnt)}


def _draw_components(walk_law: StableLaw, scenery_law: StableLaw,
                     m: int, h: float, gen):
    """Stable path, the local times of its cells, and dU per occupied cell.

    The local times are _local_times of the cell sequence: the sorted
    occupied cells, their visit counts and each step's index into them.
    The field draws attach to the sorted cells, one h^(1/beta) stable
    variate each; drawing them after the path keeps both pieces
    independent and the whole sample a deterministic function of the
    stream.
    """
    if walk_law.index <= 1.0:
        raise ValueError("the walk limit must have index above 1 "
                         "(otherwise its local time degenerates)")
    if h <= 0.0:
        raise ValueError("cell width must be positive")
    y = sample_stable_path(walk_law, m, gen)
    local = _local_times(_occupied_cells(y, h))
    du = sample_stable(scenery_law, gen, size=local[0].size) \
        * h ** (1.0 / scenery_law.index)
    return y, local, du


def _cumulate(values: np.ndarray, m: int, h: float, t_grid) -> np.ndarray:
    # (1/(mh)) * running sum of the per-step dU, on 0..m or at floor(t*m)
    path = np.concatenate([[0.0], np.cumsum(values)]) / (m * h)
    if t_grid is None:
        return path
    t = np.asarray(t_grid, dtype=float)
    if ((t < 0.0) | (t > 1.0)).any():
        raise ValueError("times must lie in [0, 1]")
    return path[np.floor(t * m).astype(np.int64)]


def integrate_field(cells: np.ndarray, field, m: int, h: float,
                    t_grid=None) -> np.ndarray:
    """Accumulate (1/(mh)) * dU(cell(Y_j)) into the limit path.

    field is (occupied cells sorted, dU per cell).  With t_grid None the
    full path on 0..m is returned; otherwise values at floor(t*m).
    """
    uniq, du = field
    idx = np.searchsorted(uniq, cells)
    if (idx >= uniq.size).any() or (uniq[idx] != cells).any():
        raise ValueError("a visited cell is missing from the field")
    return _cumulate(du[idx], m, h, t_grid)


def sample_scenery_integral(walk_law: StableLaw, scenery_law: StableLaw,
                            m: int, h: float, rng,
                            t_grid=None) -> np.ndarray:
    """One sample path of the local-time integral Delta on the mesh, as
    integrate_field gives it on the sampled cells and field.

    One field draw serves every time point, which is what ties the
    values at different t to the same realization.
    """
    _, (_, _, inv), du = _draw_components(walk_law, scenery_law, m, h,
                                          as_generator(rng))
    return _cumulate(du[inv], m, h, t_grid)


def build_limit_grid(walk_law: StableLaw, scenery_law: StableLaw,
                     m: int, h: float, rng) -> LimitGrid:
    """Assemble the full discretized sample for inspection and checks.

    Uses the same draw order as sample_scenery_integral, so the same
    stream yields the grid behind the same integral sample.
    """
    y, (uniq, cnt, _), du = _draw_components(walk_law, scenery_law, m, h,
                                             as_generator(rng))
    scale = 1.0 / (m * h)
    return LimitGrid(
        time_mesh=np.arange(m + 1) / m,
        space_mesh=h,
        y_path=y,
        local_time={int(c): float(k) * scale for c, k in zip(uniq, cnt)},
        u_increments={int(c): float(v) for c, v in zip(uniq, du)})
