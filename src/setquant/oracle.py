"""Brute-force ground truth on a fixed lattice, for benchmarking the samplers.

The oracle tiles the domain at resolution delta and iteratively removes any
cell from which some sampled action leads to a removed cell or out an unsafe
facet.  The surviving fixed point over-approximates nothing the dynamics can
escape under the sampled actions, up to the lattice resolution, and is fully
deterministic — sweeps are synchronous, so worker count or sweep order cannot
change the result.

``horizon`` controls how far each cell test rolls the dynamics before
snapping back to the lattice.  The default of 1 is the literal cell-to-cell
map; systems whose per-step displacement is small relative to delta need a
horizon on the order of their settling time, otherwise sub-cell motion rounds
to "stays put" and the fixed point is meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LATTICE_TOL, DeltaCover, _lattices, build_cover, compare_grids
from .scenario import ScenarioSystem, default_action_samples, run_held

__all__ = [
    "OracleSet",
    "brute_force_invariant",
    "compare_sets",
    "project_to_grid",
    "cell_volumes",
]


def cell_volumes(grid: DeltaCover) -> np.ndarray:
    """Per-cell volume, clipped to the grid domain (handles clamped edge rows)."""
    lo = np.maximum(grid.centers - grid.radius, grid.domain.lower)
    hi = np.minimum(grid.centers + grid.radius, grid.domain.upper)
    return np.prod(np.maximum(hi - lo, 0.0), axis=1)


@dataclass
class OracleSet:
    """A membership mask over a full lattice grid."""

    grid: DeltaCover
    mask: np.ndarray
    converged: bool = True
    sweeps: int = 0

    def count(self) -> int:
        return int(self.mask.sum())

    def volume(self) -> float:
        return float(cell_volumes(self.grid)[self.mask].sum())


# (cell, action, disturbance) rows rolled out together.
_ROLLOUT_ROWS = 1 << 14


def _nearest_all(grid: DeltaCover, points) -> np.ndarray:
    """Nearest lattice cell of each row of ``points`` over *all* cells, active or not (lowest index on ties).

    ``grid`` is one ``build_cover`` lattice, the product of one ascending
    coordinate list per axis with the last axis fastest, so the search runs
    per axis.  A cell's sup-norm distance is its largest per-axis gap; the
    smallest distance D is the largest over the axes of each axis's smallest
    gap, and the lowest cell at D takes on every axis the lowest coordinate
    within D.  Raises ``ValueError`` for a grid that is no such lattice.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo, hi = grid.domain.lower[None], grid.domain.upper[None]
    axes = [_lattices(lo[:, [a]], hi[:, [a]], grid.radius)[:, 0] for a in range(grid.dim)]
    if math.prod(c.size for c in axes) != len(grid):
        raise ValueError("the grid is not one build_cover lattice")
    best = np.zeros(pts.shape[0])
    for c, x in zip(axes, pts.T):  # an axis's smallest gap is at a neighbour of the insertion point
        j = np.searchsorted(c, x)
        best = np.maximum(best, np.abs(c[np.clip([j - 1, j], 0, c.size - 1)] - x).min(axis=0))
    out = np.zeros(pts.shape[0], dtype=np.int64)
    for c, x in zip(axes, pts.T):
        k = np.minimum(np.searchsorted(c, x - best), c.size - 1)  # off by one at most: x - best is rounded
        k -= (k > 0) & (np.abs(c[np.maximum(k - 1, 0)] - x) <= best)
        k += np.abs(c[k] - x) > best
        out = out * c.size + k
    return out


def _final_cells(sys: ScenarioSystem, grid: DeltaCover, pairs: list, horizon: int):
    """Where each cell's held-input rollouts end.

    Returns ``(dest, doomed)``: ``dest[i, j]`` is the lattice cell nearest the
    final state of the ``horizon``-step rollout from center ``i`` under pair
    ``j``, and ``doomed[i]`` whether one of the cell's rollouts crossed an
    unsafe facet (its ``dest`` entry is then meaningless).  The rollouts do
    not depend on which cells are alive, so one pass serves every sweep.
    """
    m, p = len(grid), len(pairs)
    dest = np.zeros((m, p), dtype=np.int64)
    doomed = np.zeros(m, dtype=bool)
    if p == 0:
        return dest, doomed
    u = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in pairs])
    w = np.array([np.asarray(o, dtype=float) for _, o in pairs]).reshape(p, -1)
    per = max(1, _ROLLOUT_ROWS // p)
    for lo in range(0, m, per):
        x = np.repeat(grid.centers[lo:lo + per], p, axis=0)
        cells = x.shape[0] // p
        live, final = run_held(sys, x, np.tile(u, (cells, 1)), np.tile(w, (cells, 1)), horizon)
        flat = np.zeros(x.shape[0], dtype=np.int64)
        flat[live] = _nearest_all(grid, final)
        dest[lo:lo + cells] = flat.reshape(cells, p)
        unsafe = np.ones(x.shape[0], dtype=bool)
        unsafe[live] = False
        doomed[lo:lo + cells] = unsafe.reshape(cells, p).any(axis=1)
    return dest, doomed


def brute_force_invariant(sys: ScenarioSystem, delta: float, action_samples=None,
                          disturbance_samples=None, horizon: int = 1,
                          max_sweeps: int = 200) -> OracleSet:
    """Fixed point of iterated cell removal on a delta-lattice.

    Per sweep, each live cell is tested from its center under every sampled
    (action, disturbance) pair, both held constant while the dynamics roll
    ``horizon`` steps.  Crossing an unsafe facet kills the cell immediately;
    truncations clamp and continue; otherwise the final state is snapped to
    its nearest lattice cell and the cell dies if that one is already dead.
    Removals apply synchronously at the end of the sweep, so each sweep is
    one mask update over the rollouts' end cells, which are computed once.
    """
    grid = build_cover(sys.state_box, delta)
    if action_samples is None:
        action_samples = default_action_samples(sys.action_box)
    if disturbance_samples is None:
        if sys.omega_bar > 0.0:
            w = sys.omega_bar
            disturbance_samples = [(-w,) * sys.disturbance_dim, (0.0,) * sys.disturbance_dim,
                                   (w,) * sys.disturbance_dim]
        else:
            disturbance_samples = [sys.zero_disturbance()]
    pairs = [(u, w) for u in action_samples for w in disturbance_samples]
    dest, doomed = _final_cells(sys, grid, pairs, horizon)
    alive = np.ones(len(grid), dtype=bool)
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        kill = alive & (doomed | ~alive[dest].all(axis=1))
        if not kill.any():
            converged = True
            break
        alive &= ~kill
    return OracleSet(grid=grid, mask=alive, converged=converged, sweeps=sweeps)


def project_to_grid(cover: DeltaCover, grid: DeltaCover, tol: float = LATTICE_TOL) -> OracleSet:
    """Rasterize an arbitrary cover onto a lattice grid.

    A lattice cell is in iff its center lies within the cover (some active
    cover center within the cover radius plus ``tol``).  An empty cover
    rasterizes to the empty mask.
    """
    return OracleSet(grid=grid, mask=~cover.outside(grid.centers, tol))


def compare_sets(a: OracleSet, b: OracleSet, tol: float = LATTICE_TOL) -> dict:
    """Volume accounting of two membership masks on the same lattice.

    Refuses mismatched lattices: a comparison across resolutions is a silent
    lie, the caller must rasterize onto a common grid first.
    """
    if not compare_grids(a.grid, b.grid, tol):
        raise ValueError("sets live on different lattices; project onto a common grid first")
    vols = cell_volumes(a.grid)
    inter = a.mask & b.mask
    union = a.mask | b.mask
    v_inter = float(vols[inter].sum())
    v_union = float(vols[union].sum())
    return {
        "a_volume": float(vols[a.mask].sum()),
        "b_volume": float(vols[b.mask].sum()),
        "a_minus_b": float(vols[a.mask & ~b.mask].sum()),
        "b_minus_a": float(vols[b.mask & ~a.mask].sum()),
        "sym_diff": float(vols[a.mask ^ b.mask].sum()),
        "intersection": v_inter,
        "union": v_union,
        "jaccard": (v_inter / v_union) if v_union > 0 else 1.0,
        "a_count": a.count(),
        "b_count": b.count(),
    }
