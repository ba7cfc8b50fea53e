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

from dataclasses import dataclass

import numpy as np

from .geometry import BoxRegion, DeltaCover, build_cover, compare_grids
from .scenario import ScenarioSystem, default_action_samples, step

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


def _nearest_all(grid: DeltaCover, point) -> int:
    """Nearest lattice cell over *all* cells, active or not (first index on ties)."""
    return grid.nearest(point, active_only=False)[0]


def brute_force_invariant(sys: ScenarioSystem, delta: float, action_samples=None,
                          disturbance_samples=None, horizon: int = 1,
                          max_sweeps: int = 200, domain: BoxRegion | None = None) -> OracleSet:
    """Fixed point of iterated cell removal on a delta-lattice.

    Per sweep, each live cell is tested from its center under every sampled
    (action, disturbance) pair, both held constant while the dynamics roll
    ``horizon`` steps.  Crossing an unsafe facet kills the cell immediately;
    truncations clamp and continue; otherwise the final state is snapped to
    its nearest lattice cell and the cell dies if that one is already dead.
    Removals apply synchronously at the end of the sweep.
    """
    grid = build_cover(domain if domain is not None else sys.state_box, delta)
    if action_samples is None:
        action_samples = default_action_samples(sys.action_box)
    if disturbance_samples is None:
        if sys.omega_bar > 0.0:
            w = sys.omega_bar
            disturbance_samples = [(-w,) * sys.disturbance_dim, (0.0,) * sys.disturbance_dim,
                                   (w,) * sys.disturbance_dim]
        else:
            disturbance_samples = [sys.zero_disturbance()]
    alive = np.ones(len(grid), dtype=bool)
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        kill = []
        for i in np.flatnonzero(alive):
            center = grid.centers[int(i)]
            dead = False
            for u in action_samples:
                for w in disturbance_samples:
                    state = tuple(float(x) for x in center)
                    unsafe = False
                    for _t in range(horizon):
                        state, out = step(sys, state, u, w)
                        if out.kind == "unsafe":
                            unsafe = True
                            break
                    if unsafe or not alive[_nearest_all(grid, state)]:
                        dead = True
                        break
                if dead:
                    break
            if dead:
                kill.append(i)
        if not kill:
            converged = True
            break
        alive[np.asarray(kill, dtype=int)] = False
    return OracleSet(grid=grid, mask=alive, converged=converged, sweeps=sweeps)


def project_to_grid(cover: DeltaCover, grid: DeltaCover, tol: float = 1e-9) -> OracleSet:
    """Rasterize an arbitrary cover onto a lattice grid.

    A lattice cell is in iff its center lies within the cover (distance to the
    nearest active cover center at most the cover radius).  An empty cover
    rasterizes to the empty mask.
    """
    reach = cover.radius + tol
    return OracleSet(grid=grid, mask=cover.distances_within(grid.centers, reach) <= reach)


def compare_sets(a: OracleSet, b: OracleSet, tol: float = 1e-9) -> dict:
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
