"""Independent lead-follow reference used to check the program's outputs.

Everything here is plain numpy and imports nothing from ``setquant``: a
vectorized forward-Euler integrator of the two-vehicle scenario with the
brake-to-stop subject, the delta-lattice, the brute-force oracle's fixed
point, rasterization of a cover onto the lattice, and the physical checks
(minimal-gap monotonicity, the worst-case closure of a slab).  The arithmetic
repeats the program's operation order, so states and masks agree bit for bit;
``selftest.py`` shows that they do.

State (v0, v1, gap) lives in [0, 16] x [0, 16] x [5.5, 60].  Crossing the
lower gap facet is the collision; every other facet clamps.
"""

from __future__ import annotations

import numpy as np

LOWER = np.array([0.0, 0.0, 5.5])
UPPER = np.array([16.0, 16.0, 60.0])
DT = 0.1
BRAKE = 10.0
GAP = 2  # index of the gap coordinate
LEAD_MIN_ACCEL = -5.0  # the lead's hardest braking


def integrate(states, actions, omega=(0.0, 0.0)):
    """One transition of many states at once.

    ``states`` is (B, 3), ``actions`` (B,) lead accelerations.  Returns
    ``(next_states, unsafe)``: unsafe rows keep the raw state that crossed
    the collision plane; other rows are clamped to the box.
    """
    s = np.asarray(states, dtype=float)
    u = np.broadcast_to(np.asarray(actions, dtype=float), s.shape[:1])
    v0, v1, gap = s[:, 0], s[:, 1], s[:, 2]
    a0 = np.where(v0 > 0.0, -BRAKE, 0.0)
    nv0 = v0 + (a0 + omega[0]) * DT
    nv1 = v1 + (u + omega[1]) * DT
    raw = np.stack([np.where(nv0 > 0.0, nv0, 0.0),
                    np.where(nv1 > 0.0, nv1, 0.0),
                    gap + (v1 - v0) * DT], axis=1)
    unsafe = raw[:, GAP] < LOWER[GAP]
    clamped = np.minimum(np.maximum(raw, LOWER), UPPER)
    return np.where(unsafe[:, None], raw, clamped), unsafe


def roll_constant(starts, action: float, steps: int):
    """Roll every start ``steps`` transitions under one constant lead input.

    Returns ``(final_states, unsafe)``; a row that collides is frozen at its
    first colliding state.
    """
    s = np.array(starts, dtype=float)
    dead = np.zeros(s.shape[0], dtype=bool)
    for _ in range(steps):
        live = ~dead
        nxt, bad = integrate(s[live], action)
        s[live] = nxt
        dead[live] = bad
    return s, dead


def axis_centers(lo: float, hi: float, delta: float) -> list:
    """Centers of pitch 2*delta from lo+delta, the last one clamped to hi-delta."""
    if hi - lo < 2.0 * delta:
        return [0.5 * (lo + hi)]
    out = []
    c = lo + delta
    while c <= hi - delta + 1e-12:
        out.append(c)
        c += 2.0 * delta
    if out[-1] < hi - delta - 1e-12:
        out.append(hi - delta)
    return out


def lattice(lower, upper, delta: float) -> np.ndarray:
    """All lattice centers of a box, first axis slowest (C order)."""
    axes = [axis_centers(float(lo), float(hi), delta) for lo, hi in zip(lower, upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def cell_volumes(centers: np.ndarray, delta: float, lower=LOWER, upper=UPPER) -> np.ndarray:
    lo = np.maximum(centers - delta, lower)
    hi = np.minimum(centers + delta, upper)
    return np.prod(np.maximum(hi - lo, 0.0), axis=1)


def sup_dist(points: np.ndarray, centers: np.ndarray, chunk: int = 2048) -> np.ndarray:
    """(P, C) sup-norm distance matrix, built in row chunks."""
    out = np.empty((points.shape[0], centers.shape[0]))
    for lo in range(0, points.shape[0], chunk):
        out[lo:lo + chunk] = np.abs(centers[None, :, :] - points[lo:lo + chunk, None, :]).max(axis=2)
    return out


def fixed_point(grid: np.ndarray, actions, steps: int) -> tuple[np.ndarray, int]:
    """The oracle's surviving mask and its sweep count.

    A cell dies when, under some constant action, its center collides within
    ``steps`` transitions or ends nearest (first index on ties) to a dead
    cell.  The rollouts do not depend on the mask, so they run once; the
    sweeps then remove cells synchronously until nothing changes.
    """
    doomed = np.zeros(grid.shape[0], dtype=bool)
    dests = []
    for u in actions:
        final, unsafe = roll_constant(grid, u, steps)
        doomed |= unsafe
        dests.append(np.argmin(sup_dist(final, grid), axis=1))
    dest = np.stack(dests, axis=1)
    alive = np.ones(grid.shape[0], dtype=bool)
    sweeps = 0
    while True:
        sweeps += 1
        kill = alive & (doomed | ~alive[dest].all(axis=1))
        if not kill.any():
            return alive, sweeps
        alive &= ~kill


def rasterize(centers: np.ndarray, radius: float, active: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Lattice cells whose center lies within ``radius`` of an active center."""
    act = centers[active]
    if act.shape[0] == 0:
        return np.zeros(grid.shape[0], dtype=bool)
    return sup_dist(grid, act).min(axis=1) <= radius + 1e-9


def set_agreement(mask: np.ndarray, ref: np.ndarray, vols: np.ndarray) -> dict:
    inter = float(vols[mask & ref].sum())
    union = float(vols[mask | ref].sum())
    return {"sym_diff": float(vols[mask ^ ref].sum()), "ref_volume": float(vols[ref].sum()),
            "jaccard": inter / union if union > 0 else 1.0}


def monotonicity_violations(mask: np.ndarray, grid: np.ndarray, pitch: float) -> int:
    """Steps where the smallest safe gap moves the wrong way by more than one cell.

    A faster subject (v0 up) must not need a smaller gap; a faster lead (v1
    up) must not need a larger one.
    """
    v0s = np.unique(grid[:, 0])
    v1s = np.unique(grid[:, 1])
    gmin = np.full((v0s.size, v1s.size), np.nan)
    i0 = np.searchsorted(v0s, grid[:, 0])
    i1 = np.searchsorted(v1s, grid[:, 1])
    for a, b, g in zip(i0[mask], i1[mask], grid[mask, GAP]):
        if not g >= gmin[a, b]:
            gmin[a, b] = g
    d0 = np.diff(gmin, axis=0)  # along v0, NaN where a column is empty
    d1 = np.diff(gmin, axis=1)  # along v1
    return int(np.sum(d0 < -pitch - 1e-9) + np.sum(d1 > pitch + 1e-9))


def worst_closure(starts, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest gap closure and highest subject speed over ``steps`` transitions.

    The subject's speed does not depend on the lead, and the lead's speed is
    smallest at every step when it brakes hardest, so ``-5`` at every step
    closes the gap at least as much as any admissible input sequence.
    """
    s = np.array(starts, dtype=float)
    closure = np.zeros(s.shape[0])
    vmax = s[:, 0].copy()
    for _ in range(steps):
        s, unsafe = integrate(s, LEAD_MIN_ACCEL)
        closure = np.maximum(closure, starts[:, GAP] - s[:, GAP])
        vmax = np.maximum(vmax, s[:, 0])
        if unsafe.any():
            closure[unsafe] = np.inf
    return closure, vmax


def replay(start, actions) -> tuple[np.ndarray, bool]:
    """Re-integrate one recorded action sequence; returns (states, collided)."""
    states = [np.asarray(start, dtype=float)]
    for u in actions:
        nxt, unsafe = integrate(states[-1][None, :], float(u))
        states.append(nxt[0])
        if unsafe[0]:
            return np.asarray(states), True
    return np.asarray(states), False
