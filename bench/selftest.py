"""Differential self-test of reference.py against setquant itself.

Usage (from the repository root): ``PYTHONPATH=src python3 bench/selftest.py``

1. ``reference.integrate`` against ``setquant.scenario.step`` on random
   states, actions and disturbances: next states equal bit for bit, and the
   unsafe flag matches the step outcome.
2. ``reference.fixed_point`` against ``brute_force_invariant`` on the
   delta = 1 lattice, 60-step horizon, for the lead inputs {-5} and
   {-5, -1, 3}: lattice, mask and sweep count are equal.

Prints one line per comparison and exits 1 on any difference.  The oracle
part takes about 20 s.
"""

import sys
import time

import numpy as np

import reference as ref
from setquant.oracle import brute_force_invariant
from setquant.scenario import EXIT_UNSAFE, make_lead_follow, step


def check_step(n: int = 20000, seed: int = 1) -> bool:
    lf = make_lead_follow(sv="brake")
    rng = np.random.default_rng(seed)
    states = rng.uniform(ref.LOWER, ref.UPPER, size=(n, 3))
    states[: n // 10, 0] = 0.0  # a standing subject takes the other branch
    actions = rng.uniform(-5.0, 3.0, size=n)
    omegas = rng.uniform(-0.5, 0.5, size=(n, 2))
    bad = 0
    for s, u, w in zip(states, actions, omegas):
        mine, unsafe = ref.integrate(s[None, :], u, omega=(float(w[0]), float(w[1])))
        theirs, out = step(lf, tuple(s), (float(u),), (float(w[0]), float(w[1])))
        bad += int(not (np.array_equal(mine[0], np.asarray(theirs)) and unsafe[0] == (out.kind == EXIT_UNSAFE)))
    print(f"integrate vs scenario.step: {n} random transitions, {bad} differ")
    return bad == 0


def check_oracle(actions) -> bool:
    lf = make_lead_follow(sv="brake")
    t0 = time.perf_counter()
    theirs = brute_force_invariant(lf, 1.0, action_samples=[(u,) for u in actions], horizon=60)
    t1 = time.perf_counter()
    grid = ref.lattice(ref.LOWER, ref.UPPER, 1.0)
    mask, sweeps = ref.fixed_point(grid, actions, 60)
    t2 = time.perf_counter()
    same_grid = np.array_equal(grid, theirs.grid.centers)
    diff = int(np.sum(mask != theirs.mask)) if same_grid else -1
    print(f"fixed_point vs brute_force_invariant, actions {list(actions)}: lattice equal {same_grid}, "
          f"{int(mask.sum())}/{mask.size} cells survive, {diff} differ, sweeps {sweeps} vs {theirs.sweeps} "
          f"({t2 - t1:.2f} s vs {t1 - t0:.2f} s)")
    return same_grid and diff == 0 and sweeps == theirs.sweeps


if __name__ == "__main__":
    ok = check_step()
    ok &= check_oracle((-5.0,))
    ok &= check_oracle((-5.0, -1.0, 3.0))
    sys.exit(0 if ok else 1)
