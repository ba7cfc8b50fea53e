"""Sampling-based validation of candidate invariant regions.

Three routines with increasing reach:

* ``validate_delta`` — exhaustive: rolls out once from every cover center
  under a deterministic policy with disturbances off.
* ``validate_eps`` — probabilistic: iid uniform starts from a candidate
  region, enough of them that a miss probability above ``epsilon`` would have
  been detected except with probability ``beta``.
* ``validate_eps_delta`` — the combination used in practice: iid uniform
  starts over the centers of a delta-cover, uniform random actions,
  membership measured by distance to the cover.

A failed validation carries a replayable counterexample: the start state plus
the seed material of the per-sample random stream, so the exact offending
trajectory can be regenerated on demand.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import BoxRegion, DeltaCover, signed_distance
from .scenario import (
    EXIT_UNSAFE,
    ScenarioSystem,
    Trajectory,
    UniformPolicy,
    run_scenario,
)

__all__ = [
    "ValidationVerdict",
    "sample_size_probabilistic",
    "sample_size_resolution",
    "validate_delta",
    "validate_eps",
    "validate_eps_delta",
    "replay_counterexample",
]


def sample_size_probabilistic(epsilon: float, beta: float) -> int:
    """Samples needed so that P(miss set of measure > epsilon) <= beta.

    N >= ln(beta) / ln(1 - epsilon), rounded up, at least 1.
    """
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if epsilon == 1.0:
        return 1
    n = math.log(beta) / math.log(1.0 - epsilon)
    return max(1, math.ceil(n))


def sample_size_resolution(volume: float, delta: float, dim: int) -> int:
    """Cells of half-width delta needed to tile a region of the given volume."""
    if volume < 0 or delta <= 0 or dim < 1:
        raise ValueError("need volume >= 0, delta > 0, dim >= 1")
    return math.ceil(volume / (2.0 * delta) ** dim)


@dataclass
class ValidationVerdict:
    result: bool
    n_samples: int
    epsilon: float | None = None
    beta: float | None = None
    delta: float | None = None
    undersampled: bool = False
    counterexample_start: list | None = None
    counterexample_seed: dict | None = None
    counterexample: Trajectory | None = None
    kind: str = ""

    def to_json_dict(self) -> dict:
        return {
            "result": self.result,
            "n_samples": self.n_samples,
            "epsilon": self.epsilon,
            "beta": self.beta,
            "delta": self.delta,
            "counterexample_seed": self.counterexample_seed,
            "counterexample_start": self.counterexample_start,
        }


# ---------------------------------------------------------------------------
# membership predicates over the candidate region
# ---------------------------------------------------------------------------


class _BoxMembership:
    def __init__(self, box: BoxRegion):
        self.box = box
        self.delta = None

    def trajectory_ok(self, states: np.ndarray) -> int:
        """Index of the first state outside the box, or -1 if all inside."""
        inside = np.all(states >= self.box.lower - 1e-12, axis=1) & np.all(states <= self.box.upper + 1e-12, axis=1)
        bad = np.flatnonzero(~inside)
        return int(bad[0]) if bad.size else -1


class _CoverMembership:
    def __init__(self, cover: DeltaCover):
        self.cover = cover
        self.delta = cover.radius

    def trajectory_ok(self, states: np.ndarray) -> int:
        d = self.cover.batch_distances(states)
        bad = np.flatnonzero(d > self.cover.radius + 1e-12)
        return int(bad[0]) if bad.size else -1


def _check_trajectory(traj: Trajectory, membership) -> bool:
    """True when the rollout stayed safe and inside the candidate region."""
    if traj.exit_kind == EXIT_UNSAFE:
        return False
    return membership.trajectory_ok(traj.states[1:]) < 0


# ---------------------------------------------------------------------------
# per-sample random streams (replayable, order-independent)
# ---------------------------------------------------------------------------


def _child_seeds(rng, n: int) -> list[dict]:
    """One seed descriptor per sample.

    An integer master seed spawns children; a Generator draws independent
    64-bit entropies.  Either way the descriptor alone reconstructs the
    stream, so counterexamples replay exactly and workers can evaluate
    samples in any order.
    """
    if isinstance(rng, (int, np.integer)):
        return [{"entropy": int(rng), "spawn_key": [i]} for i in range(n)]
    if isinstance(rng, np.random.Generator):
        ent = rng.integers(0, 2**63 - 1, size=n)
        return [{"entropy": int(e)} for e in ent]
    raise TypeError("rng must be an integer seed or a numpy Generator")


def _make_stream(desc: dict) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=desc["entropy"], spawn_key=tuple(desc.get("spawn_key", ())))
    return np.random.Generator(np.random.PCG64(ss))


def _eval_batch(sys: ScenarioSystem, starts, horizon: int, policy, seed_descs, membership, indices) -> int:
    """Evaluate a batch of rollouts in order; returns the first failing sample index or -1."""
    for j, i in enumerate(indices):
        stream = _make_stream(seed_descs[j])
        traj = run_scenario(sys, starts[j], horizon, policy, stream)
        if not _check_trajectory(traj, membership):
            return i
    return -1


def _run_samples(sys, starts, horizon, policy, seed_descs, membership, workers: int, record=None):
    """Run all samples; returns the earliest failing index or -1.

    Both modes stop at the first failure.  The parallel mode reads its
    chunks' results in submission order and stops at the first chunk that
    failed: every earlier chunk then passed in full, so that chunk's first
    failure is the lowest failing index overall, and the verdict and the
    counterexample are identical for any worker count.  Chunks not yet
    started are cancelled.  ``record`` (sample logging) forces the
    sequential path.
    """
    n = len(starts)
    if workers <= 1 or record is not None:
        for i in range(n):
            stream = _make_stream(seed_descs[i])
            traj = run_scenario(sys, starts[i], horizon, policy, stream)
            if record is not None:
                record(i, traj)
            if not _check_trajectory(traj, membership):
                return i
        return -1
    chunks = max(1, math.ceil(n / (workers * 4)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = []
        for lo in range(0, n, chunks):
            idx = list(range(lo, min(lo + chunks, n)))
            futures.append(pool.submit(
                _eval_batch, sys, [starts[i] for i in idx], horizon, policy,
                [seed_descs[i] for i in idx], membership, idx))
        for f in futures:
            bad = f.result()
            if bad >= 0:
                pool.shutdown(cancel_futures=True)
                return bad
    return -1


# ---------------------------------------------------------------------------
# the three validation routines
# ---------------------------------------------------------------------------


def validate_delta(sys: ScenarioSystem, cover: DeltaCover, horizon: int, policy,
                   record=None) -> ValidationVerdict:
    """Exhaustive rollout from every active center, deterministic, no noise.

    ``policy`` maps a state to an action (no randomness).  Fails on the first
    center whose rollout exits unsafely or strays farther than delta from the
    cover.
    """
    quiet = dataclasses.replace(sys, omega_bar=0.0, facets=dict(sys.facets))
    membership = _CoverMembership(cover)
    det = lambda state, rng=None: policy(state)
    rng = np.random.Generator(np.random.PCG64(0))  # never consulted
    idx = cover.active_indices()
    for k, i in enumerate(idx):
        start = cover.centers[int(i)]
        traj = run_scenario(quiet, start, horizon, det, rng)
        if record is not None:
            record(int(k), traj)
        if not _check_trajectory(traj, membership):
            return ValidationVerdict(
                result=False, n_samples=int(k + 1), delta=cover.radius, kind="delta",
                counterexample_start=[float(x) for x in start],
                counterexample_seed=None, counterexample=traj)
    return ValidationVerdict(result=True, n_samples=int(idx.size), delta=cover.radius, kind="delta")


def _finish(sys, starts, horizon, policy, seed_descs, membership, workers,
            n_planned, epsilon, beta, delta, undersampled, kind, record=None) -> ValidationVerdict:
    bad = _run_samples(sys, starts, horizon, policy, seed_descs, membership, workers, record=record)
    if bad < 0:
        return ValidationVerdict(result=True, n_samples=n_planned, epsilon=epsilon, beta=beta,
                                 delta=delta, undersampled=undersampled, kind=kind)
    traj = run_scenario(sys, starts[bad], horizon, policy, _make_stream(seed_descs[bad]))
    return ValidationVerdict(
        result=False, n_samples=n_planned, epsilon=epsilon, beta=beta, delta=delta,
        undersampled=undersampled, kind=kind,
        counterexample_start=[float(x) for x in starts[bad]],
        counterexample_seed=seed_descs[bad], counterexample=traj)


def validate_eps(sys: ScenarioSystem, region, horizon: int, epsilon: float, beta: float,
                 actions, rng, n_samples: int | None = None, workers: int = 1,
                 record=None) -> ValidationVerdict:
    """Probabilistic validation from iid uniform starts in ``region``.

    ``region`` is a box (continuous uniform starts, box membership) or a
    delta-cover (uniform over active centers, cover membership).  Passing
    ``n_samples`` below the bound only warns — the verdict is then flagged
    undersampled rather than refused.
    """
    required = sample_size_probabilistic(epsilon, beta)
    n = required if n_samples is None else int(n_samples)
    undersampled = n < required
    if undersampled:
        warnings.warn(f"n_samples={n} below the ({epsilon}, {beta}) bound {required}; verdict flagged")
    seed_descs = _child_seeds(rng, n)
    if isinstance(region, DeltaCover):
        membership = _CoverMembership(region)
        act = region.active_indices()
        pick = _make_stream({"entropy": seed_descs[0]["entropy"], "spawn_key": [2**31]}) if seed_descs else None
        starts = [region.centers[int(act[int(pick.integers(act.size))])] for _ in range(n)]
        delta = region.radius
    else:
        membership = _BoxMembership(region)
        pick = _make_stream({"entropy": seed_descs[0]["entropy"], "spawn_key": [2**31]}) if seed_descs else None
        starts = [region.sample(pick) for _ in range(n)]
        delta = None
    policy = UniformPolicy(actions)
    return _finish(sys, starts, horizon, policy, seed_descs, membership, workers,
                   n, epsilon, beta, delta, undersampled, "eps", record=record)


def validate_eps_delta(sys: ScenarioSystem, cover: DeltaCover, horizon: int, epsilon: float,
                       beta: float, actions, rng, band=None, n_samples: int | None = None,
                       workers: int = 1, record=None) -> ValidationVerdict:
    """Cover-based probabilistic validation: uniform centers, uniform actions.

    ``band`` (optional predicate) restricts the sampled start centers, e.g.
    to the boundary band of the domain; interior starts are then trusted to
    be covered by the boundary sweep.  With no eligible center the verdict is
    vacuously true on zero samples.
    """
    required = sample_size_probabilistic(epsilon, beta)
    n = required if n_samples is None else int(n_samples)
    undersampled = n < required
    if undersampled:
        warnings.warn(f"n_samples={n} below the ({epsilon}, {beta}) bound {required}; verdict flagged")
    act = cover.active_indices()
    if band is not None:
        act = np.asarray([i for i in act if band(cover.centers[int(i)])], dtype=int)
        if act.size == 0:
            return ValidationVerdict(result=True, n_samples=0, epsilon=epsilon, beta=beta,
                                     delta=cover.radius, kind="eps-delta")
    seed_descs = _child_seeds(rng, n)
    pick = _make_stream({"entropy": seed_descs[0]["entropy"], "spawn_key": [2**31]}) if seed_descs else None
    starts = [cover.centers[int(act[int(pick.integers(act.size))])] for _ in range(n)]
    membership = _CoverMembership(cover)
    policy = UniformPolicy(actions)
    return _finish(sys, starts, horizon, policy, seed_descs, membership, workers,
                   n, epsilon, beta, cover.radius, undersampled, "eps-delta", record=record)


def replay_counterexample(sys: ScenarioSystem, verdict: ValidationVerdict, horizon: int, actions) -> Trajectory:
    """Regenerate the exact counterexample trajectory recorded in a verdict."""
    if verdict.result or verdict.counterexample_start is None:
        raise ValueError("verdict holds no counterexample")
    if verdict.counterexample_seed is None:
        raise ValueError("deterministic verdicts replay via validate_delta itself")
    stream = _make_stream(verdict.counterexample_seed)
    return run_scenario(sys, verdict.counterexample_start, horizon, UniformPolicy(actions), stream)
