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
from dataclasses import dataclass

import numpy as np

from .geometry import BoxRegion, DeltaCover, signed_distance
from .scenario import (
    EXIT_UNSAFE,
    ScenarioSystem,
    Trajectory,
    UniformPolicy,
    noise_sampler,
    outside_domain,
    run_batch,
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

    def outside(self, states: np.ndarray) -> np.ndarray:
        """Per row of ``states``, whether it lies outside the box."""
        return ~(np.all(states >= self.box.lower - 1e-12, axis=1) & np.all(states <= self.box.upper + 1e-12, axis=1))


class _CoverMembership:
    def __init__(self, cover: DeltaCover):
        self.cover = cover
        self.delta = cover.radius

    def outside(self, states: np.ndarray) -> np.ndarray:
        """Per row of ``states``, whether it lies farther than delta from every active center."""
        # a stray state needs no exact distance, so no full scan: distances_within gives it inf
        reach = self.cover.radius + 1e-12
        return self.cover.distances_within(states, reach) > reach


def _check_trajectory(traj: Trajectory, membership) -> bool:
    """True when the rollout stayed safe and inside the candidate region."""
    return traj.exit_kind != EXIT_UNSAFE and not membership.outside(traj.states[1:]).any()


# ---------------------------------------------------------------------------
# per-sample random streams (replayable, order-independent)
# ---------------------------------------------------------------------------


def _child_seeds(rng, n: int) -> list[dict]:
    """One seed descriptor per sample.

    An integer master seed spawns children; a Generator draws independent
    64-bit entropies.  Either way the descriptor alone reconstructs the
    stream, so counterexamples replay exactly and samples can be evaluated
    in any grouping.
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


# ---------------------------------------------------------------------------
# the batched sample runner
# ---------------------------------------------------------------------------

# Samples stepped together: enough rows to amortise the per-step numpy
# overhead and the block's one cover query, few enough that a failing run
# stops soon after its first failure and a block's states stay small.
_BLOCK = 256


def _run_block(sys, x0, first, draw, seed_descs, membership, record) -> int:
    """Roll samples ``first .. first + len(x0) - 1`` in lock-step; returns the lowest failing index or -1.

    A row stops when it goes unsafe; the others run to the horizon, and a
    row fails when it went unsafe or one of its states after the start lies
    outside the region.  Membership is queried once per block, over every
    state of the rows that did not go unsafe.
    """
    noise = [draw(_make_stream(seed_descs[first + j])) for j in range(len(x0))]
    rolls = run_batch(sys, x0, noise)
    failed = rolls.code >= 0
    safe = np.flatnonzero(~failed)
    steps = rolls.states.shape[1] - 1
    states = rolls.states[safe, 1:].reshape(-1, x0.shape[1])
    failed[safe] = membership.outside(states).reshape(safe.size, steps).any(axis=1)
    bad = np.flatnonzero(failed)
    if record is not None:
        for j in range(bad[0] + 1 if bad.size else len(x0)):
            record(first + j, rolls.trajectory(j))
    return first + int(bad[0]) if bad.size else -1


def _run_samples(sys, starts, horizon, policy, seed_descs, membership, workers: int, record=None):
    """Run the samples in index order; returns the earliest failing index or -1.

    The samples go through in blocks of ``_BLOCK``, each rolled in lock-step
    by ``step_batch`` from actions and disturbances pre-drawn from the
    sample's own stream (``noise_sampler``), so every trajectory equals the
    one ``run_scenario`` draws.  The run stops at the first block with a
    failure and returns its lowest failing index: the verdict of a
    sequential loop.  ``record(i, traj)`` sees the trajectories of samples
    0 up to that index, in order.  A start outside the domain raises
    ``run_scenario``'s ``ValueError`` once every sample before it passed.
    ``workers`` is accepted for compatibility and changes nothing.
    """
    n = len(starts)
    if n and horizon < 1:
        raise ValueError("horizon must be at least 1")
    steps = max(horizon - 1, 0)
    draw = noise_sampler(sys, policy, steps)
    x0 = np.asarray(starts, dtype=float).reshape(n, sys.state_box.dim)
    stop = n
    if steps:
        outside = np.flatnonzero(outside_domain(sys, x0))
        stop = int(outside[0]) if outside.size else n
    for lo in range(0, stop, _BLOCK):
        bad = _run_block(sys, x0[lo:min(lo + _BLOCK, stop)], lo, draw, seed_descs, membership, record)
        if bad >= 0:
            return bad
    if stop < n:
        run_scenario(sys, starts[stop], horizon, policy, _make_stream(seed_descs[stop]))
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


def _validate_sampled(sys, horizon, epsilon, beta, actions, rng, n_samples, workers, record,
                      membership, pick_start, kind) -> ValidationVerdict:
    """The shared body of ``validate_eps`` and ``validate_eps_delta``.

    Sizes the sample (warning when ``n_samples`` is below the bound), spawns
    one seed descriptor per sample, draws the starts with ``pick_start`` from
    a stream of their own, runs them and wraps the verdict; a failure
    carries its start, its seed descriptor and the trajectory they replay
    to.  ``pick_start=None`` means no start is eligible: the verdict is then
    vacuously true on zero samples, and still flagged when ``n_samples`` is
    below the bound.
    """
    required = sample_size_probabilistic(epsilon, beta)
    n = required if n_samples is None else int(n_samples)
    undersampled = n < required
    if undersampled:
        warnings.warn(f"n_samples={n} below the ({epsilon}, {beta}) bound {required}; verdict flagged")
    delta = membership.delta
    if pick_start is None:
        return ValidationVerdict(result=True, n_samples=0, epsilon=epsilon, beta=beta, delta=delta,
                                 undersampled=undersampled, kind=kind)
    seed_descs = _child_seeds(rng, n)
    pick = _make_stream({"entropy": seed_descs[0]["entropy"], "spawn_key": [2**31]}) if seed_descs else None
    starts = [pick_start(pick) for _ in range(n)]
    policy = UniformPolicy(actions)
    bad = _run_samples(sys, starts, horizon, policy, seed_descs, membership, workers, record=record)
    found = {} if bad < 0 else {
        "counterexample_start": [float(x) for x in starts[bad]],
        "counterexample_seed": seed_descs[bad],
        "counterexample": run_scenario(sys, starts[bad], horizon, policy, _make_stream(seed_descs[bad]))}
    return ValidationVerdict(result=bad < 0, n_samples=n, epsilon=epsilon, beta=beta, delta=delta,
                             undersampled=undersampled, kind=kind, **found)


def validate_eps(sys: ScenarioSystem, region, horizon: int, epsilon: float, beta: float,
                 actions, rng, n_samples: int | None = None, workers: int = 1,
                 record=None) -> ValidationVerdict:
    """Probabilistic validation from iid uniform starts in ``region``.

    ``region`` is a box (continuous uniform starts, box membership) or a
    delta-cover (uniform over active centers, cover membership).  Passing
    ``n_samples`` below the bound only warns — the verdict is then flagged
    undersampled rather than refused.
    """
    if isinstance(region, DeltaCover):
        act = region.active_indices()
        membership = _CoverMembership(region)
        pick_start = lambda pick: region.centers[int(act[int(pick.integers(act.size))])]
    else:
        membership = _BoxMembership(region)
        pick_start = region.sample
    return _validate_sampled(sys, horizon, epsilon, beta, actions, rng, n_samples, workers, record,
                             membership, pick_start, "eps")


def validate_eps_delta(sys: ScenarioSystem, cover: DeltaCover, horizon: int, epsilon: float,
                       beta: float, actions, rng, band=None, n_samples: int | None = None,
                       workers: int = 1, record=None) -> ValidationVerdict:
    """Cover-based probabilistic validation: uniform centers, uniform actions.

    ``band`` (optional predicate) restricts the sampled start centers, e.g.
    to the boundary band of the domain; interior starts are then trusted to
    be covered by the boundary sweep.  With no eligible center the verdict is
    vacuously true on zero samples.
    """
    act = cover.active_indices()
    if band is not None:
        act = np.asarray([i for i in act if band(cover.centers[int(i)])], dtype=int)
    pick_start = lambda pick: cover.centers[int(act[int(pick.integers(act.size))])]
    if band is not None and act.size == 0:
        pick_start = None
    return _validate_sampled(sys, horizon, epsilon, beta, actions, rng, n_samples, workers, record,
                             _CoverMembership(cover), pick_start, "eps-delta")


def replay_counterexample(sys: ScenarioSystem, verdict: ValidationVerdict, horizon: int, actions) -> Trajectory:
    """Regenerate the exact counterexample trajectory recorded in a verdict."""
    if verdict.result or verdict.counterexample_start is None:
        raise ValueError("verdict holds no counterexample")
    if verdict.counterexample_seed is None:
        raise ValueError("deterministic verdicts replay via validate_delta itself")
    stream = _make_stream(verdict.counterexample_seed)
    return run_scenario(sys, verdict.counterexample_start, horizon, UniformPolicy(actions), stream)
