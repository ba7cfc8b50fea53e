"""Sampling-based validation of candidate invariant regions.

Three routines with increasing reach:

* ``validate_delta`` — exhaustive: rolls out once from every cover center
  under a fixed action with disturbances off.
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

from .geometry import DeltaCover
from .scenario import (
    FiniteActionSet,
    FixedActionPolicy,
    ScenarioSystem,
    Trajectory,
    UniformPolicy,
    _SELECT,
    _check_inside,
    _sample_desc,
    noise_sampler,
    outside_domain,
    run_batch,
    run_scenario,
    sample_stream,
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
# the batched sample runner
# ---------------------------------------------------------------------------

# Samples stepped together: enough rows to amortise the per-step numpy
# overhead and the block's one cover query, few enough that a failing run
# stops soon after its first failure and a block's states stay small.
_BLOCK = 256


def _run_block(sys, x0, first, draw, seed, region, record) -> int:
    """Roll samples ``first .. first + len(x0) - 1`` in lock-step; returns the lowest failing index or -1.

    A row stops when it goes unsafe; the others run to the horizon, and a
    row fails when it went unsafe or one of its states after the start lies
    outside the region.  Membership is queried once per block, over every
    state of the rows that did not go unsafe.
    """
    rolls = run_batch(sys, x0, draw.block(seed, np.arange(first, first + len(x0))))
    failed = rolls.code >= 0
    safe = np.flatnonzero(~failed)
    steps = rolls.states.shape[1] - 1
    states = rolls.states[safe, 1:].reshape(-1, x0.shape[1])
    failed[safe] = region.outside(states).reshape(safe.size, steps).any(axis=1)
    bad = np.flatnonzero(failed)
    if record is not None:
        for j in range(bad[0] + 1 if bad.size else len(x0)):
            record(first + j, rolls.trajectory(j))
    return first + int(bad[0]) if bad.size else -1


def _run_samples(sys, starts, horizon, policy, seed, region, workers: int, record=None):
    """Run the samples in index order; returns the earliest failing index or -1.

    The samples go through in blocks of ``_BLOCK``, each rolled in lock-step
    by ``run_batch`` from actions and disturbances that the ``noise_sampler``
    draws into one array per block, sample ``i``'s from the stream of ordinal
    ``i`` of ``seed``, so every trajectory equals the one ``run_scenario``
    draws; the block's states then go through one ``outside`` query.  The run
    stops at the first block with a failure and returns its lowest failing
    index: the verdict of a sequential loop.  ``record(i, traj)`` sees the
    trajectories of samples 0 up to that index, in order.  A start outside
    the domain raises the domain check's ``ValueError`` once every sample
    before it passed.
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
        bad = _run_block(sys, x0[lo:min(lo + _BLOCK, stop)], lo, draw, seed, region, record)
        if bad >= 0:
            return bad
    _check_inside(sys, x0[stop:stop + 1])  # the refused start, if there is one
    return -1


# ---------------------------------------------------------------------------
# the three validation routines
# ---------------------------------------------------------------------------


def validate_delta(sys: ScenarioSystem, cover: DeltaCover, horizon: int, policy: FixedActionPolicy,
                   record=None) -> ValidationVerdict:
    """Exhaustive rollout from every active center under the fixed action ``policy.u``, no noise.

    Fails on the first center whose rollout exits unsafely or strays farther
    than delta from the cover.  The centers run as ``_run_samples``'s samples,
    under a one-point action set that seeds no stream.
    """
    quiet = dataclasses.replace(sys, omega_bar=0.0, facets=dict(sys.facets))
    starts = cover.active_centers()
    bad = _run_samples(quiet, starts, horizon, UniformPolicy(FiniteActionSet([policy.u])), 0, cover, 1,
                       record=record)
    found = {} if bad < 0 else {"counterexample_start": [float(x) for x in starts[bad]],
                                "counterexample": run_scenario(quiet, starts[bad], horizon, policy, None)}
    return ValidationVerdict(result=bad < 0, n_samples=len(starts) if bad < 0 else bad + 1,
                             delta=cover.radius, kind="delta", **found)


def _validate_sampled(sys, horizon, epsilon, beta, actions, rng, n_samples, workers, record,
                      region, pick_starts, kind) -> ValidationVerdict:
    """The shared body of ``validate_eps`` and ``validate_eps_delta``.

    Sizes the sample (warning when ``n_samples`` is below the bound), draws
    the ``n`` starts with one ``pick_starts(stream, n)`` call on the stream
    of ordinal ``_SELECT`` of the integer seed ``rng``, runs sample ``i`` on
    the stream of ordinal ``i`` and wraps the verdict; a failure carries its
    start, its stream's descriptor and the trajectory they replay to.
    ``pick_starts=None`` means no start is eligible: the verdict is then
    vacuously true on zero samples, and still flagged when ``n_samples`` is
    below the bound.
    """
    if not isinstance(rng, (int, np.integer)):
        raise TypeError("rng must be an integer seed")
    required = sample_size_probabilistic(epsilon, beta)
    n = required if n_samples is None else int(n_samples)
    undersampled = n < required
    if undersampled:
        warnings.warn(f"n_samples={n} below the ({epsilon}, {beta}) bound {required}; verdict flagged")
    delta = region.radius if isinstance(region, DeltaCover) else None
    if pick_starts is None:
        return ValidationVerdict(result=True, n_samples=0, epsilon=epsilon, beta=beta, delta=delta,
                                 undersampled=undersampled, kind=kind)
    starts = np.empty((0, sys.state_box.dim))
    if n:
        starts = pick_starts(sample_stream(_sample_desc(rng, _SELECT)), n)
    policy = UniformPolicy(actions)
    bad = _run_samples(sys, starts, horizon, policy, rng, region, workers, record=record)
    desc = _sample_desc(rng, bad)
    found = {} if bad < 0 else {
        "counterexample_start": [float(x) for x in starts[bad]],
        "counterexample_seed": desc,
        "counterexample": run_scenario(sys, starts[bad], horizon, policy, sample_stream(desc))}
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
        pick_starts = lambda pick, n: region.centers[act[pick.integers(act.size, size=n)]]
    else:
        # n calls of region.sample (numpy's uniform) in one draw: the same values and stream state
        pick_starts = lambda pick, n: region.lower + region.widths * pick.random((n, region.dim))
    return _validate_sampled(sys, horizon, epsilon, beta, actions, rng, n_samples, workers, record,
                             region, pick_starts, "eps")


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
    pick_starts = lambda pick, n: cover.centers[act[pick.integers(act.size, size=n)]]
    if band is not None and act.size == 0:
        pick_starts = None
    return _validate_sampled(sys, horizon, epsilon, beta, actions, rng, n_samples, workers, record,
                             cover, pick_starts, "eps-delta")


def replay_counterexample(sys: ScenarioSystem, verdict: ValidationVerdict, horizon: int, actions) -> Trajectory:
    """Regenerate the exact counterexample trajectory recorded in a verdict."""
    if verdict.result or verdict.counterexample_start is None:
        raise ValueError("verdict holds no counterexample")
    if verdict.counterexample_seed is None:
        raise ValueError("deterministic verdicts replay via validate_delta itself")
    stream = sample_stream(verdict.counterexample_seed)
    return run_scenario(sys, verdict.counterexample_start, horizon, UniformPolicy(actions), stream)
