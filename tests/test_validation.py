import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant import validation
from setquant.geometry import BoxRegion, boundary_band, build_cover
from setquant.scenario import (
    EXIT_UNSAFE,
    FixedActionPolicy,
    UniformPolicy,
    make_lead_follow,
    make_toy_shrink,
    make_toy_threshold,
)
from setquant.validation import (
    _child_seeds,
    _run_samples,
    replay_counterexample,
    sample_size_probabilistic,
    sample_size_resolution,
    validate_delta,
    validate_eps,
    validate_eps_delta,
)


def test_sample_size_published_values():
    assert sample_size_probabilistic(0.001, 0.01) == 4603
    assert sample_size_probabilistic(0.01, 0.05) == 299
    assert sample_size_probabilistic(0.5, 0.5) == 1
    assert sample_size_probabilistic(0.01, 0.1) == 230


@given(st.floats(1e-4, 0.5), st.floats(1e-4, 0.5), st.floats(1e-4, 0.5))
@settings(max_examples=80, deadline=None)
def test_sample_size_monotone(eps, beta, bump):
    n = sample_size_probabilistic(eps, beta)
    assert sample_size_probabilistic(min(eps + bump, 0.999), beta) <= n
    assert sample_size_probabilistic(eps, min(beta + bump, 0.999)) <= n


def test_sample_size_rejects_garbage():
    for eps, beta in [(0.0, 0.1), (1.5, 0.1), (0.1, 0.0), (0.1, 1.0)]:
        with pytest.raises(ValueError):
            sample_size_probabilistic(eps, beta)


def test_sample_size_resolution_values():
    assert sample_size_resolution(13952.0, 1.0, 3) == 1744
    assert sample_size_resolution(20.0, 0.25, 1) == 40
    with pytest.raises(ValueError):
        sample_size_resolution(-1.0, 1.0, 3)


def test_validate_delta_accepts_an_invariant_cover():
    toy = make_toy_shrink()
    cover = build_cover(toy.state_box, 0.25)
    v = validate_delta(toy, cover, 8, FixedActionPolicy([0.0]))
    assert v.result and v.kind == "delta"
    assert v.n_samples == len(cover)  # exhaustive, one rollout per center


def test_validate_delta_rejects_with_the_offending_center():
    toy = make_toy_threshold()
    cover = build_cover(toy.state_box, 0.5)  # the 0.5 cell dies immediately
    v = validate_delta(toy, cover, 8, FixedActionPolicy([0.0]))
    assert not v.result
    assert v.counterexample_start == [0.5]
    assert v.counterexample_seed is None  # deterministic: no stream to replay
    assert v.counterexample.exit_kind == EXIT_UNSAFE


def test_validate_eps_delta_passes_a_safe_candidate():
    lf = make_lead_follow(sv="brake")
    # slow subject, generous gap: invariant under any admissible lead input
    box = BoxRegion([0.0, 0.0, 30.0], [2.0, 16.0, 60.0])
    v = validate_eps_delta(lf, build_cover(box, 1.0), 40, 0.05, 0.1,
                           lf.action_box, rng=0)
    assert v.result
    assert v.n_samples == sample_size_probabilistic(0.05, 0.1)
    assert v.counterexample_start is None


def test_validate_eps_delta_fails_a_doomed_candidate():
    lf = make_lead_follow(sv="brake")
    # fast subject, minimal gap: the collision example lives in here
    box = BoxRegion([12.0, 0.0, 5.5], [16.0, 2.0, 8.0])
    v = validate_eps_delta(lf, build_cover(box, 1.0), 40, 0.05, 0.1,
                           lf.action_box, rng=0)
    assert not v.result
    assert v.counterexample_start is not None
    assert v.counterexample_seed is not None


def test_failed_verdicts_replay_exactly():
    toy = make_toy_threshold()
    cover = build_cover(toy.state_box, 0.5)
    v = validate_eps_delta(toy, cover, 8, 0.05, 0.1, toy.action_box, rng=11)
    assert not v.result
    traj = replay_counterexample(toy, v, 8, toy.action_box)
    assert traj.exit_kind == EXIT_UNSAFE
    np.testing.assert_array_equal(traj.states, v.counterexample.states)


def test_replay_refuses_passing_verdicts():
    toy = make_toy_shrink()
    cover = build_cover(toy.state_box, 0.25)
    v = validate_eps_delta(toy, cover, 8, 0.5, 0.5, toy.action_box, rng=0)
    assert v.result
    with pytest.raises(ValueError):
        replay_counterexample(toy, v, 8, toy.action_box)


def test_band_restriction_agrees_on_a_clear_pass():
    lf = make_lead_follow(sv="brake")
    box = BoxRegion([0.0, 0.0, 30.0], [2.0, 16.0, 60.0])
    cover = build_cover(box, 1.0)
    full = validate_eps_delta(lf, cover, 40, 0.05, 0.1, lf.action_box, rng=5)
    band = validate_eps_delta(lf, cover, 40, 0.05, 0.1, lf.action_box, rng=5,
                              band=boundary_band(box, lf.sigma_bar))
    assert full.result == band.result is True


def test_validate_eps_samples_a_plain_region():
    toy = make_toy_shrink()
    v = validate_eps(toy, toy.state_box, 8, 0.05, 0.1, toy.action_box, rng=3)
    assert v.result and v.kind == "eps"


def test_worker_count_leaves_the_verdict_unchanged():
    lf = make_lead_follow(sv="brake")
    box = BoxRegion([12.0, 0.0, 5.5], [16.0, 2.0, 8.0])
    cover = build_cover(box, 1.0)
    seq = validate_eps_delta(lf, cover, 40, 0.05, 0.1, lf.action_box, rng=2)
    par = validate_eps_delta(lf, cover, 40, 0.05, 0.1, lf.action_box, rng=2,
                             workers=2)
    assert seq.result == par.result
    assert seq.n_samples == par.n_samples
    assert seq.counterexample_start == par.counterexample_start
    assert seq.counterexample_seed == par.counterexample_seed


def test_runner_returns_the_lowest_failure_across_blocks(monkeypatch):
    # 16 samples run as eight blocks of two; the starts below 1 fall off the
    # threshold, in blocks 2, 5 and 7 (the worker count is ignored)
    monkeypatch.setattr(validation, "_BLOCK", 2)
    toy = make_toy_threshold()
    starts = [np.array([0.5 if i in (5, 11, 15) else 5.0]) for i in range(16)]
    args = (toy, starts, 4, UniformPolicy(toy.action_box), _child_seeds(0, 16),
            toy.state_box)
    assert _run_samples(*args, 1) == 5
    assert _run_samples(*args, 2) == 5


def test_zero_samples_give_a_vacuous_flagged_verdict():
    toy = make_toy_threshold()
    cover = build_cover(toy.state_box, 0.5)
    with pytest.warns(UserWarning, match="n_samples=0"):
        v = validate_eps_delta(toy, cover, 8, 0.05, 0.1, toy.action_box, rng=0, n_samples=0)
    assert v.result and v.n_samples == 0 and v.undersampled
    assert v.counterexample_start is None
    with pytest.warns(UserWarning, match="n_samples=0"):  # a box draws no start either
        v = validate_eps(toy, BoxRegion([1.0], [10.0]), 8, 0.05, 0.1, toy.action_box, rng=0, n_samples=0)
    assert v.result and v.n_samples == 0 and v.undersampled


def test_a_band_that_excludes_every_center_keeps_the_undersampled_flag():
    lf = make_lead_follow()
    cover = build_cover(BoxRegion([4.0, 4.0, 20.0], [12.0, 12.0, 40.0]), 1.0)
    band = boundary_band(lf.state_box, lf.sigma_bar)  # the domain's band: no interior center is in it
    with pytest.warns(UserWarning, match="verdict flagged"):
        v = validate_eps_delta(lf, cover, 40, 0.01, 0.1, lf.action_box, rng=0, band=band, n_samples=5)
    assert (v.result, v.n_samples, v.undersampled) == (True, 0, True)
    v = validate_eps_delta(lf, cover, 40, 0.01, 0.1, lf.action_box, rng=0, band=band)
    assert (v.result, v.n_samples, v.undersampled) == (True, 0, False)


# ---------------------------------------------------------------------------
# the miss rate that the sample size promises
# ---------------------------------------------------------------------------


def binomial_band(n: int, p: float, alpha: float) -> tuple[int, int]:
    """The counts ``k`` of Binomial(n, p) whose lower and upper tails both exceed ``alpha / 2``."""
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p)) for k in range(n + 1)]
    below = list(itertools.accumulate(pmf))  # P(X <= k)
    lo = next(k for k in range(n + 1) if below[k] > alpha / 2)
    hi = next(k for k in range(n, -1, -1) if 1.0 - (below[k - 1] if k else 0.0) > alpha / 2)
    return lo, hi


def test_val_eps_passes_an_eps_unsafe_region_at_the_rate_the_bound_gives():
    # toy-threshold sends every start below 1 out through its unsafe floor,
    # and [a, 10] puts exactly eps of its mass there: (1 - a) / (10 - a) = 0.05
    toy = make_toy_threshold()
    a = 0.5 / 0.95
    eps, beta, seeds = 0.05, 0.1, range(2000)
    n = sample_size_probabilistic(eps, beta)
    assert n == 45
    lo, hi = binomial_band(len(seeds), (1.0 - eps) ** n, 1e-6)  # fixed before the run
    passes = sum(validate_eps(toy, BoxRegion([a], [10.0]), 2, eps, beta, toy.action_box, rng=s).result
                 for s in seeds)
    assert lo <= passes <= hi, (f"{passes} of {len(seeds)} runs passed an eps-unsafe region; "
                                f"(1 - eps)^N expects {len(seeds) * (1.0 - eps) ** n:.1f}, band [{lo}, {hi}]")
