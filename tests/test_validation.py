import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant import validation
from setquant.geometry import BoxRegion, DeltaCover, boundary_band, build_cover
from setquant.scenario import (
    EXIT_UNSAFE,
    FixedActionPolicy,
    UniformPolicy,
    make_lead_follow,
    make_three_vehicle,
    make_toy_shift,
    make_toy_shrink,
    make_toy_threshold,
    run_scenario,
)
from setquant.validation import (
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
    args = (toy, starts, 4, UniformPolicy(toy.action_box), 0, toy.state_box)
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



def test_val_eps_delta_passes_a_cover_at_the_rate_its_doomed_fraction_gives():
    # toy-shift's step x + 1 sends the centers 2.25 and 2.75 of the 0.25-cover of [0, 3] out through its
    # unsafe ceiling and every other center into the cover: 2 of the 6 centers are doomed, and 2 of the 4
    # that the boundary band keeps (0.25, 0.75, 2.25, 2.75)
    toy = make_toy_shift()
    cover = build_cover(toy.state_box, 0.25)
    band = boundary_band(toy.state_box, toy.sigma_bar)
    assert cover.centers[:, 0].tolist() == [0.25, 0.75, 1.25, 1.75, 2.25, 2.75]
    assert [c for c in cover.centers[:, 0].tolist() if band([c])] == [0.25, 0.75, 2.25, 2.75]
    eps, beta, seeds = 0.5, 0.1, range(2000)
    n = sample_size_probabilistic(eps, beta)
    assert n == 4
    for restrict, doomed in ((None, 1.0 / 3.0), (band, 0.5)):
        lo, hi = binomial_band(len(seeds), (1.0 - doomed) ** n, 1e-6)  # fixed before the run
        passes = sum(validate_eps_delta(toy, cover, 2, eps, beta, toy.action_box, rng=s, band=restrict).result
                     for s in seeds)
        assert lo <= passes <= hi, (f"{passes} of {len(seeds)} runs passed a cover with a doomed fraction of "
                                    f"{doomed:.3f}; expected {len(seeds) * (1.0 - doomed) ** n:.1f}, band [{lo}, {hi}]")


def test_val_delta_runs_one_sample_per_cell_where_the_resolution_bound_is_tight():
    toy = make_toy_shrink()
    v = validate_delta(toy, build_cover(toy.state_box, 0.125), 8, FixedActionPolicy([0.0]))
    assert v.result and v.n_samples == 8 == sample_size_resolution(toy.state_box.volume, 0.125, 1)
    lf = make_lead_follow(sv="brake")
    box = BoxRegion([0.0, 0.0, 6.0], [16.0, 16.0, 60.0])  # 8 x 8 x 27 cells of width 2
    v = validate_delta(lf, build_cover(box, 1.0), 1, FixedActionPolicy([0.0]))
    assert v.result and v.n_samples == 1728 == sample_size_resolution(box.volume, 1.0, 3)

# ---------------------------------------------------------------------------
# val-delta through the block engine, against the per-center loop it replaced
# ---------------------------------------------------------------------------


def per_center_validate_delta(sys_, cover, horizon, action, record):
    """``validate_delta`` as the loop it replaced: one ``run_scenario`` and one ``outside`` query per active center.

    Returns ``(result, n_samples, counterexample_start, counterexample)``;
    the action is handed over as given, so an integer action stays integer.
    """
    quiet = dataclasses.replace(sys_, omega_bar=0.0, facets=dict(sys_.facets))
    det = lambda state, rng=None: tuple(action)
    idx = cover.active_indices()
    for k, i in enumerate(idx):
        start = cover.centers[int(i)]
        traj = run_scenario(quiet, start, horizon, det, np.random.Generator(np.random.PCG64(0)))
        record(int(k), traj)
        if traj.exit_kind == EXIT_UNSAFE or cover.outside(traj.states[1:]).any():
            return False, k + 1, [float(x) for x in start], traj
    return True, int(idx.size), None, None


def recorder():
    seen = []

    def record(k, traj):
        seen.append((k, traj.states.shape, traj.states.tobytes(), traj.actions.shape, traj.actions.tobytes(),
                     traj.exit_kind, traj.exit_facet))
    return seen, record


def thinned(cover, keep):
    """``cover`` with only the centers whose ordinal satisfies ``keep`` left active."""
    cover.active[:] = keep(np.arange(len(cover)))
    return cover


LF_SLAB = BoxRegion([0.0, 0.0, 20.0], [4.0, 16.0, 60.0])

DELTA_CASES = {
    # name: (system, cover, horizon, action)
    "lf-brake-full-box-fails": (lambda: make_lead_follow(sv="brake"),
                                lambda s: build_cover(s.state_box, 1.0), 40, [3.0]),
    "lf-brake-slab": (lambda: make_lead_follow(sv="brake"), lambda s: build_cover(LF_SLAB, 1.0), 40, [-5.0]),
    "lf-idm-slab-fails": (lambda: make_lead_follow(sv="idm"), lambda s: build_cover(LF_SLAB, 1.0), 40, [3.0]),
    "lf-brake-dead-centers": (lambda: make_lead_follow(sv="brake"),
                              lambda s: thinned(build_cover(s.state_box, 2.0), lambda o: o % 3 != 1), 40, [-5.0]),
    "lf-brake-horizon-1": (lambda: make_lead_follow(sv="brake"), lambda s: build_cover(s.state_box, 2.0), 1, [3.0]),
    "lf-brake-no-active-center": (lambda: make_lead_follow(sv="brake"),
                                  lambda s: thinned(build_cover(s.state_box, 2.0), lambda o: o < 0), 40, [3.0]),
    "3v-idm": (lambda: make_three_vehicle(sv="idm"), lambda s: build_cover(s.state_box, 1.25), 30, [0.0, -3.0]),
    "3v-brake-integer-action": (lambda: make_three_vehicle(sv="brake"),
                                lambda s: build_cover(s.state_box, 2.5), 30, [0, -3]),
    "shrink-truncating-passes": (make_toy_shrink, lambda s: build_cover(BoxRegion([-1.0], [0.0]), 0.25), 8, [-0.9]),
    "shrink-truncating-fails": (make_toy_shrink, lambda s: build_cover(BoxRegion([-1.0], [0.0]), 0.25), 8, [0.9]),
    "threshold-fails-first": (make_toy_threshold, lambda s: build_cover(s.state_box, 0.5), 8, [0.0]),
}


@pytest.mark.parametrize("case", sorted(DELTA_CASES))
def test_validate_delta_equals_the_per_center_loop(case):
    make, cover_of, horizon, action = DELTA_CASES[case]
    sys_ = make()
    cover = cover_of(sys_)
    want, want_record = recorder()
    result, n, start, traj = per_center_validate_delta(sys_, cover, horizon, action, want_record)
    got, got_record = recorder()
    v = validate_delta(sys_, cover, horizon, FixedActionPolicy(action), record=got_record)
    assert (v.result, v.n_samples, v.counterexample_start) == (result, n, start)
    assert (v.kind, v.delta, v.counterexample_seed) == ("delta", cover.radius, None)
    assert got == want
    if not result:
        assert v.counterexample.states.tobytes() == traj.states.tobytes()
        assert v.counterexample.actions.tobytes() == traj.actions.tobytes()
        assert (v.counterexample.exit_kind, v.counterexample.exit_facet) == (traj.exit_kind, traj.exit_facet)


@pytest.mark.parametrize("centers,action,recorded", [
    ([[0.0], [0.25], [2.0], [-0.25]], [0.0], 2),  # the centers before the one outside [-1, 1] pass
    ([[0.0], [-0.25], [-1.5]], [0.0], 2),
    ([[0.5], [2.0]], [0.9], 1),  # center 0 fails first: the one outside is never reached
])
def test_validate_delta_refuses_a_center_outside_the_state_box_as_the_loop_did(centers, action, recorded):
    toy = make_toy_shrink()
    want, want_record = recorder()
    got, got_record = recorder()
    cover = DeltaCover(centers, 0.25, toy.state_box)
    try:
        old = per_center_validate_delta(toy, cover, 4, action, want_record)
    except ValueError as exc:
        old = str(exc)
    try:
        v = validate_delta(toy, cover, 4, FixedActionPolicy(action), record=got_record)
        new = (v.result, v.n_samples, v.counterexample_start, v.counterexample)
    except ValueError as exc:
        new = str(exc)
    if isinstance(old, str):
        assert "outside the domain" in old and new == old
    else:
        assert new[:3] == old[:3] == (False, 1, [0.5])
    assert got == want and len(got) == recorded
