"""The four quantifiers and their shared machinery."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant.geometry import BoxRegion, build_cover
from setquant.oracle import brute_force_invariant, compare_sets, project_to_grid
from setquant.quantification import (
    HyperParams,
    ReachGraph,
    cost,
    prioritized_weights,
    quantify_adaptive,
    quantify_delta_pruning,
    quantify_spe,
    quantify_vanilla,
    reachable_closure,
)
from setquant.scenario import (
    BoxActionSet,
    FiniteActionSet,
    make_lead_follow,
    make_toy_shrink,
    make_toy_threshold,
    make_toy_two_basins,
)

HP = HyperParams(epsilon=0.05, beta=0.1, delta0=1.0, gamma=0.5, delta_min=0.25,
                 horizon=8, budget=20_000)


# ---------------------------------------------------------------------------
# hyper bundle
# ---------------------------------------------------------------------------


def test_hyper_defaults_and_stability_window():
    hp = HyperParams()
    assert (hp.epsilon, hp.beta, hp.delta0, hp.gamma) == (0.01, 0.1, 1.0, 0.5)
    assert (hp.delta_min, hp.horizon, hp.budget) == (0.25, 8, 50_000)
    assert hp.stability_window() == 230
    assert HyperParams(epsilon=0.05, beta=0.2).stability_window() == 32


def test_cost_prefers_volume_and_scales_with_action_size():
    box = BoxActionSet([-5.0], [3.0])
    assert cost(10.0, box) == -80.0
    assert cost(10.0, FiniteActionSet([(-5.0,)])) == -10.0
    assert cost(12.0, box) < cost(10.0, box)


# ---------------------------------------------------------------------------
# prioritized weights
# ---------------------------------------------------------------------------


def test_prioritized_weights_favor_the_frontier():
    w = prioritized_weights(np.array([0.0, 1.0, 3.0]))
    assert w[0] > w[1] > w[2] >= 0.0
    assert w.sum() == pytest.approx(1.0)


def test_prioritized_weights_uniform_without_signal():
    w = prioritized_weights(np.array([np.inf, np.inf]))
    np.testing.assert_allclose(w, [0.5, 0.5])
    w = prioritized_weights(np.array([2.0, 2.0, 2.0]))
    np.testing.assert_allclose(w, [1 / 3] * 3)


@given(st.lists(st.floats(0, 100), min_size=1, max_size=20),
       st.floats(1.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_prioritized_weights_are_a_distribution(dists, power):
    w = prioritized_weights(np.asarray(dists), power)
    assert np.all(w >= 0)
    assert w.sum() == pytest.approx(1.0)


def test_prioritized_weights_reject_sublinear_power():
    with pytest.raises(ValueError):
        prioritized_weights(np.array([1.0]), power=0.5)


# ---------------------------------------------------------------------------
# reach graph
# ---------------------------------------------------------------------------


def test_reachable_closure_collects_ancestors_only():
    g = ReachGraph()
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.add_edge(3, 2)
    g.add_edge(2, 4)
    assert reachable_closure(g, 2) == {0, 1, 2, 3}
    assert reachable_closure(g, 4) == {0, 1, 2, 3, 4}
    assert reachable_closure(g, 0) == {0}


# ---------------------------------------------------------------------------
# vanilla box guessing
# ---------------------------------------------------------------------------


def test_vanilla_finds_a_validated_box_on_threshold():
    toy = make_toy_threshold()
    hp = HyperParams(epsilon=0.1, beta=0.2, delta0=0.5, horizon=4, budget=1000)
    res = quantify_vanilla(toy, toy.action_box, hp, 0, n_attempts=10)
    assert res.converged
    assert res.region is not None
    assert res.region.lower[0] >= 1.0 - 1e-9  # the sub-threshold strip never validates
    assert res.report.algorithm == "qnt-vs"
    assert res.verdict.result


def test_vanilla_reports_failure_after_exhausting_attempts():
    # a domain with no invariant subset: every guess must fail
    from setquant.scenario import make_toy_shift

    toy = make_toy_shift()
    hp = HyperParams(epsilon=0.1, beta=0.2, delta0=0.5, horizon=6, budget=1000)
    res = quantify_vanilla(toy, toy.action_box, hp, 1, n_attempts=5)
    assert not res.converged
    assert res.report.cell_count == 0 and res.report.volume == 0.0


# ---------------------------------------------------------------------------
# delta pruning
# ---------------------------------------------------------------------------


def test_delta_pruning_kills_the_doomed_cells_deterministically():
    toy = make_toy_threshold()
    res = quantify_delta_pruning(toy, toy.action_box, 0.5, 500, 8, 0)
    cs = res.cover.centers[res.cover.active_indices()][:, 0]
    assert res.converged
    assert cs.min() >= 1.5 - 1e-9  # 0.5 dies on its own rollout
    assert res.report.n_fresh_samples == 500


def test_delta_pruning_over_prunes_under_disturbance():
    # the blunt rule: one unlucky rollout condemns a cell the fixed-point
    # oracle keeps
    toy = make_toy_threshold(omega_bar=0.25)
    oracle = brute_force_invariant(toy, 0.3, horizon=1)
    res = quantify_delta_pruning(toy, toy.action_box, 0.3, 2000, 8, 0)
    pruned = np.setdiff1d(np.arange(len(res.cover)), res.cover.active_indices())
    alive = oracle.grid.centers[oracle.mask]
    over = sum(float(np.abs(alive - res.cover.centers[i]).max(axis=1).min()) < 1e-9
               for i in pruned)
    assert over >= 1


# ---------------------------------------------------------------------------
# adaptive growth
# ---------------------------------------------------------------------------


def test_adaptive_stays_in_its_seeded_basin():
    toy = make_toy_two_basins()
    res = quantify_adaptive(toy, toy.action_box, HP, 0, initial_state=np.array([5.0]))
    act = res.cover.active_indices()
    assert act.size > 0
    assert np.all(res.cover.centers[act][:, 0] > 0)


def test_adaptive_restarts_until_the_cloud_survives():
    # sub-threshold seeds die on their first rollout and trigger a restart, so
    # a converged run can only ever hold centers at or above the threshold;
    # this seed reseeds twice before settling
    toy = make_toy_threshold()
    res = quantify_adaptive(toy, toy.action_box, HP, 2)
    assert res.converged
    assert res.restarts == 2
    act = res.cover.active_indices()
    assert act.size > 0
    assert np.all(res.cover.centers[act][:, 0] >= 1.0)


# ---------------------------------------------------------------------------
# synchronous pruning and exploration
# ---------------------------------------------------------------------------


def test_spe_recovers_two_basins_within_one_cell():
    toy = make_toy_two_basins()
    oracle = brute_force_invariant(toy, HP.delta_min, horizon=1)
    res = quantify_spe(toy, toy.action_box, HP, 0)
    assert res.converged
    assert res.report.final_delta == pytest.approx(HP.delta_min)
    m = compare_sets(project_to_grid(res.cover, oracle.grid), oracle)
    assert m["sym_diff"] <= 4 * 2 * HP.delta_min  # one cell per basin edge


def test_spe_is_bit_reproducible_per_seed():
    toy = make_toy_two_basins()
    a = quantify_spe(toy, toy.action_box, HP, 7)
    b = quantify_spe(toy, toy.action_box, HP, 7)
    np.testing.assert_array_equal(a.cover.centers, b.cover.centers)
    np.testing.assert_array_equal(a.cover.active, b.cover.active)
    assert a.report == b.report
    c = quantify_spe(toy, toy.action_box, HP, 8)
    assert not np.array_equal(a.cover.centers, c.cover.centers)


def test_spe_respects_the_sample_budget():
    toy = make_toy_two_basins()
    hp = HyperParams(epsilon=0.05, beta=0.1, delta0=1.0, gamma=0.5,
                     delta_min=0.05, horizon=8, budget=120)
    res = quantify_spe(toy, toy.action_box, hp, 0)
    assert res.report.n_fresh_samples <= 120
    assert not res.converged  # starved runs must say so


def test_spe_replay_counts_separately_from_fresh():
    toy = make_toy_two_basins()
    seen = []
    res = quantify_spe(toy, toy.action_box, HP, 0, replay=True,
                       record=lambda i, t: seen.append(i))
    assert res.report.n_fresh_samples == len(seen)
    assert res.report.n_replayed > 0
    assert res.report.n_decays >= 1


def test_spe_prunes_the_whole_domain_on_the_shift_toy():
    from setquant.scenario import make_toy_shift

    toy = make_toy_shift()
    res = quantify_spe(toy, toy.action_box, HP, 0)
    assert res.converged  # an emptied cover is a converged (empty) answer
    assert res.report.cell_count == 0 and res.report.volume == 0.0


def test_spe_trace_sees_every_fresh_sample():
    toy = make_toy_threshold()
    ns = []
    res = quantify_spe(toy, toy.action_box, HP, 3,
                       trace=lambda n, cover, event: ns.append(n))
    assert ns == list(range(1, res.report.n_fresh_samples + 1))


def test_spe_prioritized_matches_plain_on_final_geometry():
    # weighting changes the draw order, not the answer class: both settle on
    # the threshold set within a cell
    toy = make_toy_threshold()
    plain = quantify_spe(toy, toy.action_box, HP, 5)
    prio = quantify_spe(toy, toy.action_box, HP, 5, prioritized=True)
    for res in (plain, prio):
        cs = res.cover.centers[res.cover.active_indices()][:, 0]
        assert cs.min() == pytest.approx(1.0, abs=2 * HP.delta_min)
        assert cs.max() == pytest.approx(10.0, abs=2 * HP.delta_min)


@pytest.mark.parametrize("cap_rows", [16, 0])
def test_a_held_pre_roll_stays_within_the_size_cap(monkeypatch, cap_rows):
    # 200 centers of toy-threshold under one held input: uncapped, the first
    # pre-roll takes them all; under a cap of cap_rows rows of 8 steps of
    # (state, action, disturbance) floats, a pre-roll holds no more than that
    # or the block's own starts, and the answer is the same
    import setquant.quantification as quantification

    toy = make_toy_threshold()
    hp = HyperParams(epsilon=0.05, beta=0.1, delta0=0.025, gamma=0.5, delta_min=0.025,
                     horizon=8, budget=2000)
    actions = FiniteActionSet([(0.0,)])
    rows = []
    roll = quantification.run_batch
    monkeypatch.setattr(quantification, "run_batch", lambda s, x0, noise: rows.append(len(x0)) or roll(s, x0, noise))
    free = quantify_spe(toy, actions, hp, 0, min_feature_scale=1.0)
    assert rows[0] == 200
    assert quantification._preroll_rows(toy, hp.horizon) == quantification._PREROLL_ROWS
    rows.clear()
    monkeypatch.setattr(quantification, "_SIZE_CAP", cap_rows * hp.horizon * 3 * 8)
    assert quantification._preroll_rows(toy, hp.horizon) == cap_rows
    capped = quantify_spe(toy, actions, hp, 0, min_feature_scale=1.0)
    assert len(rows) > 1 and max(rows) <= quantification._SPEC_MAX
    np.testing.assert_array_equal(free.cover.centers, capped.cover.centers)
    np.testing.assert_array_equal(free.cover.active, capped.cover.active)
    assert free.report == capped.report


# ---------------------------------------------------------------------------
# resolution warnings
# ---------------------------------------------------------------------------


def test_spe_warns_without_a_declared_feature_scale():
    toy = make_toy_shrink()
    with pytest.warns(UserWarning, match="unverifiable"):
        quantify_spe(toy, toy.action_box, HP, 0)


def test_spe_warns_when_cells_outsize_the_feature_scale():
    toy = make_toy_shrink()
    with pytest.warns(UserWarning, match="feature scale"):
        quantify_spe(toy, toy.action_box, HP, 0, min_feature_scale=0.1)


def test_spe_warns_when_the_cell_scale_passes_the_float_range():
    # (1e200 / 2) ** 3 overflows: the scale is wider than any declared one, not an OverflowError
    lf = make_lead_follow()
    hp = HyperParams(epsilon=0.05, beta=0.1, delta0=1e200, gamma=0.5, delta_min=1e200, horizon=3, budget=20)
    with pytest.warns(UserWarning, match="feature scale"):
        quantify_spe(lf, lf.action_box, hp, 0, min_feature_scale=1.0)


def test_spe_quiet_when_resolution_suffices():
    toy = make_toy_shrink()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quantify_spe(toy, toy.action_box, HP, 0, min_feature_scale=10.0)
