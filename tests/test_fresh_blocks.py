"""Differential test of ``qnt-dp`` and ``qnt-ae``'s fresh-sample blocks against their sequential loops.

``sequential_dp`` and ``sequential_ae`` below are the one-sample-at-a-time
loops that the blocks replaced: one start pick on numpy's own selection
stream, one ``run_scenario`` on numpy's own stream of the sample's ordinal,
and one cover query per sample (per state, for ``qnt-ae``'s growth).  Both
run on the same configs, and everything observable must agree bit for bit:
the report, the cover's centers, activity bits and radius, the restarts and
every recorded trajectory.  The configs cover the toys, lead-follow and
three-vehicle; box and finite action sets, with and without disturbance,
and a one-point set; horizon 1; budgets of 0, 1 and one that ends inside a
block; a ``qnt-ae`` run with restarts and decays and a ``qnt-dp`` run that
prunes every cell.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant.geometry import DeltaCover, build_cover
from setquant.quantification import HyperParams, _result, quantify_adaptive, quantify_delta_pruning
from setquant.scenario import (
    EXIT_UNSAFE,
    BoxActionSet,
    FiniteActionSet,
    UniformPolicy,
    make_lead_follow,
    make_three_vehicle,
    make_toy_shift,
    make_toy_shrink,
    make_toy_threshold,
    make_toy_two_basins,
    run_scenario,
)


def stream(seed, ordinal):
    """numpy's own stream of spawn key ``(ordinal,)``; ordinal ``2**31`` is the selection stream."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(ordinal,))))


def sequential_dp(sys, actions, delta, n_samples, horizon, seed, hyper=None, record=None):
    """``qnt-dp`` as it ran before the blocks, one rollout at a time."""
    cover = build_cover(sys.state_box, delta)
    sel = stream(seed, 2**31)
    n = 0
    for i in range(int(n_samples)):
        act = cover.active_indices()
        if act.size == 0:
            break
        idx = int(act[int(sel.integers(act.size))])
        traj = run_scenario(sys, cover.centers[idx], horizon, UniformPolicy(actions), stream(seed, i))
        n += 1
        if record is not None:
            record(i, traj)
        if traj.exit_kind == EXIT_UNSAFE or cover.outside(traj.states[1:]).any():
            cover.deactivate([idx])
    hy = hyper if hyper is not None else HyperParams(delta0=delta, delta_min=delta,
                                                    horizon=horizon, budget=int(n_samples))
    return _result("qnt-dp", sys, actions, hy, seed, cover, cover.n_active() > 0, n)


def sequential_ae(sys, actions, hyper, seed, initial_state=None, record=None):
    """``qnt-ae`` as it ran before the blocks, one rollout at a time."""
    dom = sys.state_box
    n_eps = hyper.stability_window()
    sel = stream(seed, 2**31)
    seed_pt = np.asarray(initial_state, dtype=float) if initial_state is not None else dom.sample(sel)
    cover = DeltaCover(np.asarray([seed_pt]), hyper.delta0, dom)
    n = streak = decays = restarts = 0
    last_restart_n = -(10 * n_eps)
    converged = False
    while n < hyper.budget:
        act = cover.active_indices()
        idx = int(act[int(sel.integers(act.size))])
        traj = run_scenario(sys, cover.centers[idx], hyper.horizon, UniformPolicy(actions), stream(seed, n))
        n += 1
        if record is not None:
            record(n - 1, traj)
        event = False
        states = traj.states
        for t in range(1, states.shape[0]):
            if traj.exit_kind == EXIT_UNSAFE and t == states.shape[0] - 1:
                cover = DeltaCover(np.asarray([dom.sample(sel)]), cover.radius, dom)
                restarts += 1
                last_restart_n = n
                event = True
                break
            if cover.outside(states[t])[0]:
                cover.append(states[t])
                event = True
        streak = 0 if event else streak + 1
        if streak >= n_eps:
            if hyper.decay_undershoots(cover.radius):
                converged = True
                break
            cover.radius = hyper.gamma * cover.radius
            decays += 1
            streak = 0
    if not converged and restarts > 0 and (n - last_restart_n) <= n_eps:
        cover = DeltaCover(np.empty((0, dom.dim)), cover.radius, dom)
    return _result("qnt-ae", sys, actions, hyper, seed, cover, converged, n, n_decays=decays,
                   restarts=restarts)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_runs(run_blocks, run_sequential):
    """Run both with a ``record``; assert that every observable agrees bit for bit.  Returns the result."""
    got_records, want_records = [], []
    got = run_blocks(record=lambda i, traj: got_records.append((i, traj)))
    want = run_sequential(record=lambda i, traj: want_records.append((i, traj)))
    assert got.report == want.report
    assert same_bits(got.cover.centers, want.cover.centers)
    np.testing.assert_array_equal(got.cover.active, want.cover.active)
    assert got.cover.radius == want.cover.radius
    assert got.restarts == want.restarts
    assert [i for i, _ in got_records] == [i for i, _ in want_records]
    for (_, a), (_, b) in zip(got_records, want_records):
        assert same_bits(a.states, b.states) and same_bits(a.actions, b.actions)
        assert (a.exit_kind, a.exit_facet) == (b.exit_kind, b.exit_facet)
    return want


def action_set(sys, acts):
    """None for the system's box, a box as given, or the points of a finite set."""
    return sys.action_box if acts is None else acts if isinstance(acts, BoxActionSet) else FiniteActionSet(acts)


THREE_POINTS = [(-1.0,), (0.0,), (1.0,)]

# name: (system, action set as ``action_set`` reads it, delta, samples, horizon, seed)
DP_CONFIGS = {
    "threshold-box": (lambda: make_toy_threshold(), None, 0.5, 300, 8, 1),
    "threshold-three-points": (lambda: make_toy_threshold(), THREE_POINTS, 0.5, 3000, 5, 0),
    # a finite set under disturbance draws each sample's stream step by step
    "threshold-three-points-noisy": (lambda: make_toy_threshold(omega_bar=0.25), THREE_POINTS, 0.3, 1500, 8, 2),
    # every one of the 17 cells is pruned, the last at sample 385
    "threshold-noisy-prunes-everything": (lambda: make_toy_threshold(omega_bar=0.25), None, 0.3, 2000, 8, 0),
    "shrink-held": (lambda: make_toy_shrink(), [(0.0,)], 0.25, 500, 8, 3),
    "two-basins-horizon-1": (lambda: make_toy_two_basins(), None, 0.5, 200, 1, 4),
    "budget-0": (lambda: make_toy_threshold(), None, 0.5, 0, 8, 0),
    "budget-1": (lambda: make_toy_threshold(), None, 0.5, 1, 8, 0),
    # events end blocks early, and the budget cuts the last blocks short
    "budget-13": (lambda: make_toy_two_basins(omega_bar=0.5), None, 0.5, 13, 8, 5),
    "shift-prunes-everything": (lambda: make_toy_shift(), None, 0.5, 100, 8, 1),
    "lead-follow-box": (lambda: make_lead_follow(), None, 2.0, 1500, 40, 0),
    "lead-follow-idm-three-points": (lambda: make_lead_follow(sv="idm"), [(-5.0,), (-1.0,), (3.0,)],
                                     2.0, 1000, 20, 1),
    "three-vehicle-idm-noisy-prunes-everything": (lambda: make_three_vehicle(sv="idm", omega_bar=0.3), None,
                                                  2.5, 600, 30, 0),
}


@pytest.mark.parametrize("name", sorted(DP_CONFIGS))
def test_delta_pruning_blocks_equal_the_sequential_loop(name):
    make, acts, delta, n_samples, horizon, seed = DP_CONFIGS[name]
    sys_ = make()
    actions = action_set(sys_, acts)
    want = assert_same_runs(
        lambda **kw: quantify_delta_pruning(sys_, actions, delta, n_samples, horizon, seed, **kw),
        lambda **kw: sequential_dp(sys_, actions, delta, n_samples, horizon, seed, **kw))
    if name.endswith("prunes-everything"):
        assert want.cover.n_active() == 0 and want.report.n_fresh_samples < n_samples


def ae_hyper(**kw):
    base = dict(epsilon=0.05, beta=0.1, delta0=1.0, gamma=0.5, delta_min=0.25, horizon=8, budget=5000)
    return HyperParams(**{**base, **kw})


# name: (system, action set as ``action_set`` reads it, hyper, seed, initial state)
AE_CONFIGS = {
    "two-basins-seeded": (lambda: make_toy_two_basins(), None,
                          ae_hyper(beta=0.2, delta_min=0.5, budget=3000), 4, [5.0]),
    # the seed and both restart points are drawn from the selection stream
    "threshold-restarts-and-decays": (lambda: make_toy_threshold(), None, ae_hyper(budget=20_000), 2, None),
    "threshold-three-points": (lambda: make_toy_threshold(), THREE_POINTS, ae_hyper(), 1, None),
    "threshold-three-points-noisy": (lambda: make_toy_threshold(omega_bar=0.25), THREE_POINTS,
                                     ae_hyper(budget=3000), 3, None),
    "shrink-held": (lambda: make_toy_shrink(), [(0.0,)], ae_hyper(), 0, None),
    "two-basins-horizon-1": (lambda: make_toy_two_basins(), None, ae_hyper(horizon=1), 6, None),
    "budget-0": (lambda: make_toy_threshold(), None, ae_hyper(budget=0), 2, None),
    "budget-1": (lambda: make_toy_threshold(), None, ae_hyper(budget=1), 2, None),
    # the budget cuts the last block short
    "budget-13": (lambda: make_toy_two_basins(omega_bar=0.5), None, ae_hyper(budget=13), 5, None),
    # restarts until the budget runs out: the empty-cover verdict
    "shift-keeps-restarting": (lambda: make_toy_shift(), None, ae_hyper(budget=300), 0, None),
    "lead-follow-box": (lambda: make_lead_follow(), None,
                        ae_hyper(delta0=2.0, delta_min=1.0, horizon=40, budget=1500), 0, None),
    "three-vehicle-box": (lambda: make_three_vehicle(), None,
                          ae_hyper(delta0=2.5, delta_min=1.25, horizon=10, budget=600), 0, None),
}


@pytest.mark.parametrize("name", sorted(AE_CONFIGS))
def test_adaptive_blocks_equal_the_sequential_loop(name):
    make, acts, hyper, seed, initial_state = AE_CONFIGS[name]
    sys_ = make()
    actions = action_set(sys_, acts)
    want = assert_same_runs(
        lambda **kw: quantify_adaptive(sys_, actions, hyper, seed, initial_state=initial_state, **kw),
        lambda **kw: sequential_ae(sys_, actions, hyper, seed, initial_state=initial_state, **kw))
    if name == "threshold-restarts-and-decays":
        assert want.restarts == 2 and want.report.n_decays > 0 and want.converged
    if name == "shift-keeps-restarting":
        assert want.restarts > 0 and len(want.cover) == 0


def test_a_horizon_below_1_raises_whatever_the_budget():
    toy = make_toy_threshold()
    for budget in (0, 5):
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            quantify_delta_pruning(toy, toy.action_box, 0.5, budget, 0, 0)
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            quantify_adaptive(toy, toy.action_box, ae_hyper(horizon=0, budget=budget), 0)


def test_a_seed_state_outside_the_box_raises_before_any_record():
    toy = make_toy_two_basins()
    for run in (quantify_adaptive, sequential_ae):
        records = []
        with pytest.raises(ValueError, match=r"state \(12\.0,\) outside the domain"):
            run(toy, toy.action_box, ae_hyper(), 0, initial_state=[12.0], record=lambda i, t: records.append(i))
        assert records == []


TOYS = (make_toy_threshold, make_toy_two_basins, make_toy_shrink, make_toy_shift)


@given(toy=st.sampled_from(TOYS), noisy=st.booleans(), points=st.sampled_from([None, THREE_POINTS, [(0.5,)]]),
       horizon=st.integers(1, 10), budget=st.integers(0, 400), seed=st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_toy_delta_pruning_blocks_equal_the_sequential_loop(toy, noisy, points, horizon, budget, seed):
    sys_ = toy(omega_bar=0.3 if noisy else 0.0)
    actions = action_set(sys_, points)
    assert_same_runs(lambda **kw: quantify_delta_pruning(sys_, actions, 0.5, budget, horizon, seed, **kw),
                     lambda **kw: sequential_dp(sys_, actions, 0.5, budget, horizon, seed, **kw))


@given(toy=st.sampled_from(TOYS), noisy=st.booleans(), points=st.sampled_from([None, THREE_POINTS, [(0.5,)]]),
       horizon=st.integers(1, 10), budget=st.integers(0, 600), seed=st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_toy_adaptive_blocks_equal_the_sequential_loop(toy, noisy, points, horizon, budget, seed):
    sys_ = toy(omega_bar=0.3 if noisy else 0.0)
    actions = action_set(sys_, points)
    hyper = ae_hyper(epsilon=0.1, horizon=horizon, budget=budget)
    assert_same_runs(lambda **kw: quantify_adaptive(sys_, actions, hyper, seed, **kw),
                     lambda **kw: sequential_ae(sys_, actions, hyper, seed, **kw))
