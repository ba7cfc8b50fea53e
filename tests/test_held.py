"""Held-input blocks skip work whose result is known, and change no bit.

A block whose every row holds its input (the same bits at every step) stops
``run_batch`` at the first step that leaves every live row where it was; it
must equal a loop of ``step_batch`` calls over every step.  A one-point
action set's ``block`` seeds no stream.  ``quantify_spe`` draws a block's
starts with one call and queries the cover once per block; under a
held input it rolls each center once and skips a start that the unchanged
cover already saw with no event.  It must equal the one-sample-at-a-time
loop of ``test_speculative``.
"""

import warnings

import numpy as np
import pytest

from setquant import quantification, scenario, streams
from setquant.geometry import DeltaCover
from setquant.quantification import HyperParams
from setquant.scenario import (
    FiniteActionSet,
    UniformPolicy,
    make_lead_follow,
    make_three_vehicle,
    make_toy_flip,
    make_toy_shift,
    make_toy_shrink,
    make_toy_threshold,
    noise_sampler,
    run_batch,
    sample_stream,
    step_batch,
)
from test_speculative import lf_hyper, observed, same_bits, sequential_spe, toy_hyper


def stepped(sys_, x0, acts, omegas):
    """``run_batch`` as a loop of ``step_batch`` calls over every step: (states, code, length)."""
    b, n = x0.shape
    steps = acts.shape[1]
    states = np.full((b, steps + 1, n), np.nan)
    states[:, 0] = x0
    code, length = np.full(b, -1), np.full(b, steps + 1)
    live = np.arange(b)
    for t in range(steps):
        nxt, c = step_batch(sys_, states[live, t], acts[live, t], omegas[live, t])
        states[live, t + 1] = nxt
        unsafe = c >= 0
        code[live[unsafe]], length[live[unsafe]] = c[unsafe], t + 2
        live = live[~unsafe]
    return states, code, length


def counted_steps(monkeypatch) -> list:
    """Count the lock-steps of ``run_batch`` (its ``_advance`` calls); returns the one-entry log."""
    calls, inner = [0], scenario._advance

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(scenario, "_advance", counted)
    return calls


def assert_equals_the_stepped_loop(sys_, x0, acts, omegas, calls=(0,)):
    """Compare ``run_batch`` with ``stepped``; returns its rollouts and how many steps it took by ``calls``."""
    got = run_batch(sys_, x0, (acts, omegas))
    taken = calls[0]
    states, code, length = stepped(sys_, x0, acts, omegas)
    assert got.code.tolist() == code.tolist() and got.length.tolist() == length.tolist()
    for j, k in enumerate(length):
        assert same_bits(got.states[j, :k], states[j, :k]), j
    return got, taken


def held(rows: np.ndarray, steps: int) -> np.ndarray:
    """Per-row inputs (B, k) held over ``steps`` steps, as a (B, steps, k) array."""
    return np.repeat(rows[:, None, :], steps, axis=1)


def lead_follow_rows(rng, sys_):
    """Starts and held lead inputs: rows that rest at different steps, go unsafe, or rest clamped."""
    x0 = np.array([
        [0.0, 5.0, 60.0],    # rests at once, its gap clamped at 60 every step
        [0.0, 0.0, 30.0],    # rests at once
        [3.0, 0.0, 30.0],    # stops braking, then rests
        [16.0, 16.0, 40.0],  # the lead brakes too: rests later
        [16.0, 0.0, 6.0],    # runs into the lead: unsafe
        [2.0, 12.0, 50.0],   # the gap grows into its clamp
    ])
    u = np.array([[0.0], [-5.0], [-5.0], [-5.0], [-5.0], [0.0]])
    x0 = np.concatenate([x0, rng.uniform(sys_.state_box.lower, sys_.state_box.upper, size=(40, 3))])
    u = np.concatenate([u, rng.choice([-5.0, 0.0, 3.0], size=(40, 1))])
    return x0, u


@pytest.mark.parametrize("sv", ["brake", "idm"])
def test_a_held_lead_follow_block_equals_the_stepped_loop(sv):
    sys_ = make_lead_follow(sv=sv)
    x0, u = lead_follow_rows(np.random.default_rng(5), sys_)
    steps = 60
    got, _ = assert_equals_the_stepped_loop(sys_, x0, held(u, steps), np.zeros((len(x0), steps, 2)))
    assert 0 < (got.code >= 0).sum() < len(x0)
    if sv == "brake":
        assert got.states[0, -1].tolist() == [0.0, 5.0, 60.0]


def test_a_held_three_vehicle_block_equals_the_stepped_loop():
    sys_ = make_three_vehicle(sv="brake", omega_bar=0.2)
    rng = np.random.default_rng(8)
    x0 = rng.uniform(sys_.state_box.lower, sys_.state_box.upper, size=(50, 5))
    x0[:5, :3] = 0.0  # every vehicle stands still: these rows rest at once
    x0[5:8] = [6.0, 0.0, 0.0, 6.0, -20.0]  # these run into the lead
    u = rng.uniform(sys_.action_box.box.lower, sys_.action_box.box.upper, size=(50, 2))
    u[:10] = [-5.0, -3.0]
    w = np.zeros((50, 3))
    w[40:] = rng.uniform(-0.2, 0.2, size=(10, 3))  # held disturbances
    got, _ = assert_equals_the_stepped_loop(sys_, x0, held(u, 45), held(w, 45))
    assert 0 < (got.code >= 0).sum() < 50


def test_a_block_that_rests_at_once_stops_after_one_step(monkeypatch):
    sys_ = make_toy_threshold()  # x' = x from 1 up
    x0 = np.array([[1.0], [4.5], [10.0]])
    calls = counted_steps(monkeypatch)
    got, taken = assert_equals_the_stepped_loop(sys_, x0, np.full((3, 30, 1), 0.5), np.zeros((3, 30, 1)), calls)
    assert taken == 1
    np.testing.assert_array_equal(got.states[:, :, 0], np.repeat(x0, 31, axis=1))


def test_a_block_stops_at_its_last_row_to_rest(monkeypatch):
    sys_ = make_lead_follow(sv="brake")
    x0 = np.array([[0.0, 0.0, 30.0], [16.0, 16.0, 60.0]])  # the second row rests after 32 steps
    calls = counted_steps(monkeypatch)
    _, taken = assert_equals_the_stepped_loop(sys_, x0, np.full((2, 39, 1), -5.0), np.zeros((2, 39, 2)), calls)
    assert 30 < taken < 39


def test_a_sign_flip_of_zero_is_not_a_rest():
    # x' = -x + w under w = -0.0 alternates 0.0 and -0.0 from 0.0: equal values, different bits
    sys_ = make_toy_flip()
    x0 = np.array([[0.0], [-0.0]])
    got, _ = assert_equals_the_stepped_loop(sys_, x0, np.zeros((2, 6, 1)), np.full((2, 6, 1), -0.0))
    assert got.states[0, :, 0].tobytes() == np.array([0.0, -0.0] * 3 + [0.0]).tobytes()


@pytest.mark.parametrize("late", [1, 10])
def test_inputs_that_change_after_every_row_rests_do_not_end_the_block(late):
    # every row stands still under the lead's -5 until step ``late``, then the lead speeds up
    sys_ = make_lead_follow(sv="brake")
    x0 = np.array([[0.0, 0.0, 30.0], [0.0, 0.0, 6.0], [0.0, 0.0, 59.9]])
    acts = np.full((3, 20, 1), -5.0)
    acts[:, late:] = 3.0
    got, _ = assert_equals_the_stepped_loop(sys_, x0, acts, np.zeros((3, 20, 2)))
    assert (got.states[:, -1, 1] > 0.0).all()
    # a disturbance that changes alone also moves the rows
    omegas = np.zeros((3, 20, 2))
    omegas[:, late:, 1] = 8.0
    got, _ = assert_equals_the_stepped_loop(sys_, x0, np.full((3, 20, 1), -5.0), omegas)
    assert (got.states[:, -1, 1] > 0.0).all()


def test_a_one_point_block_seeds_no_stream(monkeypatch):
    sys_ = make_lead_follow(sv="brake")
    draw = noise_sampler(sys_, UniformPolicy(FiniteActionSet([(-5.0,)])), 39)
    want = [draw(sample_stream(scenario._sample_desc(3, i))) for i in range(20)]  # the per-step draws
    monkeypatch.setattr(streams, "_seed_words", None)  # the lanes' seeding
    monkeypatch.setattr(scenario, "sample_stream", None)
    u, w = draw.block(3, np.arange(20))
    assert same_bits(u, np.array([a for a, _ in want])) and same_bits(w, np.array([b for _, b in want]))


# ---------------------------------------------------------------------------
# quantify_spe on held inputs, against the sequential loop
# ---------------------------------------------------------------------------


def both_runs(sys_, actions, hyper, seed, **kw):
    """``quantify_spe`` and ``sequential_spe`` observed on one config: [(result, traces, records)] * 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [observed(lambda **obs: quantify(sys_, actions, hyper, seed, **kw, **obs))
                for quantify in (quantification.quantify_spe, sequential_spe)]


def test_a_held_run_whose_first_prune_switches_the_draw_kind_equals_the_sequential_loop():
    # the cell at 0.5 is pruned; the others rest at once.  The block that
    # holds the first prune drew integers, every later block uniforms.
    sys_ = make_toy_threshold()
    actions = FiniteActionSet([(0.0,)])
    hyper = toy_hyper(delta0=0.5, delta_min=0.125)
    (got, traces, records), ((rep, cover, pruned, graph), want_traces, want_records) = both_runs(
        sys_, actions, hyper, 4, prioritized=True, replay=True)
    assert got.report == rep and got.report.converged
    assert len(pruned) > 0 and got.pruned[0].tolist() == [0.5]
    assert same_bits(got.cover.centers, cover.centers)
    np.testing.assert_array_equal(got.cover.active, cover.active)
    assert got.graph.parents == graph.parents
    assert traces == want_traces
    assert len(records) == len(want_records)
    for (i, a), (k, b) in zip(records, want_records):
        assert i == k and same_bits(a.states, b.states) and a.exit_kind == b.exit_kind


# name: (system, the one action point, hyper, seed, prioritized, replay)
HELD_CONFIGS = {
    # the benchmark's reference setup at a coarser final resolution
    "lead-follow": (make_lead_follow, (-5.0,), lf_hyper(horizon=40, epsilon=0.01, budget=3000), 0, True, True),
    # an integer action pair; 61 of the 735 samples prune
    "three-vehicle-brake": (make_three_vehicle, (-5, -3),
                            HyperParams(epsilon=0.05, beta=0.1, delta0=2.5, gamma=0.5, delta_min=1.25,
                                        horizon=30, budget=3000), 0, True, True),
    # every rollout ends clamped at the upper facet
    "toy-shrink-truncating": (make_toy_shrink, (0.9,), toy_hyper(delta0=0.25, delta_min=0.0625), 1, False, True),
    # prunes, refinements and rediscoveries: a start that the cover saw with no
    # event must be applied again after a prune in the fresh samples, after a
    # refinement, and after a replayed discovery that brings a dead center back
    "toy-shift-rediscovers": (make_toy_shift, (0.0,), toy_hyper(epsilon=0.05, horizon=2), 16, True, True),
}


@pytest.mark.parametrize("name", sorted(HELD_CONFIGS))
def test_a_held_run_equals_the_sequential_loop(name):
    assert_the_held_run_equals_the_sequential_loop(name)


def test_a_discovery_that_brings_a_dead_center_back_unchecks_every_start(monkeypatch):
    # a discovery at a new ordinal leaves every checked start's answer as it
    # was; one that reactivates a dead center may not, so it unchecks them all
    back, inner = [], DeltaCover.append

    def spied(cover, point):
        m = len(cover)
        o = inner(cover, point)
        if o < m:
            back.append(o)
        return o

    monkeypatch.setattr(DeltaCover, "append", spied)
    assert_the_held_run_equals_the_sequential_loop("toy-shift-rediscovers")
    assert back


def assert_the_held_run_equals_the_sequential_loop(name):
    make, point, hyper, seed, prioritized, replay = HELD_CONFIGS[name]
    sys_ = make()
    (got, traces, records), ((rep, cover, pruned, graph), want_traces, want_records) = both_runs(
        sys_, FiniteActionSet([point]), hyper, seed, prioritized=prioritized, replay=replay)
    assert got.report == rep and got.report.converged
    assert same_bits(got.cover.centers, cover.centers)
    np.testing.assert_array_equal(got.cover.active, cover.active)
    dim = sys_.state_box.dim
    assert same_bits(np.reshape(got.pruned, (-1, dim)), np.reshape(pruned, (-1, dim)))
    assert got.graph.parents == graph.parents
    assert traces == want_traces
    assert [i for i, _ in records] == [i for i, _ in want_records]
    for (_, a), (_, b) in zip(records, want_records):
        assert same_bits(a.states, b.states) and same_bits(a.actions, b.actions)
        assert (a.exit_kind, a.exit_facet) == (b.exit_kind, b.exit_facet)


def test_a_held_run_rolls_each_center_once(monkeypatch):
    rows, inner = [], quantification.run_batch

    def logged(sys_, x0, noise):
        rows.extend(map(bytes, x0))
        return inner(sys_, x0, noise)

    monkeypatch.setattr(quantification, "run_batch", logged)
    make, point, hyper, seed, prioritized, replay = HELD_CONFIGS["lead-follow"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = quantification.quantify_spe(make(), FiniteActionSet([point]), hyper, seed,
                                          prioritized=prioritized, replay=replay)
    ordinal = {bytes(c): o for o, c in enumerate(got.cover.centers)}  # distinct centers, ordinals kept
    rolled = [ordinal[r] for r in rows]
    assert len(set(rolled)) == len(rolled)
