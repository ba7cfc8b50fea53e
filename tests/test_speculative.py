"""Differential test of ``quantify_spe``'s speculative blocks against the sequential loop.

``sequential_spe`` below is the one-sample-at-a-time loop that the blocks
replaced: one ``run_scenario`` and one cover query per fresh sample, and one
query per trajectory in the replay pass.  Both run on the same configs, and
everything observable must agree bit for bit: the report, the cover's
centers and activity bits, the pruned frontier, the reach graph, every
``trace`` call ``(n, event, n_active, len(cover))`` and every recorded
trajectory.  The configs cover box and finite action sets with and without
noise, prioritized sampling, replay, a run that prunes the whole domain, the
lead-follow and three-vehicle systems, a tight budget at horizon 1, and an
event-dense run where blocks keep ending early.
"""

import warnings

import numpy as np
import pytest

from setquant.geometry import BoxRegion, build_cover, refine_cover, volume_estimate
from setquant.quantification import (
    HyperParams,
    ReachGraph,
    TrajectoryBuffer,
    cost,
    hyper_dict,
    prioritized_weights,
    quantify_spe,
    reachable_closure,
)
from setquant.reporting import RunReport
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


def sequential_spe(sys, actions, hyper, seed, prioritized=False, replay=False, weight_power=1.0,
                   domain=None, trace=None, record=None):
    """The sample loop as it ran before the speculative blocks, one rollout at a time."""
    dom = domain if domain is not None else sys.state_box
    n_eps = hyper.stability_window()
    cover = build_cover(dom, hyper.delta0)
    graph = ReachGraph()
    pruned_pts: list = []
    dist_to_pruned = np.full(len(cover), np.inf)
    sel = stream(seed, 2**31)
    buffer = TrajectoryBuffer() if replay else None
    n = streak = decays = replayed = 0
    converged = False
    weights_cum = None

    def extend_dists():
        nonlocal dist_to_pruned
        m = len(cover)
        if dist_to_pruned.shape[0] < m:
            new = cover.centers[dist_to_pruned.shape[0]:]
            if pruned_pts:
                pts = np.asarray(pruned_pts)
                d = np.abs(new[:, None, :] - pts[None, :, :]).max(axis=2).min(axis=1)
            else:
                d = np.full(new.shape[0], np.inf)
            dist_to_pruned = np.concatenate([dist_to_pruned, d])

    def note_pruned(pt):
        nonlocal dist_to_pruned
        p = np.asarray(pt, dtype=float)
        pruned_pts.append(p)
        dist_to_pruned = np.minimum(dist_to_pruned, np.abs(cover.centers - p).max(axis=1))

    def apply_trajectory(start_ord, states, exit_kind):
        nonlocal weights_cum
        if not cover.active[start_ord]:
            return False
        event = False
        length = states.shape[0]
        if length < 2:
            return False
        base_d = cover.batch_distances(states[1:])
        new_centers: list = []
        for t in range(1, length):
            if exit_kind == EXIT_UNSAFE and t == length - 1:
                closure = reachable_closure(graph, start_ord)
                cover.deactivate([v for v in closure if cover.active[v]])
                note_pruned(cover.centers[start_ord])
                event = True
                weights_cum = None
                break
            d = float(base_d[t - 1])
            for c in new_centers:
                d = min(d, float(np.abs(c - states[t]).max()))
            if d > cover.radius + 1e-12 and dist_to_pruned[start_ord] > cover.radius + 1e-12:
                o = cover.append(states[t])
                extend_dists()
                graph.add_edge(start_ord, int(o))
                new_centers.append(np.asarray(states[t], dtype=float))
                event = True
                weights_cum = None
        return event

    def draw_start():
        nonlocal weights_cum
        act = cover.active_indices()
        if prioritized and pruned_pts:
            if weights_cum is None or weights_cum.shape[0] != act.size:
                weights_cum = np.cumsum(prioritized_weights(dist_to_pruned[act], weight_power))
            r = sel.random() * weights_cum[-1]
            k = min(int(np.searchsorted(weights_cum, r, side="right")), act.size - 1)
            return int(act[k])
        return int(act[int(sel.integers(act.size))])

    while True:
        if cover.n_active() == 0:
            converged = True
            break
        if n >= hyper.budget:
            break
        idx = draw_start()
        traj = run_scenario(sys, cover.centers[idx], hyper.horizon, UniformPolicy(actions),
                            stream(seed, n))
        n += 1
        if record is not None:
            record(n - 1, traj)
        if buffer is not None:
            buffer.append((idx, traj.states, traj.exit_kind))
        event = apply_trajectory(idx, traj.states, traj.exit_kind)
        if trace is not None:
            trace(n, cover, event)
        streak = 0 if event else streak + 1
        if streak >= n_eps:
            if hyper.gamma * cover.radius < hyper.delta_min - 1e-12:
                converged = True
                break
            margin = hyper.gamma * cover.radius
            cover = refine_cover(cover, hyper.gamma,
                                 excluded=pruned_pts if pruned_pts else None, margin=margin)
            extend_dists()
            decays += 1
            streak = 0
            weights_cum = None
            if buffer is not None:
                for start_ord, states, exit_kind in buffer:
                    replayed += max(0, states.shape[0] - 1)
                    apply_trajectory(start_ord, states, exit_kind)
    vol = volume_estimate(cover)
    rep = RunReport(algorithm="qnt-spe", seed=seed, hyper=hyper_dict(hyper, sys),
                    n_fresh_samples=n, n_replayed=replayed, n_decays=decays,
                    final_delta=cover.radius, cell_count=cover.n_active(),
                    volume=vol, cost=cost(vol, actions), converged=converged)
    return rep, cover, pruned_pts, graph


def toy_hyper(**kw):
    base = dict(epsilon=0.05, beta=0.1, delta0=1.0, gamma=0.5, delta_min=0.25, horizon=8, budget=5000)
    return HyperParams(**{**base, **kw})


def lf_hyper(**kw):
    base = dict(epsilon=0.05, beta=0.1, delta0=4.0, gamma=0.5, delta_min=2.0, horizon=20, budget=1500)
    return HyperParams(**{**base, **kw})


# name: (system, action set: None for the system's box, a box, or the points of a
# finite set; hyper, seed, prioritized, replay).  The noisy toy runs have
# events in their replay passes too.
CONFIGS = {
    "two-basins": (lambda: make_toy_two_basins(), None, toy_hyper(), 0, False, True),
    "two-basins-noisy-prioritized": (lambda: make_toy_two_basins(omega_bar=0.5), None,
                                     toy_hyper(delta_min=0.125, budget=3000), 2, True, True),
    "threshold-noisy": (lambda: make_toy_threshold(omega_bar=0.5), None,
                        toy_hyper(delta_min=0.125, budget=3000), 0, False, True),
    "shift-prunes-everything": (lambda: make_toy_shift(), None, toy_hyper(), 1, False, True),
    "shrink-finite": (lambda: make_toy_shrink(), [(-0.5,), (0.0,), (0.5,)],
                      toy_hyper(delta0=0.5, delta_min=0.125), 2, True, True),
    "shrink-finite-noisy": (lambda: make_toy_shrink(omega_bar=0.2), [(-0.5,), (0.5,)],
                            toy_hyper(delta0=0.5, delta_min=0.125), 3, False, True),
    "shrink-narrow-box": (lambda: make_toy_shrink(), BoxActionSet([-0.25], [0.25]),
                          toy_hyper(delta0=0.5, delta_min=0.125), 7, False, False),
    # the benchmark's reference setup at a coarser final resolution
    "lead-follow-singleton": (lambda: make_lead_follow(), [(-5.0,)], lf_hyper(horizon=40), 0, True, True),
    "lead-follow-idm-box": (lambda: make_lead_follow(sv="idm"), None, lf_hyper(), 0, True, True),
    "three-vehicle-idm-noisy": (lambda: make_three_vehicle(sv="idm", omega_bar=0.3), None,
                                HyperParams(epsilon=0.05, beta=0.1, delta0=5.0, gamma=0.5, delta_min=2.5,
                                            horizon=30, budget=250), 0, True, True),
    # the budget, not the stability window, ends this run
    "budget-37-horizon-1": (lambda: make_toy_two_basins(), None, toy_hyper(horizon=1, budget=37),
                            4, False, True),
    # about one sample in five is an event, so blocks keep ending early
    "event-dense": (lambda: make_lead_follow(sv="idm"), None,
                    HyperParams(epsilon=0.01, beta=0.1, delta0=2.5, gamma=0.5, delta_min=2.5,
                                horizon=40, budget=500), 0, True, True),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def observed(run):
    """Run ``run(trace=, record=)``; returns its result with every trace and record call."""
    traces, records = [], []
    out = run(trace=lambda n, cover, event: traces.append((n, event, cover.n_active(), len(cover))),
              record=lambda i, traj: records.append((i, traj)))
    return out, traces, records


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_speculative_blocks_equal_the_sequential_loop(name):
    make, acts, hyper, seed, prioritized, replay = CONFIGS[name]
    sys_ = make()
    actions = sys_.action_box if acts is None else acts if isinstance(acts, BoxActionSet) \
        else FiniteActionSet(acts)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got, traces, records = observed(lambda **kw: quantify_spe(
            sys_, actions, hyper, seed, prioritized=prioritized, replay=replay, **kw))
    (rep, cover, pruned, graph), want_traces, want_records = observed(lambda **kw: sequential_spe(
        sys_, actions, hyper, seed, prioritized=prioritized, replay=replay, **kw))

    assert got.report == rep
    assert same_bits(got.cover.centers, cover.centers)
    np.testing.assert_array_equal(got.cover.active, cover.active)
    assert got.cover.radius == cover.radius
    assert same_bits(np.reshape(got.pruned, (-1, sys_.state_box.dim)),
                     np.reshape(pruned, (-1, sys_.state_box.dim)))
    assert got.graph.parents == graph.parents
    assert traces == want_traces
    assert [i for i, _ in records] == [i for i, _ in want_records]
    for (_, a), (_, b) in zip(records, want_records):
        assert same_bits(a.states, b.states) and same_bits(a.actions, b.actions)
        assert (a.exit_kind, a.exit_facet) == (b.exit_kind, b.exit_facet)
