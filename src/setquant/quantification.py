"""Quantification: searching for the largest validatable invariant region.

Four strategies, from naive to complete:

* ``quantify_vanilla`` — guess a random sub-box, validate it, repeat.  Kept
  as the baseline it is: success hinges on the guess, not the budget.
* ``quantify_delta_pruning`` — cover the whole domain and prune any start
  center whose rollout leaves the live cover.  Over-prunes: a cell dies for a
  single bad point even if most of it belongs to the answer.
* ``quantify_adaptive`` — grow a point cloud from one seed, restart from
  scratch on any unsafe exit, shrink the radius once the cloud is sampling-
  stable.  Complete for finding *an* invariant region, but it captures one
  basin only.
* ``quantify_spe`` — the full machine: a shrinking cell cover with a reach
  graph for ancestor pruning, discovery of escaping-but-safe states, optional
  prioritized sampling near the pruned frontier, and optional experience
  replay of every stored trajectory after each resolution decay.

All fresh randomness derives from one integer seed: sample ``i`` uses the
spawn-key-``(i,)`` child stream, selection draws use a reserved stream, so a
run is exactly reproducible and any recorded trajectory can be regenerated
from its ordinal alone.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    MEMBER_TOL,
    BoxRegion,
    DeltaCover,
    build_cover,
    refine_cover,
    scan_distances,
    volume_estimate,
)
from .reporting import RunReport
from .scenario import (
    EXIT_UNSAFE,
    ScenarioSystem,
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
from .validation import sample_size_probabilistic, validate_eps_delta

__all__ = [
    "HyperParams",
    "QuantifyResult",
    "ReachGraph",
    "reachable_closure",
    "prioritized_weights",
    "TrajectoryBuffer",
    "cost",
    "quantify_vanilla",
    "quantify_delta_pruning",
    "quantify_adaptive",
    "quantify_spe",
]


@dataclass(frozen=True)
class HyperParams:
    """Shared knobs: confidence (epsilon, beta), resolution schedule, budgets."""

    epsilon: float = 0.01
    beta: float = 0.1
    delta0: float = 1.0
    gamma: float = 0.5
    delta_min: float = 0.25
    horizon: int = 8        # states per rollout (K)
    budget: int = 50_000    # fresh-sample cap (N)

    def stability_window(self) -> int:
        return sample_size_probabilistic(self.epsilon, self.beta)

    def decay_undershoots(self, radius: float) -> bool:
        """Whether one more decay of ``radius`` would undershoot ``delta_min``: the run has converged."""
        return self.gamma * radius < self.delta_min - MEMBER_TOL


def hyper_dict(hyper: HyperParams, sys: ScenarioSystem) -> dict:
    return {
        "epsilon": hyper.epsilon,
        "beta": hyper.beta,
        "delta0": hyper.delta0,
        "gamma": hyper.gamma,
        "delta_min": hyper.delta_min,
        "K": hyper.horizon,
        "N": hyper.budget,
        "omega_bar": sys.omega_bar,
        "dt": sys.dt,
    }


def cost(volume: float, actions) -> float:
    """Negated volume scaled by the action-set size; lower is better.

    A box action set contributes its volume, a finite set its cardinality
    (a point set has measure zero — counting is the meaningful size there).
    """
    return -float(volume) * actions.measure()


@dataclass
class QuantifyResult:
    cover: DeltaCover
    report: RunReport
    region: BoxRegion | None = None
    verdict: object = None
    graph: "ReachGraph | None" = None
    pruned: list = field(default_factory=list)
    restarts: int = 0

    @property
    def converged(self) -> bool:
        return self.report.converged


def _result(algorithm: str, sys: ScenarioSystem, actions, hyper: HyperParams, seed: int,
            cover: DeltaCover, converged: bool, n_fresh: int, n_replayed: int = 0, n_decays: int = 0,
            **found) -> QuantifyResult:
    """A quantifier's result: the final ``cover``, its report (volume, cost and final radius read off the cover) and the ``found`` extras."""
    vol = volume_estimate(cover)
    rep = RunReport(algorithm=algorithm, seed=seed, hyper=hyper_dict(hyper, sys), final_delta=cover.radius,
                    cell_count=cover.n_active(), volume=vol, cost=cost(vol, actions), converged=converged,
                    n_fresh_samples=n_fresh, n_replayed=n_replayed, n_decays=n_decays)
    return QuantifyResult(cover=cover, report=rep, **found)


class ReachGraph:
    """Directed edges start-center -> discovered-center, stored as parent sets."""

    def __init__(self):
        self.parents: dict[int, set[int]] = {}

    def add_edge(self, src: int, dst: int) -> None:
        self.parents.setdefault(dst, set()).add(src)


def reachable_closure(graph: ReachGraph, vertex: int) -> set[int]:
    """The vertex plus every vertex with a directed path *to* it.

    Pruning uses this: anything that can reach a doomed start is doomed too,
    because the discovered edge certifies a sampled path between them.
    """
    out = {vertex}
    stack = [vertex]
    while stack:
        u = stack.pop()
        for p in graph.parents.get(u, ()):
            if p not in out:
                out.add(p)
                stack.append(p)
    return out


def prioritized_weights(dists: np.ndarray, power: float = 1.0) -> np.ndarray:
    """Selection weights favoring centers close to the pruned frontier.

    w_i = (d_max - d_i)^power, normalized; falls back to uniform when the
    distances carry no signal (all equal, or no pruned point yet so every
    distance is infinite).
    """
    if power < 1.0:
        raise ValueError("power must be >= 1")
    d = np.asarray(dists, dtype=float)
    if d.size == 0:
        return d
    if not np.all(np.isfinite(d)):
        return np.full(d.size, 1.0 / d.size)
    w = (d.max() - d) ** power
    s = w.sum()
    if s <= 0.0:
        return np.full(d.size, 1.0 / d.size)
    return w / s


class TrajectoryBuffer(list):
    """Append-only list of (start ordinal, states, exit kind) records, replayed in order.

    It holds at most one record per fresh sample, so at most the sample budget.
    """


def _start_draws(sel: np.random.Generator, weighted: bool, k: int, count: int) -> np.ndarray:
    """``count`` start draws with one call: uniforms in [0, 1) when ``weighted``, else integers below ``k``.

    Each equals ``count`` scalar calls of its kind, in values and in the
    state it leaves ``sel`` in.
    """
    return sel.random(count) if weighted else sel.integers(k, size=count)


# ---------------------------------------------------------------------------
# baseline: guess-a-box
# ---------------------------------------------------------------------------


def quantify_vanilla(sys: ScenarioSystem, actions, hyper: HyperParams, seed: int,
                     n_attempts: int = 10, domain: BoxRegion | None = None,
                     record=None) -> QuantifyResult:
    """Sample random sub-boxes of the domain until one validates.

    Each attempt draws two uniform corner points, covers the spanned box at
    ``hyper.delta0`` and runs the probabilistic cover validation on it.  The
    first validated box wins; ``n_attempts`` misses end the run empty-handed.
    """
    dom = domain if domain is not None else sys.state_box
    stream = sample_stream(_sample_desc(seed, _SELECT))
    fresh = 0
    for attempt in range(int(n_attempts)):
        while True:
            a, b = dom.sample(stream), dom.sample(stream)
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            if np.all(hi - lo > 1e-6):
                break
        box = BoxRegion(lo, hi)
        cover_v = build_cover(box, hyper.delta0)
        verdict = validate_eps_delta(sys, cover_v, hyper.horizon, hyper.epsilon,
                                     hyper.beta, actions, rng=int(stream.integers(2**62)),
                                     record=record)
        fresh += verdict.n_samples
        if verdict.result:
            return _result("qnt-vs", sys, actions, hyper, seed, cover_v, True, fresh,
                           region=box, verdict=verdict)
    empty = DeltaCover(np.empty((0, dom.dim)), hyper.delta0, dom)
    res = _result("qnt-vs", sys, actions, hyper, seed, empty, False, fresh)
    res.report.cost = 0.0  # not cost(0.0, ...), which is -0.0
    return res


# ---------------------------------------------------------------------------
# whole-domain cover with start-center pruning
# ---------------------------------------------------------------------------


def quantify_delta_pruning(sys: ScenarioSystem, actions, delta: float, n_samples: int,
                           horizon: int, seed: int, domain: BoxRegion | None = None,
                           hyper: HyperParams | None = None, record=None) -> QuantifyResult:
    """Cover the domain once and prune start centers that misbehave.

    A start center dies when its rollout exits unsafely or any visited state
    falls farther than delta from the remaining live cover.  Deliberately
    blunt: one bad point condemns the whole cell, so the result can lose
    volume that a finer method would keep.
    """
    dom = domain if domain is not None else sys.state_box
    cover = build_cover(dom, delta)
    sel = sample_stream(_sample_desc(seed, _SELECT))
    n = 0
    for i in range(int(n_samples)):
        act = cover.active_indices()
        if act.size == 0:
            break
        idx = int(act[int(sel.integers(act.size))])
        traj = run_scenario(sys, cover.centers[idx], horizon, UniformPolicy(actions),
                            sample_stream(_sample_desc(seed, i)))
        n += 1
        if record is not None:
            record(i, traj)
        if traj.exit_kind == EXIT_UNSAFE or cover.outside(traj.states[1:]).any():
            cover.deactivate([idx])
    hy = hyper if hyper is not None else HyperParams(delta0=delta, delta_min=delta,
                                                    horizon=horizon, budget=int(n_samples))
    return _result("qnt-dp", sys, actions, hy, seed, cover, cover.n_active() > 0, n)


# ---------------------------------------------------------------------------
# adaptive single-seed growth
# ---------------------------------------------------------------------------


def quantify_adaptive(sys: ScenarioSystem, actions, hyper: HyperParams, seed: int,
                      initial_state=None, domain: BoxRegion | None = None,
                      record=None) -> QuantifyResult:
    """Grow a ball cloud from one seed point; restart fresh on any unsafe exit.

    Discovered out-of-cover states join the cloud; after a full stability
    window without growth or restart, the ball radius decays by gamma until
    it would undershoot ``delta_min``.  If the budget runs out while restarts
    are still happening, there is no evidence any invariant subset exists and
    the run reports an empty cover, not converged.
    """
    dom = domain if domain is not None else sys.state_box
    n_eps = hyper.stability_window()
    sel = sample_stream(_sample_desc(seed, _SELECT))
    seed_pt = np.asarray(initial_state, dtype=float) if initial_state is not None else dom.sample(sel)
    cover = DeltaCover(np.asarray([seed_pt]), hyper.delta0, dom)
    n = 0
    streak = 0
    decays = 0
    restarts = 0
    last_restart_n = -(10 * n_eps)
    converged = False
    while n < hyper.budget:
        act = cover.active_indices()
        idx = int(act[int(sel.integers(act.size))])
        traj = run_scenario(sys, cover.centers[idx], hyper.horizon, UniformPolicy(actions),
                            sample_stream(_sample_desc(seed, n)))
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
        # still being knocked back to square one when the budget ran out
        cover = DeltaCover(np.empty((0, dom.dim)), cover.radius, dom)
    return _result("qnt-ae", sys, actions, hyper, seed, cover, converged, n, n_decays=decays,
                   restarts=restarts)


# ---------------------------------------------------------------------------
# the full cover/graph machine
# ---------------------------------------------------------------------------


# Fresh samples go through in speculative blocks of clamp(streak, 8, 64): a
# long event-free streak predicts that the next samples will not change the
# cover either, while after an event short blocks waste few discarded
# rollouts.  Longer blocks add memory and, on event-dense runs, rework.
_SPEC_MIN, _SPEC_MAX = 8, 64
# buffered trajectories replayed per cover query
_REPLAY_CHUNK = 64


def quantify_spe(sys: ScenarioSystem, actions, hyper: HyperParams, seed: int, *,
                 prioritized: bool = False, replay: bool = False, weight_power: float = 1.0,
                 min_feature_scale: float | None = None, domain: BoxRegion | None = None,
                 trace=None, record=None) -> QuantifyResult:
    """Shrinking-cover quantification with ancestor pruning and discovery.

    Starts from a full-domain cover at ``delta0``.  Every sample rolls out
    from a live center under iid uniform actions.  An unsafe exit prunes the
    start together with every center that has a discovered path to it, and
    records the start in the pruned frontier.  A visited state farther than
    the current radius from the live cover — sampled from a start that is not
    within the radius of the frontier — joins the cover as a discovery, edged
    from its start.  After a stability window with no event the cover refines
    by ``gamma`` (skipping children near the frontier), until the next decay
    would undershoot ``delta_min`` (converged) or the fresh-sample budget is
    spent (not converged).  An emptied cover is also convergence: nothing is
    left to sample and no budget can change the answer.

    ``prioritized`` biases start selection toward centers near the pruned
    frontier; ``replay`` re-applies every stored trajectory after each decay,
    counting re-examined transitions separately from fresh samples.
    ``trace``, if given, is called as ``trace(n, cover, event)`` after every
    fresh sample — handy for convergence studies.

    The result is that of one sample at a time, but the samples run
    speculatively in blocks: the next starts are drawn from the unchanged
    cover, rolled in lock-step by ``run_batch`` and checked against the cover
    with one query, then applied in order.  At the first event the start
    stream is rewound to just after that sample's draw and the rest of the
    block is dropped unseen, so ``record``, ``trace``, the replay buffer and
    the counters see exactly the sequential calls.  The replay pass queries
    the cover once per chunk of buffered trajectories, again after each event.
    """
    if min_feature_scale is None:
        warnings.warn("no minimum feature scale declared: whether the initial resolution "
                      "can see every part of the target set is unverifiable")
    elif (hyper.delta0 / 2.0) ** sys.state_box.dim > min_feature_scale + MEMBER_TOL:
        warnings.warn(f"initial cell scale ({hyper.delta0}/2)^{sys.state_box.dim} exceeds "
                      f"the declared minimum feature scale {min_feature_scale}")
    if hyper.horizon < 1:
        raise ValueError("horizon must be at least 1")
    dom = domain if domain is not None else sys.state_box
    n_eps = hyper.stability_window()
    cover = build_cover(dom, hyper.delta0)
    graph = ReachGraph()
    pruned_pts: list = []
    dist_to_pruned = np.full(len(cover), np.inf)
    sel = sample_stream(_sample_desc(seed, _SELECT))
    policy = UniformPolicy(actions)
    steps = hyper.horizon - 1
    draw_noise = noise_sampler(sys, policy, steps)
    buffer = TrajectoryBuffer() if replay else None
    n = 0
    streak = 0
    decays = 0
    replayed = 0
    converged = False
    weights_cum = None

    def extend_dists():
        nonlocal dist_to_pruned
        m = len(cover)
        if dist_to_pruned.shape[0] < m:
            new = cover.centers[dist_to_pruned.shape[0]:]
            d = scan_distances(new, np.asarray(pruned_pts)) if pruned_pts else np.full(new.shape[0], np.inf)
            dist_to_pruned = np.concatenate([dist_to_pruned, d])

    def note_pruned(pt):
        nonlocal dist_to_pruned
        p = np.asarray(pt, dtype=float)
        pruned_pts.append(p)
        dist_to_pruned = np.minimum(dist_to_pruned, np.abs(cover.centers - p).max(axis=1))

    def cover_outside(parts: list) -> list:
        """For each array of ``parts``, whether each of its rows lies outside the cover, with one query.

        A row with the bits of the row before it in its part has that row's
        answer, so only the first row of a part and the rows that differ
        from their predecessor are queried.
        """
        ends = np.cumsum([p.shape[0] for p in parts])
        if not ends.size or not ends[-1]:
            return [np.empty(0, dtype=bool)] * len(parts)
        pts = np.concatenate(parts)
        bits = pts.view(np.int64)
        new = np.ones(pts.shape[0], dtype=bool)
        new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
        new[ends[:-1]] = True
        out = cover.outside(pts[new])[np.cumsum(new) - 1]
        return [out[e - p.shape[0]:e] for p, e in zip(parts, ends.tolist())]

    def apply_trajectory(start_ord: int, states: np.ndarray, exit_kind: str, base_out) -> bool:
        """Apply one trajectory; ``base_out`` says which of ``states[1:]`` lie outside the cover.

        A state outside the cover is a discovery unless it lies within
        ``limit`` of a center this trajectory already added.
        """
        nonlocal weights_cum
        if not cover.active[start_ord]:
            return False
        length = states.shape[0]
        if length < 2:
            return False
        limit = cover.radius + MEMBER_TOL
        if exit_kind != EXIT_UNSAFE and (dist_to_pruned[start_ord] <= limit or not base_out.any()):
            return False  # no prune, and no state can be a discovery
        event = False
        new_centers: list = []
        for t in range(1, length):
            if exit_kind == EXIT_UNSAFE and t == length - 1:
                closure = reachable_closure(graph, start_ord)
                live = [v for v in closure if cover.active[v]]
                cover.deactivate(live)
                note_pruned(cover.centers[start_ord])
                event = True
                weights_cum = None
                break
            out = bool(base_out[t - 1]) and all(float(np.abs(c - states[t]).max()) > limit for c in new_centers)
            if out and dist_to_pruned[start_ord] > limit:
                o = cover.append(states[t])
                extend_dists()
                graph.add_edge(start_ord, int(o))
                new_centers.append(np.asarray(states[t], dtype=float))
                event = True
                weights_cum = None
        return event

    def start_ordinals(act: np.ndarray, draws: np.ndarray, weighted: bool) -> np.ndarray:
        """The starts that a block's ``_start_draws`` pick: uniform over ``act``, or weighted toward the frontier."""
        nonlocal weights_cum
        if not weighted:
            return act[draws]
        if weights_cum is None or weights_cum.shape[0] != act.size:
            weights_cum = np.cumsum(prioritized_weights(dist_to_pruned[act], weight_power))
        return act[np.minimum(np.searchsorted(weights_cum, draws * weights_cum[-1], side="right"), act.size - 1)]

    def replay_buffer() -> None:
        """Re-apply every buffered trajectory in order, one cover query per chunk and event."""
        nonlocal replayed
        records = iter(buffer)
        while chunk := list(itertools.islice(records, _REPLAY_CHUNK)):
            j = 0
            while j < len(chunk):
                live = [k for k in range(j, len(chunk)) if cover.active[chunk[k][0]]]
                outs = dict(zip(live, cover_outside([chunk[k][1][1:] for k in live])))
                for k in range(j, len(chunk)):
                    start_ord, states, exit_kind = chunk[k]
                    replayed += max(0, states.shape[0] - 1)
                    j = k + 1
                    if apply_trajectory(start_ord, states, exit_kind, outs.get(k)):
                        break  # the cover changed: query the rest of the chunk afresh

    while True:
        if cover.n_active() == 0:
            converged = True
            break
        if n >= hyper.budget:
            break
        size = min(max(streak, _SPEC_MIN), _SPEC_MAX, hyper.budget - n, n_eps - streak)
        act = cover.active_indices()
        weighted = prioritized and bool(pruned_pts)
        before = sel.bit_generator.state
        starts = start_ordinals(act, _start_draws(sel, weighted, act.size, size), weighted)
        refused = np.flatnonzero(outside_domain(sys, cover.centers[starts])) if steps else ()
        if len(refused):  # end the block before the refused start
            _check_inside(sys, cover.centers[starts[:1]])  # raises when that is the first
            starts = starts[:refused[0]]
            sel.bit_generator.state = before  # keep the kept starts' draws only
            _start_draws(sel, weighted, act.size, starts.size)
        noise = draw_noise.block(seed, np.arange(n, n + starts.size))
        rolls = run_batch(sys, cover.centers[starts], noise)
        outs = cover_outside([rolls.states[j, 1:k] for j, k in enumerate(rolls.length)])
        for j, idx in enumerate(starts.tolist()):
            traj = rolls.trajectory(j)
            n += 1
            if record is not None:
                record(n - 1, traj)
            if buffer is not None:
                buffer.append((idx, traj.states, traj.exit_kind))
            event = apply_trajectory(idx, traj.states, traj.exit_kind, outs[j])
            if trace is not None:
                trace(n, cover, event)
            streak = 0 if event else streak + 1
            if event:
                sel.bit_generator.state = before  # undo the dropped draws: redraw the kept ones as the block did
                _start_draws(sel, weighted, act.size, j + 1)
                break
        if streak >= n_eps:
            if hyper.decay_undershoots(cover.radius):
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
                replay_buffer()
    return _result("qnt-spe", sys, actions, hyper, seed, cover, converged, n, replayed, decays,
                   graph=graph, pruned=pruned_pts)
