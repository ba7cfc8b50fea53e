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

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    _SIZE_CAP,
    MEMBER_TOL,
    BoxRegion,
    DeltaCover,
    _distinct,
    build_cover,
    refine_cover,
    scan_distances,
    volume_estimate,
)
from .reporting import RunReport
from .scenario import EXIT_NONE, EXIT_UNSAFE, _rows_within, noise_sampler, run_batch
from .streams import _SELECT, _FreshStream, _sample_desc, sample_stream
from .systems import ScenarioSystem, UniformPolicy
from .validation import _run_block, sample_size_probabilistic, validate_eps_delta

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


def _new_states(states: np.ndarray, out: np.ndarray, limit: float) -> list:
    """The discoveries among ``states``: the rows that ``out`` marks outside the cover, in order.

    A row within ``limit`` of a row taken before it is not one: the cover
    only grows by them, so one query against it as it was suffices.
    """
    new: list = []
    for t in np.flatnonzero(out).tolist():
        if not any(np.abs(c - states[t]).max() <= limit for c in new):
            new.append(states[t])
    return new


# ---------------------------------------------------------------------------
# baseline: guess-a-box
# ---------------------------------------------------------------------------


def quantify_vanilla(sys: ScenarioSystem, actions, hyper: HyperParams, seed: int,
                     n_attempts: int = 10, record=None) -> QuantifyResult:
    """Sample random sub-boxes of the state box until one validates.

    Each attempt draws two uniform corner points, covers the spanned box at
    ``hyper.delta0`` and runs the probabilistic cover validation on it.  The
    first validated box wins; ``n_attempts`` misses end the run empty-handed.
    """
    dom = sys.state_box
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


# qnt-dp, qnt-ae and qnt-spe run fresh samples in speculative blocks of clamp(streak, 8, 64), streak
# counting the samples since the last event: a long event-free streak predicts more, and after an
# event short blocks waste few rollouts.  Longer blocks add memory and, on event-dense runs, rework.
_SPEC_MIN, _SPEC_MAX = 8, 64


def _fresh_block(sys: ScenarioSystem, draw, seed: int, sel: _FreshStream, cover: DeltaCover,
                 first: int, size: int, record) -> tuple:
    """Roll samples ``first .. first + size - 1`` from one ``sel`` pick each over the live centers.

    ``validation._run_block`` tests them against ``cover``.  Returns the samples run, up to the first
    failure, with its start and trajectory or ``-1, None``; ``sel`` ends past the last pick run.
    """
    act = cover.active_indices()
    before = sel.position
    starts = act[sel.integers(act.size, size=size)]
    bad, traj = _run_block(sys, cover.centers[starts], first, draw, seed, cover, record)
    if bad < 0:
        return first + size, -1, None
    sel.position = before
    sel.integers(act.size, size=bad - first + 1)
    return bad + 1, int(starts[bad - first]), traj


def quantify_delta_pruning(sys: ScenarioSystem, actions, delta: float, n_samples: int,
                           horizon: int, seed: int, hyper: HyperParams | None = None,
                           record=None) -> QuantifyResult:
    """Cover the state box once and prune start centers that misbehave.

    A start center dies when its rollout exits unsafely or any visited state
    falls farther than delta from the remaining live cover.  Deliberately
    blunt: one bad point condemns the whole cell, so the result can lose
    volume that a finer method would keep.

    The result is that of one sample at a time, run in ``_fresh_block``s
    that end at their first prune.
    """
    n_samples = int(n_samples)
    cover = build_cover(sys.state_box, delta)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    sel = _FreshStream(seed, _SELECT)
    draw = noise_sampler(sys, UniformPolicy(actions), horizon - 1)
    n = streak = 0
    while n < n_samples and cover.n_active():
        size = min(max(streak, _SPEC_MIN), _SPEC_MAX, n_samples - n)
        n, idx, traj = _fresh_block(sys, draw, seed, sel, cover, n, size, record)
        streak = streak + size if traj is None else 0
        if traj is not None:
            cover.deactivate([idx])
    hy = hyper if hyper is not None else HyperParams(delta0=delta, delta_min=delta,
                                                    horizon=horizon, budget=n_samples)
    return _result("qnt-dp", sys, actions, hy, seed, cover, cover.n_active() > 0, n)


# ---------------------------------------------------------------------------
# adaptive single-seed growth
# ---------------------------------------------------------------------------


def quantify_adaptive(sys: ScenarioSystem, actions, hyper: HyperParams, seed: int,
                      initial_state=None, record=None) -> QuantifyResult:
    """Grow a ball cloud from one seed point; restart fresh on any unsafe exit.

    Discovered out-of-cover states join the cloud; after a full stability
    window without growth or restart, the ball radius decays by gamma until
    it would undershoot ``delta_min``.  If the budget runs out while restarts
    are still happening, there is no evidence any invariant subset exists and
    the run reports an empty cover, not converged.

    The result is that of one sample at a time, run in ``_fresh_block``s
    that end at their first event and never pass a stability window.
    """
    dom = sys.state_box
    n_eps = hyper.stability_window()
    if hyper.horizon < 1:
        raise ValueError("horizon must be at least 1")
    sel = _FreshStream(seed, _SELECT)
    draw = noise_sampler(sys, UniformPolicy(actions), hyper.horizon - 1)
    cover = DeltaCover(np.asarray([dom.sample(sel) if initial_state is None else initial_state], dtype=float),
                       hyper.delta0, dom)
    n = streak = decays = restarts = 0
    last_restart_n = -(10 * n_eps)
    converged = False
    while n < hyper.budget:
        size = min(max(streak, _SPEC_MIN), _SPEC_MAX, hyper.budget - n, n_eps - streak)
        n, _, traj = _fresh_block(sys, draw, seed, sel, cover, n, size, record)
        streak = streak + size if traj is None else 0
        if traj is not None and traj.exit_kind == EXIT_UNSAFE:
            cover = DeltaCover(np.asarray([dom.sample(sel)]), cover.radius, dom)
            restarts += 1
            last_restart_n = n
        elif traj is not None:
            states = traj.states[1:]
            for state in _new_states(states, cover.outside(states), cover.radius + MEMBER_TOL):
                cover.append(state)
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


# buffered trajectories replayed per cover query
_REPLAY_CHUNK = 64
# under a held input, the most centers that one pre-roll sends through run_batch
_PREROLL_ROWS = 4096


def _preroll_rows(sys: ScenarioSystem, horizon: int) -> int:
    """The most rows of one held pre-roll: ``_PREROLL_ROWS``, or fewer when they would pass the size cap.

    A row holds ``horizon`` steps of state, action and disturbance floats.
    """
    return min(_PREROLL_ROWS, _rows_within(sys, horizon, _SIZE_CAP))


def quantify_spe(sys: ScenarioSystem, actions, hyper: HyperParams, seed: int, *,
                 prioritized: bool = False, replay: bool = False, weight_power: float = 1.0,
                 min_feature_scale: float | None = None, trace=None, record=None) -> QuantifyResult:
    """Shrinking-cover quantification with ancestor pruning and discovery.

    Starts from a cover of the state box at ``delta0``.  Every sample rolls out
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
    cover and rolled in lock-step by ``run_batch``.  Fresh blocks and the
    replay pass apply trajectories through one routine, ``apply_in_order``:
    one cover query, then the trajectories in order up to the first event.
    The starts come from the
    selection stream, a ``_FreshStream`` of ordinal ``_SELECT``, which gives
    what numpy's generator of that stream would.  At the first event its
    ``position`` is set back to where the block began and the kept starts
    are drawn again, which leaves it just after the last kept start's draw;
    the rest of the block is dropped unseen, so ``record``, ``trace``, the
    replay buffer and the counters see exactly the sequential calls.  The
    replay pass applies the buffer in chunks of ``_REPLAY_CHUNK``, and the
    rest of a chunk again after each event.

    Under a held input (the sampler is ``held``: a one-point action set and
    no disturbance) a rollout is a function of its start alone, so each
    center is rolled once.  When a block draws a start not rolled yet, one
    ``run_batch`` call rolls it with every other live, unrolled center,
    lowest ordinals first, up to ``_preroll_rows`` rows (the block's own
    starts go in even past that), and the block reads its rollouts from that
    store.  A start whose rollout was last applied with
    no event is not queried or applied again until a prune, a discovery
    that brings a dead center back, or a refinement changes the cover: the
    answer would be the same.
    """
    if min_feature_scale is None:
        warnings.warn("no minimum feature scale declared: whether the initial resolution "
                      "can see every part of the target set is unverifiable")
    # the product is inf past the float range, where a float power raises OverflowError
    elif math.prod([hyper.delta0 / 2.0] * sys.state_box.dim) > min_feature_scale + MEMBER_TOL:
        warnings.warn(f"initial cell scale ({hyper.delta0}/2)^{sys.state_box.dim} exceeds "
                      f"the declared minimum feature scale {min_feature_scale}")
    if hyper.horizon < 1:
        raise ValueError("horizon must be at least 1")
    n_eps = hyper.stability_window()
    cover = build_cover(sys.state_box, hyper.delta0)
    graph = ReachGraph()
    pruned_pts: list = []
    dist_to_pruned = np.full(len(cover), np.inf)
    sel = _FreshStream(seed, _SELECT)
    draw_noise = noise_sampler(sys, UniformPolicy(actions), hyper.horizon - 1)
    held = draw_noise.held
    preroll = _preroll_rows(sys, hyper.horizon)
    rolled: dict = {}  # held input: start ordinal -> (rollouts, row) of its one rollout
    checked: set = set()  # held input: starts whose rollout the current cover saw with no event
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

    def change_cover(start_ord: int, states: np.ndarray, exit_kind: str, out: np.ndarray) -> bool:
        """Apply one trajectory from a live start; ``out`` says which of ``states[1:]`` lie outside the cover.

        Unless the start lies within ``limit`` of the pruned frontier, its
        ``_new_states`` join the cover as discoveries edged from it; then an
        unsafe exit state, never a discovery, prunes it.  A prune, or a
        discovery that brings a dead center back, unchecks every start: a
        discovery at a new ordinal only adds a live center, which leaves
        every checked start live, its states inside and its distance to the
        frontier as they were, so its answer is still no event.
        """
        nonlocal weights_cum
        limit = cover.radius + MEMBER_TOL
        unsafe = exit_kind == EXIT_UNSAFE
        near = dist_to_pruned[start_ord] <= limit  # a start near the frontier discovers nothing
        found = [] if near else _new_states(states[1:], out[:-1] if unsafe else out, limit)
        for state in found:
            m = len(cover)
            o = cover.append(state)
            if o < m:  # an existing center: a dead one brought back
                checked.clear()
            graph.add_edge(start_ord, o)
        extend_dists()
        if unsafe:
            cover.deactivate([v for v in reachable_closure(graph, start_ord) if cover.active[v]])
            note_pruned(cover.centers[start_ord])
            checked.clear()
        if found or unsafe:
            weights_cum = None
        return bool(found) or unsafe

    def apply_in_order(records: list, each) -> int:
        """Apply ``(start ordinal, states, exit kind)`` records in order up to the first event; its index, or -1.

        One ``outside`` query answers the states after the start of every
        record whose start is live and not checked; no other record can
        have an event, and until the first one the cover is as the query saw
        it.  A held start with no event is checked.  ``each(k, event)`` is
        called after record ``k``.
        """
        todo = [k for k, (i, _, _) in enumerate(records) if cover.active[i] and i not in checked]
        parts = [records[k][1][1:] for k in todo]
        ends = np.cumsum([p.shape[0] for p in parts])[:-1]
        outs = dict(zip(todo, np.split(cover.outside(np.concatenate(parts)), ends) if parts else []))
        for k, (i, states, exit_kind) in enumerate(records):
            event = k in outs and change_cover(i, states, exit_kind, outs[k])
            if held and k in outs and not event:
                checked.add(i)
            each(k, event)
            if event:
                return k
        return -1

    def start_ordinals(act: np.ndarray, draws: np.ndarray, weighted: bool) -> np.ndarray:
        """The starts that a block's draws pick: integers indexing ``act``, or uniforms weighted toward the frontier."""
        nonlocal weights_cum
        if not weighted:
            return act[draws]
        if weights_cum is None or weights_cum.shape[0] != act.size:
            weights_cum = np.cumsum(prioritized_weights(dist_to_pruned[act], weight_power))
        return act[np.minimum(np.searchsorted(weights_cum, draws * weights_cum[-1], side="right"), act.size - 1)]

    def held_rollouts(act: np.ndarray, starts: np.ndarray) -> list:
        """Each start's held ``(rollouts, row)``; a start not rolled yet first pre-rolls the live centers."""
        new = [i not in rolled for i in starts.tolist()]
        if any(new):
            todo = act[[i not in rolled for i in act.tolist()]]
            rows = _distinct(np.concatenate([starts[new], todo[:max(preroll - starts.size, 0)]]))
            rolls = run_batch(sys, cover.centers[rows], draw_noise.block(seed, rows))  # a held block reads no stream
            rolled.update((i, (rolls, j)) for j, i in enumerate(rows.tolist()))
        return [rolled[i] for i in starts.tolist()]

    def replay_buffer() -> None:
        """Re-apply every buffered trajectory in order, one cover query per chunk and event."""
        nonlocal replayed
        records = iter(buffer)
        while chunk := list(itertools.islice(records, _REPLAY_CHUNK)):
            replayed += sum(states.shape[0] - 1 for _, states, _ in chunk)
            while (k := apply_in_order(chunk, lambda *_: None)) >= 0:
                chunk = chunk[k + 1:]  # the cover changed: query the rest of the chunk afresh

    def sampled(k: int, event: bool) -> None:
        """Count fresh sample ``k`` of the block, and show it to ``record``, the buffer and ``trace``."""
        nonlocal n, streak
        n += 1
        if record is not None:
            record(n - 1, rows[k][0].trajectory(rows[k][1]))
        if buffer is not None:  # a held rollout is buffered as its row of the store, not as a copy
            i, states, exit_kind = records[k]
            buffer.append((i, states if held else states.copy(), exit_kind))
        if trace is not None:
            trace(n, cover, event)
        streak = 0 if event else streak + 1

    while True:
        if cover.n_active() == 0:
            converged = True
            break
        if n >= hyper.budget:
            break
        size = min(max(streak, _SPEC_MIN), _SPEC_MAX, hyper.budget - n, n_eps - streak)
        act = cover.active_indices()
        weighted = prioritized and bool(pruned_pts)
        draw = sel.random if weighted else functools.partial(sel.integers, act.size)
        before = sel.position
        starts = start_ordinals(act, draw(size), weighted)
        if held:
            rows = held_rollouts(act, starts)
        else:
            rolls = run_batch(sys, cover.centers[starts], draw_noise.block(seed, np.arange(n, n + starts.size)))
            rows = [(rolls, j) for j in range(starts.size)]
        records = [(i, r.states[j, :r.length[j]], EXIT_UNSAFE if r.code[j] >= 0 else EXIT_NONE)
                   for i, (r, j) in zip(starts.tolist(), rows)]
        k = apply_in_order(records, sampled)
        if k >= 0:
            sel.position = before  # undo the dropped draws: redraw the kept ones as the block did
            draw(k + 1)
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
            checked.clear()
            if buffer is not None:
                replay_buffer()
    return _result("qnt-spe", sys, actions, hyper, seed, cover, converged, n, replayed, decays,
                   graph=graph, pruned=pruned_pts)
