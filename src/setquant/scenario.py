"""What a scenario system does: one classified transition, and the sampling rollout that drives everything.

``run_batch`` and ``run_held`` roll a ``systems.ScenarioSystem`` in lock-step under the inputs that a
``noise_sampler`` draws from the per-sample streams of ``streams``.  ``__all__`` also lists the public
names of ``systems`` and ``sample_stream``: every name it lists imports from here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import DOMAIN_TOL
from .streams import _doubles, _lemire_picks, _sample_desc, _stream_words, sample_stream
from .streams import _seed_words  # noqa: F401  (re-exported: tests/test_batch.py imports it from here)
from .systems import (
    BUILTIN_SYSTEMS, UNSAFE, BoxActionSet, BrakeToStop, Facet, FiniteActionSet, FixedActionPolicy, IdmParams,
    IdmPolicy, ScenarioSystem, UniformPolicy, idm_accel, idm_accel_array, make_lead_follow, make_three_vehicle,
    make_toy_flip, make_toy_shift, make_toy_shrink, make_toy_threshold, make_toy_two_basins,
)

__all__ = [
    "Facet",
    "StepOutcome",
    "Trajectory",
    "ScenarioSystem",
    "BoxActionSet",
    "FiniteActionSet",
    "UniformPolicy",
    "FixedActionPolicy",
    "BrakeToStop",
    "IdmParams",
    "IdmPolicy",
    "idm_accel",
    "idm_accel_array",
    "step",
    "step_batch",
    "run_held",
    "outside_domain",
    "run_scenario",
    "Rollouts",
    "run_batch",
    "noise_sampler",
    "sample_stream",
    "adversarial_actions",
    "default_action_samples",
    "make_lead_follow",
    "make_three_vehicle",
    "make_toy_shift",
    "make_toy_shrink",
    "make_toy_threshold",
    "make_toy_two_basins",
    "make_toy_flip",
    "BUILTIN_SYSTEMS",
]

EXIT_NONE = "none"
EXIT_TRUNCATED = "truncated"
EXIT_UNSAFE = "unsafe"


@dataclass(frozen=True)
class StepOutcome:
    """Classification of one transition: inside, truncated(facet) or unsafe(facet)."""

    kind: str
    facet: Facet | None = None


@dataclass
class Trajectory:
    """A recorded rollout.

    ``exit_kind`` is ``"none"`` (ran to the horizon) or ``"unsafe"`` (stopped
    early; the final recorded state is the first offending state, outside the
    domain).  Truncating facet crossings clamp to the boundary and continue,
    so they never terminate a trajectory; the ``"truncated"`` label exists
    only at the single-step level.
    """

    states: np.ndarray
    actions: np.ndarray
    exit_kind: str
    exit_facet: Facet | None = None

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


_INSIDE = StepOutcome(EXIT_NONE)


def step(sys: ScenarioSystem, state, action, omega) -> tuple:
    """One transition plus facet classification.

    Returns ``(next_state, StepOutcome)``.  Unsafe crossings report the raw
    offending state unclamped; truncating crossings clamp the offending
    coordinates to the boundary.  When several facets are crossed at once the
    lowest dimension (lower side first) decides the label, and an unsafe facet
    always wins over truncation.
    """
    lo, hi = sys.state_box.lower.tolist(), sys.state_box.upper.tolist()
    st = tuple(float(x) for x in state)
    _check_state(st, lo, hi)
    return _transit(sys, st, _as_action(action), omega, lo, hi)


def _check_state(st: tuple, lo: list, hi: list) -> None:
    if any(st[d] < lo[d] - DOMAIN_TOL or st[d] > hi[d] + DOMAIN_TOL for d in range(len(st))):
        raise ValueError(f"state {st} outside the domain")


def _as_action(u) -> tuple:
    """An action as a tuple of floats (a deterministic policy may hand over ints).

    A tuple, what the built-in policies return, skips the array round trip
    that a scalar or an array needs: that round trip costs about a fifth of a
    scalar rollout.
    """
    return tuple(map(float, u)) if isinstance(u, tuple) else tuple(float(x) for x in np.atleast_1d(u))


def _transit(sys: ScenarioSystem, st: tuple, u: tuple, omega, lo: list, hi: list) -> tuple:
    """``step`` without the domain check, for a state of floats known to lie inside."""
    raw = sys.transition(st, u, omega)
    crossed = []
    for d in range(len(raw)):
        if raw[d] < lo[d]:
            crossed.append((d, "lower"))
        elif raw[d] > hi[d]:
            crossed.append((d, "upper"))
    if not crossed:
        return raw, _INSIDE
    for f in crossed:
        if sys.facets[f] == UNSAFE:
            return raw, StepOutcome(EXIT_UNSAFE, f)
    clamped = list(raw)
    for d, side in crossed:
        clamped[d] = lo[d] if side == "lower" else hi[d]
    return tuple(clamped), StepOutcome(EXIT_TRUNCATED, crossed[0])


def outside_domain(sys: ScenarioSystem, states) -> np.ndarray:
    """Per row of (B, n) ``states``, whether ``step`` would refuse it as outside the domain."""
    return ((states < sys.state_box.lower - DOMAIN_TOL) | (states > sys.state_box.upper + DOMAIN_TOL)).any(axis=1)


def step_batch(sys: ScenarioSystem, states, actions, omegas) -> tuple[np.ndarray, np.ndarray]:
    """``step`` over the rows of (B, n) states, (B, m) actions and (B, k) disturbances.

    Returns ``(next_states, code)``.  ``code`` is -1 for a row that stayed
    inside or was truncated (its crossed coordinates clamped), and
    ``2 * dim + side`` (side 0 lower, 1 upper) of the facet that labels an
    unsafe row, whose raw state is returned unclamped: the lowest unsafe
    dimension crossed, exactly as ``step`` picks it.  Raises ``ValueError``
    when a row lies outside the domain.
    """
    _check_inside(sys, states)
    nxt, code = _advance(sys, states, actions, omegas, _unsafe_masks(sys))
    return nxt, np.full(nxt.shape[0], -1) if code is None else code


def _check_inside(sys: ScenarioSystem, states) -> None:
    outside = outside_domain(sys, states)
    if outside.any():
        raise ValueError(f"state {tuple(states[outside][0].tolist())} outside the domain")


def _unsafe_masks(sys: ScenarioSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns that ``_advance`` compares coordinate rows with, built once per roll.

    Per dimension, as (n, 1) columns: the lower and the upper bound of the
    domain, whether its lower and whether its upper facet is unsafe.
    """
    dims = range(sys.state_box.dim)
    return (sys.state_box.lower[:, None], sys.state_box.upper[:, None],
            np.array([[sys.facets[(d, "lower")] == UNSAFE] for d in dims]),
            np.array([[sys.facets[(d, "upper")] == UNSAFE] for d in dims]))


def _advance(sys: ScenarioSystem, states, actions, omegas, masks) -> tuple[np.ndarray, np.ndarray | None]:
    """``step_batch`` without the domain check, for rows known to lie inside.

    ``masks`` is ``_unsafe_masks(sys)``.  The transition map hands back the
    next states as (n, B) coordinate rows, so the bound checks, the clamp and
    the reductions over the dimensions (axis 0) each run along all B rows at
    once; the caller gets the (B, n) ``.T`` view of them.  The code array
    is ``None`` when no row went unsafe.
    """
    lo, hi, lower_unsafe, upper_unsafe = masks
    raw = sys.transition.batch(states.T, actions.T, omegas.T)
    below, above = raw < lo, raw > hi
    if not (below | above).any():
        return raw.T, None
    clamped = np.where(below, lo, np.where(above, hi, raw))
    hit = (below & lower_unsafe) | (above & upper_unsafe)
    unsafe = hit.any(axis=0)
    if not unsafe.any():
        return clamped.T, None
    d = hit.argmax(axis=0)
    code = np.where(unsafe, 2 * d + above[d, np.arange(d.size)], -1)
    return np.where(unsafe, raw, clamped).T, code


def run_scenario(sys: ScenarioSystem, start, horizon: int, policy, rng: np.random.Generator) -> Trajectory:
    """Roll out up to ``horizon`` states (``horizon - 1`` transitions).

    Stops early only when a step crosses an unsafe facet, in which case the
    raw offending state is recorded last.  Truncations clamp and continue.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    lo, hi = sys.state_box.lower.tolist(), sys.state_box.upper.tolist()
    state = tuple(float(x) for x in start)
    if horizon > 1:
        _check_state(state, lo, hi)  # a live state stays inside: truncation clamps it
    states = [state]
    actions = []
    exit_kind, exit_facet = EXIT_NONE, None
    for _ in range(horizon - 1):
        u = _as_action(policy(state, rng))
        nxt, out = _transit(sys, state, u, sys.draw_disturbance(rng), lo, hi)
        actions.append(u)
        states.append(nxt)
        if out.kind == EXIT_UNSAFE:
            exit_kind, exit_facet = EXIT_UNSAFE, out.facet
            break
        state = nxt
    m = sys.action_box.dim
    return Trajectory(
        states=np.asarray(states, dtype=float),
        actions=np.asarray(actions, dtype=float).reshape(len(actions), m),
        exit_kind=exit_kind,
        exit_facet=exit_facet,
    )


@dataclass
class Rollouts:
    """Rollouts stepped in lock-step, one row each.

    ``states`` is (B, steps + 1, n) and ``actions`` (B, steps, m); row ``j``
    holds ``length[j]`` states, and ``code[j]`` is the ``step_batch`` code of
    the unsafe facet that stopped it, or -1 when it ran to the horizon.  A
    row that stopped repeats its last (raw exit) state through the end of
    ``states``, so every float of it is written and one query may read the
    whole tensor.
    """

    states: np.ndarray
    actions: np.ndarray
    code: np.ndarray
    length: np.ndarray

    def trajectory(self, j: int) -> Trajectory:
        """Row ``j`` as the ``Trajectory`` that ``run_scenario`` records."""
        k, e = int(self.length[j]), int(self.code[j])
        return Trajectory(states=self.states[j, :k].copy(), actions=self.actions[j, :k - 1].copy(),
                          exit_kind=EXIT_UNSAFE if e >= 0 else EXIT_NONE,
                          exit_facet=(e // 2, ("lower", "upper")[e % 2]) if e >= 0 else None)


def _rows_within(sys: ScenarioSystem, horizon: int, nbytes: int) -> int:
    """The most rows of a block whose ``horizon`` steps of state, action and disturbance floats fit ``nbytes``."""
    width = sys.state_box.dim + sys.action_box.dim + sys.disturbance_dim
    return nbytes // (max(horizon, 1) * width * 8)


def run_batch(sys: ScenarioSystem, x0, noise) -> Rollouts:
    """Roll the rows of (B, n) ``x0`` in lock-step, row ``j`` under row ``j`` of ``noise``.

    ``noise`` is the tuple ``(actions (B, steps, m), disturbances (B, steps,
    k))`` that a ``noise_sampler``'s ``block`` draws.  Every step moves the
    live rows through ``step_batch``; a row that crosses an unsafe facet
    keeps the raw offending state as its last and is frozen, its later slots
    filled with that state, so row ``j`` equals the ``run_scenario`` rollout
    that makes the same draws.
    Until the first row stops, the steps go through slice views of every
    row, with no row gather or scatter.  Each step starts from the states
    the last one returned, whose coordinate rows are contiguous, not from
    their copy in the block.

    When every row holds its input (the same bits at every step), each row
    steps under one fixed map.  Once a step sends no row unsafe and leaves
    every live row's state where it was, bit for bit, no later step can move
    one, so the block stops there and the later states repeat those.
    """
    acts, omegas = noise
    b, n = x0.shape
    steps = acts.shape[1]
    if steps:
        _check_inside(sys, x0)  # a live row stays inside: truncation clamps it
    masks = _unsafe_masks(sys)
    held = _held(acts) and _held(omegas)
    states = np.empty((b, steps + 1, n))
    states[:, 0] = x0
    code = np.full(b, -1)
    length = np.full(b, steps + 1)
    live = slice(None)  # every row, then the indices of the rows still live
    cur = states[:, 0]
    for t in range(steps):
        nxt, ex = _advance(sys, cur, acts[live, t], omegas[live, t], masks)
        states[live, t + 1] = nxt
        if ex is None:
            if held and (_bits(nxt) == _bits(cur)).all():
                states[live, t + 2:] = nxt[:, None]
                break
            cur = nxt
            continue
        rows = np.arange(b) if isinstance(live, slice) else live
        unsafe = ex >= 0
        stop = rows[unsafe]
        code[stop], length[stop] = ex[unsafe], t + 2
        states[stop, t + 2:] = nxt[unsafe][:, None]
        live, cur = rows[~unsafe], nxt[~unsafe]
        if live.size == 0:
            break
    return Rollouts(states, acts, code, length)


def _bits(a: np.ndarray) -> np.ndarray:
    """The bit patterns of a float array: -0.0 and 0.0 differ, and so may two NaNs."""
    return a.view(np.int64)


def _held(a: np.ndarray) -> bool:
    """Whether every row of (B, steps, k) ``a`` has the same bits at every step."""
    bits = _bits(a)
    return bool((bits == bits[:, :1]).all())


def run_held(sys: ScenarioSystem, x0, actions, omegas, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Roll the rows of (B, n) ``x0`` ``steps`` steps, row ``j`` holding ``actions[j]`` and ``omegas[j]``.

    Returns ``(live, final)``: the indices of the rows that crossed no unsafe
    facet, ascending, and their final states, each what ``steps`` calls of
    ``step_batch`` give.  The start rows are checked against the domain once
    (truncation clamps, so a live row stays inside), and the live rows are
    compacted only on a step where one of them goes unsafe.  Each step starts
    from the states the last one returned, whose coordinate rows are
    contiguous.
    """
    if steps:
        _check_inside(sys, x0)
    masks = _unsafe_masks(sys)
    live, x = np.arange(x0.shape[0]), x0
    for _ in range(steps):
        if live.size == 0:
            break
        x, code = _advance(sys, x, actions, omegas, masks)
        if code is not None:
            keep = code < 0
            live, x, actions, omegas = live[keep], x[keep], actions[keep], omegas[keep]
    return live, x


def noise_sampler(sys: ScenarioSystem, policy, steps: int):
    """A sampler of the random inputs of ``run_scenario`` rollouts under a state-independent ``policy``.

    Called with a generator, it pre-draws one rollout's ``(actions (steps, m),
    disturbances (steps, k))`` step by step, in the rollout's order (action,
    then disturbance), so that stepping them gives the same trajectory.  Its
    ``block(seed, ordinals)`` draws those of every ordinal's sample stream
    (``sample_stream(_sample_desc(seed, i))``) into one ``(B, steps, m)``
    and one ``(B, steps, k)`` array, row ``j`` from ``ordinals[j]``'s.  A
    uniform policy over a box draws a rollout with one ``random`` call
    scaled to the per-step bounds, which is how ``uniform`` computes its
    values, and one over a finite set without disturbances with one
    ``integers`` call; each yields the same values, and leaves the generator
    in the same state, as the per-step calls.  Their blocks draw every
    row's stream as one lane of ``_stream_words``, with no numpy generator.
    Any other policy, in practice a finite set with disturbances, reads each
    row's ``sample_stream`` step by step.  A one-point set's ``block`` holds
    its point and reads no stream; its sampler is ``held``, so every rollout
    from one start is the same, whatever its ordinal.
    """
    acts = policy.actions if isinstance(policy, UniformPolicy) else None
    if isinstance(acts, BoxActionSet):
        return _BoxNoise(sys, policy, steps)
    if isinstance(acts, FiniteActionSet) and sys.omega_bar == 0.0:
        return _FiniteNoise(sys, policy, steps)
    return _StepNoise(sys, policy, steps)


class _StepNoise:
    """The per-step draws of ``run_scenario``: the sampler of any policy the others do not cover."""

    held = False  # whether every draw is the same input at every step, with no disturbance

    def __init__(self, sys: ScenarioSystem, policy, steps: int):
        self.sys, self.policy, self.steps = sys, policy, steps
        self.m, self.k = sys.action_box.dim, sys.disturbance_dim

    def __call__(self, rng):
        u, om = [], []
        for _ in range(self.steps):
            u.append(self.policy(None, rng))
            om.append(self.sys.draw_disturbance(rng))
        return (np.asarray(u, dtype=float).reshape(self.steps, self.m),
                np.asarray(om, dtype=float).reshape(self.steps, self.k))

    def block(self, seed: int, ordinals) -> tuple[np.ndarray, np.ndarray]:
        u, w = np.empty((len(ordinals), self.steps, self.m)), np.empty((len(ordinals), self.steps, self.k))
        for j, i in enumerate(ordinals):
            u[j], w[j] = self(sample_stream(_sample_desc(seed, i)))
        return u, w


class _BoxNoise(_StepNoise):
    """A uniform policy over a box: ``lower + span * u`` of one ``random`` call per rollout.

    A block draws its rows' streams as the lanes of one ``_pcg64_next`` (``_stream_words``)
    and scales their doubles in place.  With no disturbance (``omega_bar`` 0) its
    disturbances are a read-only ``np.broadcast_to`` view of 0.0, not a zero-filled block.
    """

    def __init__(self, sys: ScenarioSystem, policy, steps: int):
        super().__init__(sys, policy, steps)
        box, w = policy.actions.box, sys.omega_bar
        self.noisy = self.k if w > 0.0 else 0
        self.lower = np.tile(np.concatenate([box.lower, np.full(self.noisy, -w)]), steps)
        self.span = np.tile(np.concatenate([box.upper, np.full(self.noisy, w)]), steps) - self.lower

    def block(self, seed: int, ordinals) -> tuple[np.ndarray, np.ndarray]:
        u = _doubles(_stream_words(seed, ordinals, self.lower.size))
        u *= self.span  # raw * span, then + lower: the products and sums of lower + span * raw
        u += self.lower
        u = u.reshape(len(ordinals), self.steps, self.m + self.noisy)
        return u[..., :self.m], (u[..., self.m:] if self.noisy else np.broadcast_to(0.0, u.shape[:-1] + (self.k,)))


class _FiniteNoise(_StepNoise):
    """A uniform policy over a finite set, no disturbances: ``points`` at one ``integers`` call per rollout.

    A block draws its rows' picks from the lanes of ``_stream_words`` (``_lemire_picks``);
    its disturbances are a read-only ``np.broadcast_to`` view of 0.0.
    """

    def __init__(self, sys: ScenarioSystem, policy, steps: int):
        super().__init__(sys, policy, steps)
        self.points = np.asarray(policy.actions.points, dtype=float).reshape(-1, self.m)
        self.held = len(self.points) == 1

    def block(self, seed: int, ordinals) -> tuple[np.ndarray, np.ndarray]:
        shape = (len(ordinals), self.steps)
        if self.held:  # integers(1) is always 0, and nothing else reads the stream: read-only views, no copies
            return np.broadcast_to(self.points[0], shape + (self.m,)), np.broadcast_to(0.0, shape + (self.k,))
        picks, _ = _lemire_picks(lambda count: _stream_words(seed, ordinals, count), len(self.points), self.steps)
        return self.points[picks], np.broadcast_to(0.0, shape + (self.k,))


# ---------------------------------------------------------------------------
# adversarial action extraction
# ---------------------------------------------------------------------------


def default_action_samples(actions) -> list:
    """Representative finite sample of an action set: corners plus midpoints.

    A finite set is returned as-is; a box yields the per-axis grid
    {lower, midpoint, upper}, so every corner (the adversarial extremes) is
    always included.
    """
    if isinstance(actions, FiniteActionSet):
        return list(actions.points)
    box = actions.box
    axes = [(float(box.lower[d]), float(0.5 * (box.lower[d] + box.upper[d])), float(box.upper[d])) for d in range(box.dim)]
    return [tuple(p) for p in itertools.product(*axes)]


def adversarial_actions(sys: ScenarioSystem, state, facet: Facet) -> list:
    """Candidate actions that most closely approach ``facet`` in one step.

    Evaluates the one-step map from ``state`` (zero disturbance) under the
    corners and midpoints of the action box and keeps the actions whose
    remaining margin to the facet plane is within ``DOMAIN_TOL`` of the least.
    """
    cands = default_action_samples(sys.action_box)
    d, side = facet
    bound = float(sys.state_box.lower[d]) if side == "lower" else float(sys.state_box.upper[d])
    omega = sys.zero_disturbance()
    margins = []
    st = tuple(float(x) for x in state)
    for u in cands:
        raw = sys.transition(st, tuple(float(x) for x in np.atleast_1d(u)), omega)
        m = (raw[d] - bound) if side == "lower" else (bound - raw[d])
        margins.append(m)
    best = min(margins)
    return [tuple(np.atleast_1d(u)) for u, m in zip(cands, margins) if m <= best + DOMAIN_TOL]
