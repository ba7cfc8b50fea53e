"""Controlled scenario systems and the sampling rollout that drives everything.

A scenario system is a black-box one-step map ``state, action, disturbance ->
state`` over a box domain whose facets are labeled either *unsafe* (crossing
ends the run) or *truncate* (crossing clamps to the boundary and the run
continues).  The subject vehicle's feedback controller lives inside the map,
so the sampled action channel only steers the surrounding agents: the system
is underactuated by construction.

Built-ins: a two-vehicle lead/follow longitudinal scenario and its
three-vehicle (lead + rear) variant, both one vehicle chain
(``_VehicleChain``) built by one factory, and a family of one-dimensional toy
maps with known invariant sets, one ``_TOYS`` row each, used to exercise the
validation and quantification machinery.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import DOMAIN_TOL, BoxRegion

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

# a facet is identified by (dimension, side)
Facet = tuple[int, str]

UNSAFE = "unsafe"
TRUNCATE = "truncate"

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


# ---------------------------------------------------------------------------
# action sets and policies
# ---------------------------------------------------------------------------


class BoxActionSet:
    """Continuous action set: a box, sampled uniformly."""

    def __init__(self, lower, upper):
        self.box = BoxRegion(np.atleast_1d(lower), np.atleast_1d(upper))

    @property
    def dim(self) -> int:
        return self.box.dim

    def sample(self, rng: np.random.Generator) -> tuple:
        # numpy's uniform(lower, upper) computes exactly this, from the same doubles
        widths = self.box.widths
        return tuple((self.box.lower + widths * rng.random(widths.size)).tolist())

    def measure(self) -> float:
        """Volume of the box (the size term used by the cost functional)."""
        return self.box.volume


class FiniteActionSet:
    """Discrete action set, sampled uniformly over its points.

    Its measure is the cardinality: a point set has zero volume, so the cost
    functional counts points instead (a singleton scores 1).
    """

    def __init__(self, points):
        pts = [tuple(float(x) for x in np.atleast_1d(p)) for p in points]
        if not pts:
            raise ValueError("finite action set needs at least one point")
        self.points = tuple(pts)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def sample(self, rng: np.random.Generator) -> tuple:
        return self.points[int(rng.integers(len(self.points)))]

    def measure(self) -> float:
        return float(len(self.points))


class UniformPolicy:
    """Draw each action independently and uniformly from an action set."""

    def __init__(self, actions):
        self.actions = actions

    def __call__(self, state, rng: np.random.Generator) -> tuple:
        return self.actions.sample(rng)


class FixedActionPolicy:
    def __init__(self, u):
        self.u = tuple(float(x) for x in np.atleast_1d(u))

    def __call__(self, state, rng=None) -> tuple:
        return self.u


# ---------------------------------------------------------------------------
# subject-vehicle controllers (live inside the transition map)
# ---------------------------------------------------------------------------


class BrakeToStop:
    """Constant hard braking until standstill.

    Commands ``-decel`` whenever the subject vehicle is still moving and zero
    otherwise; the transition clamps speed at zero, so a partial step never
    produces reverse motion.
    """

    name = "brake"
    decel = max_abs_accel = 10.0

    def accel(self, v0: float, v_lead: float, gap: float) -> float:
        return -self.decel if v0 > 0.0 else 0.0

    def accel_array(self, v0, v_lead, gap) -> np.ndarray:
        return np.where(v0 > 0.0, -self.decel, 0.0)


@dataclass(frozen=True)
class IdmParams:
    """Intelligent-driver-model parameters (standard passenger-car fit)."""

    v_des: float
    headway: float = 1.5
    s0: float = 2.0
    a_max: float = 0.73
    b: float = 1.67
    clamp_lo: float = -4.67
    clamp_hi: float = 0.73


def idm_accel(p: IdmParams, v0: float, v_lead: float, gap: float) -> float:
    """IDM car-following acceleration, clamped to the comfortable range.

    s_star = s0 + v0*T + v0*(v0 - v_lead) / (2*sqrt(a_max*b))
    a      = a_max * (1 - (v0/v_des)^4 - (s_star/gap)^2)
    """
    s_star = p.s0 + v0 * p.headway + v0 * (v0 - v_lead) / (2.0 * math.sqrt(p.a_max * p.b))
    # no gap, or one so small that the square of s_star / gap would overflow: a is clamp_lo there,
    # as it is for any ratio past about 2.7 with the built-in parameters
    if gap <= 0.0 or abs(s_star) * 1e-150 > gap:
        return p.clamp_lo
    a = p.a_max * (1.0 - (v0 / p.v_des) ** 4 - (s_star / gap) ** 2)
    return min(max(a, p.clamp_lo), p.clamp_hi)


def _float_pow(x: np.ndarray, k: int) -> np.ndarray:
    """``x ** k`` element by element through Python floats.

    numpy's vectorised power does not round like the C ``pow`` behind
    ``float ** int`` (on AVX-512 builds ``x ** 4`` differs in about 5 % of
    the values in [0, 2), ``x ** 2`` in about 0.1 %), and the array form of
    a transition must equal the scalar one bit for bit.
    """
    return (x.astype(object) ** k).astype(float)


def idm_accel_array(p: IdmParams, v0, v_lead, gap) -> np.ndarray:
    """``idm_accel`` over arrays, equal to the scalar form element by element."""
    s_star = p.s0 + v0 * p.headway + v0 * (v0 - v_lead) / (2.0 * math.sqrt(p.a_max * p.b))
    dead = (gap <= 0.0) | (np.abs(s_star) * 1e-150 > gap)
    a = p.a_max * (1.0 - _float_pow(v0 / p.v_des, 4) - _float_pow(s_star / np.where(dead, 1.0, gap), 2))
    return np.where(dead, p.clamp_lo, np.minimum(np.maximum(a, p.clamp_lo), p.clamp_hi))


class IdmPolicy:
    name = "idm"

    def __init__(self, params: IdmParams):
        self.params = params
        self.max_abs_accel = max(abs(params.clamp_lo), abs(params.clamp_hi))

    def accel(self, v0: float, v_lead: float, gap: float) -> float:
        return idm_accel(self.params, v0, v_lead, gap)

    def accel_array(self, v0, v_lead, gap) -> np.ndarray:
        return idm_accel_array(self.params, v0, v_lead, gap)


# ---------------------------------------------------------------------------
# transition maps: ``__call__`` maps one state tuple, ``batch`` B of them
# given as coordinate rows, (n, B) states, (m, B) actions and (k, B)
# disturbances, and returns the (n, B) rows of the next states: every
# elementwise operation then runs over B values, however small n is.  Both
# do the same floating-point operations in the same order, so they agree
# bit for bit.  The two traffic scenarios are one vehicle chain of two or
# three vehicles; each toy map is one row of ``_TOYS``.
# ---------------------------------------------------------------------------


class _VehicleChain:
    """Forward-Euler longitudinal dynamics of ``vehicles`` cars on one lane: a subject, its lead, any others.

    State: the speeds (v0, v1, ...), then each other vehicle's offset from
    the subject (p10, ...), the lead's being the bumper gap.  The actions are
    the other vehicles' accelerations; the subject's comes from the embedded
    controller, which reacts to the lead only.  Disturbances add onto every
    acceleration, offsets integrate start-of-step speeds, and speeds clamp at
    zero (vehicles do not reverse), which is physics, not a facet event.

    ``batch`` is written once over the chain; each subclass spells out its
    scalar ``__call__``, since a loop over the chain in its place took the
    rear-slice census (86,400 scalar three-vehicle rollouts) from 11.7-12.5 s
    to 14.1-14.5 s.
    """

    vehicles: int

    def __init__(self, policy, dt: float):
        self.policy = policy
        self.dt = dt

    def batch(self, x, u, w) -> np.ndarray:
        """The (n, B) next states of (n, B) ``x``, (vehicles - 1, B) ``u`` and (vehicles, B) ``w``.

        Each operation runs along one coordinate row of B values: over the rows of a block's transposed
        view, a 2-D operation runs its inner loop along the few vehicles, and stepped slower.
        """
        c, dt = self.vehicles, self.dt
        v0, out = x[0], np.empty(x.shape)
        acc = (self.policy.accel_array(v0, x[1], x[c]), *u)
        for i in range(c):
            nv = x[i] + (acc[i] + w[i]) * dt
            out[i] = np.where(nv > 0.0, nv, 0.0)
        for i in range(1, c):
            out[c + i - 1] = x[c + i - 1] + (x[i] - v0) * dt
        return out


class LeadFollowDynamics(_VehicleChain):
    """The subject behind one lead: state (v0, v1, p10), action the lead's acceleration."""

    vehicles = 2

    def __call__(self, state, action, omega):
        v0, v1, p10 = state
        a0 = self.policy.accel(v0, v1, p10)
        dt = self.dt
        nv0 = v0 + (a0 + omega[0]) * dt
        nv1 = v1 + (action[0] + omega[1]) * dt
        return (
            nv0 if nv0 > 0.0 else 0.0,
            nv1 if nv1 > 0.0 else 0.0,
            p10 + (v1 - v0) * dt,
        )


class ThreeVehicleDynamics(_VehicleChain):
    """A rear vehicle tailing the subject too: state (v0, v1, v2, p10, p20), p20 the rear's (negative) offset.

    Actions (a1, a2) drive lead and rear.
    """

    vehicles = 3

    def __call__(self, state, action, omega):
        v0, v1, v2, p10, p20 = state
        a0 = self.policy.accel(v0, v1, p10)
        dt = self.dt
        nv0 = v0 + (a0 + omega[0]) * dt
        nv1 = v1 + (action[0] + omega[1]) * dt
        nv2 = v2 + (action[1] + omega[2]) * dt
        return (
            nv0 if nv0 > 0.0 else 0.0,
            nv1 if nv1 > 0.0 else 0.0,
            nv2 if nv2 > 0.0 else 0.0,
            p10 + (v1 - v0) * dt,
            p20 + (v2 - v0) * dt,
        )


class ToyDynamics(NamedTuple):
    """One-dimensional test map ``x' = base(x) [+ u] + w``, one row of ``_TOYS`` with its factory's defaults.

    Most maps ignore their input (their invariant sets are statements about
    the autonomous map); ``use_action`` opts in.
    """

    base: Callable[[float], float]
    base_array: Callable[[np.ndarray], np.ndarray]  # the same floating-point operations over a row
    box: tuple[float, float]  # the state box [lower, upper]
    unsafe: tuple[str, ...]  # the unsafe sides; the others truncate
    use_action: bool
    u_bound: float  # the default action box is [-u_bound, u_bound]

    def __call__(self, state, action, omega):
        y = self.base(state[0]) + omega[0]
        if self.use_action:
            y += action[0]
        return (y,)

    def batch(self, x, u, w) -> np.ndarray:
        """The (1, B) row of the next states of the (1, B) row ``x`` under (1, B) ``u`` and ``w``."""
        y = self.base_array(x[0]) + w[0]
        if self.use_action:
            y = y + u[0]
        return y[None]


_TOYS = {
    "shift": ToyDynamics(lambda x: x + 1.0, lambda x: x + 1.0, (0.0, 3.0), ("upper",), False, 1.0),
    "shrink": ToyDynamics(lambda x: 0.5 * x, lambda x: 0.5 * x, (-1.0, 1.0), (), True, 0.5),
    "threshold": ToyDynamics(lambda x: x - 5.0 if x < 1.0 else x, lambda x: np.where(x < 1.0, x - 5.0, x),
                             (0.0, 10.0), ("lower",), False, 1.0),
    "two-basins": ToyDynamics(lambda x: x if abs(x) >= 1.0 else x + 100.0,
                              lambda x: np.where(np.abs(x) >= 1.0, x, x + 100.0),
                              (-10.0, 10.0), ("lower", "upper"), False, 1.0),
    "flip": ToyDynamics(lambda x: -x, lambda x: -x, (-1.0, 1.0), (), False, 1.0),
}


# ---------------------------------------------------------------------------
# the system container
# ---------------------------------------------------------------------------


@dataclass
class ScenarioSystem:
    """A black-box controlled system over a box domain with labeled facets."""

    name: str
    state_box: BoxRegion
    action_box: BoxActionSet
    facets: dict
    transition: object
    disturbance_dim: int
    omega_bar: float
    dt: float
    sigma_bar: float
    adversarial: FiniteActionSet | None = None
    sv_policy_name: str = ""

    def __post_init__(self):
        n = self.state_box.dim
        for d in range(n):
            for side in ("lower", "upper"):
                self.facets.setdefault((d, side), TRUNCATE)
        bad = [f for f, lab in self.facets.items() if lab not in (UNSAFE, TRUNCATE)]
        if bad:
            raise ValueError(f"facet labels must be unsafe/truncate, got {bad}")

    def unsafe_facets(self) -> list:
        return [f for f, lab in sorted(self.facets.items()) if lab == UNSAFE]

    def draw_disturbance(self, rng: np.random.Generator) -> tuple:
        if self.omega_bar == 0.0:
            return (0.0,) * self.disturbance_dim
        return tuple(rng.uniform(-self.omega_bar, self.omega_bar, self.disturbance_dim).tolist())

    def zero_disturbance(self) -> tuple:
        return (0.0,) * self.disturbance_dim


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
# per-sample random streams: sample ``i`` of an integer seed draws from
# numpy's ``SeedSequence(seed, spawn_key=(i,))``
# ---------------------------------------------------------------------------

# the ordinal of the stream that selection draws (starts, seed points) use
_SELECT = 2**31


def _sample_desc(seed: int, ordinal: int) -> dict:
    """The replayable descriptor of sample ``ordinal``'s stream, as a verdict records it."""
    return {"entropy": int(seed), "spawn_key": [int(ordinal)]}


def sample_stream(desc: dict) -> np.random.Generator:
    """The stream of one seed descriptor, through numpy's own ``SeedSequence``."""
    ss = np.random.SeedSequence(entropy=desc["entropy"], spawn_key=tuple(desc.get("spawn_key", ())))
    return np.random.Generator(np.random.PCG64(ss))


# SeedSequence's constants (numpy/random/bit_generator.pyx).  Its hashing
# does not depend on the data, so the entropy arrays of one length all go
# through the same uint32 operations, which run over every row at once.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (pcg64.h, PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and the multiply constant of each of ``count`` successive hash steps."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts[:-1], dtype=np.uint32), np.array(consts[1:], dtype=np.uint32)


# a seed below 2**64 with one spawn key below 2**64 assembles to at most 6 words
_MAX_WORDS = 6
_XOR_A, _MUL_A = _hash_consts(_INIT_A, _MULT_A, _POOL * _MAX_WORDS)
_XOR_B, _MUL_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _hashmix(value, xor_const, mul_const):
    value = (value ^ xor_const) * mul_const
    return value ^ (value >> np.uint32(16))


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> np.uint32(16))


def _pool_of(head: np.ndarray) -> np.ndarray:
    """The first two steps of ``SeedSequence.mix_entropy`` per row of (n, 4) leading words.

    Each word hashes into its pool word, then every pool word mixes into
    every other.  The hash steps that read one source word are independent,
    so each group runs as one operation over pool columns.
    """
    pool = _hashmix(head, _XOR_A[:_POOL], _MUL_A[:_POOL])
    for src in range(_POOL):
        c = _POOL + src * (_POOL - 1)
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], _XOR_A[c:c + 3], _MUL_A[c:c + 3]))
    return pool


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> np.ndarray:
    """The (1, 4) pool of ``_pool_of`` for a seed's leading words, which every ordinal of the seed shares.

    They are the seed's low and high words and two zero words (a spawned
    sequence pads its entropy to the pool).  Read-only: it is cached.
    """
    pool = _pool_of(np.array([[seed & _M32, seed >> 32, 0, 0]], dtype=np.uint32))
    pool.flags.writeable = False
    return pool


def _generate_state(pool: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """``SeedSequence(...).generate_state(4, uint64)`` per row of (n, 1 or 2) entropy words past the pool.

    ``pool`` is the shared pool of the leading words (``_seed_pool``).
    """
    # the words past the pool mix into every pool word, each step with the next constant
    for src in range(tail.shape[1]):
        c = _POOL * (_POOL + src)
        pool = _mix(pool, _hashmix(tail[:, src:src + 1], _XOR_A[c:c + _POOL], _MUL_A[c:c + _POOL]))
    # generate_state cycles through the pool for 8 words, read as 4 little-endian uint64
    words = _hashmix(np.tile(pool, 2), _XOR_B, _MUL_B)
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def _seed_words(seed: int, ordinals) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64)`` for each ``i`` of ``ordinals``: (n, 4).

    A row's assembled entropy is the seed's low and high words, two zero
    words (a spawned sequence pads its entropy to the pool), then the
    ordinal's low word, and its high word when it is not zero: past the
    shared pool, one array of 1 and one of 2 words.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"a sample seed must lie in [0, 2**64), not {seed}")
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    out = np.empty((ordinals.size, 4), dtype=np.uint64)
    wide = ordinals > _M32
    for rows, length in ((~wide, 1), (wide, 2)):
        key = ordinals[rows]
        if key.size:
            tail = np.empty((key.size, length), dtype=np.uint32)
            tail[:, 0] = key & _M32
            if length == 2:
                tail[:, 1] = key >> np.uint64(32)
            out[rows] = _generate_state(_seed_pool(seed), tail)
    return out


# ---------------------------------------------------------------------------
# PCG64 in lanes: numpy's PCG64 (O'Neill 2014) stepped over many streams at
# once, each 128-bit state and increment held as (high, low) uint64 arrays
# ---------------------------------------------------------------------------

_LO32, _SH32 = np.uint64(_M32), np.uint64(32)
_M64 = (1 << 64) - 1
# the most words that one array operation of the lane kernel holds
_LANE_CELLS = 4096
# the words per lane when one stream is cut into lanes
_RUN = 64


def _split(values) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low uint64 words of Python ints below 2**128."""
    values = list(values)
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _M64 for v in values], dtype=np.uint64))


def _mul128(ah, al, bh, bl):
    """``a * b`` mod 2**128 of (high, low) uint64 words, over any broadcast shapes.

    The high word of the low words' product is assembled from their 32-bit
    halves; uint64 array arithmetic wraps without a warning.
    """
    a0, a1, b0, b1 = al & _LO32, al >> _SH32, bl & _LO32, bl >> _SH32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _SH32) + (p01 & _LO32) + (p10 & _LO32)
    carry = a1 * b1 + (p01 >> _SH32) + (p10 >> _SH32) + (mid >> _SH32)
    return carry + ah * bl + al * bh, al * bl


def _affine(xh, xl, ah, al, bh, bl):
    """``a * x + b`` mod 2**128 of (high, low) uint64 words."""
    hi, lo = _mul128(xh, xl, ah, al)
    low = lo + bl
    return hi + bh + (low < lo), low


@functools.lru_cache(maxsize=16)
def _jumps(count: int) -> tuple[tuple, tuple]:
    """``MULT**t`` and ``1 + MULT + ... + MULT**(t-1)``, mod 2**128, for t = 1 .. count.

    The state ``t`` steps after ``s`` is ``MULT**t * s + (1 + ... + MULT**(t-1)) * inc``
    (Brown 1994, *Random number generation with arbitrary strides*).
    """
    a, s, powers, sums = 1, 0, [], []
    for _ in range(count):
        a, s = a * _PCG_MULT & _M128, (s * _PCG_MULT + 1) & _M128
        powers.append(a)
        sums.append(s)
    return tuple(powers), tuple(sums)


@functools.lru_cache(maxsize=16)
def _jump_columns(count: int) -> tuple[np.ndarray, ...]:
    """``_jumps(count)`` as read-only (count, 1) uint64 columns: the powers' high and low words, then the sums'."""
    powers, sums = _jumps(count)
    cols = tuple(x[:, None] for x in (*_split(powers), *_split(sums)))
    for c in cols:
        c.flags.writeable = False
    return cols


def _pcg64_next(state, inc, count: int, skip: int = 0) -> np.ndarray:
    """The ``count`` words of each lane after its next ``skip`` steps, as ``PCG64``'s ``next_uint64`` returns them.

    ``state`` and ``inc`` are the lanes' ``(high, low)`` uint64 arrays; ``inc``
    may be one pair for every lane.  The result is (lanes, count) uint64.  A
    lane's state ``t`` steps on is an affine map of its state now
    (``_jumps``), so the first ``q`` words of every lane come at once, one
    column each, and each later run of ``q`` columns from the run before by
    the one jump of ``q`` steps; ``q`` columns hold at most ``_LANE_CELLS``
    words, and at least one column runs.  A word is the XSL-RR output of its
    step's state: the xor of the state's halves, rotated right by its top
    six bits.
    """
    (sh, sl), (ih, il) = state, inc
    lanes = sh.size
    q = max(1, min(count, _LANE_CELLS // max(lanes, 1)))
    ah, al, ch, cl = _jump_columns(skip + q)
    bh, bl = _mul128(ih, il, ch, cl)  # row t - 1: the increment's share of t steps
    xh, xl = _affine(sh, sl, ah[skip:], al[skip:], bh[skip:], bl[skip:])
    out = np.empty((-(-count // q) * q, lanes), dtype=np.uint64)
    for t in range(0, count, q):
        if t:
            xh, xl = _affine(xh, xl, ah[q - 1], al[q - 1], bh[q - 1], bl[q - 1])
        x, r = xh ^ xl, xh >> np.uint64(58)
        out[t:t + q] = x >> r | x << ((np.uint64(64) - r) & np.uint64(63))
    return out[:count].T


def _stream_words(seed: int, ordinals, count: int) -> np.ndarray:
    """The first ``count`` words of each ordinal's sample stream, one lane each: (len(ordinals), count) uint64.

    PCG's set-seq seeding of a stream's seed words gives ``inc = (seq << 1) | 1``
    and puts its state one step past ``inc + seed``; its first word is the
    step after that, so each lane starts at ``inc + seed`` and skips one step.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(seed, ordinals).T
    ih, il = seq_hi << np.uint64(1) | seq_lo >> np.uint64(63), seq_lo << np.uint64(1) | np.uint64(1)
    lo = il + seed_lo
    return _pcg64_next((ih + seed_hi + (lo < il), lo), (ih, il), count, skip=1)


def _doubles(words: np.ndarray) -> np.ndarray:
    """``Generator.random``'s doubles of ``next_uint64`` words, ``(w >> 11) * 2**-53``, written over the words."""
    words >>= np.uint64(11)
    return np.multiply(words, 2.0**-53, out=words.view(np.float64))


def _jump(t: int) -> tuple[int, int]:
    """``MULT**t`` and ``1 + MULT + ... + MULT**(t-1)``, mod 2**128, by O(log t) squarings.

    The state ``t`` steps after ``s`` is the first times ``s`` plus the second
    times ``inc`` (Brown 1994): the maps of 1, 2, 4, ... steps compose by the
    bits of ``t``.
    """
    a, s, mult, plus = 1, 0, _PCG_MULT, 1
    while t:
        if t & 1:
            a, s = a * mult & _M128, (s * mult + plus) & _M128
        mult, plus = mult * mult & _M128, (mult + 1) * plus & _M128
        t >>= 1
    return a, s


class _FreshStream:
    """The stream of ``sample_stream(_sample_desc(seed, ordinal))``, drawn in lanes, as numpy's ``Generator`` draws it.

    ``random(size)`` and ``integers(k, size=n)`` return the values of the
    same calls on that generator, and advance the stream as they do.
    ``position`` is where the stream stands: the words read, and numpy's
    pending 32-bit half (``has_uint32``/``uinteger``, the high half of the
    word whose low half an ``integers`` call took last) or None.  Setting a
    saved ``position`` back rewinds the stream.  ``random`` reads whole words
    (``_doubles``) and leaves the pending half alone; ``integers`` takes the
    pending half first, then the halves of the next words (``_lemire_picks``).

    Words are read from a window of at least ``_LANE_CELLS`` words.  A read
    outside it refills it from the read's start: the state that many steps
    on is one ``_jump``, the window is cut into runs of ``_RUN`` words, each
    run's state a jump of ``_RUN`` steps from the one before, and the runs
    are drawn as the lanes of one ``_pcg64_next``.
    """

    def __init__(self, seed: int, ordinal: int):
        seed_hi, seed_lo, seq_hi, seq_lo = _seed_words(seed, [ordinal]).tolist()[0]
        # PCG's set-seq seeding: the state one step past ``inc + seed``
        self.inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        self.state = ((self.inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + self.inc) & _M128
        self.position = (0, None)
        self._start, self._window = 0, np.empty(0, dtype=np.uint64)

    def _read(self, at: int, count: int) -> np.ndarray:
        """Words ``at`` to ``at + count - 1`` of the stream: a view of the window."""
        lo = at - self._start
        if lo < 0 or lo + count > self._window.size:
            a, s = _jump(at)
            run_a, run_s = _jump(_RUN)
            states = [(a * self.state + s * self.inc) & _M128]
            for _ in range(-(-max(count, _LANE_CELLS) // _RUN) - 1):
                states.append((run_a * states[-1] + run_s * self.inc) & _M128)
            self._start, lo = at, 0
            self._window = _pcg64_next(_split(states), _split([self.inc]), _RUN).reshape(-1)
        return self._window[lo:lo + count]

    def random(self, size) -> np.ndarray:
        """``Generator.random(size)``: float64."""
        at, half = self.position
        count = int(np.prod(size))
        self.position = (at + count, half)
        return _doubles(self._read(at, count).copy()).reshape(size)

    def integers(self, k: int, size: int) -> np.ndarray:
        """``Generator.integers(k, size=size)`` for ``1 <= k <= 2**32``: int64."""
        at, half = self.position
        head = None if half is None else np.array([[half]], dtype=np.uint64)
        picks, used = _lemire_picks(lambda count: self._read(at, count)[None], k, size, head)
        used = int(used[0])
        if used:
            taken = used - (head is not None)  # halves of words past the position
            last = int(self._read(at + taken // 2, 1)[0]) >> 32 if taken % 2 else None
            self.position = (at + (taken + 1) // 2, last)
        return picks[0]


def _lemire_picks(words, k: int, n: int, head=None) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(k, size=n)`` of each lane of ``words(count)``, (lanes, count) uint64.

    numpy draws these, for ``1 <= k <= 2**32``, by Lemire's method over the
    stream's uint32 halves, low half first: a half ``h`` gives ``h * k >> 32``
    unless ``h * k``'s low 32 bits fall below ``2**32 mod k``, when it is
    skipped.  A skip only moves on to the next half, so a lane's accepted
    halves, in order, are its picks.  ``head``, (lanes, 1) uint64 halves,
    goes before each lane's: a stream's pending half.  Each lane draws the
    words that ``n`` picks take at the mean rate of acceptance, and all draw
    again from the start, twice as many, while any lane is short.  ``k = 1``
    always picks 0 and reads nothing.  Returns the (lanes, n) int64 picks
    and the (lanes,) number of halves each lane read, ``head`` included.
    """
    k, n = int(k), int(n)
    if not 1 <= k <= 1 << 32:
        raise ValueError(f"a lane draw picks among 1 to 2**32 values, not {k}")
    if k == 1:
        lanes = len(words(0))
        return np.zeros((lanes, n), dtype=np.int64), np.zeros(lanes, dtype=np.int64)
    skip = (1 << 32) % k
    count = math.ceil(n / (1 - skip / 2**32) / 2)
    while True:
        w = words(count)
        halves = np.stack([w & _LO32, w >> _SH32], axis=2).reshape(len(w), 2 * count)
        if head is not None:
            halves = np.concatenate([head, halves], axis=1)
        m = halves * np.uint64(k)
        ok = (m & _LO32) >= np.uint64(skip)
        if (ok.sum(axis=1) >= n).all():
            seen = ok.cumsum(axis=1)
            used = (seen < n).sum(axis=1) + (n > 0)
            return (m[ok & (seen <= n)] >> _SH32).astype(np.int64).reshape(len(w), n), used
        count *= 2


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


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------


def _check_dims(name: str, state_box: BoxRegion, actions, n: int, m: int) -> None:
    """Refuse boxes of other widths than the dynamics of ``name`` read: ``n`` state coordinates, ``m`` inputs."""
    if (state_box.dim, actions.dim) != (n, m):
        raise ValueError(f"{name} has {n} state and {m} action coordinates: its state and action boxes need "
                         f"{n} and {m} [lower, upper] pairs, not {state_box.dim} and {actions.dim}")


def _sv_policy(kind: str, v_des: float):
    if kind == "brake":
        return BrakeToStop()
    if kind == "idm":
        return IdmPolicy(IdmParams(v_des=v_des))
    raise ValueError(f"unknown subject-vehicle policy {kind!r}")


def _make_chain(name: str, dynamics: type[_VehicleChain], sv: str, omega_bar: float, dt: float,
                state_box: BoxRegion, action_box: BoxActionSet, facets: dict) -> ScenarioSystem:
    """A vehicle-chain system of ``dynamics``, whose vehicle count fixes the widths its boxes need."""
    c = dynamics.vehicles
    _check_dims(name, state_box, action_box, 2 * c - 1, c - 1)
    policy = _sv_policy(sv, v_des=float(state_box.upper[0]))
    v_span = float(max(state_box.upper[d] - state_box.lower[d] for d in range(c)))
    u_max = float(np.abs([action_box.box.lower, action_box.box.upper]).max())
    # worst one-step move: speeds change by accel*dt, the offsets by a speed difference times dt
    sigma = max((max(policy.max_abs_accel, u_max) + omega_bar) * dt, v_span * dt)
    # the hostile extreme: the lead brakes flat-out, every other vehicle as little as allowed
    adversarial = (float(action_box.box.lower[0]), *action_box.box.upper[1:].tolist())
    return ScenarioSystem(
        name=name,
        state_box=state_box,
        action_box=action_box,
        facets=facets,
        transition=dynamics(policy, dt),
        disturbance_dim=c,
        omega_bar=omega_bar,
        dt=dt,
        sigma_bar=sigma,
        adversarial=FiniteActionSet([adversarial]),
        sv_policy_name=policy.name,
    )


def make_lead_follow(sv: str = "brake", omega_bar: float = 0.0, dt: float = 0.1,
                     state_box=None, action_box=None) -> ScenarioSystem:
    """Two-vehicle longitudinal scenario.

    State (v0, v1, p10) over [0,16] x [0,16] x [5.5,60]; lead acceleration in
    [-5, 3].  Running out of forward gap (p10 lower facet) is the collision;
    every other facet truncates.  The most hostile lead input is maximal
    braking, so the adversarial set is the singleton {-5}.
    """
    return _make_chain(
        "lead-follow", LeadFollowDynamics, sv, omega_bar, dt,
        state_box if state_box is not None else BoxRegion([0.0, 0.0, 5.5], [16.0, 16.0, 60.0]),
        action_box if action_box is not None else BoxActionSet([-5.0], [3.0]),
        {(2, "lower"): UNSAFE})


def make_three_vehicle(sv: str = "brake", omega_bar: float = 0.0, dt: float = 0.1,
                       state_box=None, action_box=None) -> ScenarioSystem:
    """Three-vehicle chain: lead ahead of the subject, tailgater behind.

    State (v0, v1, v2, p10, p20) over [0,6]^3 x [5,25] x [-25,-5]; actions
    (a1, a2) in [-5,3] x [-7,-3].  Collisions: forward gap collapsing (p10
    lower) or the rear closing in (p20 upper).  The hostile extreme is the
    lead braking flat-out while the tailgater brakes as little as allowed.
    """
    return _make_chain(
        "three-vehicle", ThreeVehicleDynamics, sv, omega_bar, dt,
        state_box if state_box is not None
        else BoxRegion([0.0, 0.0, 0.0, 5.0, -25.0], [6.0, 6.0, 6.0, 25.0, -5.0]),
        action_box if action_box is not None else BoxActionSet([-5.0, -7.0], [3.0, -3.0]),
        {(3, "lower"): UNSAFE, (4, "upper"): UNSAFE})


def _make_toy(kind: str, omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """The toy system of the ``_TOYS`` row ``kind``."""
    toy = _TOYS[kind]
    name, state_box = f"toy-{kind}", BoxRegion([toy.box[0]], [toy.box[1]])
    ab = action_box if action_box is not None else BoxActionSet([-toy.u_bound], [toy.u_bound])
    _check_dims(name, state_box, ab, 1, 1)
    # worst one-step move of the base map over the box, probed on a fine grid
    xs = np.linspace(state_box.lower[0], state_box.upper[0], 2001).tolist()
    u_max = float(np.abs([ab.box.lower, ab.box.upper]).max()) if toy.use_action else 0.0
    sigma = max(abs(toy.base(x) - x) for x in xs) + u_max + omega_bar
    return ScenarioSystem(
        name=name,
        state_box=state_box,
        action_box=ab,
        facets={(0, side): UNSAFE for side in toy.unsafe},
        transition=toy,
        disturbance_dim=1,
        omega_bar=omega_bar,
        dt=1.0,
        sigma_bar=sigma,
        adversarial=None,
        sv_policy_name="none",
    )


def make_toy_shift(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """x' = x + 1 on [0, 3]; drifting out the top is unsafe.  No invariant subset."""
    return _make_toy("shift", omega_bar, action_box)


def make_toy_shrink(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """x' = 0.5 x + u on [-1, 1]; both facets truncate.  The whole box is invariant."""
    return _make_toy("shrink", omega_bar, action_box)


def make_toy_threshold(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """x' = x - 5 below 1, else x, on [0, 10]; bottom facet unsafe.  Invariant: [1, 10]."""
    return _make_toy("threshold", omega_bar, action_box)


def make_toy_two_basins(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """Identity outside (-1, 1), catapult inside, on [-10, 10]; both facets unsafe.

    Invariant set: [-10, -1] u [1, 10], two disconnected basins.
    """
    return _make_toy("two-basins", omega_bar, action_box)


def make_toy_flip(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """x' = -x on [-1, 1]; both facets truncate.  Period-two everywhere."""
    return _make_toy("flip", omega_bar, action_box)


BUILTIN_SYSTEMS = {
    "lead-follow": make_lead_follow,
    "three-vehicle": make_three_vehicle,
    "toy-shift": make_toy_shift,
    "toy-shrink": make_toy_shrink,
    "toy-threshold": make_toy_threshold,
    "toy-two-basins": make_toy_two_basins,
    "toy-flip": make_toy_flip,
}
