"""Controlled scenario systems and the sampling rollout that drives everything.

A scenario system is a black-box one-step map ``state, action, disturbance ->
state`` over a box domain whose facets are labeled either *unsafe* (crossing
ends the run) or *truncate* (crossing clamps to the boundary and the run
continues).  The subject vehicle's feedback controller lives inside the map,
so the sampled action channel only steers the surrounding agents: the system
is underactuated by construction.

Built-ins: a two-vehicle lead/follow longitudinal scenario, a three-vehicle
(lead + rear) variant, and a family of one-dimensional toy maps with known
invariant sets used to exercise the validation and quantification machinery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
        self._widths = self.box.widths

    @property
    def dim(self) -> int:
        return self.box.dim

    def sample(self, rng: np.random.Generator) -> tuple:
        # numpy's uniform(lower, upper) computes exactly this, from the same doubles
        widths = self._widths
        return tuple((self.box.lower + widths * rng.random(widths.size)).tolist())

    def measure(self) -> float:
        """Volume of the box (the size term used by the cost functional)."""
        return self.box.volume

    def contains(self, u, tol: float = DOMAIN_TOL) -> bool:
        return self.box.contains(np.atleast_1d(u), tol=tol)


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

    def contains(self, u, tol: float = DOMAIN_TOL) -> bool:
        arr = np.atleast_1d(u)
        return any(np.abs(np.asarray(p) - arr).max() <= tol for p in self.points)


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

    def __init__(self, decel: float = 10.0):
        self.decel = float(decel)
        self.max_abs_accel = self.decel

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
    if gap <= 0.0:
        return p.clamp_lo
    s_star = p.s0 + v0 * p.headway + v0 * (v0 - v_lead) / (2.0 * math.sqrt(p.a_max * p.b))
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
    dead = gap <= 0.0
    s_star = p.s0 + v0 * p.headway + v0 * (v0 - v_lead) / (2.0 * math.sqrt(p.a_max * p.b))
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
# transition maps: ``__call__`` maps one state tuple, ``batch`` the rows of
# (B, n) states, (B, m) actions and (B, k) disturbances, with the same
# floating-point operations in the same order, so both agree bit for bit
# ---------------------------------------------------------------------------


class LeadFollowDynamics:
    """Forward-Euler longitudinal dynamics: subject vehicle behind one lead.

    State (v0, v1, p10): subject speed, lead speed, bumper gap.  The action is
    the lead's acceleration; the subject's acceleration comes from the
    embedded controller.  Disturbances add onto both acceleration channels.
    The gap integrates start-of-step speeds.  Speeds clamp at zero inside the
    map (vehicles do not reverse), which is physics, not a facet event.
    """

    def __init__(self, policy, dt: float):
        self.policy = policy
        self.dt = dt

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

    def batch(self, x, u, w) -> np.ndarray:
        v0, v1, p10 = x.T
        a0 = self.policy.accel_array(v0, v1, p10)
        dt = self.dt
        out = np.empty(x.shape)
        nv0 = v0 + (a0 + w[:, 0]) * dt
        nv1 = v1 + (u[:, 0] + w[:, 1]) * dt
        out[:, 0] = np.where(nv0 > 0.0, nv0, 0.0)
        out[:, 1] = np.where(nv1 > 0.0, nv1, 0.0)
        out[:, 2] = p10 + (v1 - v0) * dt
        return out


class ThreeVehicleDynamics:
    """Lead/follow chain with a rear vehicle tailing the subject.

    State (v0, v1, v2, p10, p20): p10 is the forward gap to the lead, p20 the
    (negative) offset of the rear vehicle.  Actions (a1, a2) drive lead and
    rear; the subject reacts to the lead only.
    """

    def __init__(self, policy, dt: float):
        self.policy = policy
        self.dt = dt

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

    def batch(self, x, u, w) -> np.ndarray:
        v0, v1, v2, p10, p20 = x.T
        a0 = self.policy.accel_array(v0, v1, p10)
        dt = self.dt
        out = np.empty(x.shape)
        nv0 = v0 + (a0 + w[:, 0]) * dt
        nv1 = v1 + (u[:, 0] + w[:, 1]) * dt
        nv2 = v2 + (u[:, 1] + w[:, 2]) * dt
        out[:, 0] = np.where(nv0 > 0.0, nv0, 0.0)
        out[:, 1] = np.where(nv1 > 0.0, nv1, 0.0)
        out[:, 2] = np.where(nv2 > 0.0, nv2, 0.0)
        out[:, 3] = p10 + (v1 - v0) * dt
        out[:, 4] = p20 + (v2 - v0) * dt
        return out


class ToyDynamics:
    """One-dimensional test map ``x' = base(x) [+ u] + w``.

    Most of the toy maps ignore the action channel entirely (their invariant
    sets are statements about the autonomous map); ``use_action`` opts in.
    """

    def __init__(self, kind: str, use_action: bool):
        self.kind = kind
        self.use_action = use_action

    def _base(self, x: float) -> float:
        k = self.kind
        if k == "shift":
            return x + 1.0
        if k == "shrink":
            return 0.5 * x
        if k == "threshold":
            return x - 5.0 if x < 1.0 else x
        if k == "two-basins":
            return x if abs(x) >= 1.0 else x + 100.0
        if k == "flip":
            return -x
        raise ValueError(f"unknown toy map {k!r}")

    def __call__(self, state, action, omega):
        y = self._base(state[0]) + omega[0]
        if self.use_action:
            y += action[0]
        return (y,)

    def batch(self, x, u, w) -> np.ndarray:
        x = x[:, 0]
        k = self.kind
        if k == "shift":
            y = x + 1.0
        elif k == "shrink":
            y = 0.5 * x
        elif k == "threshold":
            y = np.where(x < 1.0, x - 5.0, x)
        elif k == "two-basins":
            y = np.where(np.abs(x) >= 1.0, x, x + 100.0)
        elif k == "flip":
            y = -x
        else:
            raise ValueError(f"unknown toy map {k!r}")
        y = y + w[:, 0]
        if self.use_action:
            y = y + u[:, 0]
        return y[:, None]


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


def _unsafe_masks(sys: ScenarioSystem) -> tuple[np.ndarray, np.ndarray]:
    """Per dimension, whether its lower and whether its upper facet is unsafe."""
    dims = range(sys.state_box.dim)
    return (np.array([sys.facets[(d, "lower")] == UNSAFE for d in dims]),
            np.array([sys.facets[(d, "upper")] == UNSAFE for d in dims]))


def _advance(sys: ScenarioSystem, states, actions, omegas, masks) -> tuple[np.ndarray, np.ndarray | None]:
    """``step_batch`` without the domain check, for rows known to lie inside.

    ``masks`` is ``_unsafe_masks(sys)``.  The code array is ``None`` when no
    row went unsafe.
    """
    lo = sys.state_box.lower
    hi = sys.state_box.upper
    raw = sys.transition.batch(states, actions, omegas)
    below, above = raw < lo, raw > hi
    if not (below | above).any():
        return raw, None
    clamped = np.where(below, lo, np.where(above, hi, raw))
    hit = (below & masks[0]) | (above & masks[1])
    unsafe = hit.any(axis=1)
    if not unsafe.any():
        return clamped, None
    d = hit.argmax(axis=1)
    code = np.where(unsafe, 2 * d + above[np.arange(d.size), d], -1)
    return np.where(unsafe[:, None], raw, clamped), code


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
    the unsafe facet that stopped it, or -1 when it ran to the horizon.
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


def run_batch(sys: ScenarioSystem, x0, noise) -> Rollouts:
    """Roll the rows of (B, n) ``x0`` in lock-step, row ``j`` under row ``j`` of ``noise``.

    ``noise`` is the tuple ``(actions (B, steps, m), disturbances (B, steps,
    k))`` that a ``noise_sampler``'s ``block`` draws.  Every step moves the
    live rows through ``step_batch``; a row that crosses an unsafe facet
    keeps the raw offending state as its last and is frozen, so row ``j``
    equals the ``run_scenario`` rollout that makes the same draws.
    Until the first row stops, the steps go through slice views of every
    row, with no row gather or scatter.

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
    for t in range(steps):
        cur = states[live, t]
        nxt, ex = _advance(sys, cur, acts[live, t], omegas[live, t], masks)
        states[live, t + 1] = nxt
        if ex is None:
            if held and (_bits(nxt) == _bits(cur)).all():
                states[live, t + 2:] = nxt[:, None]
                break
            continue
        rows = np.arange(b) if isinstance(live, slice) else live
        unsafe = ex >= 0
        code[rows[unsafe]], length[rows[unsafe]] = ex[unsafe], t + 2
        live = rows[~unsafe]
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
    compacted only on a step where one of them goes unsafe.
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
    (``_seeded_streams``) into one ``(B, steps, m)`` and one ``(B, steps,
    k)`` array, row ``j`` from ``ordinals[j]``'s.  A uniform policy over a
    box draws a rollout with one ``random`` call scaled to the per-step
    bounds, which is how ``uniform`` computes its values, and one over a
    finite set without disturbances with one ``integers`` call; each yields
    the same values, and leaves the generator in the same state, as the
    per-step calls.  A one-point set's ``block`` holds its point and seeds no
    stream.
    """
    acts = policy.actions if isinstance(policy, UniformPolicy) else None
    if isinstance(acts, BoxActionSet):
        return _BoxNoise(sys, policy, steps)
    if isinstance(acts, FiniteActionSet) and sys.omega_bar == 0.0:
        return _FiniteNoise(sys, policy, steps)
    return _StepNoise(sys, policy, steps)


class _StepNoise:
    """The per-step draws of ``run_scenario``: the sampler of any policy the others do not cover."""

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
        for j, rng in _seeded_streams(seed, ordinals):
            u[j], w[j] = self(rng)
        return u, w


class _BoxNoise(_StepNoise):
    """A uniform policy over a box: ``lower + span * u`` of one ``random`` call per rollout."""

    def __init__(self, sys: ScenarioSystem, policy, steps: int):
        super().__init__(sys, policy, steps)
        box, w = policy.actions.box, sys.omega_bar
        self.noisy = self.k if w > 0.0 else 0
        self.lower = np.tile(np.concatenate([box.lower, np.full(self.noisy, -w)]), steps)
        self.span = np.tile(np.concatenate([box.upper, np.full(self.noisy, w)]), steps) - self.lower

    def block(self, seed: int, ordinals) -> tuple[np.ndarray, np.ndarray]:
        raw = np.empty((len(ordinals), self.lower.size))
        for j, rng in _seeded_streams(seed, ordinals):
            rng.random(out=raw[j])
        u = (self.lower + self.span * raw).reshape(len(ordinals), self.steps, self.m + self.noisy)
        return u[..., :self.m], (u[..., self.m:] if self.noisy else np.zeros(u.shape[:-1] + (self.k,)))


class _FiniteNoise(_StepNoise):
    """A uniform policy over a finite set, no disturbances: ``points`` at one ``integers`` call per rollout."""

    def __init__(self, sys: ScenarioSystem, policy, steps: int):
        super().__init__(sys, policy, steps)
        self.points = np.asarray(policy.actions.points, dtype=float).reshape(-1, self.m)

    def block(self, seed: int, ordinals) -> tuple[np.ndarray, np.ndarray]:
        picks = np.zeros((len(ordinals), self.steps), dtype=np.int64)
        if len(self.points) > 1:  # integers(1) is always 0, and nothing else reads the stream
            for j, rng in _seeded_streams(seed, ordinals):
                picks[j] = rng.integers(len(self.points), size=self.steps)
        return self.points[picks], np.zeros((len(ordinals), self.steps, self.k))


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


def _generate_state(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(...).generate_state(4, uint64)`` per row of (n, 5 or 6) assembled entropy words."""
    pool = _pool_of(entropy[:, :_POOL])
    # the words past the pool mix into every pool word, each step with the next constant
    for src in range(_POOL, entropy.shape[1]):
        c = _POOL * src
        pool = _mix(pool, _hashmix(entropy[:, src:src + 1], _XOR_A[c:c + _POOL], _MUL_A[c:c + _POOL]))
    # generate_state cycles through the pool for 8 words, read as 4 little-endian uint64
    words = _hashmix(np.tile(pool, 2), _XOR_B, _MUL_B)
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)


def _seed_words(seed: int, ordinals) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(i,)).generate_state(4, uint64)`` for each ``i`` of ``ordinals``: (n, 4).

    A row's assembled entropy is the seed's low and high words, two zero
    words (a spawned sequence pads its entropy to the pool), then the
    ordinal's low word, and its high word when it is not zero: one array of
    5 and one of 6 words.
    """
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"a sample seed must lie in [0, 2**64), not {seed}")
    ordinals = np.asarray(ordinals, dtype=np.uint64)
    out = np.empty((ordinals.size, 4), dtype=np.uint64)
    wide = ordinals > _M32
    for rows, length in ((~wide, 5), (wide, 6)):
        key = ordinals[rows]
        if key.size:
            entropy = np.zeros((key.size, length), dtype=np.uint32)
            entropy[:, 0], entropy[:, 1] = seed & _M32, seed >> 32
            entropy[:, 4] = key & _M32
            if length == 6:
                entropy[:, 5] = key >> np.uint64(32)
            out[rows] = _generate_state(entropy)
    return out


def _seeded_streams(seed: int, ordinals):
    """``(j, rng)`` per ordinal, ``rng`` set to the start of ``sample_stream(_sample_desc(seed, ordinals[j]))``.

    The seed words of every ordinal come from one vectorised ``SeedSequence``
    computation (``_seed_words``); each sample then sets one reused
    ``PCG64`` to the state that seeding reaches (PCG's set-seq seeding:
    ``inc = (seq << 1) | 1``, ``state = ((inc + seed) * MULT + inc)`` mod
    2**128).  The one generator holds a sample's stream only until the next
    is yielded.
    """
    seeds = _seed_words(seed, ordinals).tolist()
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for j, (seed_hi, seed_lo, seq_hi, seq_lo) in enumerate(seeds):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _M128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _M128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        yield j, rng


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


def adversarial_actions(sys: ScenarioSystem, state, facet: Facet, actions=None, candidates=None, tol: float = DOMAIN_TOL) -> list:
    """Candidate actions that most closely approach ``facet`` in one step.

    Evaluates the one-step map from ``state`` (zero disturbance) under a
    finite candidate set (corners+midpoints of the action box by default) and
    keeps the actions minimizing the remaining margin to the facet plane.
    """
    acts = actions if actions is not None else sys.action_box
    cands = candidates if candidates is not None else default_action_samples(acts)
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
    return [tuple(np.atleast_1d(u)) for u, m in zip(cands, margins) if m <= best + tol]


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------


def _sv_policy(kind: str, v_des: float, idm_params: IdmParams | None):
    if kind == "brake":
        return BrakeToStop()
    if kind == "idm":
        return IdmPolicy(idm_params if idm_params is not None else IdmParams(v_des=v_des))
    raise ValueError(f"unknown subject-vehicle policy {kind!r}")


def make_lead_follow(sv: str = "brake", omega_bar: float = 0.0, dt: float = 0.1,
                     state_box=None, action_box=None, idm_params: IdmParams | None = None) -> ScenarioSystem:
    """Two-vehicle longitudinal scenario.

    State (v0, v1, p10) over [0,16] x [0,16] x [5.5,60]; lead acceleration in
    [-5, 3].  Running out of forward gap (p10 lower facet) is the collision;
    every other facet truncates.  The most hostile lead input is maximal
    braking, so the adversarial set is the singleton {-5}.
    """
    sb = state_box if state_box is not None else BoxRegion([0.0, 0.0, 5.5], [16.0, 16.0, 60.0])
    ab = action_box if action_box is not None else BoxActionSet([-5.0], [3.0])
    policy = _sv_policy(sv, v_des=float(sb.upper[0]), idm_params=idm_params)
    v_span = float(max(sb.upper[0] - sb.lower[0], sb.upper[1] - sb.lower[1]))
    u_max = float(np.abs([ab.box.lower, ab.box.upper]).max()) if isinstance(ab, BoxActionSet) else 5.0
    # worst one-step move: velocities change by accel*dt, the gap by |v1-v0|*dt
    sigma = max((max(policy.max_abs_accel, u_max) + omega_bar) * dt, v_span * dt)
    return ScenarioSystem(
        name="lead-follow",
        state_box=sb,
        action_box=ab,
        facets={(2, "lower"): UNSAFE},
        transition=LeadFollowDynamics(policy, dt),
        disturbance_dim=2,
        omega_bar=omega_bar,
        dt=dt,
        sigma_bar=sigma,
        adversarial=FiniteActionSet([(float(ab.box.lower[0]) if isinstance(ab, BoxActionSet) else -5.0,)]),
        sv_policy_name=policy.name,
    )


def make_three_vehicle(sv: str = "brake", omega_bar: float = 0.0, dt: float = 0.1,
                       state_box=None, action_box=None, idm_params: IdmParams | None = None) -> ScenarioSystem:
    """Three-vehicle chain: lead ahead of the subject, tailgater behind.

    State (v0, v1, v2, p10, p20) over [0,6]^3 x [5,25] x [-25,-5]; actions
    (a1, a2) in [-5,3] x [-7,-3].  Collisions: forward gap collapsing (p10
    lower) or the rear closing in (p20 upper).  The hostile extreme is the
    lead braking flat-out while the tailgater brakes as little as allowed.
    """
    sb = state_box if state_box is not None else BoxRegion([0.0, 0.0, 0.0, 5.0, -25.0], [6.0, 6.0, 6.0, 25.0, -5.0])
    ab = action_box if action_box is not None else BoxActionSet([-5.0, -7.0], [3.0, -3.0])
    policy = _sv_policy(sv, v_des=float(sb.upper[0]), idm_params=idm_params)
    v_span = float(max(sb.upper[d] - sb.lower[d] for d in range(3)))
    u_max = float(np.abs([ab.box.lower, ab.box.upper]).max())
    sigma = max((max(policy.max_abs_accel, u_max) + omega_bar) * dt, v_span * dt)
    adv = (float(ab.box.lower[0]), float(ab.box.upper[1]))
    return ScenarioSystem(
        name="three-vehicle",
        state_box=sb,
        action_box=ab,
        facets={(3, "lower"): UNSAFE, (4, "upper"): UNSAFE},
        transition=ThreeVehicleDynamics(policy, dt),
        disturbance_dim=3,
        omega_bar=omega_bar,
        dt=dt,
        sigma_bar=sigma,
        adversarial=FiniteActionSet([adv]),
        sv_policy_name=policy.name,
    )


def _make_toy(kind: str, state_box: BoxRegion, facets: dict, use_action: bool,
              action_lo: float, action_hi: float, omega_bar: float, action_box=None) -> ScenarioSystem:
    ab = action_box if action_box is not None else BoxActionSet([action_lo], [action_hi])
    # worst one-step move of the base map over the box, probed on a fine grid
    dyn = ToyDynamics(kind, use_action)
    xs = np.linspace(state_box.lower[0], state_box.upper[0], 2001)
    moves = [abs(dyn._base(float(x)) - float(x)) for x in xs]
    u_max = float(np.abs([ab.box.lower, ab.box.upper]).max()) if use_action else 0.0
    sigma = max(moves) + u_max + omega_bar
    return ScenarioSystem(
        name=f"toy-{kind}",
        state_box=state_box,
        action_box=ab,
        facets=facets,
        transition=dyn,
        disturbance_dim=1,
        omega_bar=omega_bar,
        dt=1.0,
        sigma_bar=sigma,
        adversarial=None,
        sv_policy_name="none",
    )


def make_toy_shift(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """x' = x + 1 on [0, 3]; drifting out the top is unsafe.  No invariant subset."""
    return _make_toy("shift", BoxRegion([0.0], [3.0]), {(0, "upper"): UNSAFE},
                     use_action=False, action_lo=-1.0, action_hi=1.0,
                     omega_bar=omega_bar, action_box=action_box)


def make_toy_shrink(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """x' = 0.5 x + u on [-1, 1]; both facets truncate.  The whole box is invariant."""
    return _make_toy("shrink", BoxRegion([-1.0], [1.0]), {},
                     use_action=True, action_lo=-0.5, action_hi=0.5,
                     omega_bar=omega_bar, action_box=action_box)


def make_toy_threshold(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """x' = x - 5 below 1, else x, on [0, 10]; bottom facet unsafe.  Invariant: [1, 10]."""
    return _make_toy("threshold", BoxRegion([0.0], [10.0]), {(0, "lower"): UNSAFE},
                     use_action=False, action_lo=-1.0, action_hi=1.0,
                     omega_bar=omega_bar, action_box=action_box)


def make_toy_two_basins(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """Identity outside (-1, 1), catapult inside, on [-10, 10]; both facets unsafe.

    Invariant set: [-10, -1] u [1, 10], two disconnected basins.
    """
    return _make_toy("two-basins", BoxRegion([-10.0], [10.0]),
                     {(0, "lower"): UNSAFE, (0, "upper"): UNSAFE},
                     use_action=False, action_lo=-1.0, action_hi=1.0,
                     omega_bar=omega_bar, action_box=action_box)


def make_toy_flip(omega_bar: float = 0.0, action_box=None) -> ScenarioSystem:
    """x' = -x on [-1, 1]; both facets truncate.  Period-two everywhere."""
    return _make_toy("flip", BoxRegion([-1.0], [1.0]), {},
                     use_action=False, action_lo=-1.0, action_hi=1.0,
                     omega_bar=omega_bar, action_box=action_box)


BUILTIN_SYSTEMS = {
    "lead-follow": make_lead_follow,
    "three-vehicle": make_three_vehicle,
    "toy-shift": make_toy_shift,
    "toy-shrink": make_toy_shrink,
    "toy-threshold": make_toy_threshold,
    "toy-two-basins": make_toy_two_basins,
    "toy-flip": make_toy_flip,
}
