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
from dataclasses import dataclass, field

import numpy as np

from .geometry import BoxRegion

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
    "outside_domain",
    "run_scenario",
    "Rollouts",
    "run_batch",
    "noise_sampler",
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
        box = self.box
        return tuple((box.lower + box.widths * rng.random(box.dim)).tolist())

    def measure(self) -> float:
        """Volume of the box (the size term used by the cost functional)."""
        return self.box.volume

    def contains(self, u, tol: float = 1e-9) -> bool:
        return self.box.contains(np.atleast_1d(u), tol=tol)

    def describe(self) -> dict:
        return {"kind": "box", "lower": self.box.lower.tolist(), "upper": self.box.upper.tolist()}


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

    def contains(self, u, tol: float = 1e-9) -> bool:
        arr = np.atleast_1d(u)
        return any(np.abs(np.asarray(p) - arr).max() <= tol for p in self.points)

    def describe(self) -> dict:
        return {"kind": "finite", "points": [list(p) for p in self.points]}


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
        nv0 = v0 + (a0 + w[:, 0]) * dt
        nv1 = v1 + (u[:, 0] + w[:, 1]) * dt
        return np.stack([np.where(nv0 > 0.0, nv0, 0.0), np.where(nv1 > 0.0, nv1, 0.0),
                         p10 + (v1 - v0) * dt], axis=1)


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
        nv0 = v0 + (a0 + w[:, 0]) * dt
        nv1 = v1 + (u[:, 0] + w[:, 1]) * dt
        nv2 = v2 + (u[:, 1] + w[:, 2]) * dt
        return np.stack([np.where(nv0 > 0.0, nv0, 0.0), np.where(nv1 > 0.0, nv1, 0.0),
                         np.where(nv2 > 0.0, nv2, 0.0), p10 + (v1 - v0) * dt,
                         p20 + (v2 - v0) * dt], axis=1)


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
        return tuple(float(x) for x in rng.uniform(-self.omega_bar, self.omega_bar, self.disturbance_dim))

    def zero_disturbance(self) -> tuple:
        return (0.0,) * self.disturbance_dim


def step(sys: ScenarioSystem, state, action, omega) -> tuple:
    """One transition plus facet classification.

    Returns ``(next_state, StepOutcome)``.  Unsafe crossings report the raw
    offending state unclamped; truncating crossings clamp the offending
    coordinates to the boundary.  When several facets are crossed at once the
    lowest dimension (lower side first) decides the label, and an unsafe facet
    always wins over truncation.
    """
    lo = sys.state_box.lower
    hi = sys.state_box.upper
    st = tuple(float(x) for x in state)
    if any(st[d] < lo[d] - 1e-9 or st[d] > hi[d] + 1e-9 for d in range(len(st))):
        raise ValueError(f"state {st} outside the domain")
    raw = sys.transition(st, tuple(float(x) for x in np.atleast_1d(action)), omega)
    crossed = []
    for d in range(len(raw)):
        if raw[d] < lo[d]:
            crossed.append((d, "lower"))
        elif raw[d] > hi[d]:
            crossed.append((d, "upper"))
    if not crossed:
        return raw, StepOutcome(EXIT_NONE)
    for f in crossed:
        if sys.facets[f] == UNSAFE:
            return raw, StepOutcome(EXIT_UNSAFE, f)
    clamped = list(raw)
    for d, side in crossed:
        clamped[d] = float(lo[d]) if side == "lower" else float(hi[d])
    return tuple(clamped), StepOutcome(EXIT_TRUNCATED, crossed[0])


def outside_domain(sys: ScenarioSystem, states) -> np.ndarray:
    """Per row of (B, n) ``states``, whether ``step`` would refuse it as outside the domain."""
    return ((states < sys.state_box.lower - 1e-9) | (states > sys.state_box.upper + 1e-9)).any(axis=1)


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
    return _advance(sys, states, actions, omegas)


def _check_inside(sys: ScenarioSystem, states) -> None:
    outside = outside_domain(sys, states)
    if outside.any():
        raise ValueError(f"state {tuple(states[outside][0].tolist())} outside the domain")


def _advance(sys: ScenarioSystem, states, actions, omegas) -> tuple[np.ndarray, np.ndarray]:
    """``step_batch`` without the domain check, for rows known to lie inside."""
    lo = sys.state_box.lower
    hi = sys.state_box.upper
    raw = sys.transition.batch(states, actions, omegas)
    below, above = raw < lo, raw > hi
    if not (below.any() or above.any()):
        return raw, np.full(raw.shape[0], -1)
    n = lo.shape[0]
    hit = (below & [sys.facets[(d, "lower")] == UNSAFE for d in range(n)]) \
        | (above & [sys.facets[(d, "upper")] == UNSAFE for d in range(n)])
    unsafe = hit.any(axis=1)
    d = hit.argmax(axis=1)
    code = np.where(unsafe, 2 * d + above[np.arange(d.size), d], -1)
    clamped = np.where(below, lo, np.where(above, hi, raw))
    return np.where(unsafe[:, None], raw, clamped), code


def run_scenario(sys: ScenarioSystem, start, horizon: int, policy, rng: np.random.Generator) -> Trajectory:
    """Roll out up to ``horizon`` states (``horizon - 1`` transitions).

    Stops early only when a step crosses an unsafe facet, in which case the
    raw offending state is recorded last.  Truncations clamp and continue.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    state = tuple(float(x) for x in start)
    states = [state]
    actions = []
    exit_kind, exit_facet = EXIT_NONE, None
    for _ in range(horizon - 1):
        u = policy(state, rng)
        w = sys.draw_disturbance(rng)
        nxt, out = step(sys, state, u, w)
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
    """Roll the rows of (B, n) ``x0`` in lock-step, row ``j`` under ``noise[j]``.

    ``noise[j]`` is the ``(actions, disturbances)`` pair that ``noise_sampler``
    pre-draws for one rollout.  Every step moves the live rows through
    ``step_batch``; a row that crosses an unsafe facet keeps the raw offending
    state as its last and is frozen, so row ``j`` equals the ``run_scenario``
    rollout that makes the same draws.
    """
    acts = np.stack([u for u, _ in noise])
    omegas = np.stack([w for _, w in noise])
    b, n = x0.shape
    steps = acts.shape[1]
    if steps:
        _check_inside(sys, x0)  # a live row stays inside: truncation clamps it
    states = np.empty((b, steps + 1, n))
    states[:, 0] = x0
    code = np.full(b, -1)
    length = np.full(b, steps + 1)
    for t in range(steps):
        rows = np.flatnonzero(code < 0)
        if rows.size == 0:
            break
        nxt, ex = _advance(sys, states[rows, t], acts[rows, t], omegas[rows, t])
        states[rows, t + 1] = nxt
        unsafe = ex >= 0
        code[rows[unsafe]], length[rows[unsafe]] = ex[unsafe], t + 2
    return Rollouts(states, acts, code, length)


def noise_sampler(sys: ScenarioSystem, policy, steps: int):
    """A function ``rng -> (actions (steps, m), disturbances (steps, k))``.

    It pre-draws the random inputs of one ``run_scenario`` rollout under a
    state-independent ``policy``, in the rollout's order (action, then
    disturbance, per step), so that stepping them gives the same trajectory.
    A uniform policy over a box draws them all with one ``random`` call scaled
    to the per-step bounds, which is how ``uniform`` computes its values, and
    one over a finite set without disturbances with one ``integers`` call;
    each yields the same values, and leaves the generator in the same state,
    as the per-step calls.
    """
    m, k, w = sys.action_box.dim, sys.disturbance_dim, sys.omega_bar
    acts = policy.actions if isinstance(policy, UniformPolicy) else None
    if isinstance(acts, BoxActionSet):
        box, noisy = acts.box, (k if w > 0.0 else 0)
        lower = np.tile(np.concatenate([box.lower, np.full(noisy, -w)]), steps)
        span = np.tile(np.concatenate([box.upper, np.full(noisy, w)]), steps) - lower

        def draw(rng):
            u = (lower + span * rng.random(lower.size)).reshape(steps, m + noisy)
            return u[:, :m], (u[:, m:] if noisy else np.zeros((steps, k)))
        return draw
    if isinstance(acts, FiniteActionSet) and w == 0.0:
        points = np.asarray(acts.points, dtype=float).reshape(len(acts.points), m)

        def draw(rng):
            return points[rng.integers(len(points), size=steps)], np.zeros((steps, k))
        return draw

    def draw(rng):
        u, om = [], []
        for _ in range(steps):
            u.append(policy(None, rng))
            om.append(sys.draw_disturbance(rng))
        return np.asarray(u, dtype=float).reshape(steps, m), np.asarray(om, dtype=float).reshape(steps, k)
    return draw


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


def adversarial_actions(sys: ScenarioSystem, state, facet: Facet, actions=None, candidates=None, tol: float = 1e-9) -> list:
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
