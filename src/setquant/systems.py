"""What a scenario system is: its action sets, its dynamics and the built-in systems.

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

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import BoxRegion

# a facet is identified by (dimension, side)
Facet = tuple[int, str]

UNSAFE = "unsafe"
TRUNCATE = "truncate"


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
