"""The built-in systems against the definitions they replaced, kept inline as the reference.

The two traffic scenarios are one vehicle chain (``_VehicleChain``) built by
one factory, and each toy map one row of ``_TOYS``.  Every scalar step, every
array step and every factory output must equal the separate definitions
below bit for bit (``view(np.int64)``): brake and IDM, signed zeros and
standstill, gaps at or below zero (IDM's dead branch), disturbances on and
off, and blocks of 1, 7 and 300 rows.  The array step must also equal the
scalar one row by row, whichever inner loops numpy dispatches to.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from setquant import scenario
from setquant.cli import main
from setquant.geometry import BoxRegion
from setquant.scenario import (
    BUILTIN_SYSTEMS,
    UNSAFE,
    BoxActionSet,
    FiniteActionSet,
    ScenarioSystem,
)
from setquant.systems import _check_dims, _sv_policy

# ---------------------------------------------------------------------------
# the reference: one class per traffic scenario, one if-chain per toy form,
# one factory per system
# ---------------------------------------------------------------------------


class LeadFollowDynamics:
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
        v0, v1, p10 = x
        a0 = self.policy.accel_array(v0, v1, p10)
        dt = self.dt
        out = np.empty(x.shape)
        nv0 = v0 + (a0 + w[0]) * dt
        nv1 = v1 + (u[0] + w[1]) * dt
        out[0] = np.where(nv0 > 0.0, nv0, 0.0)
        out[1] = np.where(nv1 > 0.0, nv1, 0.0)
        out[2] = p10 + (v1 - v0) * dt
        return out


class ThreeVehicleDynamics:
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
        v0, v1, v2, p10, p20 = x
        a0 = self.policy.accel_array(v0, v1, p10)
        dt = self.dt
        out = np.empty(x.shape)
        nv0 = v0 + (a0 + w[0]) * dt
        nv1 = v1 + (u[0] + w[1]) * dt
        nv2 = v2 + (u[1] + w[2]) * dt
        out[0] = np.where(nv0 > 0.0, nv0, 0.0)
        out[1] = np.where(nv1 > 0.0, nv1, 0.0)
        out[2] = np.where(nv2 > 0.0, nv2, 0.0)
        out[3] = p10 + (v1 - v0) * dt
        out[4] = p20 + (v2 - v0) * dt
        return out


class ToyDynamics:
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
        x = x[0]
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
        y = y + w[0]
        if self.use_action:
            y = y + u[0]
        return y[None]


def make_lead_follow(sv="brake", omega_bar=0.0, dt=0.1, state_box=None, action_box=None):
    sb = state_box if state_box is not None else BoxRegion([0.0, 0.0, 5.5], [16.0, 16.0, 60.0])
    ab = action_box if action_box is not None else BoxActionSet([-5.0], [3.0])
    _check_dims("lead-follow", sb, ab, 3, 1)
    policy = _sv_policy(sv, v_des=float(sb.upper[0]))
    v_span = float(max(sb.upper[0] - sb.lower[0], sb.upper[1] - sb.lower[1]))
    u_max = float(np.abs([ab.box.lower, ab.box.upper]).max()) if isinstance(ab, BoxActionSet) else 5.0
    sigma = max((max(policy.max_abs_accel, u_max) + omega_bar) * dt, v_span * dt)
    return ScenarioSystem(
        name="lead-follow", state_box=sb, action_box=ab, facets={(2, "lower"): UNSAFE},
        transition=LeadFollowDynamics(policy, dt), disturbance_dim=2, omega_bar=omega_bar, dt=dt,
        sigma_bar=sigma,
        adversarial=FiniteActionSet([(float(ab.box.lower[0]) if isinstance(ab, BoxActionSet) else -5.0,)]),
        sv_policy_name=policy.name)


def make_three_vehicle(sv="brake", omega_bar=0.0, dt=0.1, state_box=None, action_box=None):
    sb = state_box if state_box is not None else BoxRegion([0.0, 0.0, 0.0, 5.0, -25.0], [6.0, 6.0, 6.0, 25.0, -5.0])
    ab = action_box if action_box is not None else BoxActionSet([-5.0, -7.0], [3.0, -3.0])
    _check_dims("three-vehicle", sb, ab, 5, 2)
    policy = _sv_policy(sv, v_des=float(sb.upper[0]))
    v_span = float(max(sb.upper[d] - sb.lower[d] for d in range(3)))
    u_max = float(np.abs([ab.box.lower, ab.box.upper]).max())
    sigma = max((max(policy.max_abs_accel, u_max) + omega_bar) * dt, v_span * dt)
    adv = (float(ab.box.lower[0]), float(ab.box.upper[1]))
    return ScenarioSystem(
        name="three-vehicle", state_box=sb, action_box=ab, facets={(3, "lower"): UNSAFE, (4, "upper"): UNSAFE},
        transition=ThreeVehicleDynamics(policy, dt), disturbance_dim=3, omega_bar=omega_bar, dt=dt,
        sigma_bar=sigma, adversarial=FiniteActionSet([adv]), sv_policy_name=policy.name)


def _make_toy(kind, state_box, facets, use_action, action_lo, action_hi, omega_bar, action_box=None):
    ab = action_box if action_box is not None else BoxActionSet([action_lo], [action_hi])
    _check_dims(f"toy-{kind}", state_box, ab, 1, 1)
    dyn = ToyDynamics(kind, use_action)
    xs = np.linspace(state_box.lower[0], state_box.upper[0], 2001)
    moves = [abs(dyn._base(float(x)) - float(x)) for x in xs]
    u_max = float(np.abs([ab.box.lower, ab.box.upper]).max()) if use_action else 0.0
    sigma = max(moves) + u_max + omega_bar
    return ScenarioSystem(
        name=f"toy-{kind}", state_box=state_box, action_box=ab, facets=facets, transition=dyn,
        disturbance_dim=1, omega_bar=omega_bar, dt=1.0, sigma_bar=sigma, adversarial=None,
        sv_policy_name="none")


def make_toy_shift(omega_bar=0.0, action_box=None):
    return _make_toy("shift", BoxRegion([0.0], [3.0]), {(0, "upper"): UNSAFE},
                     use_action=False, action_lo=-1.0, action_hi=1.0,
                     omega_bar=omega_bar, action_box=action_box)


def make_toy_shrink(omega_bar=0.0, action_box=None):
    return _make_toy("shrink", BoxRegion([-1.0], [1.0]), {},
                     use_action=True, action_lo=-0.5, action_hi=0.5,
                     omega_bar=omega_bar, action_box=action_box)


def make_toy_threshold(omega_bar=0.0, action_box=None):
    return _make_toy("threshold", BoxRegion([0.0], [10.0]), {(0, "lower"): UNSAFE},
                     use_action=False, action_lo=-1.0, action_hi=1.0,
                     omega_bar=omega_bar, action_box=action_box)


def make_toy_two_basins(omega_bar=0.0, action_box=None):
    return _make_toy("two-basins", BoxRegion([-10.0], [10.0]),
                     {(0, "lower"): UNSAFE, (0, "upper"): UNSAFE},
                     use_action=False, action_lo=-1.0, action_hi=1.0,
                     omega_bar=omega_bar, action_box=action_box)


def make_toy_flip(omega_bar=0.0, action_box=None):
    return _make_toy("flip", BoxRegion([-1.0], [1.0]), {},
                     use_action=False, action_lo=-1.0, action_hi=1.0,
                     omega_bar=omega_bar, action_box=action_box)


REFERENCE = {
    "lead-follow": make_lead_follow,
    "three-vehicle": make_three_vehicle,
    "toy-shift": make_toy_shift,
    "toy-shrink": make_toy_shrink,
    "toy-threshold": make_toy_threshold,
    "toy-two-basins": make_toy_two_basins,
    "toy-flip": make_toy_flip,
}
CHAINS = ("lead-follow", "three-vehicle")
TOYS = tuple(name for name in REFERENCE if name not in CHAINS)
WIDTHS = {name: (1, 1) for name in TOYS} | {"lead-follow": (3, 1), "three-vehicle": (5, 2)}


# ---------------------------------------------------------------------------
# helpers and strategies
# ---------------------------------------------------------------------------


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


# the values where the maps branch or clamp: signed zeros, standstill, gaps at and below zero,
# the toys' thresholds and the values either side of them
EDGES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), -2.5]
# (IDM squares s_star / gap through Python floats, which raise OverflowError past 1.8e308: the
# reference raises on a gap in (5e-324, 1e-150), so those gaps are pinned against clamp_lo below)
values = st.one_of(st.sampled_from(EDGES), st.floats(-30.0, 70.0).filter(lambda v: v == 0.0 or abs(v) >= 1e-100))


@st.composite
def blocks(draw, n: int, m: int, k: int):
    """(n, B) states as the (B, n) block's ``.T`` view, (m, B) actions, (k, B) disturbances, on or off."""
    b = draw(st.sampled_from([1, 7, 300]))
    x = draw(arrays(np.float64, (b, n), elements=values)).T
    u = draw(arrays(np.float64, (b, m), elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-8.0, 5.0)))).T
    if draw(st.booleans()):
        w = draw(arrays(np.float64, (b, k), elements=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0)))).T
    else:  # what a block of a system without disturbance holds: a read-only view of 0.0
        w = np.broadcast_to(0.0, (b, k)).T
    return x, u, w


def assert_steps_equal(new, old, x, u, w):
    got = new.batch(x, u, w)
    assert_same_bits(got, old.batch(x, u, w))
    for j in range(x.shape[1]):
        row = (tuple(x[:, j].tolist()), tuple(u[:, j].tolist()), tuple(w[:, j].tolist()))
        scalar = new(*row)
        assert type(scalar) is tuple and all(type(v) is float for v in scalar)
        assert_same_bits(scalar, old(*row))
        assert_same_bits(got[:, j], scalar)


# ---------------------------------------------------------------------------
# the transition maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", CHAINS)
@pytest.mark.parametrize("sv", ["brake", "idm"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), dt=st.sampled_from([0.1, 0.25, 1.0]))
def test_a_vehicle_chain_steps_as_its_own_class_did(name, sv, data, dt):
    new, old = scenario.BUILTIN_SYSTEMS[name](sv=sv, dt=dt), REFERENCE[name](sv=sv, dt=dt)
    n, m = WIDTHS[name]
    x, u, w = data.draw(blocks(n, m, new.disturbance_dim))
    with np.errstate(all="ignore"):  # IDM divides by the gap, which may be zero or tiny
        assert_steps_equal(new.transition, old.transition, x, u, w)


def test_idm_reads_a_gap_at_or_below_zero_as_the_dead_branch():
    # the pinned rows of the branch that hypothesis may not reach often: clamp_lo, whatever the speeds
    new, old = scenario.make_three_vehicle(sv="idm"), make_three_vehicle(sv="idm")
    x = np.array([[0.0, 3.0, 6.0, 0.0, -6.0], [4.0, 0.0, 1.0, -0.0, -6.0], [6.0, 6.0, 0.0, -3.0, -25.0]]).T
    u, w = np.zeros((2, 3)), np.broadcast_to(0.0, (3, 3)).T
    assert (new.transition.policy.accel_array(x[0], x[1], x[3]) == new.transition.policy.params.clamp_lo).all()
    assert_steps_equal(new.transition, old.transition, x, u, w)


@pytest.mark.parametrize("gap", [1e-160, 1e-300, 5e-324])
def test_idm_reads_a_gap_too_small_to_square_against_as_clamp_lo(gap):
    # (s_star / gap)^2 would pass the float range; both forms return clamp_lo before dividing
    policy = scenario.make_lead_follow(sv="idm").transition.policy
    v0, v_lead = np.array([0.0, 1.0, 30.0, 5.0]), np.array([0.0, 1.0, 0.0, 40.0])
    with warnings.catch_warnings(), np.errstate(divide="raise", over="raise", invalid="raise"):
        warnings.simplefilter("error")
        got = policy.accel_array(v0, v_lead, np.full(4, gap))
        scalar = [policy.accel(a, b, gap) for a, b in zip(v0.tolist(), v_lead.tolist())]
    assert_same_bits(got, [policy.params.clamp_lo] * 4)
    assert_same_bits(scalar, [policy.params.clamp_lo] * 4)


def test_a_qnt_ae_run_from_a_vanishing_gap_ends_without_a_traceback(tmp_path):
    cfg = tmp_path / "idm.cfg"
    cfg.write_text("algorithm = qnt-ae\nseed = 0\nsystem.name = lead-follow\nsystem.sv_policy = idm\n"
                   "system.state_box = [[0, 16], [0, 16], [0, 60]]\nhyper.K = 5\nhyper.N = 200\n"
                   "options.initial_state = [1.0, 1.0, 1e-200]\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1  # not converged


@pytest.mark.parametrize("name", CHAINS)
def test_a_speed_that_steps_to_negative_zero_clamps_to_positive_zero(name):
    # -0.0 + (-0.0 + -0.0) * dt is -0.0, which is not above zero: every speed comes out +0.0
    new, old = scenario.BUILTIN_SYSTEMS[name](), REFERENCE[name]()
    c = new.disturbance_dim
    x = np.array([[-0.0] * c + [10.0] + [-10.0] * (c - 2)]).T  # standing still, the rear car behind
    u, w = np.full((c - 1, 1), -0.0), np.full((c, 1), -0.0)
    assert_steps_equal(new.transition, old.transition, x, u, w)
    assert_same_bits(new.transition.batch(x, u, w)[:c, 0], [0.0] * c)


@pytest.mark.parametrize("name", TOYS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_toy_map_steps_as_its_if_chains_did(name, data):
    new, old = scenario.BUILTIN_SYSTEMS[name](), REFERENCE[name]()
    x, u, w = data.draw(blocks(1, 1, 1))
    assert_steps_equal(new.transition, old.transition, x, u, w)


# ---------------------------------------------------------------------------
# the factories
# ---------------------------------------------------------------------------


def assert_same_system(new: ScenarioSystem, old: ScenarioSystem):
    assert new.name == old.name and new.sv_policy_name == old.sv_policy_name
    assert_same_bits(new.state_box.lower, old.state_box.lower)
    assert_same_bits(new.state_box.upper, old.state_box.upper)
    assert_same_bits(new.action_box.box.lower, old.action_box.box.lower)
    assert_same_bits(new.action_box.box.upper, old.action_box.box.upper)
    assert list(new.facets.items()) == list(old.facets.items())
    assert (new.disturbance_dim, type(new.disturbance_dim)) == (old.disturbance_dim, type(old.disturbance_dim))
    for field in ("dt", "sigma_bar", "omega_bar"):
        assert type(getattr(new, field)) is type(getattr(old, field))
        assert_same_bits(getattr(new, field), getattr(old, field))
    if old.adversarial is None:
        assert new.adversarial is None
    else:
        assert new.adversarial.points == old.adversarial.points
        assert all(type(v) is float for p in new.adversarial.points for v in p)
    assert type(new.transition).__name__ == type(old.transition).__name__


@pytest.mark.parametrize("name", list(REFERENCE))
def test_a_factory_builds_what_its_own_code_did_from_the_defaults(name):
    assert BUILTIN_SYSTEMS[name].__name__ == REFERENCE[name].__name__
    assert_same_system(BUILTIN_SYSTEMS[name](), REFERENCE[name]())


def box_pairs(count: int):
    """``count`` [lower, upper] pairs with lower < upper."""
    pair = st.tuples(st.floats(-50.0, 50.0), st.floats(0.125, 40.0)).map(lambda p: (p[0], p[0] + p[1]))
    return st.lists(pair, min_size=count, max_size=count)


def boxes(pairs):
    return [p[0] for p in pairs], [p[1] for p in pairs]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(REFERENCE)), omega_bar=st.sampled_from([0.0, 0.05, 0.5]))
def test_a_factory_builds_what_its_own_code_did_from_custom_boxes(data, name, omega_bar):
    n, m = WIDTHS[name]
    kwargs = {"omega_bar": omega_bar, "action_box": BoxActionSet(*boxes(data.draw(box_pairs(m))))}
    if name in CHAINS:
        kwargs |= {"sv": data.draw(st.sampled_from(["brake", "idm"])),
                   "dt": data.draw(st.sampled_from([0.05, 0.1, 1.0])),
                   "state_box": BoxRegion(*boxes(data.draw(box_pairs(n))))}
    assert_same_system(BUILTIN_SYSTEMS[name](**kwargs), REFERENCE[name](**kwargs))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(BUILTIN_SYSTEMS)))
def test_a_factory_builds_boxes_of_its_widths_and_refuses_any_other(data, name):
    # the widths come from the system, never from the boxes: any other count of pairs is refused with one message
    n, m = WIDTHS[name]
    sd, ad = (data.draw(st.one_of(st.just(want), st.integers(0, 6))) for want in (n, m))
    kwargs = {"action_box": BoxActionSet(*boxes(data.draw(box_pairs(ad))))}
    if name in CHAINS:
        kwargs["state_box"] = BoxRegion(*boxes(data.draw(box_pairs(sd))))
    else:  # a toy's state box is fixed
        sd = 1
    try:
        sys_ = BUILTIN_SYSTEMS[name](**kwargs)
    except ValueError as exc:
        assert (sd, ad) != (n, m)
        assert str(exc) == (f"{name} has {n} state and {m} action coordinates: its state and action boxes need "
                            f"{n} and {m} [lower, upper] pairs, not {sd} and {ad}")
    else:
        assert (sd, ad) == (n, m) == (sys_.state_box.dim, sys_.action_box.dim)
        assert sys_.adversarial is None or len(sys_.adversarial.points[0]) == m
