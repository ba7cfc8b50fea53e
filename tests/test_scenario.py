"""Driving scenarios, embedded controllers and rollout mechanics.

Conventions worth spelling out once: in the lead-follow state (v0, v1, p10),
v0 is the subject vehicle (driven by the embedded controller), v1 the lead
(driven by the sampled action), and p10 the bumper gap, which integrates
start-of-step speeds: p10' = p10 + (v1 - v0) * dt.  A faster subject closes
the gap.  Running out of gap is the collision facet; speed bounds truncate.
"""

import math

import numpy as np
import pytest

from setquant.geometry import BoxRegion
from setquant.scenario import (
    EXIT_NONE,
    EXIT_TRUNCATED,
    EXIT_UNSAFE,
    BoxActionSet,
    FiniteActionSet,
    FixedActionPolicy,
    IdmParams,
    UniformPolicy,
    adversarial_actions,
    default_action_samples,
    idm_accel,
    make_lead_follow,
    make_three_vehicle,
    make_toy_flip,
    make_toy_shift,
    make_toy_shrink,
    make_toy_threshold,
    make_toy_two_basins,
    run_scenario,
    step,
)


# ---------------------------------------------------------------------------
# lead-follow single steps
# ---------------------------------------------------------------------------


def test_hard_braking_lead_collides_from_a_short_gap():
    # subject at 16 m/s, stopped lead, 5.6 m gap: one step at dt=0.1 under
    # u=-5 moves the gap by (0-16)*0.1 = -1.6 to 4.0, through the 5.5 floor.
    lf = make_lead_follow(sv="brake")
    raw, out = step(lf, (16.0, 0.0, 5.6), (-5.0,), (0.0, 0.0))
    assert out.kind == EXIT_UNSAFE
    assert out.facet == (2, "lower")
    assert raw[0] == pytest.approx(15.0)   # braking at 10 m/s^2
    assert raw[1] == 0.0                   # lead cannot reverse
    assert raw[2] == pytest.approx(4.0)    # raw offending state, unclamped


def test_speed_ceiling_truncates_and_clamps():
    lf = make_lead_follow(sv="brake")
    nxt, out = step(lf, (16.0, 16.0, 30.0), (3.0,), (0.0, 0.0))
    assert out.kind == EXIT_TRUNCATED
    assert out.facet == (1, "upper")
    assert nxt[1] == 16.0                  # clamped to the box
    assert nxt[2] == pytest.approx(30.0)   # equal speeds leave the gap alone


def test_standstill_is_physics_not_a_facet_event():
    # the subject's speed clamps at zero inside the dynamics; the v0 lower
    # bound is never "crossed" by braking to a stop
    lf = make_lead_follow(sv="brake")
    nxt, out = step(lf, (0.5, 0.0, 20.0), (0.0,), (0.0, 0.0))
    assert out.kind == EXIT_NONE
    assert nxt == (0.0, 0.0, pytest.approx(19.95))


def test_step_refuses_states_outside_the_domain():
    lf = make_lead_follow()
    with pytest.raises(ValueError):
        step(lf, (16.0, 0.0, 4.0), (0.0,), (0.0, 0.0))


def test_unsafe_facet_outranks_truncation():
    # drive both a truncating facet (v1 ceiling) and the collision facet in
    # the same step; the step must be labeled unsafe and keep the raw state
    lf = make_lead_follow(sv="brake")
    raw, out = step(lf, (16.0, 15.99, 5.5005), (3.0,), (0.0, 0.0))
    assert raw[1] == pytest.approx(16.29)   # above the ceiling, unclamped
    assert raw[2] == pytest.approx(5.4995)  # through the collision plane
    assert out.kind == EXIT_UNSAFE
    assert out.facet == (2, "lower")


# ---------------------------------------------------------------------------
# embedded controllers
# ---------------------------------------------------------------------------


def test_brake_controller_stops_and_stays():
    lf = make_lead_follow(sv="brake")
    pol = lf.transition.policy
    assert pol.accel(10.0, 0.0, 30.0) == -10.0
    assert pol.accel(0.0, 5.0, 30.0) == 0.0  # no reverse creep


# values hand-computed from the published car-following law:
#   s* = s0 + v0*T + v0*(v0 - v1) / (2*sqrt(a_max*b))
#   a  = a_max * (1 - (v0/v_des)^4 - (s*/gap)^2),  clamped to [-4.67, 0.73]
@pytest.mark.parametrize(
    "v0,v1,gap,expected",
    [
        (16.0, 0.0, 6.0, -4.67),                 # closing fast: full braking
        (10.0, 10.0, 20.0, 0.09118583984375006),  # mild steady-state push
        (0.0, 5.0, 10.0, 0.7008),                # from rest, near free accel
        (5.0, 5.0, -1.0, -4.67),                 # degenerate gap: panic value
        (8.0, 12.0, 30.0, 0.6841794044125472),   # opening gap
    ],
)
def test_idm_accel_frozen_values(v0, v1, gap, expected):
    p = IdmParams(v_des=16.0)
    assert idm_accel(p, v0, v1, gap) == pytest.approx(expected, abs=1e-12)


def test_idm_defaults():
    p = IdmParams(v_des=16.0)
    assert (p.headway, p.s0, p.a_max, p.b) == (1.5, 2.0, 0.73, 1.67)
    assert (p.clamp_lo, p.clamp_hi) == (-4.67, 0.73)


def test_idm_never_leaves_the_comfort_clamp():
    p = IdmParams(v_des=16.0)
    rng = np.random.default_rng(0)
    for _ in range(500):
        a = idm_accel(p, rng.uniform(0, 16), rng.uniform(0, 16), rng.uniform(-5, 60))
        assert -4.67 <= a <= 0.73


# ---------------------------------------------------------------------------
# system factories
# ---------------------------------------------------------------------------


def test_lead_follow_defaults():
    lf = make_lead_follow()
    assert lf.state_box.lower.tolist() == [0.0, 0.0, 5.5]
    assert lf.state_box.upper.tolist() == [16.0, 16.0, 60.0]
    assert lf.unsafe_facets() == [(2, "lower")]
    assert lf.sv_policy_name == "brake"
    assert lf.adversarial.points == ((-5.0,),)


def test_sigma_bar_is_the_worst_one_step_displacement():
    # velocities move by at most (accel_max + omega_bar)*dt; the gap by the
    # full velocity span times dt.  Hand values: 1.6 and 1.0.
    assert make_lead_follow().sigma_bar == pytest.approx(1.6)
    assert make_three_vehicle().sigma_bar == pytest.approx(1.0)
    assert make_lead_follow(omega_bar=7.0).sigma_bar == pytest.approx(1.7)


def test_three_vehicle_facets_and_adversary():
    tv = make_three_vehicle()
    assert tv.unsafe_facets() == [(3, "lower"), (4, "upper")]
    # hostile extreme: lead brakes flat out, tailgater brakes as little as allowed
    assert tv.adversarial.points == ((-5.0, -3.0),)


def test_three_vehicle_rear_gap_closes_when_rear_is_faster():
    tv = make_three_vehicle(sv="brake")
    nxt, out = step(tv, (0.0, 3.0, 6.0, 20.0, -6.0), (0.0, -3.0), (0.0, 0.0, 0.0))
    assert out.kind == EXIT_NONE
    assert nxt[4] == pytest.approx(-5.4)  # p20 + (v2 - v0)*dt


def test_facet_labels_are_validated_at_construction():
    lf = make_lead_follow()
    with pytest.raises(ValueError):
        type(lf)(name="x", state_box=lf.state_box, action_box=lf.action_box,
                 facets={(0, "lower"): "explode"}, transition=lf.transition,
                 disturbance_dim=2, omega_bar=0.0, dt=0.1, sigma_bar=1.0)


# ---------------------------------------------------------------------------
# rollouts
# ---------------------------------------------------------------------------


def test_run_scenario_shapes_and_determinism():
    lf = make_lead_follow()
    pol = UniformPolicy(lf.action_box)
    a = run_scenario(lf, (8.0, 8.0, 30.0), 12, pol, np.random.default_rng(42))
    b = run_scenario(lf, (8.0, 8.0, 30.0), 12, pol, np.random.default_rng(42))
    assert len(a) == 12
    assert a.actions.shape == (11, 1)
    assert a.exit_kind == EXIT_NONE
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.actions, b.actions)


@pytest.mark.parametrize("action", [(-2,), [-2], np.array([-2]), np.array([-2.0]), -2, np.float64(-2.0)])
def test_run_scenario_takes_any_action_form_a_policy_returns(action):
    lf = make_lead_follow()
    want = run_scenario(lf, (8.0, 8.0, 30.0), 12, FixedActionPolicy([-2.0]), np.random.default_rng(0))
    got = run_scenario(lf, (8.0, 8.0, 30.0), 12, lambda state, rng: action, np.random.default_rng(0))
    assert got.states.tobytes() == want.states.tobytes()
    assert got.actions.tobytes() == want.actions.tobytes()
    assert got.actions.dtype == np.float64


def test_run_scenario_stops_at_the_collision():
    lf = make_lead_follow(sv="brake")
    traj = run_scenario(lf, (16.0, 0.0, 5.6), 40, FixedActionPolicy([-5.0]),
                        np.random.default_rng(0))
    assert traj.exit_kind == EXIT_UNSAFE
    assert traj.exit_facet == (2, "lower")
    assert len(traj) == 2                      # died on the first transition
    assert traj.final_state[2] == pytest.approx(4.0)


def test_run_scenario_horizon_one_is_just_the_start():
    lf = make_lead_follow()
    traj = run_scenario(lf, (8.0, 8.0, 30.0), 1, FixedActionPolicy([0.0]),
                        np.random.default_rng(0))
    assert len(traj) == 1 and traj.actions.shape == (0, 1)
    with pytest.raises(ValueError):
        run_scenario(lf, (8.0, 8.0, 30.0), 0, FixedActionPolicy([0.0]),
                     np.random.default_rng(0))


def test_disturbance_stays_inside_its_bound():
    lf = make_lead_follow(omega_bar=0.5)
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = lf.draw_disturbance(rng)
        assert len(w) == 2
        assert all(abs(x) <= 0.5 for x in w)
    assert make_lead_follow().draw_disturbance(rng) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# toy systems: the maps the theory tests lean on
# ---------------------------------------------------------------------------


def test_toy_threshold_splits_at_one():
    toy = make_toy_threshold()
    assert step(toy, (0.9,), (0.0,), (0.0,))[1].kind == EXIT_UNSAFE  # 0.9 -> -4.1
    nxt, out = step(toy, (1.0,), (0.0,), (0.0,))
    assert out.kind == EXIT_NONE and nxt == (1.0,)


def test_toy_two_basins_catapults_the_middle():
    toy = make_toy_two_basins()
    raw, out = step(toy, (0.5,), (0.0,), (0.0,))
    assert out.kind == EXIT_UNSAFE and raw[0] == pytest.approx(100.5)
    assert step(toy, (-3.0,), (0.0,), (0.0,))[0] == (-3.0,)


def test_toy_shift_marches_off_the_top():
    toy = make_toy_shift()
    traj = run_scenario(toy, (0.5,), 10, FixedActionPolicy([0.0]),
                        np.random.default_rng(0))
    assert traj.exit_kind == EXIT_UNSAFE
    assert traj.final_state[0] == pytest.approx(3.5)


def test_toy_shrink_contracts_with_action():
    toy = make_toy_shrink()
    nxt, out = step(toy, (0.8,), (0.25,), (0.0,))
    assert out.kind == EXIT_NONE
    assert nxt == (pytest.approx(0.65),)
    # both facets truncate: pushing past an edge clamps and continues
    nxt, out = step(toy, (1.0,), (0.6,), (0.0,))
    assert out.kind == EXIT_TRUNCATED and nxt == (1.0,)


def test_toy_flip_is_period_two():
    toy = make_toy_flip()
    traj = run_scenario(toy, (0.7,), 5, FixedActionPolicy([0.0]),
                        np.random.default_rng(0))
    assert traj.states[:, 0].tolist() == pytest.approx([0.7, -0.7, 0.7, -0.7, 0.7])


# ---------------------------------------------------------------------------
# action sets
# ---------------------------------------------------------------------------


def test_action_set_measures():
    assert BoxActionSet([-5.0], [3.0]).measure() == 8.0
    assert FiniteActionSet([(-5.0,)]).measure() == 1.0
    assert FiniteActionSet([(-5.0,), (0.0,), (3.0,)]).measure() == 3.0


def test_finite_action_set_needs_points():
    with pytest.raises(ValueError):
        FiniteActionSet([])


def test_default_action_samples_cover_the_corners():
    pts = default_action_samples(BoxActionSet([-5.0, -7.0], [3.0, -3.0]))
    assert (-5.0, -7.0) in pts and (3.0, -3.0) in pts
    assert (-1.0, -5.0) in pts  # midpoints ride along
    fin = FiniteActionSet([(1.0,), (2.0,)])
    assert default_action_samples(fin) == [(1.0,), (2.0,)]


def test_adversarial_action_extraction_on_lead_follow():
    lf = make_lead_follow(sv="brake")
    # the lead action moves v1 directly, so the margin to the v1 floor is
    # minimized by max braking alone
    best = adversarial_actions(lf, (8.0, 8.0, 20.0), (1, "lower"))
    assert best == [(-5.0,)]
    # the gap update uses the pre-step velocities, so no single action stands
    # out against the collision facet in one step -- every candidate ties,
    # which is why the factory pins the adversarial singleton explicitly
    tied = adversarial_actions(lf, (8.0, 8.0, 20.0), (2, "lower"))
    assert len(tied) == 3
    assert list(lf.adversarial.points) == [(-5.0,)]


def test_uniform_policy_draws_from_the_set():
    acts = FiniteActionSet([(-5.0,), (3.0,)])
    pol = UniformPolicy(acts)
    rng = np.random.default_rng(1)
    seen = {pol(None, rng) for _ in range(50)}
    assert seen == {(-5.0,), (3.0,)}
