"""Differential tests of the batched rollout engine against the scalar code it replaces.

Each test compares a batch path with brute-force code written out here: the
array transition and ``step_batch`` with ``step``, the pre-drawn noise with
the per-step draws of ``run_scenario``, the block runner with the sequential
sample loop, the oracle's mask update with the per-cell sweep loop, and the
all-cells nearest query with ``DeltaCover.nearest``.  Equality is bit for bit
throughout (``tobytes``), so a signed zero or a one-ulp drift fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import query_points, scrambled_covers

from setquant import geometry
from setquant.geometry import BoxRegion, DeltaCover, build_cover
from setquant.oracle import brute_force_invariant
from setquant.scenario import (
    BUILTIN_SYSTEMS,
    EXIT_UNSAFE,
    FiniteActionSet,
    IdmParams,
    UniformPolicy,
    default_action_samples,
    idm_accel,
    idm_accel_array,
    make_lead_follow,
    make_three_vehicle,
    make_toy_shift,
    make_toy_threshold,
    noise_sampler,
    run_scenario,
    step,
    step_batch,
)
from setquant.validation import _BoxMembership, _CoverMembership, _child_seeds, _make_stream, _run_samples

VEHICLES = ("lead-follow", "three-vehicle")
SYSTEMS = [(name, sv) for name in sorted(BUILTIN_SYSTEMS)
           for sv in (("brake", "idm") if name in VEHICLES else (None,))]


def make_system(name, sv, omega_bar):
    kw = {"omega_bar": omega_bar}
    if sv is not None:
        kw["sv"] = sv
    return BUILTIN_SYSTEMS[name](**kw)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# one transition
# ---------------------------------------------------------------------------


@st.composite
def step_cases(draw):
    """A built-in system and a batch of states on, next to or inside its facets."""
    name, sv = draw(st.sampled_from(SYSTEMS))
    sys_ = make_system(name, sv, draw(st.sampled_from([0.0, 0.3])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, n = draw(st.integers(1, 48)), sys_.state_box.dim
    lo, hi = sys_.state_box.lower, sys_.state_box.upper
    pinned = [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo), lo - 5e-10, hi + 5e-10]
    x = rng.uniform(lo, hi, size=(b, n))
    which = rng.integers(0, len(pinned) + 2, size=(b, n))
    for k, val in enumerate(pinned):
        x = np.where(which == k, val, x)
    box = sys_.action_box.box
    corners = np.asarray(default_action_samples(sys_.action_box))
    u = np.where(rng.random((b, 1)) < 0.5, rng.uniform(box.lower, box.upper, size=(b, box.dim)),
                 corners[rng.integers(0, len(corners), size=b)])
    w = sys_.omega_bar * rng.choice([-1.0, 0.0, 1.0, 0.37], size=(b, sys_.disturbance_dim))
    return sys_, x, u, w


@given(step_cases())
@settings(max_examples=150, deadline=None)
def test_batch_step_equals_step_row_by_row(case):
    sys_, x, u, w = case
    nxt, code = step_batch(sys_, x, u, w)
    for r in range(x.shape[0]):
        want, out = step(sys_, tuple(x[r]), tuple(u[r]), tuple(w[r]))
        assert same_bits(nxt[r], want)
        if out.kind == EXIT_UNSAFE:
            assert (int(code[r]) // 2, ("lower", "upper")[int(code[r]) % 2]) == out.facet
        else:
            assert code[r] == -1


@pytest.mark.parametrize("name,sv", SYSTEMS)
def test_batch_step_refuses_a_state_outside_the_domain(name, sv):
    sys_ = make_system(name, sv, 0.0)
    x = np.tile(sys_.state_box.lower, (3, 1))
    x[1, -1] = sys_.state_box.upper[-1] + 1e-6
    u = np.zeros((3, sys_.action_box.dim))
    w = np.zeros((3, sys_.disturbance_dim))
    with pytest.raises(ValueError, match="outside the domain"):
        step(sys_, tuple(x[1]), tuple(u[1]), tuple(w[1]))
    with pytest.raises(ValueError, match="outside the domain"):
        step_batch(sys_, x, u, w)


def test_idm_array_form_reproduces_the_scalar_powers():
    # v0 / v_des spans [0, 2), where numpy's vectorised ** may round
    # differently from the C pow behind Python's float ** int
    p = IdmParams(v_des=16.0)
    rng = np.random.default_rng(0)
    v0, v1 = rng.uniform(0.0, 32.0, 200_000), rng.uniform(0.0, 32.0, 200_000)
    gap = rng.uniform(-1.0, 60.0, 200_000)
    want = np.array([idm_accel(p, a, b, c) for a, b, c in zip(v0.tolist(), v1.tolist(), gap.tolist())])
    assert same_bits(idm_accel_array(p, v0, v1, gap), want)
    # the same law with numpy's own powers: wherever those round differently
    # on this platform, the comparison above would have caught them
    with np.errstate(divide="ignore", invalid="ignore"):
        s_star = p.s0 + v0 * p.headway + v0 * (v0 - v1) / (2.0 * np.sqrt(p.a_max * p.b))
        naive = p.a_max * (1.0 - (v0 / p.v_des) ** 4 - (s_star / gap) ** 2)
    naive = np.where(gap <= 0.0, p.clamp_lo, np.clip(naive, p.clamp_lo, p.clamp_hi))
    ratio = v0 / p.v_des
    if np.any(ratio ** 4 != np.array([r ** 4 for r in ratio.tolist()])):
        assert not same_bits(naive, want)


# ---------------------------------------------------------------------------
# pre-drawn noise
# ---------------------------------------------------------------------------


ACTION_SETS = {
    "box": None,
    "finite": [(-5.0, -7.0), (3.0, -3.0), (0.0, -5.0)],
    "singleton": [(-5.0, -3.0)],
}


@pytest.mark.parametrize("factory", [make_lead_follow, make_three_vehicle])
@pytest.mark.parametrize("kind", sorted(ACTION_SETS))
@pytest.mark.parametrize("omega_bar", [0.0, 0.4])
def test_predrawn_noise_equals_the_rollout_draws(factory, kind, omega_bar):
    sys_ = factory(omega_bar=omega_bar)
    points = ACTION_SETS[kind]
    acts = sys_.action_box if points is None else FiniteActionSet([p[:sys_.action_box.dim] for p in points])
    policy = UniformPolicy(acts)
    steps = 17
    draw = noise_sampler(sys_, policy, steps)
    for seed in range(6):
        mine = np.random.default_rng(seed)
        u, w = draw(mine)
        theirs = np.random.default_rng(seed)
        want_u, want_w = [], []
        for _ in range(steps):  # run_scenario's order: action, then disturbance
            want_u.append(policy(None, theirs))
            want_w.append(sys_.draw_disturbance(theirs))
        assert same_bits(u, want_u) and same_bits(w, want_w)
        # the same draws were consumed: the whole state, PCG64's buffered 32-bit half included
        assert mine.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7, 1000, 2**31 + 5])
@pytest.mark.parametrize("steps", [1, 17, 39, 40])
def test_one_integers_call_equals_the_per_step_calls(k, steps):
    # the draw a finite action set without disturbances makes for a whole rollout at once
    for seed in range(20):
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:  # start with a buffered 32-bit half on both
            mine.integers(7), theirs.integers(7)
        assert mine.integers(k, size=steps).tolist() == [int(theirs.integers(k)) for _ in range(steps)]
        assert mine.bit_generator.state == theirs.bit_generator.state


# ---------------------------------------------------------------------------
# the sample runner
# ---------------------------------------------------------------------------


def strays(region, states) -> bool:
    """Brute-force membership: some state farther than delta from every active center, or outside the box."""
    if isinstance(region, DeltaCover):
        act = region.active_centers()
        d = np.abs(states[:, None, :] - act[None, :, :]).max(axis=2).min(axis=1, initial=np.inf)
        return bool((d > region.radius + 1e-12).any())
    return bool(((states < region.lower - 1e-12) | (states > region.upper + 1e-12)).any())


def sequential(sys_, starts, horizon, policy, seed_descs, region, record) -> int:
    """The loop the block runner replaced: one ``run_scenario`` per sample, in index order."""
    for i in range(len(starts)):
        traj = run_scenario(sys_, starts[i], horizon, policy, _make_stream(seed_descs[i]))
        record(i, traj)
        if traj.exit_kind == EXIT_UNSAFE or strays(region, traj.states[1:]):
            return i
    return -1


SLAB = BoxRegion([0.0, 0.0, 12.0], [3.0, 16.0, 60.0])
RUNS = {
    # fails at sample 773, in the fourth block
    "late-failure": (lambda: make_lead_follow(sv="idm", omega_bar=0.3, state_box=SLAB),
                     lambda s: build_cover(SLAB, 2.0), None, 20, 800, 4),
    "early-failure": (lambda: make_lead_follow(sv="brake"),
                      lambda s: build_cover(s.state_box, 2.0), None, 40, 300, 0),
    "three-vehicle-pass": (lambda: make_three_vehicle(sv="brake"),
                           lambda s: build_cover(s.state_box, 2.5), None, 15, 300, 0),
    "three-vehicle-idm-box": (lambda: make_three_vehicle(sv="idm", omega_bar=0.2),
                              lambda s: BoxRegion([0, 0, 0, 12, -25], [3, 6, 6, 25, -12]),
                              [(-5.0, -7.0), (3.0, -3.0)], 15, 120, 1),
    "toy-singleton-noisy": (lambda: make_toy_threshold(omega_bar=0.25),
                            lambda s: BoxRegion([1.0], [10.0]), [(0.0,)], 8, 400, 2),
    "horizon-one": (lambda: make_toy_shift(),
                    lambda s: build_cover(s.state_box, 0.5), None, 1, 300, 0),
    "generator-seeds": (lambda: make_lead_follow(sv="idm"),
                        lambda s: build_cover(SLAB, 2.0), None, 12, 300, np.random.default_rng(9)),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_block_runner_equals_the_sequential_loop(name):
    make, region_of, points, horizon, n, seed = RUNS[name]
    sys_ = make()
    region = region_of(sys_)
    acts = sys_.action_box if points is None else FiniteActionSet(points)
    policy = UniformPolicy(acts)
    descs = _child_seeds(seed, n)
    pick = np.random.default_rng(123)
    if isinstance(region, DeltaCover):
        membership = _CoverMembership(region)
        starts = [region.centers[int(pick.integers(len(region)))] for _ in range(n)]
    else:
        membership = _BoxMembership(region)
        starts = [region.sample(pick) for _ in range(n)]
    mine, theirs = [], []
    got = _run_samples(sys_, starts, horizon, policy, descs, membership, 1,
                       record=lambda i, t: mine.append((i, t)))
    want = sequential(sys_, starts, horizon, policy, descs, region, lambda i, t: theirs.append((i, t)))
    assert got == want
    assert _run_samples(sys_, starts, horizon, policy, descs, membership, 2) == want
    assert [i for i, _ in mine] == [i for i, _ in theirs]
    for (_, a), (_, b) in zip(mine, theirs):
        assert same_bits(a.states, b.states) and same_bits(a.actions, b.actions)
        assert (a.exit_kind, a.exit_facet) == (b.exit_kind, b.exit_facet)


def test_block_runner_raises_at_a_start_outside_the_domain_like_the_loop():
    toy = make_toy_threshold()
    policy = UniformPolicy(toy.action_box)
    descs = _child_seeds(0, 600)
    membership = _BoxMembership(toy.state_box)
    starts = [np.array([5.0])] * 600
    starts[530] = np.array([12.0])
    mine, theirs = [], []
    with pytest.raises(ValueError, match="outside the domain"):
        _run_samples(toy, starts, 4, policy, descs, membership, 1, record=lambda i, t: mine.append(i))
    with pytest.raises(ValueError, match="outside the domain"):
        sequential(toy, starts, 4, policy, descs, toy.state_box, lambda i, t: theirs.append(i))
    assert mine == theirs == list(range(530))
    # a failure before the stray start ends the run first
    starts[300] = np.array([0.5])
    assert _run_samples(toy, starts, 4, policy, descs, membership, 1) == 300


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


def per_cell_oracle(sys_, delta, action_samples, disturbance_samples, horizon, max_sweeps):
    """The sweep loop the mask update replaced: every live cell re-rolled with scalar ``step``."""
    grid = build_cover(sys_.state_box, delta)
    alive = np.ones(len(grid), dtype=bool)
    converged, sweeps = False, 0
    for _ in range(max_sweeps):
        sweeps += 1
        kill = []
        for i in np.flatnonzero(alive):
            dead = False
            for u in action_samples:
                for w in disturbance_samples:
                    state, unsafe = tuple(grid.centers[i]), False
                    for _t in range(horizon):
                        state, out = step(sys_, state, u, w)
                        if out.kind == EXIT_UNSAFE:
                            unsafe = True
                            break
                    near = int(np.argmin(np.abs(grid.centers - np.asarray(state)).max(axis=1)))
                    if unsafe or not alive[near]:
                        dead = True
                        break
                if dead:
                    break
            if dead:
                kill.append(i)
        if not kill:
            converged = True
            break
        alive[kill] = False
    return alive, sweeps, converged


ORACLES = [
    ("toy-threshold", None, 0.25, 0.3, 1),
    ("toy-two-basins", None, 0.1, 0.5, 3),
    ("toy-shift", None, 0.0, 0.5, 1),
    ("toy-flip", None, 0.3, 0.125, 2),
    ("toy-shrink", None, 0.1, 0.25, 2),
    ("lead-follow", "brake", 0.0, 2.0, 12),
    ("lead-follow", "idm", 0.2, 4.0, 8),
    ("three-vehicle", "idm", 0.0, 2.5, 5),
]


@pytest.mark.parametrize("name,sv,omega_bar,delta,horizon", ORACLES)
@pytest.mark.parametrize("max_sweeps", [1, 200])
def test_batched_oracle_equals_the_per_cell_loop(name, sv, omega_bar, delta, horizon, max_sweeps):
    sys_ = make_system(name, sv, omega_bar)
    actions = default_action_samples(sys_.action_box)
    w = sys_.omega_bar
    noise = [(-w,) * sys_.disturbance_dim, (0.0,) * sys_.disturbance_dim, (w,) * sys_.disturbance_dim] \
        if w > 0.0 else [sys_.zero_disturbance()]
    got = brute_force_invariant(sys_, delta, horizon=horizon, max_sweeps=max_sweeps)
    mask, sweeps, converged = per_cell_oracle(sys_, delta, actions, noise, horizon, max_sweeps)
    np.testing.assert_array_equal(got.mask, mask)
    assert (got.sweeps, got.converged) == (sweeps, converged)


# ---------------------------------------------------------------------------
# the all-cells nearest query
# ---------------------------------------------------------------------------


@given(scrambled_covers())
@settings(max_examples=80, deadline=None)
def test_nearest_all_equals_the_single_point_query(case):
    cover, rng = case
    pts = query_points(cover, rng)
    want = [cover.nearest(p, active_only=False)[0] for p in pts]
    np.testing.assert_array_equal(cover.nearest_all(pts), want)


def test_nearest_all_chunks_and_falls_back_exactly(monkeypatch):
    monkeypatch.setattr(geometry, "_QUERY_ROWS", 7)
    monkeypatch.setattr(geometry, "_SCAN_CHUNK", 64)
    cover = build_cover(BoxRegion([0.0, 0.0], [4.0, 6.0]), 0.5)
    cover.deactivate([0, 5, 9])
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.uniform(-9.0, 15.0, size=(50, 2)), cover.centers[:20] + 0.5])
    brute = np.abs(pts[:, None, :] - cover.centers[None, :, :]).max(axis=2).argmin(axis=1)
    np.testing.assert_array_equal(cover.nearest_all(pts), brute)
