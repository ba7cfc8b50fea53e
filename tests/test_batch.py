"""Differential tests of the batched rollout engine against the scalar code it replaces.

Each test compares a batch path with brute-force code written out here: the
array transition and ``step_batch`` with ``step``, the pre-drawn noise with
the per-step draws of ``run_scenario``, the streams seeded in bulk with
numpy's own ``SeedSequence``, the lock-step roller with ``run_scenario``, the
one-call start draws with the per-sample picks, the block runner with the
sequential sample loop, the oracle's mask update with the per-cell sweep
loop, and the all-cells nearest query with ``DeltaCover.nearest``.  Equality is bit for bit
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
    BoxActionSet,
    FiniteActionSet,
    IdmParams,
    UniformPolicy,
    default_action_samples,
    idm_accel,
    idm_accel_array,
    make_lead_follow,
    make_three_vehicle,
    make_toy_flip,
    make_toy_shift,
    make_toy_shrink,
    make_toy_threshold,
    noise_sampler,
    run_batch,
    run_scenario,
    step,
    step_batch,
)
from setquant.scenario import _seed_words, _seeded_streams
from setquant.validation import _run_samples, validate_eps, validate_eps_delta

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


def test_scaled_random_draws_equal_uniform():
    # box draws compute lower + (upper - lower) * random(), the formula of numpy's uniform;
    # a build that fused the multiply-add would round differently and fail here
    bounds = np.random.default_rng(2024)
    for seed in range(10_000):
        n = (1, 2, 3, 39, 195)[seed % 5]
        scale = 10.0 ** bounds.integers(-3, 4, size=n)
        lower = bounds.uniform(-1.0, 1.0, size=n) * scale
        upper = lower + bounds.uniform(1e-3, 2.0, size=n) * scale
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        if seed % 2:  # start with a buffered 32-bit half on both
            mine.integers(7), theirs.integers(7)
        assert same_bits(lower + (upper - lower) * mine.random(n), theirs.uniform(lower, upper))
        assert mine.bit_generator.state == theirs.bit_generator.state
        if n <= 3:
            assert BoxActionSet(lower, upper).sample(mine) == tuple(theirs.uniform(lower, upper).tolist())
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
# per-sample streams seeded in bulk
# ---------------------------------------------------------------------------


def reference_stream(seed, ordinal):
    """numpy's own stream of sample ``ordinal`` of ``seed``, built here without setquant."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(ordinal,))))


# seeds of one and two words, and ordinals of one and two words in one mixed
# list: entropy arrays of 5 and 6 words
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
ORDINALS = [2**32 + 7, 0, 2**40, 1, 2**31, 2**32 - 1, 9, 2**32, 2**31]


def test_bulk_seed_words_equal_seed_sequence():
    for seed in SEEDS:
        want = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64) for i in ORDINALS]
        np.testing.assert_array_equal(_seed_words(seed, ORDINALS), want)
        np.testing.assert_array_equal(_seed_words(np.uint64(seed), np.array(ORDINALS)), want)
    # many rows at once, as a block computes them
    want = [np.random.SeedSequence(101, spawn_key=(i,)).generate_state(4, np.uint64) for i in range(600)]
    np.testing.assert_array_equal(_seed_words(101, np.arange(600)), want)
    assert _seed_words(7, []).shape == (0, 4)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            _seed_words(seed, [0])
        with pytest.raises(ValueError, match="seed"):
            next(_seeded_streams(seed, [0]))


def test_bulk_seeded_streams_equal_seed_sequence_streams():
    cases = [(seed, ordinals) for seed in SEEDS for ordinals in (ORDINALS, ORDINALS[::-1])]
    for seed, ordinals in cases + [(3, np.arange(300)), (3, [])]:
        got = [(j, rng.bit_generator.state, rng.random(5), rng.integers(7, size=3), rng.bit_generator.state)
               for j, rng in _seeded_streams(seed, ordinals)]
        assert [j for j, *_ in got] == list(range(len(ordinals)))
        for i, (_, start, values, picks, end) in zip(ordinals, got):
            theirs = reference_stream(seed, int(i))
            assert start == theirs.bit_generator.state
            assert same_bits(values, theirs.random(5))
            assert picks.tolist() == theirs.integers(7, size=3).tolist()
            assert end == theirs.bit_generator.state


# ---------------------------------------------------------------------------
# the lock-step roller
# ---------------------------------------------------------------------------


# system, starts, horizon: blocks whose rows truncate, stop at different steps, or all stop
BLOCKS = {
    # x' = 0.5 x + u with u up to 0.5 pushes rows through both truncating facets; none stops
    "truncate-only": (lambda: make_toy_shrink(omega_bar=0.6), np.linspace(-1.0, 1.0, 9), 12),
    # x' = x + 1 on [0, 3], the top unsafe: rows stop at steps 1 to 4, so every row stops
    "all-stop": (make_toy_shift, np.linspace(0.0, 3.0, 13), 9),
    # one row stops, the others run on
    "one-stops": (make_toy_shift, np.array([2.5] + [0.0] * 7), 3),
    # braking toward the lead at several gaps: rows stop at different steps, some never
    "lead-follow": (lambda: make_lead_follow(sv="idm", omega_bar=0.3),
                    np.column_stack([np.full(16, 12.0), np.linspace(0.0, 6.0, 16), np.linspace(6.0, 30.0, 16)]),
                    40),
    "three-vehicle": (lambda: make_three_vehicle(sv="brake"),
                      np.column_stack([np.linspace(0.0, 6.0, 24), np.full(24, 2.0), np.linspace(0.0, 6.0, 24),
                                       np.linspace(5.5, 12.0, 24), np.linspace(-12.0, -5.5, 24)]),
                      25),
}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_lock_step_roller_equals_run_scenario(name):
    make, x0, horizon = BLOCKS[name]
    sys_ = make()
    x0 = x0.reshape(len(x0), sys_.state_box.dim)
    policy = UniformPolicy(sys_.action_box)
    rolls = run_batch(sys_, x0, noise_sampler(sys_, policy, horizon - 1).block(11, np.arange(len(x0))))
    for j in range(len(x0)):
        want = run_scenario(sys_, x0[j], horizon, policy, reference_stream(11, j))
        got = rolls.trajectory(j)
        assert same_bits(got.states, want.states) and same_bits(got.actions, want.actions)
        assert (got.exit_kind, got.exit_facet) == (want.exit_kind, want.exit_facet)
    # the block has the shape its name promises
    stop_steps = set(rolls.length[rolls.code >= 0].tolist())
    n_stopped = int((rolls.code >= 0).sum())
    if name == "truncate-only":
        assert n_stopped == 0 and ((rolls.states == -1.0) | (rolls.states == 1.0)).any()
    elif name == "all-stop":
        assert n_stopped == len(x0) and len(stop_steps) == 4
    elif name == "one-stops":
        assert n_stopped == 1
    else:
        assert 0 < n_stopped < len(x0) and len(stop_steps) >= 2


# ---------------------------------------------------------------------------
# one start draw per run
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["box", "cover", "band", "failing-box"])
@pytest.mark.parametrize("seed", [0, 2**40 + 3, "generator"])
def test_one_start_draw_equals_the_per_sample_picks(kind, seed):
    # the starts a run records are those of one pick per sample from the reserved stream
    sys_ = make_toy_shrink()
    region = BoxRegion([-1.0], [1.0]) if kind.endswith("box") else build_cover(sys_.state_box, 0.125)
    if kind == "failing-box":
        region = BoxRegion([-1.0], [0.9])  # a rollout pushed past 0.9 fails
    seen = []
    record = lambda i, traj: seen.append(traj.states[0])
    band = (lambda c: c[0] > 0.3) if kind == "band" else None
    if band is not None:
        run = lambda rng: validate_eps_delta(sys_, region, 3, 0.01, 0.1, sys_.action_box, rng, band=band,
                                             n_samples=600, record=record)
        act = np.asarray([i for i in region.active_indices() if band(region.centers[i])])
    else:
        run = lambda rng: validate_eps(sys_, region, 3, 0.01, 0.1, sys_.action_box, rng, n_samples=600,
                                       record=record)
        act = None if kind.endswith("box") else region.active_indices()
    if seed == "generator":  # only an integer seed names the samples' streams
        with pytest.raises(TypeError, match="integer seed"):
            run(np.random.default_rng(4))
        return
    verdict = run(seed)
    pick = reference_stream(seed, 2**31)
    if kind.endswith("box"):
        want = [region.sample(pick) for _ in range(len(seen))]
    else:
        want = [region.centers[int(act[int(pick.integers(act.size))])] for _ in range(len(seen))]
    assert same_bits(seen, want)
    assert verdict.result == (kind != "failing-box")
    if verdict.result:
        assert len(seen) == 600
    else:  # the record ends with the failing sample
        assert verdict.counterexample_start == [float(x) for x in want[-1]]


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


def sequential(sys_, starts, horizon, policy, seed, region, record) -> int:
    """The loop the block runner replaced: one ``run_scenario`` per sample, in index order."""
    for i in range(len(starts)):
        traj = run_scenario(sys_, starts[i], horizon, policy, reference_stream(seed, i))
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
    "two-word-seed": (lambda: make_lead_follow(sv="idm"),
                      lambda s: build_cover(SLAB, 2.0), None, 12, 300, 2**64 - 9),
}


def runs_agree(sys_, starts, horizon, policy, seed, region) -> int:
    """The block runner's verdict, once checked against the sequential loop, record by record."""
    mine, theirs = [], []
    got = _run_samples(sys_, starts, horizon, policy, seed, region, 1,
                       record=lambda i, t: mine.append((i, t)))
    want = sequential(sys_, starts, horizon, policy, seed, region, lambda i, t: theirs.append((i, t)))
    assert got == want
    assert _run_samples(sys_, starts, horizon, policy, seed, region, 2) == want
    assert [i for i, _ in mine] == [i for i, _ in theirs]
    for (_, a), (_, b) in zip(mine, theirs):
        assert same_bits(a.states, b.states) and same_bits(a.actions, b.actions)
        assert (a.exit_kind, a.exit_facet) == (b.exit_kind, b.exit_facet)
    return got


@pytest.mark.parametrize("name", sorted(RUNS))
def test_block_runner_equals_the_sequential_loop(name):
    make, region_of, points, horizon, n, seed = RUNS[name]
    sys_ = make()
    region = region_of(sys_)
    acts = sys_.action_box if points is None else FiniteActionSet(points)
    pick = np.random.default_rng(123)
    if isinstance(region, DeltaCover):
        starts = [region.centers[int(pick.integers(len(region)))] for _ in range(n)]
    else:
        starts = [region.sample(pick) for _ in range(n)]
    runs_agree(sys_, starts, horizon, UniformPolicy(acts), seed, region)


def flip_cover(sys_):
    """Cells at -0.75, -0.25, 0.25 and 0.75, the last one dead: 0.75 lies outside."""
    cover = build_cover(sys_.state_box, 0.25)
    cover.deactivate([3])
    return cover


# system, region, horizon, the starts that differ from the usual one, the usual start, first failure
ROWS = {
    # toy-flip from -0.75: out to 0.75 and back, so only the middle state strays
    "leaves-the-cover-and-returns": (make_toy_flip, flip_cover, 3, {700: -0.75, 720: 0.75}, 0.25, 700),
    "leaves-the-box-and-returns": (make_toy_flip, lambda s: BoxRegion([-0.5], [1.0]), 3,
                                   {700: 0.75, 720: -0.75}, 0.25, 700),
    # toy-threshold from 0.5 jumps to -4.5: unsafe, yet inside the region
    "unsafe-inside-the-cover": (make_toy_threshold, lambda s: build_cover(BoxRegion([-10.0], [10.0]), 1.0),
                                3, {650: 0.5}, 5.0, 650),
    "unsafe-inside-the-box": (make_toy_threshold, lambda s: BoxRegion([-10.0], [10.0]), 3, {650: 0.5}, 5.0, 650),
    # no transition, so no state to query
    "horizon-one-box": (make_toy_flip, lambda s: BoxRegion([-0.5], [1.0]), 1, {700: -0.75}, 0.25, -1),
}


@pytest.mark.parametrize("query_rows", [None, 3])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_block_runner_checks_every_state_of_every_row(name, query_rows, monkeypatch):
    if query_rows is not None:
        monkeypatch.setattr(geometry, "_QUERY_ROWS", query_rows)
    make, region_of, horizon, special, usual, first_bad = ROWS[name]
    sys_ = make()
    starts = [np.array([special.get(i, usual)]) for i in range(800)]
    got = runs_agree(sys_, starts, horizon, UniformPolicy(sys_.action_box), 0, region_of(sys_))
    assert got == first_bad


def test_block_runner_raises_at_a_start_outside_the_domain_like_the_loop():
    toy = make_toy_threshold()
    policy = UniformPolicy(toy.action_box)
    starts = [np.array([5.0])] * 600
    starts[530] = np.array([12.0])
    mine, theirs = [], []
    with pytest.raises(ValueError, match="outside the domain"):
        _run_samples(toy, starts, 4, policy, 0, toy.state_box, 1, record=lambda i, t: mine.append(i))
    with pytest.raises(ValueError, match="outside the domain"):
        sequential(toy, starts, 4, policy, 0, toy.state_box, lambda i, t: theirs.append(i))
    assert mine == theirs == list(range(530))
    # a failure before the stray start ends the run first
    starts[300] = np.array([0.5])
    assert _run_samples(toy, starts, 4, policy, 0, toy.state_box, 1) == 300


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
