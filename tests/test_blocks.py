"""The array paths of a validation block, against the brute-force code they replace.

``DeltaCover.outside`` answers most rows from the one bucket that holds them
and sends only the rest through the neighbour-bucket pass; it must equal a
scan over every live center, also where distinct buckets share a slot of
the index (sparse grids, and bucket numbers that wrap in int64).  A noise sampler's ``block`` draws a whole
block's actions and disturbances into one array per kind; it must equal the
stacked per-sample draws bit for bit (``tobytes``).  The block runner queries
its whole state tensor in place; it must give what the runner that gathered
the states of the rows that did not go unsafe gave, bit for bit, and hold
less than twice its state and action bytes.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant import geometry
from setquant.geometry import MEMBER_TOL, BoxRegion, DeltaCover, build_cover, refine_cover
from setquant.scenario import (
    FiniteActionSet,
    UniformPolicy,
    _FreshStream,
    _SELECT,
    _doubles,
    _sample_desc,
    _stream_words,
    make_lead_follow,
    make_three_vehicle,
    make_toy_shrink,
    make_toy_threshold,
    noise_sampler,
    run_batch,
    sample_stream,
)
from setquant.validation import _block_cap, _run_block, validate_eps_delta


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scanned_outside(cover: DeltaCover, pts: np.ndarray) -> np.ndarray:
    """``outside`` by a scan over every live center."""
    live = cover.active_centers()
    d = np.abs(pts[:, None, :] - live[None, :, :]).max(axis=2).min(axis=1, initial=np.inf)
    return d > cover.radius + MEMBER_TOL


def count_neighbour_rows(cover: DeltaCover) -> list:
    """Wrap the cover index's ``candidates`` to log how many rows each second-pass call gets; returns the log."""
    calls, index = [], cover._bucket_index(cover.radius + MEMBER_TOL)
    inner = index.candidates

    def counted(points, reach):
        calls.append(len(points))
        return inner(points, reach)

    index.candidates = counted
    return calls


# ---------------------------------------------------------------------------
# one-bucket membership
# ---------------------------------------------------------------------------


@st.composite
def offset_lattices(draw):
    """A 1-3-D lattice cover offset from its domain's corner by a random fraction of a bucket.

    Some centers are dead, and off-lattice centers are appended, some on
    bucket boundaries of the anchored grid.
    """
    dim = draw(st.integers(1, 3))
    delta = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5]))
    lower = np.asarray(draw(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim))) / 4.0
    frac = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)))
    cells = np.asarray(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    lo = lower + frac * 2.0 * delta
    region = BoxRegion(lo, lo + 2.0 * delta * cells)
    domain = BoxRegion(lower, region.upper + 3.0 * delta)
    cover = DeltaCover(build_cover(region, delta).centers, delta, domain)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cover.deactivate(rng.choice(len(cover), size=len(cover) // 4, replace=False))
    index = cover._bucket_index(cover.radius + MEMBER_TOL)
    for _ in range(draw(st.integers(0, 4))):
        c = rng.uniform(domain.lower, domain.upper)
        axes = rng.random(dim) < 0.5
        c[axes] = index.origin[axes] + index.h * rng.integers(0, 2 * cells.max() + 2, size=int(axes.sum()))
        cover.append(c)
    return cover, rng


@given(offset_lattices())
@settings(max_examples=150, deadline=None)
def test_outside_on_an_anchored_grid_equals_the_scan(case):
    cover, rng = case
    limit = cover.radius + MEMBER_TOL
    index = cover._bucket_index(limit)
    n, dim = 60, cover.dim
    base = cover.centers[rng.integers(0, len(cover), size=n)]
    axis = rng.integers(0, dim, size=n)
    rows = np.arange(n)
    at_limit = base.copy()
    at_limit[rows, axis] += rng.choice([-1.0, 1.0], size=n) * rng.choice(
        [limit, np.nextafter(limit, np.inf), cover.radius], size=n)
    on_boundary = base.copy()  # bucket boundaries of the anchored grid on some axes
    axes = rng.random((n, dim)) < 0.5
    k = np.floor((base - index.origin) / index.h) + rng.integers(0, 2, size=(n, dim))
    on_boundary[axes] = (index.origin + index.h * k)[axes]
    dead = cover.centers[~cover.active]
    pts = np.concatenate([
        at_limit, on_boundary, dead, base,
        rng.uniform(cover.domain.lower - 1.0, cover.domain.upper + 1.0, size=(n, dim)),
    ])
    np.testing.assert_array_equal(cover.outside(pts), scanned_outside(cover, pts))


def test_the_bucket_grid_is_anchored_at_the_lattice():
    # the slab's lattice starts 14.5 above its domain's corner on the gap axis
    lf = make_lead_follow(sv="brake")
    slab = build_cover(BoxRegion([0.0, 0.0, 20.0], [4.0, 16.0, 60.0]), 1.0)
    cover = DeltaCover(slab.centers, 1.0, lf.state_box)
    index = cover._bucket_index(cover.radius + MEMBER_TOL)
    np.testing.assert_array_equal(index.origin, cover.centers[0] - 0.5 * index.h)
    assert np.diff(index.starts).max() <= 1  # every slot holds at most one center
    # a refined cover, and the same centers read back from a cells file, are
    # anchored at the finest lattice (1 + 2k, 1 + 2k, 6.5 + 2k), not at the
    # first center (4, 4, 9.5), which sits on its bucket boundaries
    fine = refine_cover(refine_cover(build_cover(lf.state_box, 4.0), 0.5), 0.5)
    for cv in (fine, DeltaCover(fine.centers, fine.radius, lf.state_box)):
        index = cv._bucket_index(cv.radius + MEMBER_TOL)
        np.testing.assert_array_equal(index.origin, np.array([3.0, 3.0, 8.5]) - 0.5 * index.h)


@pytest.mark.parametrize("kind", ["lattice", "refined", "reloaded"])
def test_one_bucket_pass_decides_every_member_state_of_a_slab(kind):
    lf = make_lead_follow(sv="brake")
    slab = BoxRegion([0.0, 0.0, 20.0], [4.0, 16.0, 60.0])
    if kind == "lattice":
        cover = DeltaCover(build_cover(slab, 1.0).centers, 1.0, lf.state_box)
    else:  # the lattice a refinement leaves, its parents' centers still live
        cover = refine_cover(DeltaCover(build_cover(slab, 2.0).centers, 2.0, lf.state_box), 0.5)
        if kind == "reloaded":  # as a cells file reads back
            cover = DeltaCover(cover.centers, cover.radius, lf.state_box)
    calls = count_neighbour_rows(cover)
    rng = np.random.default_rng(7)
    near = cover.centers[rng.integers(0, len(cover), size=5000)]
    members = near + rng.uniform(-cover.radius, cover.radius, size=near.shape)
    assert not cover.outside(members).any()
    assert sum(calls) == 0
    # every state of the slab's sampled rollouts
    verdict = validate_eps_delta(lf, cover, 40, 0.01, 0.01, lf.action_box, rng=3)
    assert verdict.result and verdict.n_samples == 459
    assert sum(calls) == 0
    assert cover.outside([[8.0, 8.0, 5.5]]).all() and calls == [1]  # the wrapped pass is the one in use


# ---------------------------------------------------------------------------
# the slot table on sparse grids
# ---------------------------------------------------------------------------


def probe_rows(cover: DeltaCover, rng) -> np.ndarray:
    """Rows at the membership limit of live and dead centers, on bucket boundaries, and non-finite rows."""
    limit = cover.radius + MEMBER_TOL
    index = cover._bucket_index(limit)
    n, dim = 40, cover.dim
    base = cover.centers[rng.integers(0, len(cover), size=n)]
    at_limit = base.copy()
    at_limit[np.arange(n), rng.integers(0, dim, size=n)] += rng.choice([-1.0, 1.0], size=n) * rng.choice(
        [limit, np.nextafter(limit, np.inf), cover.radius], size=n)
    on_boundary = base.copy()
    axes = rng.random((n, dim)) < 0.5
    k = np.floor((base - index.origin) / index.h) + rng.integers(0, 2, size=(n, dim))
    on_boundary[axes] = (index.origin + index.h * k)[axes]
    odd = base[:12].copy()  # one non-finite coordinate each
    odd[np.arange(12), np.arange(12) % dim] = np.tile([np.nan, np.inf, -np.inf], 4)
    return np.concatenate([at_limit, on_boundary, odd, cover.centers[~cover.active], base,
                           rng.uniform(cover.domain.lower - 1.0, cover.domain.upper + 1.0, size=(n, dim))])


def grid_buckets(index) -> int:
    """The number of buckets in the grid that the index's centers span, as an exact integer."""
    return math.prod(int(e) for e in (index.kmax - index.kmin + 1).tolist())


def assert_outside_equals_the_scan(cover: DeltaCover, pts: np.ndarray):
    # no center lies within any distance of a NaN coordinate: such a row is outside
    want = scanned_outside(cover, pts) | np.isnan(pts).any(axis=1)
    np.testing.assert_array_equal(cover.outside(pts), want)


@st.composite
def far_clusters(draw):
    """A 1-5-D cover of two to four small lattices far apart, so the grid holds many buckets per center.

    A quarter of the centers are dead.
    """
    dim = draw(st.integers(1, 5))
    delta = draw(st.sampled_from([0.25, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(draw(st.integers(2, 4))):
        lo = rng.integers(-400, 400, size=dim) * delta
        parts.append(build_cover(BoxRegion(lo, lo + 2.0 * delta * rng.integers(1, 3, size=dim)), delta).centers)
    centers = np.concatenate(parts)
    domain = BoxRegion(centers.min(axis=0) - delta, centers.max(axis=0) + delta)
    cover = DeltaCover(centers, delta, domain)
    cover.deactivate(rng.choice(len(cover), size=len(cover) // 4, replace=False))
    return cover, rng


@given(far_clusters())
@settings(max_examples=120, deadline=None)
def test_outside_on_a_sparse_grid_equals_the_scan(case):
    cover, rng = case
    index = cover._bucket_index(cover.radius + MEMBER_TOL)
    assert index.m == min(grid_buckets(index), 8 * len(cover) + 1) and index.starts.shape == (index.m + 1,)
    assert_outside_equals_the_scan(cover, probe_rows(cover, rng))


def test_outside_on_a_grid_with_more_than_eight_buckets_a_center_equals_the_scan():
    # two lattices of 16 centers each, 509 buckets apart on both axes: up to 8 centers share a slot
    near = build_cover(BoxRegion([0.0, 0.0], [8.0, 8.0]), 1.0).centers
    cover = DeltaCover(np.concatenate([near, near + 1018.0]), 1.0, BoxRegion([0.0, 0.0], [1026.0, 1026.0]))
    cover.deactivate([3, 20])
    index = cover._bucket_index(cover.radius + MEMBER_TOL)
    assert index.m == 8 * len(cover) + 1 < grid_buckets(index)
    assert np.diff(index.starts).max() > 1  # some slot holds centers of distinct buckets
    assert_outside_equals_the_scan(cover, probe_rows(cover, np.random.default_rng(4)))


def test_outside_on_a_sparse_five_dimensional_cover_equals_the_scan():
    rng = np.random.default_rng(11)
    centers = rng.integers(-50, 50, size=(300, 5)) * 2.0 + 1.0  # lattice points, 300 of 100^5
    cover = DeltaCover(centers, 1.0, BoxRegion([-100.0] * 5, [100.0] * 5))
    cover.deactivate(rng.choice(len(cover), size=60, replace=False))
    index = cover._bucket_index(cover.radius + MEMBER_TOL)
    assert index.m == 8 * len(cover) + 1
    pts = probe_rows(cover, rng)
    assert_outside_equals_the_scan(cover, pts)
    assert_outside_equals_the_scan(cover, pts[::-1].copy())


def test_outside_where_row_major_bucket_numbers_wrap_equals_the_scan():
    # 10^6 buckets per axis in 4-D: 10^24 buckets, past 2^63, so the bucket numbers wrap in int64
    rng = np.random.default_rng(5)
    corner = build_cover(BoxRegion([0.0] * 4, [4.0] * 4), 0.5).centers
    centers = np.concatenate([corner, corner + 1e6, rng.integers(0, 10**6, size=(20, 4)) + 0.5])
    cover = DeltaCover(centers, 0.5, BoxRegion([0.0] * 4, [1e6 + 4.0] * 4))
    cover.deactivate(rng.choice(len(cover), size=len(cover) // 5, replace=False))
    index = cover._bucket_index(cover.radius + MEMBER_TOL)
    assert grid_buckets(index) > 2**63
    assert_outside_equals_the_scan(cover, probe_rows(cover, rng))


def test_a_neighbour_bucket_whose_number_wraps_past_2_63_is_searched():
    # a lattice of 64 centers anchors the grid at (1, 1) - h / 2, and one far center stretches it to
    # 2^31 x 2^33 buckets; a state in bucket (k0, k1) has its only center within reach in bucket
    # (k0 + 1, k1), whose row-major number wraps past 2^63 in int64
    h = 2.0 * (1.0 + 1e-9) * (1.0 + 2e-9)  # the bucket width of a radius-1 cover
    origin = 1.0 - 0.5 * h
    k0, k1 = 2**30 - 1, 5
    lattice = build_cover(BoxRegion([0.0, 0.0], [16.0, 16.0]), 1.0).centers
    far = origin + h * np.array([[2**31 + 0.5, 2**33 - 0.5]])
    cover = DeltaCover(np.concatenate([lattice, far]), 1.0, BoxRegion([0.0, 0.0], far[0] + 1.0))
    index = cover._bucket_index(cover.radius + MEMBER_TOL)
    assert index.h == h and index.origin.tolist() == [origin, origin]
    assert index.strides.tolist() == [2**33, 1] and k0 * 2**33 + k1 < 2**63 <= (k0 + 1) * 2**33 + k1
    center = origin + h * np.array([k0 + 1.0, k1 + 0.5]) + [0.25, 0.0]  # just inside bucket k0 + 1 on axis 0
    cover.append(center)
    state = center - [[0.9, 0.0], [1.1, 0.0]]  # in bucket k0: 0.9 and 1.1 from the center
    assert np.floor((state - origin) / h).tolist() == [[k0, k1], [k0, k1]]
    assert cover.outside(state).tolist() == [False, True]
    assert_outside_equals_the_scan(cover, np.concatenate([state, probe_rows(cover, np.random.default_rng(6))]))


# ---------------------------------------------------------------------------
# block noise
# ---------------------------------------------------------------------------


# ordinals of one and two words, under seeds of one and two words
ORDINALS = np.array(list(range(40)) + [2**31, 2**32 + 7, 2**40, 2**32 - 1])
STREAMS = [(17, ORDINALS), (2**40, ORDINALS[::-1]), (0, ORDINALS[:1]), (5, ORDINALS[:0])]

SAMPLERS = {
    "box": lambda: (make_lead_follow(sv="idm"), None),
    "box-disturbed": lambda: (make_three_vehicle(sv="brake", omega_bar=0.4), None),
    "finite": lambda: (make_three_vehicle(sv="idm"), [(-5.0, -7.0), (3.0, -3.0), (0.0, -5.0)]),
    # a one-point set seeds no stream
    "one-point": lambda: (make_lead_follow(sv="brake"), [(-5.0,)]),
    # a finite set with disturbances draws step by step
    "per-step": lambda: (make_lead_follow(sv="brake", omega_bar=0.3), [(-5.0,), (1.0,)]),
}


@pytest.mark.parametrize("kind", sorted(SAMPLERS))
@pytest.mark.parametrize("steps", [0, 1, 17, 39])
def test_block_noise_equals_the_stacked_per_sample_draws(kind, steps):
    sys_, points = SAMPLERS[kind]()
    acts = sys_.action_box if points is None else FiniteActionSet(points)
    draw = noise_sampler(sys_, UniformPolicy(acts), steps)
    for seed, ordinals in STREAMS:
        u, w = draw.block(seed, ordinals)
        want = [draw(sample_stream(_sample_desc(seed, i))) for i in ordinals]  # the per-step draws
        m, k = sys_.action_box.dim, sys_.disturbance_dim
        assert same_bits(u, np.array([a for a, _ in want]).reshape(len(ordinals), steps, m))
        assert same_bits(w, np.array([b for _, b in want]).reshape(len(ordinals), steps, k))


def test_run_batch_takes_block_arrays_and_per_row_pairs_alike():
    sys_ = make_three_vehicle(sv="idm", omega_bar=0.3)
    draw = noise_sampler(sys_, UniformPolicy(sys_.action_box), 24)
    rng = np.random.default_rng(2)
    x0 = rng.uniform(sys_.state_box.lower, sys_.state_box.upper, size=(len(ORDINALS), sys_.state_box.dim))
    a = run_batch(sys_, x0, draw.block(17, ORDINALS))
    want = [draw(sample_stream(_sample_desc(17, i))) for i in ORDINALS]
    b = run_batch(sys_, x0, (np.stack([u for u, _ in want]), np.stack([w for _, w in want])))
    assert a.code.tolist() == b.code.tolist() and a.length.tolist() == b.length.tolist()
    for j in range(len(ORDINALS)):
        ta, tb = a.trajectory(j), b.trajectory(j)
        assert same_bits(ta.states, tb.states) and same_bits(ta.actions, tb.actions)
    assert 0 < (a.code >= 0).sum() < len(ORDINALS)


# ---------------------------------------------------------------------------
# the block runner: one query in place
# ---------------------------------------------------------------------------


def gathered_run_block(sys_, x0, first, draw, seed, region, record):
    """The block runner before the in-place query: it gathered the states past the start of the safe rows."""
    rolls = run_batch(sys_, x0, draw.block(seed, np.arange(first, first + len(x0))))
    failed = rolls.code >= 0
    safe = np.flatnonzero(~failed)
    steps = rolls.states.shape[1] - 1
    states = rolls.states[safe, 1:].reshape(-1, x0.shape[1])
    failed[safe] = region.outside(states).reshape(safe.size, steps).any(axis=1)
    bad = np.flatnonzero(failed)
    if record is not None:
        for j in range(bad[0] + 1 if bad.size else len(x0)):
            record(first + j, rolls.trajectory(j))
    return (first + int(bad[0]), rolls.trajectory(int(bad[0]))) if bad.size else (-1, None)


BLOCK_SYSTEMS = {
    "toy-threshold": make_toy_threshold,
    "toy-shrink": make_toy_shrink,
    "lead-follow": lambda omega_bar: make_lead_follow(sv="brake", omega_bar=omega_bar),
}
# a start that goes unsafe on its first step (toy-shrink has no unsafe facet)
UNSAFE_START = {"toy-threshold": [0.5], "lead-follow": [16.0, 0.0, 5.6], "toy-shrink": None}


@st.composite
def blocks(draw):
    """One validation block: system, noise sampler, region, starts, first ordinal and seed.

    The action set is the system's box, a three-point or a one-point set,
    with or without disturbance; the region a box inside the domain, or a
    lattice cover of the domain with dead centers, alone or with off-lattice
    centers appended.  Some starts go unsafe, and the horizon may be 1.
    """
    name = draw(st.sampled_from(sorted(BLOCK_SYSTEMS)))
    sys_ = BLOCK_SYSTEMS[name](omega_bar=draw(st.sampled_from([0.0, 0.2])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box, ab = sys_.state_box, sys_.action_box.box
    kind = draw(st.sampled_from(["box", "finite", "one-point"]))
    acts = sys_.action_box if kind == "box" else FiniteActionSet(
        [tuple(p) for p in rng.uniform(ab.lower, ab.upper, size=(3 if kind == "finite" else 1, ab.dim))])
    horizon = draw(st.sampled_from([1, 2, 9, 30]))
    draw_noise = noise_sampler(sys_, UniformPolicy(acts), horizon - 1)
    shape = draw(st.sampled_from(["box", "lattice", "appended"]))
    if shape == "box":
        region = BoxRegion(box.lower + box.widths * rng.uniform(0.0, 0.3, box.dim),
                           box.upper - box.widths * rng.uniform(0.0, 0.3, box.dim))
    else:
        region = build_cover(box, float(box.widths.max()) / draw(st.sampled_from([6, 12])))
        region.deactivate(rng.choice(len(region), size=len(region) // 4, replace=False))
        if shape == "appended":
            for c in rng.uniform(box.lower, box.upper, size=(draw(st.integers(1, 5)), box.dim)):
                region.append(c)
    x0 = rng.uniform(box.lower, box.upper, size=(draw(st.integers(1, 40)), box.dim))
    if UNSAFE_START[name] is not None:
        x0[rng.random(len(x0)) < 0.2] = UNSAFE_START[name]
    return sys_, draw_noise, region, x0, draw(st.integers(0, 2**40)), draw(st.integers(0, 2**40))


def logged(log):
    return lambda i, t: log.append((i, t.states.tobytes(), t.actions.tobytes(), t.exit_kind, t.exit_facet))


@given(blocks(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_the_in_place_query_gives_what_the_gathered_one_gave(case, tiny_chunks):
    sys_, draw_noise, region, x0, first, seed = case
    with mock.patch.object(geometry, "_QUERY_ROWS", 3 if tiny_chunks else geometry._QUERY_ROWS):
        mine, theirs = [], []
        with np.errstate(all="raise"):  # a stopped row's raw exit state is queried too
            bad, traj = _run_block(sys_, x0, first, draw_noise, seed, region, logged(mine))
        want_bad, want = gathered_run_block(sys_, x0, first, draw_noise, seed, region, logged(theirs))
    assert bad == want_bad and mine == theirs
    assert (traj is None) == (want is None)
    if traj is not None:
        assert same_bits(traj.states, want.states) and same_bits(traj.actions, want.actions)
        assert (traj.exit_kind, traj.exit_facet) == (want.exit_kind, want.exit_facet)


@given(blocks())
@settings(max_examples=100, deadline=None)
def test_a_row_that_stopped_unsafe_repeats_its_exit_state_to_the_end(case):
    sys_, draw_noise, _, x0, first, seed = case
    rolls = run_batch(sys_, x0, draw_noise.block(seed, np.arange(first, first + len(x0))))
    bits = rolls.states.view(np.int64)
    for j in np.flatnonzero(rolls.code >= 0):
        last = int(rolls.length[j]) - 1
        assert (bits[j, last:] == bits[j, last]).all()


def test_the_lock_step_roller_fills_every_slot_of_stopped_rows():
    # toy-threshold rows from 0.5 stop on their first step; the rest run 12 steps
    toy = make_toy_threshold()
    x0 = np.array([[0.5], [5.0], [0.25], [2.0]])
    rolls = run_batch(toy, x0, noise_sampler(toy, UniformPolicy(toy.action_box), 12).block(3, np.arange(4)))
    assert rolls.length.tolist() == [2, 13, 2, 13]
    assert rolls.states[:, :, 0].tolist() == [[0.5] + [-4.5] * 12, [5.0] * 13, [0.25] + [-4.75] * 12, [2.0] * 13]


@pytest.mark.parametrize("kind", ["box", "finite", "one-point"])
@pytest.mark.parametrize("steps", [0, 1, 39])
def test_blocks_without_disturbance_hold_a_read_only_zero_view(kind, steps):
    sys_, points = SAMPLERS[kind]()
    acts = sys_.action_box if points is None else FiniteActionSet(points)
    for seed, ordinals in STREAMS:
        _, w = noise_sampler(sys_, UniformPolicy(acts), steps).block(seed, ordinals)
        assert w.shape == (len(ordinals), steps, sys_.disturbance_dim)
        assert not w.flags.writeable and w.strides == (0, 0, 0)
        assert (w.view(np.int64) == 0).all()  # +0.0, not -0.0


@pytest.mark.parametrize("kind", ["box", "box-disturbed"])
@pytest.mark.parametrize("steps", [0, 1, 39])
def test_box_block_scaled_in_place_equals_lower_plus_span_times_raw(kind, steps):
    sys_, _ = SAMPLERS[kind]()
    draw_noise = noise_sampler(sys_, UniformPolicy(sys_.action_box), steps)
    m = sys_.action_box.dim
    width = m + draw_noise.noisy
    for seed, ordinals in STREAMS:
        u, w = draw_noise.block(seed, ordinals)
        raw = _doubles(_stream_words(seed, ordinals, steps * width))
        want = (draw_noise.lower + draw_noise.span * raw).reshape(len(ordinals), steps, width)
        assert same_bits(u, want[..., :m])
        if width > m:
            assert same_bits(w, want[..., m:])


def test_a_slab_block_holds_less_than_twice_its_state_and_action_bytes():
    # the lf-val slab's largest block: lead-follow brake under the action box, K = 40, on the 320-center slab cover
    lf = make_lead_follow(sv="brake")
    cover = DeltaCover(build_cover(BoxRegion([0.0, 0.0, 20.0], [4.0, 16.0, 60.0]), 1.0).centers, 1.0, lf.state_box)
    horizon, n, m = 40, lf.state_box.dim, lf.action_box.dim
    rows = _block_cap(lf, horizon)
    assert rows == 1092
    starts = cover.centers[cover.active_indices()[_FreshStream(5, _SELECT).integers(len(cover), size=rows)]]
    draw_noise = noise_sampler(lf, UniformPolicy(lf.action_box), horizon - 1)
    assert _run_block(lf, starts, 0, draw_noise, 5, cover, None) == (-1, None)  # builds the index, warms the caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert _run_block(lf, starts, 1792, draw_noise, 5, cover, None) == (-1, None)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = rows * (horizon * n + (horizon - 1) * m) * 8  # the Rollouts' states and actions
    assert peak < 2 * held
