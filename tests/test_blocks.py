"""The two array paths of a validation block, against the brute-force code they replace.

``DeltaCover.outside`` answers most rows from the one bucket that holds them
and sends only the rest through the neighbour-bucket query; it must equal a
scan over every live center.  A noise sampler's ``block`` draws a whole
block's actions and disturbances into one array per kind; it must equal the
stacked per-sample draws bit for bit (``tobytes``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant.geometry import MEMBER_TOL, BoxRegion, DeltaCover, build_cover, refine_cover
from setquant.scenario import (
    FiniteActionSet,
    UniformPolicy,
    _sample_desc,
    make_lead_follow,
    make_three_vehicle,
    noise_sampler,
    run_batch,
    sample_stream,
)
from setquant.validation import validate_eps_delta


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def scanned_outside(cover: DeltaCover, pts: np.ndarray) -> np.ndarray:
    """``outside`` by a scan over every live center."""
    live = cover.active_centers()
    d = np.abs(pts[:, None, :] - live[None, :, :]).max(axis=2).min(axis=1, initial=np.inf)
    return d > cover.radius + MEMBER_TOL


def count_neighbour_rows(cover: DeltaCover) -> list:
    """Wrap ``cover.distances_within`` to log how many rows each call gets; returns the log."""
    calls, inner = [], cover.distances_within

    def counted(points, reach):
        calls.append(len(points))
        return inner(points, reach)

    cover.distances_within = counted
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
    assert index.keys.size == len(cover)  # one center per bucket
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
    for j in range(len(ORDINALS)):  # a stopped row's slots past its length are never written
        ta, tb = a.trajectory(j), b.trajectory(j)
        assert same_bits(ta.states, tb.states) and same_bits(ta.actions, tb.actions)
    assert 0 < (a.code >= 0).sum() < len(ORDINALS)
