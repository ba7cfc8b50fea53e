"""Covering lattice, refinement and volume accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant.geometry import (
    MEMBER_TOL,
    BoxRegion,
    DeltaCover,
    boundary_band,
    build_cover,
    compare_grids,
    load_cover_csv,
    nearest_center,
    refine_cover,
    save_cover_csv,
    signed_distance,
    volume_estimate,
)
from strategies import query_points, scrambled_covers


# ---------------------------------------------------------------------------
# BoxRegion basics
# ---------------------------------------------------------------------------


def test_box_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        BoxRegion([0.0, 1.0], [1.0, 0.5])


def test_box_volume_and_containment():
    box = BoxRegion([0.0, -1.0], [2.0, 1.0])
    assert box.volume == 4.0
    assert box.contains([1.0, 0.0])
    assert box.contains([0.0, -1.0])  # boundary counts
    assert not box.contains([2.1, 0.0])


def test_signed_distance_examples():
    box = BoxRegion([0.0, 0.0], [4.0, 2.0])
    assert signed_distance([2.0, 1.0], box) == -1.0  # deepest interior point
    assert signed_distance([0.0, 1.0], box) == 0.0
    assert signed_distance([5.0, 1.0], box) == 1.0
    assert signed_distance([5.0, 3.0], box) == 1.0  # sup norm, not euclidean


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=4),
       st.floats(0.1, 10.0), st.data())
@settings(max_examples=60, deadline=None)
def test_signed_distance_sign_matches_containment(lows, width, data):
    lo = np.asarray(lows)
    box = BoxRegion(lo, lo + width)
    p = np.asarray(data.draw(st.lists(st.floats(-80, 80),
                                      min_size=len(lows), max_size=len(lows))))
    d = signed_distance(p, box)
    if d < 0:
        assert box.contains(p)
    elif d > 0:
        assert not box.contains(p)


# ---------------------------------------------------------------------------
# build_cover: pitch 2*delta from lower+delta, trailing row clamped inward,
# narrow axes collapse to a midpoint
# ---------------------------------------------------------------------------


def test_cover_lattice_regular_axis():
    cv = build_cover(BoxRegion([0.0], [10.0]), 0.5)
    assert cv.centers.tolist() == [[0.5], [1.5], [2.5], [3.5], [4.5],
                                   [5.5], [6.5], [7.5], [8.5], [9.5]]


def test_cover_lattice_trailing_clamp():
    # 10.4 wide at delta 1: on-pitch 1..9, then the partial row snaps to 9.4
    cv = build_cover(BoxRegion([0.0], [10.4]), 1.0)
    assert cv.centers.tolist() == [[1.0], [3.0], [5.0], [7.0], [9.0], [9.4]]


def test_cover_lattice_narrow_axis_midpoint():
    cv = build_cover(BoxRegion([0.0], [1.0]), 1.0)
    assert cv.centers.tolist() == [[0.5]]


def test_cover_lattice_is_a_product():
    cv = build_cover(BoxRegion([0.0, 0.0], [4.0, 1.0]), 1.0)
    assert cv.centers.tolist() == [[1.0, 0.5], [3.0, 0.5]]


def test_cover_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        build_cover(BoxRegion([0.0], [1.0]), 0.0)


@given(st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_cover_is_sound(dim, data):
    """Every point of the domain lies within delta of some center."""
    lo = np.asarray(data.draw(st.lists(st.floats(-5, 5), min_size=dim, max_size=dim)))
    widths = np.asarray(data.draw(st.lists(st.floats(0.05, 8.0), min_size=dim, max_size=dim)))
    delta = data.draw(st.floats(0.1, 2.0))
    box = BoxRegion(lo, lo + widths)
    cv = build_cover(box, delta)
    frac = np.asarray(data.draw(st.lists(st.floats(0, 1), min_size=dim, max_size=dim)))
    point = box.lower + frac * box.widths
    _, d = nearest_center(cv, point)
    assert d <= delta + 1e-9


# ---------------------------------------------------------------------------
# DeltaCover bookkeeping
# ---------------------------------------------------------------------------


def test_append_returns_stable_ordinals_and_dedups():
    cv = build_cover(BoxRegion([0.0], [4.0]), 1.0)
    n0 = len(cv)
    o = cv.append([2.5])
    assert o == n0
    assert cv.append([2.5]) == o  # exact duplicate: same ordinal back
    assert len(cv) == n0 + 1


def test_deactivate_removes_from_queries():
    cv = build_cover(BoxRegion([0.0], [4.0]), 1.0)
    cv.deactivate([0])
    assert 0 not in cv.active_indices()
    assert cv.n_active() == len(cv) - 1
    # distance queries now ignore the dead center
    _, d = nearest_center(cv, [1.0])
    assert d == pytest.approx(2.0)


@given(scrambled_covers())
@settings(max_examples=80, deadline=None)
def test_indexed_queries_equal_the_brute_force_scan(case):
    """The bucket index answers exactly what a scan over every active center does."""
    cover, rng = case
    if not cover.active.any():
        return
    pts = query_points(cover, rng)
    idx = cover.active_indices()
    d = np.abs(pts[:, None, :] - cover.centers[idx][None, :, :]).max(axis=2)
    np.testing.assert_array_equal(cover.batch_distances(pts), d.min(axis=1))
    for p, row in zip(pts, d):
        k = int(np.argmin(row))  # first minimum: the lowest ordinal wins a tie
        assert nearest_center(cover, p) == (int(idx[k]), float(row[k]))


@given(scrambled_covers(), st.sampled_from([0.0, 0.3]), st.data())
@settings(max_examples=120, deadline=None)
def test_bucket_kernel_on_bucket_boundaries_equals_the_scan(case, extra, data):
    """Centers on bucket boundaries, queried from points at distance reach and radius.

    A point at ``c - reach`` on an axis where ``c`` sits on a bucket boundary
    has a reach box that ends a hair past the boundary: it needs exactly the
    base bucket and the next one, and with a bucket width of ``2 * reach``
    or less its box would touch a third.
    """
    cover, rng = case
    reach = cover.radius + 1e-9 + extra
    h = cover._bucket_index(reach).h
    lower, dim = cover.domain.lower, cover.dim
    for _ in range(data.draw(st.integers(1, 6))):
        c = rng.uniform(cover.domain.lower, cover.domain.upper)
        axes = rng.random(dim) < 0.5
        c[axes] = lower[axes] + h * rng.integers(-2, 8, size=int(axes.sum()))
        cover.append(c)
    assert cover._bucket_index(reach).h == h
    base = cover.centers[rng.integers(0, len(cover), size=60)]
    axis = rng.integers(0, dim, size=60)
    gap = rng.choice([reach, cover.radius, np.nextafter(reach, 0.0), np.nextafter(reach, 1.0)], size=60)
    pts = base.copy()
    pts[np.arange(60), axis] -= gap * rng.choice([-1.0, 1.0], size=60)
    jitter = rng.random((60, dim)) < 0.3  # off-axis moves of at most the radius
    jitter[np.arange(60), axis] = False
    pts = np.where(jitter, pts + rng.uniform(-1.0, 1.0, size=(60, dim)) * cover.radius, pts)
    act = cover.active_centers()
    d = np.abs(pts[:, None, :] - act[None, :, :]).max(axis=2).min(axis=1, initial=np.inf)
    np.testing.assert_array_equal(cover.distances_within(pts, reach), np.where(d <= reach, d, np.inf))
    if act.size:
        np.testing.assert_array_equal(cover.batch_distances(pts), d)
    want = np.abs(pts[:, None, :] - cover.centers[None, :, :]).max(axis=2).argmin(axis=1)
    np.testing.assert_array_equal(cover.nearest_all(pts), want)


@given(scrambled_covers(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_outside_equals_the_brute_force_scan(case, emptied):
    """``outside`` is ``d > radius + MEMBER_TOL`` for ``d`` the scanned distance to the live centers.

    The queries add far points and points at the member limit of a center,
    dead or alive, on one axis; an emptied cover has every point outside.
    """
    cover, rng = case
    if emptied:
        cover.deactivate(cover.active_indices())
    limit = cover.radius + MEMBER_TOL
    pick = cover.centers[rng.integers(0, len(cover), size=40)]
    axis = rng.integers(0, cover.dim, size=40)
    at_limit = pick.copy()
    at_limit[np.arange(40), axis] += rng.choice([-limit, limit, np.nextafter(limit, np.inf)], size=40)
    far = pick + rng.choice([-1.0, 1.0], size=pick.shape) * rng.uniform(10.0, 1e6, size=pick.shape)
    pts = np.concatenate([query_points(cover, rng), at_limit, far])
    d = np.abs(pts[:, None, :] - cover.active_centers()[None, :, :]).max(axis=2).min(axis=1, initial=np.inf)
    np.testing.assert_array_equal(cover.outside(pts), d > limit)


def test_outside_at_the_member_limit():
    cv = DeltaCover(np.array([[0.0], [5.0]]), 1.0, BoxRegion([-2.0], [8.0]))
    limit = 1.0 + MEMBER_TOL
    pts = [[limit], [-limit], [np.nextafter(limit, 2.0)], [5.0 - limit], [1e9]]
    assert cv.outside(pts).tolist() == [False, False, True, False, True]
    cv.deactivate([1])  # a dead center holds nothing
    assert cv.outside(pts).tolist() == [False, False, True, True, True]
    cv.deactivate([0])
    assert cv.outside(pts).all()


def test_nearest_center_tie_goes_to_the_lowest_ordinal():
    cv = DeltaCover(np.array([[3.0], [1.0], [5.0]]), 1.0, BoxRegion([0.0], [6.0]))
    assert nearest_center(cv, [2.0]) == (0, 1.0)
    assert nearest_center(cv, [4.0]) == (0, 1.0)
    cv.deactivate([0])
    assert nearest_center(cv, [3.0]) == (1, 2.0)  # beyond reach: the full scan decides


def test_append_grows_past_the_initial_capacity():
    cv = DeltaCover(np.array([[0.0]]), 0.5, BoxRegion([0.0], [100.0]))
    for x in range(1, 100):
        assert cv.append([float(x)]) == x
    assert cv.centers[:, 0].tolist() == [float(x) for x in range(100)]
    assert cv.active.shape == (100,) and cv.active.all()
    np.testing.assert_array_equal(cv.batch_distances([[41.25], [99.5]]), [0.25, 0.5])


def test_batch_distances_empty_active_raises():
    cv = build_cover(BoxRegion([0.0], [4.0]), 1.0)
    cv.deactivate(cv.active_indices())
    with pytest.raises(ValueError):
        cv.batch_distances([[1.0]])


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_preserves_old_ordinals_and_shrinks_radius():
    cv = build_cover(BoxRegion([0.0], [8.0]), 1.0)
    cv.deactivate([0])
    fine = refine_cover(cv, 0.5)
    assert fine.radius == 0.5
    np.testing.assert_array_equal(fine.centers[: len(cv)], cv.centers)
    assert not fine.active[0]          # dead cells stay dead
    assert len(fine) > len(cv)         # children were added
    # children spawn only from live cells: nothing new within the dead cell
    new = fine.centers[len(cv):]
    assert np.all(np.abs(new - cv.centers[0]) > 0.5 - 1e-12)


def test_refine_margin_excludes_near_pruned_points():
    cv = build_cover(BoxRegion([0.0], [8.0]), 1.0)
    fine = refine_cover(cv, 0.5, excluded=[[3.0]], margin=0.5)
    new = fine.centers[len(cv):]
    assert np.all(np.abs(new - 3.0) > 0.5)


def test_refine_rejects_bad_gamma():
    cv = build_cover(BoxRegion([0.0], [8.0]), 1.0)
    for g in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            refine_cover(cv, g)


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------


def test_volume_interior_cell():
    dom = BoxRegion([0.0, 0.0], [1.0, 1.0])
    cv = DeltaCover(np.array([[0.7, 0.7]]), 0.15, dom)
    assert volume_estimate(cv) == pytest.approx(0.09)


def test_volume_clips_at_the_domain_corner():
    dom = BoxRegion([0.0, 0.0], [1.0, 1.0])
    cv = DeltaCover(np.array([[1.0, 1.0]]), 0.15, dom)
    assert volume_estimate(cv) == pytest.approx(0.0225)


def test_volume_counts_overlap_once():
    dom = BoxRegion([-2.0], [2.0])
    cv = DeltaCover(np.array([[0.0], [0.5]]), 0.5, dom)
    # union [-0.5, 1.0]; a per-cell sum would say 2.0
    assert volume_estimate(cv) == pytest.approx(1.5)


def test_volume_after_refinement_stays_under_domain_volume():
    dom = BoxRegion([0.0, 0.0], [4.0, 4.0])
    cv = build_cover(dom, 1.0)
    assert volume_estimate(cv) == pytest.approx(16.0)
    fine = refine_cover(cv, 0.5)  # parents stay active and overlap children
    assert volume_estimate(fine) <= dom.volume + 1e-9
    assert volume_estimate(fine) == pytest.approx(16.0)


def test_volume_empty_cover_is_zero():
    cv = build_cover(BoxRegion([0.0], [4.0]), 1.0)
    cv.deactivate(cv.active_indices())
    assert volume_estimate(cv) == 0.0


# ---------------------------------------------------------------------------
# boundary band
# ---------------------------------------------------------------------------


def test_band_keeps_the_shell_drops_the_core():
    band = boundary_band(BoxRegion([0.0, 0.0], [10.0, 10.0]), 1.5)
    assert band([0.5, 5.0])      # near a facet
    assert band([10.0, 10.0])    # on the corner
    assert not band([5.0, 5.0])  # deep interior
    assert not band([11.0, 5.0])  # outside entirely


def test_band_rejects_negative_width():
    with pytest.raises(ValueError):
        boundary_band(BoxRegion([0.0], [1.0]), -0.1)


# ---------------------------------------------------------------------------
# CSV round-trip
# ---------------------------------------------------------------------------


def test_cover_csv_round_trip(tmp_path):
    cv = build_cover(BoxRegion([0.0, 5.5], [4.0, 9.5]), 0.5)
    cv.deactivate([3, 7])
    path = tmp_path / "cells.csv"
    save_cover_csv(cv, path, flags=cv.active.astype(int))
    back, flags = load_cover_csv(path, domain=cv.domain)
    assert compare_grids(cv, back)
    np.testing.assert_array_equal(flags, cv.active)
    assert back.n_active() == cv.n_active()


def test_load_cover_rejects_foreign_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        load_cover_csv(p)


def test_compare_grids_notices_radius_and_center_drift():
    a = build_cover(BoxRegion([0.0], [4.0]), 1.0)
    b = build_cover(BoxRegion([0.0], [4.0]), 1.0)
    assert compare_grids(a, b)
    c = DeltaCover(a.centers + 1e-3, 1.0, a.domain)
    assert not compare_grids(a, c)
    d = DeltaCover(a.centers, 0.9, a.domain)
    assert not compare_grids(a, d)
