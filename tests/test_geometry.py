"""Covering lattice, refinement and volume accounting."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setquant.geometry import (
    KEY_DIGITS,
    MEMBER_TOL,
    BoxRegion,
    DeltaCover,
    boundary_band,
    build_cover,
    compare_grids,
    key_round,
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
    every = np.abs(pts[:, None, :] - cover.centers[None, :, :]).max(axis=2)  # dead centers too
    for p, row, all_row in zip(pts, d, every):
        k = int(np.argmin(row))  # first minimum: the lowest ordinal wins a tie
        assert nearest_center(cover, p) == (int(idx[k]), float(row[k]))
        k = int(np.argmin(all_row))
        assert cover.nearest(p, active_only=False) == (k, float(all_row[k]))


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
    index = cover._bucket_index(reach)
    h, origin, dim = index.h, index.origin, cover.dim
    for _ in range(data.draw(st.integers(1, 6))):
        c = rng.uniform(cover.domain.lower, cover.domain.upper)
        axes = rng.random(dim) < 0.5
        c[axes] = origin[axes] + h * rng.integers(-2, 8, size=int(axes.sum()))
        cover.append(c)
    index = cover._bucket_index(reach)
    assert index.h == h and np.array_equal(index.origin, origin)
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


def _reference_axis_centers(lo: float, hi: float, delta: float) -> list:
    """The scalar lattice of one axis that ``build_cover`` used to build."""
    width = hi - lo
    if width < 2.0 * delta:
        return [0.5 * (lo + hi)]
    out = []
    c = lo + delta
    while c <= hi - delta + MEMBER_TOL:
        out.append(c)
        c += 2.0 * delta
    if out[-1] < hi - delta - MEMBER_TOL:
        out.append(hi - delta)
    return out


def _reference_lattice(lo, hi, delta) -> np.ndarray:
    axes = [_reference_axis_centers(lo[i], hi[i], delta) for i in range(len(lo))]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def _reference_refine(cover, gamma, excluded=None, margin=0.0):
    """``refine_cover`` as the per-cell, per-child loop it replaced."""
    new_radius = gamma * cover.radius
    out = DeltaCover(cover.centers.copy(), new_radius, cover.domain, active=cover.active)
    excl = None
    if excluded is not None:
        excl = np.atleast_2d(np.asarray(excluded, dtype=float))
        if excl.size == 0:
            excl = None
    for i in cover.active_indices():
        cell_box = BoxRegion(cover.centers[int(i)] - cover.radius, cover.centers[int(i)] + cover.radius)
        lo = np.maximum(cell_box.lower, cover.domain.lower)
        hi = np.minimum(cell_box.upper, cover.domain.upper)
        for pt in _reference_lattice(lo, hi, new_radius):
            if excl is not None and np.abs(excl - pt).max(axis=1).min() <= margin:
                continue
            if tuple(round(float(x), KEY_DIGITS) for x in pt) in out._seen:
                continue
            out.append(pt)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.sampled_from([0.5, 0.3]), st.data())
def test_refine_cover_equals_the_per_cell_loop(dim, gamma, data):
    """Children, their order, the margin rule and the dedup against live and dead centers match the old loop."""
    lo = np.asarray(data.draw(st.lists(st.floats(-5, 5), min_size=dim, max_size=dim)))
    # narrow axes (one midpoint) down to a fraction of a child cell
    widths = np.asarray(data.draw(st.lists(st.floats(0.05, 2.5), min_size=dim, max_size=dim)))
    box = BoxRegion(lo, lo + widths)
    delta = data.draw(st.sampled_from([0.25, 0.3, 0.5, 0.7, 1.0]))
    cover = build_cover(box, delta)
    assert np.array_equal(cover.centers, _reference_lattice(box.lower, box.upper, delta))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # off-lattice centers near the faces, some outside: their cells are clipped at the domain
    # (and still reach into it after one refinement)
    reach = 0.5 * gamma * delta
    for p in rng.uniform(box.lower - reach, box.upper + reach, size=(data.draw(st.integers(0, 4)), dim)):
        cover.append(p)
    cover.deactivate(rng.choice(len(cover), size=len(cover) // 3, replace=False))
    live = cover.active_indices()
    margin = gamma * cover.radius
    ghost = None
    if live.size:
        c = cover.centers[live[0]]
        kids = _reference_lattice(np.maximum(c - cover.radius, box.lower), np.minimum(c + cover.radius, box.upper),
                                  gamma * cover.radius)
        ghost = cover.append(kids[-1])  # a dead center where a child would go
        cover.deactivate([ghost])
        # pruned points exactly the margin away from children, one step either side, and anywhere
        near = kids[rng.integers(0, len(kids), size=3)]
        near[:, 0] += np.array([margin, -margin, np.nextafter(margin, np.inf)])
        excluded = np.concatenate([near, rng.uniform(box.lower, box.upper, size=(2, dim))])
    else:
        excluded = rng.uniform(box.lower, box.upper, size=(2, dim))
    if data.draw(st.booleans()):
        excluded = None
    for _ in range(data.draw(st.integers(1, 2))):
        got = refine_cover(cover, gamma, excluded=excluded, margin=margin)
        want = _reference_refine(cover, gamma, excluded=excluded, margin=margin)
        assert got.radius == want.radius
        assert np.array_equal(got.centers, want.centers) and np.array_equal(got.active, want.active)
        assert got._seen == want._seen and list(got._seen.values()) == list(want._seen.values())
        if ghost is not None:
            assert not got.active[ghost]  # never reactivated
        cover = got


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


def csv_module_load(path, domain):
    """A cover file as the ``csv`` module reads it, one list per row, keyed as one tuple per row."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        dim_s, delta_s = next(r)
        dim = int(dim_s)
        rows = [rec for rec in r if rec]
    centers = np.array([[float(v) for v in rec[:dim]] for rec in rows]).reshape(-1, dim)
    flags = np.array([bool(int(rec[dim])) for rec in rows]) if rows and len(rows[0]) == dim + 1 else None
    seen = {}
    for i, row in enumerate(key_round(centers).tolist()):
        seen[tuple(row)] = i
    return centers, float(delta_s), flags, seen


@pytest.mark.parametrize("flagged", [True, False])
@pytest.mark.parametrize("line_end", ["\r\n", "\n"])
def test_load_cover_equals_the_csv_module_parse(tmp_path, flagged, line_end):
    # a refined 5-D lattice with off-lattice, repeated and tiny centers, across several parse chunks
    cv = refine_cover(build_cover(BoxRegion([0, 0, 0, 5, -25], [6, 6, 6, 25, -5]), 2.5), 0.5)
    rng = np.random.default_rng(11)
    for c in rng.uniform(cv.domain.lower, cv.domain.upper, size=(300, 5)):
        cv.append(c)
    cv.append([1e-12, -3.5e-7, 2.0 / 3.0, 5.0 + 1e-9, -5.0])
    cv.deactivate(rng.choice(len(cv), size=len(cv) // 3, replace=False))
    path = tmp_path / "cells.csv"
    save_cover_csv(cv, path, flags=cv.active.astype(int) if flagged else None)
    lines = path.read_text().split("\r\n")
    lines[5:5] = ["", ""]  # blank lines are no rows
    path.write_bytes(line_end.join(lines).encode())
    back, flags = load_cover_csv(path, domain=cv.domain)
    centers, delta, want_flags, seen = csv_module_load(path, cv.domain)
    assert len(back) == len(centers) > 4096
    assert back.centers.tobytes() == centers.tobytes() and back.radius == delta
    if flagged:
        np.testing.assert_array_equal(flags, want_flags)
        np.testing.assert_array_equal(back.active, cv.active)
    else:
        assert flags is None and want_flags is None and back.active.all()
    assert list(back._seen.items()) == list(seen.items())


@pytest.mark.parametrize("text,message", [
    ("dim,delta\n2,1\n1,2,1\n1,2\n", "fields"),
    ("dim,delta\n2,1\n1,2\n1,2,1\n", "fields"),
    ("dim,delta\n2,1\n1,2,1,0\n", "fields"),
    ("dim,delta\n2,1\n1,2,\n", "empty field or one that is not a number"),
    ("dim,delta\n2,1\n1,x\n", "empty field or one that is not a number"),
    ("dim,delta\n2,1\n1,inf\n", "not finite"),
    ("dim,delta\n2,1\n1,nan,1\n", "not finite"),
    ("dim,delta\n2,inf\n1,2\n", "finite delta > 0"),
    ("dim,delta\n2,0\n1,2\n", "finite delta > 0"),
    ("dim,delta\n0,1\n1\n", "dim >= 1"),
    ("dim,delta\n2,1\n1,2,0.5\n", "neither 0 nor 1"),
    ("dim,delta\n2,1\n1,2,nan\n", "neither 0 nor 1"),
])
def test_load_cover_rejects_a_malformed_body(tmp_path, text, message):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_cover_csv(p)


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


# ---------------------------------------------------------------------------
# the key rounding that identifies a center
# ---------------------------------------------------------------------------


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


# a few ulps around half-way points of the KEY_DIGITS-th decimal, large
# magnitudes, anything finite, and zeros of both signs
key_values = st.one_of(
    st.builds(lambda k, ulps: _nudge((k + 0.5) / 10.0 ** KEY_DIGITS, ulps),
              st.integers(-10**14, 10**14), st.integers(-4, 4)),
    st.builds(lambda k, ulps: _nudge(float(k) + 0.5 * 10.0 ** -KEY_DIGITS, ulps),
              st.integers(-10**5, 10**5), st.integers(-4, 4)),
    st.floats(min_value=1e8, max_value=1e300) | st.floats(min_value=-1e300, max_value=-1e8),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-11, -1e-11, 5e-11, -5e-11]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_key_round_is_pythons_round_bit_for_bit(dim, data):
    rows = data.draw(st.lists(st.lists(key_values, min_size=dim, max_size=dim), max_size=12))
    a = np.array(rows, dtype=float).reshape(-1, dim)
    want = np.array([[round(float(x), KEY_DIGITS) for x in row] for row in a], dtype=float).reshape(a.shape)
    assert np.array_equal(key_round(a).view(np.int64), want.view(np.int64))


def test_key_round_keeps_the_sign_of_zero():
    a = np.array([[0.0, -0.0], [-0.0, 0.0], [-1e-12, 1e-12], [0.0, -0.0]])
    got = key_round(a)
    assert np.array_equal(np.signbit(got), [[False, True], [True, False], [True, False], [False, True]])
    assert not got.any()


def test_cover_keys_merge_zeros_and_the_last_duplicate_ordinal_wins():
    cv = DeltaCover([[0.0, 1.0], [-0.0, 1.0 + 1e-12], [2.0, 2.0]], 0.5, BoxRegion([-1.0, 0.0], [3.0, 3.0]))
    assert cv._seen == {(0.0, 1.0): 1, (2.0, 2.0): 2}
    cv.deactivate([1])
    assert cv.append([-1e-12, 1.0]) == 1 and cv.active[1]
