"""Brute-force ground truth and set comparison."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import scrambled_covers

from setquant import oracle
from setquant.geometry import BoxRegion, DeltaCover, build_cover, refine_cover
from setquant.oracle import _nearest_all, brute_force_invariant, compare_sets, project_to_grid
from setquant.scenario import (
    default_action_samples,
    make_lead_follow,
    make_three_vehicle,
    make_toy_flip,
    make_toy_shift,
    make_toy_shrink,
    make_toy_threshold,
    make_toy_two_basins,
    step_batch,
)


# hand-derived fixed points on the 1-D toys (lattice arithmetic in the margins:
# [0,10] at delta .5 has centers .5..9.5, the sub-threshold one dies; [-10,10]
# loses exactly the two catapult cells; the shift map erodes everything)
@pytest.mark.parametrize(
    "factory,delta,alive,total,sweeps",
    [
        (make_toy_threshold, 0.5, 9, 10, 2),
        (make_toy_two_basins, 0.5, 18, 20, 2),
        (make_toy_shift, 0.5, 0, 3, 4),
        (make_toy_shrink, 0.25, 4, 4, 1),
        (make_toy_flip, 0.25, 4, 4, 1),
    ],
)
def test_toy_fixed_points(factory, delta, alive, total, sweeps):
    o = brute_force_invariant(factory(), delta, horizon=1)
    assert o.converged
    assert (o.count(), len(o.grid), o.sweeps) == (alive, total, sweeps)


def test_two_basins_oracle_keeps_both_sides():
    o = brute_force_invariant(make_toy_two_basins(), 0.5, horizon=1)
    cs = o.grid.centers[o.mask][:, 0]
    assert (cs < 0).sum() == 9 and (cs > 0).sum() == 9
    assert np.all(np.abs(cs) >= 1.0)


def test_disturbance_extremes_erode_the_threshold_edge():
    # with omega=0.25 and horizon 1 the constant-extreme push stays inside one
    # cell, so the alive set matches the undisturbed one on the same lattice
    o = brute_force_invariant(make_toy_threshold(omega_bar=0.25), 0.3, horizon=1)
    assert o.count() == 15 and len(o.grid) == 17
    assert o.grid.centers[o.mask].min() == pytest.approx(1.5)


def test_lead_follow_oracle_regression():
    # adversarial constant braking, long horizon, coarse lattice; value frozen
    # from the first verified run (218 of 224 cells survive)
    lf = make_lead_follow(sv="brake")
    o = brute_force_invariant(lf, 2.0, action_samples=[np.array([-5.0])], horizon=60)
    assert o.converged and o.sweeps == 2
    assert (o.count(), len(o.grid)) == (218, 224)
    assert o.volume() == pytest.approx(13952.0)


def test_project_to_grid_membership_semantics():
    grid = build_cover(BoxRegion([0.0], [10.0]), 0.5)
    cover = DeltaCover(np.array([[2.0], [2.4]]), 0.3, BoxRegion([0.0], [10.0]))
    proj = project_to_grid(cover, grid)
    hit = grid.centers[proj.mask][:, 0]
    # grid centers within 0.3 of {2.0, 2.4}: 1.5 is 0.5 away and misses
    assert hit.tolist() == [2.5]


@given(scrambled_covers(), st.sampled_from([0.25, 0.5, 1.0]), st.sampled_from([1e-9, 0.3]))
@settings(max_examples=60, deadline=None)
def test_indexed_oracle_queries_equal_the_brute_force_scan(case, grid_delta, tol):
    cover, _ = case
    grid = build_cover(cover.domain, grid_delta)
    act = cover.active_centers()
    d = np.abs(grid.centers[:, None, :] - act[None, :, :]).max(axis=2).min(axis=1, initial=np.inf)
    np.testing.assert_array_equal(project_to_grid(cover, grid, tol=tol).mask, d <= cover.radius + tol)


def argmin_cell(grid, pts):
    """The brute-force snap: the nearest of every cell in the sup norm, the first (lowest) ordinal on ties."""
    return np.abs(pts[:, None, :] - grid.centers[None, :, :]).max(axis=2).argmin(axis=1)


@st.composite
def lattices(draw):
    """A 1-3-D ``build_cover`` lattice on a custom domain, with narrow axes and clamped trailing cells.

    Widths are multiples of 1/4 from below one cell to many, and some radii
    are not dyadic, so ``x - D`` rounds in the snap's search.
    """
    dim = draw(st.integers(1, 3))
    lo = np.asarray(draw(st.lists(st.integers(-400, 400), min_size=dim, max_size=dim))) / 4.0
    widths = np.asarray(draw(st.lists(st.integers(1, 30), min_size=dim, max_size=dim))) / 4.0
    return build_cover(BoxRegion(lo, lo + widths), draw(st.sampled_from([0.25, 0.5, 0.7, 1.0, 1.25, 0.3])))


@given(lattices(), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_lattice_snap_equals_the_brute_force_argmin(grid, seed):
    """Points anywhere, on exact ties between cells, on a cell's radius and far outside."""
    rng = np.random.default_rng(seed)
    c, r, dim = grid.centers, grid.radius, grid.dim
    pick = c[rng.integers(0, len(grid), size=(60, 2))]
    pts = np.concatenate([
        rng.uniform(grid.domain.lower - 3.0, grid.domain.upper + 3.0, size=(60, dim)),
        pick[:, 0] + r * rng.integers(-1, 2, size=(60, dim)),  # moved by 0 or +-radius per axis
        (pick[:, 0] + pick[:, 1]) / 2.0,
        pick[:, 0] + rng.choice([-1.0, 1.0], size=(60, dim)) * rng.choice([1e6, 1e12, r + 3.0], size=(60, 1)),
    ])
    np.testing.assert_array_equal(_nearest_all(grid, pts), argmin_cell(grid, pts))


def test_lattice_snap_refuses_a_cover_that_is_not_one_lattice():
    grid = build_cover(BoxRegion([0.0, 0.0], [4.0, 3.0]), 0.5)
    with pytest.raises(ValueError, match="not one build_cover lattice"):
        _nearest_all(refine_cover(grid, 0.5), [[1.0, 1.0]])
    grid.append([0.7, 0.7])
    with pytest.raises(ValueError, match="not one build_cover lattice"):
        _nearest_all(grid, [[1.0, 1.0]])


def test_project_empty_cover_is_empty():
    grid = build_cover(BoxRegion([0.0], [10.0]), 0.5)
    cover = DeltaCover(np.empty((0, 1)), 0.3, BoxRegion([0.0], [10.0]))
    assert project_to_grid(cover, grid).mask.sum() == 0


def test_compare_sets_self_and_complement():
    o = brute_force_invariant(make_toy_two_basins(), 0.5, horizon=1)
    m = compare_sets(o, o)
    assert m["jaccard"] == 1.0
    assert m["sym_diff"] == 0.0
    assert m["a_volume"] == m["b_volume"] == pytest.approx(o.volume())


def test_compare_sets_volume_arithmetic():
    grid = build_cover(BoxRegion([0.0], [10.0]), 0.5)
    from setquant.oracle import OracleSet

    a_mask = np.zeros(len(grid), dtype=bool)
    b_mask = np.zeros(len(grid), dtype=bool)
    a_mask[:4] = True          # cells at .5 1.5 2.5 3.5
    b_mask[2:6] = True         # cells at 2.5 3.5 4.5 5.5
    a, b = OracleSet(grid, a_mask, True, 0), OracleSet(grid, b_mask, True, 0)
    m = compare_sets(a, b)
    assert m["a_count"] == 4 and m["b_count"] == 4
    assert m["intersection"] == pytest.approx(2.0)
    assert m["union"] == pytest.approx(6.0)
    assert m["a_minus_b"] == m["b_minus_a"] == pytest.approx(2.0)
    assert m["sym_diff"] == pytest.approx(4.0)
    assert m["jaccard"] == pytest.approx(2.0 / 6.0)


def test_compare_sets_refuses_mismatched_lattices():
    g1 = build_cover(BoxRegion([0.0], [10.0]), 0.5)
    g2 = build_cover(BoxRegion([0.0], [10.0]), 1.0)
    from setquant.oracle import OracleSet

    a = OracleSet(g1, np.ones(len(g1), dtype=bool), True, 0)
    b = OracleSet(g2, np.ones(len(g2), dtype=bool), True, 0)
    with pytest.raises(ValueError):
        compare_sets(a, b)


def test_oracle_flags_non_convergence_when_starved_of_sweeps():
    o = brute_force_invariant(make_toy_shift(), 0.5, horizon=1, max_sweeps=1)
    assert not o.converged
    assert o.count() > 0  # erosion takes several sweeps; one is not enough


# ---------------------------------------------------------------------------
# the held-input roller against the per-step loop it replaced
# ---------------------------------------------------------------------------


def _reference_final_cells(sys_, grid, pairs, horizon, rows):
    """``_final_cells`` as one ``step_batch`` call per step, plus the step at which each rollout went unsafe."""
    m, p = len(grid), len(pairs)
    dest = np.zeros((m, p), dtype=np.int64)
    doomed = np.zeros(m, dtype=bool)
    u = np.array([np.atleast_1d(np.asarray(a, dtype=float)) for a, _ in pairs])
    w = np.array([np.asarray(o, dtype=float) for _, o in pairs]).reshape(p, -1)
    per = max(1, rows // p)
    steps = set()
    for lo in range(0, m, per):
        x = np.repeat(grid.centers[lo:lo + per], p, axis=0)
        cells = x.shape[0] // p
        uu, ww = np.tile(u, (cells, 1)), np.tile(w, (cells, 1))
        unsafe = np.zeros(x.shape[0], dtype=bool)
        for t in range(horizon):
            live = np.flatnonzero(~unsafe)
            x[live], code = step_batch(sys_, x[live], uu[live], ww[live])
            unsafe[live] = code >= 0
            if (code >= 0).any():
                steps.add(t)
        safe = np.flatnonzero(~unsafe)
        flat = np.zeros(x.shape[0], dtype=np.int64)
        flat[safe] = argmin_cell(grid, x[safe])
        dest[lo:lo + cells] = flat.reshape(cells, p)
        doomed[lo:lo + cells] = unsafe.reshape(cells, p).any(axis=1)
    return dest, doomed, steps


@pytest.mark.parametrize("factory,delta,horizon", [
    (lambda: make_lead_follow(sv="brake"), 2.0, 60),
    (lambda: make_lead_follow(sv="idm", omega_bar=0.3), 2.0, 1),
    (lambda: make_three_vehicle(sv="idm", omega_bar=0.2), 2.5, 30),
    (lambda: make_three_vehicle(sv="brake"), 2.5, 1),
    (lambda: make_toy_two_basins(omega_bar=0.1), 0.5, 60),
    (lambda: make_toy_threshold(omega_bar=0.25), 0.3, 1),
])
def test_final_cells_equal_the_per_step_loop(monkeypatch, factory, delta, horizon):
    sys_ = factory()
    grid = build_cover(sys_.state_box, delta)
    w = sys_.omega_bar
    noise = [(-w,) * sys_.disturbance_dim, (0.0,) * sys_.disturbance_dim, (w,) * sys_.disturbance_dim] if w \
        else [sys_.zero_disturbance()]
    pairs = [(u, o) for u in default_action_samples(sys_.action_box) for o in noise]
    rows = 3 * len(pairs)  # several chunks, the last one short
    assert len(grid) * len(pairs) > 2 * rows and len(grid) % 3
    monkeypatch.setattr(oracle, "_ROLLOUT_ROWS", rows)
    dest, doomed = oracle._final_cells(sys_, grid, pairs, horizon)
    want_dest, want_doomed, steps = _reference_final_cells(sys_, grid, pairs, horizon, rows)
    assert np.array_equal(dest, want_dest) and np.array_equal(doomed, want_doomed)
    if horizon > 1:
        assert len(steps) > 1  # rollouts go unsafe at different steps
