"""Hypothesis strategies shared by the geometry and oracle tests."""

import numpy as np
from hypothesis import strategies as st

from setquant.geometry import BoxRegion, build_cover, refine_cover


@st.composite
def scrambled_covers(draw):
    """A 1-4-D cover in any state the quantifiers leave one in.

    Bounds and radii are multiples of 1/4, so lattice centers, their
    midpoints and ``center +- radius`` are exact and the queries from
    ``query_points`` hit exact ties and exact distance-equals-radius cases.
    The cover may be refined, carries off-lattice appends (some outside the
    domain), deactivations, a reactivating duplicate append, and possibly a
    radius shrunk after the fact.
    """
    dim = draw(st.integers(1, 4))
    lo = np.asarray(draw(st.lists(st.integers(-20, 20), min_size=dim, max_size=dim))) / 4.0
    widths = np.asarray(draw(st.lists(st.integers(2, 16), min_size=dim, max_size=dim))) / 4.0
    box = BoxRegion(lo, lo + widths)
    cover = build_cover(box, draw(st.sampled_from([0.5, 0.75, 1.0, 1.5])))
    if draw(st.booleans()):
        cover = refine_cover(cover, 0.5)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for p in rng.uniform(box.lower - cover.radius, box.upper + cover.radius,
                         size=(draw(st.integers(0, 6)), dim)):
        cover.append(p)
    cover.deactivate(rng.choice(len(cover), size=len(cover) // 3, replace=False))
    dead = np.flatnonzero(~cover.active)
    if dead.size and draw(st.booleans()):
        assert cover.append(cover.centers[dead[0]].copy()) == dead[0]
        assert cover.active[dead[0]]
    if draw(st.booleans()):
        cover.radius *= draw(st.sampled_from([0.5, 0.75]))
    return cover, rng


def query_points(cover, rng, n: int = 40) -> np.ndarray:
    """Uniform points reaching past the domain, plus exact ties and distance-equals-radius points."""
    box, c = cover.domain, cover.centers
    pick = rng.integers(0, len(cover), size=(n, 2))
    axis = rng.integers(0, cover.dim, size=n)
    on_radius = c[pick[:, 0]].copy()
    on_radius[np.arange(n), axis] += cover.radius * rng.choice([-1.0, 1.0], size=n)
    return np.concatenate([
        rng.uniform(box.lower - 2.0, box.upper + 2.0, size=(n, cover.dim)),
        (c[pick[:, 0]] + c[pick[:, 1]]) / 2.0,
        on_radius,
    ])
