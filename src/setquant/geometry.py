"""Axis-aligned boxes, delta-covers and the distance predicates built on them.

Everything here is plain Euclidean geometry under the sup norm: boxes with
signed distances, regular center lattices whose closed infinity-norm balls
cover a box, and the bookkeeping needed to shrink such a cover in place
(refinement keeps every old center at its old ordinal so external structures
indexed by ordinal survive a resolution change).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoxRegion",
    "DeltaCover",
    "signed_distance",
    "build_cover",
    "LatticeSizeError",
    "refine_cover",
    "boundary_band",
    "BandPredicate",
    "volume_estimate",
    "save_cover_csv",
    "load_cover_csv",
    "key_round",
    "scan_distances",
]

# Slack of a membership test: a point within ``radius + MEMBER_TOL`` of a live
# center lies in a cover, and one within MEMBER_TOL of a box in the box.
MEMBER_TOL = 1e-12
# Slack of the domain check: ``step`` refuses a state farther than this outside the state box.
DOMAIN_TOL = 1e-9
# Radii and centers closer than this describe the same lattice.
LATTICE_TOL = 1e-9
# Decimals of the rounded coordinates that identify a center (dedup keys, slice groups).
KEY_DIGITS = 10
# The most bytes that one array sized by the config may take, checked before
# anything is allocated: a lattice's centers here; in ``config``, one
# sample's K steps of state, action and disturbance floats, and the
# n(epsilon, beta) start draws of the algorithms that draw them all at once.
_SIZE_CAP = 2**30


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box given by per-dimension lower/upper bounds; ``widths`` is ``upper - lower``."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or hi.shape != lo.shape:
            raise ValueError("bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise ValueError("each lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "widths", hi - lo)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    def contains(self, point, tol: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """A point uniform over the box, or ``size`` of them as (size, n) rows.

        ``lower + widths * rng.random(...)`` is how numpy's ``uniform(lower, upper)``
        computes its doubles, so the points and the stream state are those of
        one ``uniform`` call per point.
        """
        return self.lower + self.widths * rng.random(self.dim if size is None else (size, self.dim))

    def outside(self, points: np.ndarray) -> np.ndarray:
        """Per row of (B, n) ``points``, whether it lies farther than ``MEMBER_TOL`` outside the box."""
        return ~(np.all(points >= self.lower - MEMBER_TOL, axis=1) & np.all(points <= self.upper + MEMBER_TOL, axis=1))


def signed_distance(point, box: BoxRegion) -> float:
    """Sup-norm signed distance from ``point`` to the boundary of ``box``.

    Negative strictly inside, zero on the boundary, positive outside.  For an
    outside point this is the usual infinity-norm distance to the box; for an
    inside point it is minus the distance to the nearest facet.
    """
    p = np.asarray(point, dtype=float)
    below = box.lower - p
    above = p - box.upper
    outside = np.maximum(np.maximum(below, above), 0.0)
    if np.any(outside > 0.0):
        return float(outside.max())
    # inside: distance to the closest facet along any axis
    slack = np.minimum(p - box.lower, box.upper - p)
    return float(-slack.min())


class LatticeSizeError(ValueError):
    """A lattice with more centers than an array can hold, or than fit the size cap."""


def _lattices(lo: np.ndarray, hi: np.ndarray, delta: float) -> np.ndarray:
    """The ``build_cover`` centers of every box ``[lo[i], hi[i]]``, box after box, as one array.

    Per box and axis the centers run ``lo + delta``, then ``+= 2*delta`` in
    sequence (``np.add.accumulate`` adds in order) while they stay within
    ``hi - delta``; a trailing partial cell gets a center clamped inward to
    ``hi - delta`` so its ball still reaches the upper bound without the
    lattice overshooting it, and an axis narrower than one full cell gets a
    single midpoint.  A box's centers are the product of its axes, the last
    axis varying fastest.

    Raises ``LatticeSizeError`` before allocating an array whose bytes ``np.intp``
    cannot count, or one whose floats take more than ``_SIZE_CAP`` bytes: an
    axis's coordinate runs, or the centers.
    """
    k, n = lo.shape
    two = 2.0 * delta
    limit = np.iinfo(np.intp).max / 8.0  # float64 elements an array can hold
    axes, counts = [], np.empty((k, n), dtype=np.int64)
    rows = np.arange(k)
    for a in range(n):
        low, high = lo[:, a], hi[:, a]
        narrow = high - low < two
        # at most width // two + 1 centers fit, so the last column never does
        steps = float(np.max((high - low) // two, initial=0.0)) + 2.0
        if not k * steps < limit:
            raise LatticeSizeError(f"a lattice at delta {delta!r} needs about {steps:.3g} centers "
                                   f"along axis {a}, more than an array can hold")
        if k * steps * 8 > _SIZE_CAP:  # the axis's coordinate runs, before they are allocated
            raise LatticeSizeError(f"a lattice at delta {delta!r} needs about {steps:.3g} centers "
                                   f"along axis {a}: more than the {_SIZE_CAP}-byte size cap")
        steps = int(steps)
        with np.errstate(over="ignore"):  # past the float range only in the last column, which never fits
            run = np.add.accumulate(np.column_stack([low + delta, np.full((k, steps - 1), two)]), axis=1)
        fit = (run <= (high - delta + MEMBER_TOL)[:, None]).sum(axis=1)
        trail = ~narrow & (run[rows, fit - 1] < high - delta - MEMBER_TOL)
        run[rows[trail], fit[trail]] = (high - delta)[trail]
        run[narrow, 0] = 0.5 * (low + high)[narrow]
        axes.append(run)
        counts[:, a] = np.where(narrow, 1, fit + trail)
    size = np.prod(counts, axis=1, dtype=float).sum()
    if not size * n < limit:
        raise LatticeSizeError(f"a lattice at delta {delta!r} has {size:.3g} centers, more than an array can hold")
    if size * n * 8 > _SIZE_CAP:
        raise LatticeSizeError(f"a lattice at delta {delta!r} has {size:.3g} centers of {n} floats: "
                               f"more than the {_SIZE_CAP}-byte size cap")
    total = counts.prod(axis=1)
    owner = np.repeat(rows, total)
    t = np.arange(owner.size) - np.repeat(np.cumsum(total) - total, total)
    out = np.empty((owner.size, n))
    for a in reversed(range(n)):
        c = counts[owner, a]
        out[:, a] = axes[a][owner, t % c]
        t //= c
    return out


def _per_distinct(fn, values, dtype) -> np.ndarray:
    """``fn`` of every entry of a float array, called once per distinct bit pattern.

    Bit patterns, not values, so -0.0 and 0.0 stay apart: Python's ``round``
    and ``_fmt`` keep the sign of a zero.
    """
    a = np.ascontiguousarray(values, dtype=float)
    bits = a.view(np.int64).ravel()
    order = np.argsort(bits, kind="stable")
    ranked = bits[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    inv = np.empty(ranked.size, dtype=np.int64)
    inv[order] = np.cumsum(first) - 1
    return np.array([fn(x) for x in ranked[first].view(float).tolist()], dtype=dtype)[inv].reshape(a.shape)


def _distinct(values) -> np.ndarray:
    """The distinct values of a 1-D array, ascending: ``np.unique`` by a stable sort and a mask.

    ``np.unique`` asks ``np.ma`` whether its input is masked, which imports
    ``numpy.ma`` (tens of milliseconds and about a megabyte in a fresh
    process); its default sort also touches sort code that nothing else in a
    run uses.
    """
    a = np.sort(values, kind="stable")
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _round_key(x: float) -> float:
    """The coordinate that identifies a center: ``x`` rounded to ``KEY_DIGITS`` decimals by Python's ``round``."""
    return round(x, KEY_DIGITS)


def key_round(points) -> np.ndarray:
    """``_round_key`` of every entry, bit for bit: ``round(float(x), KEY_DIGITS)``.

    Dedup keys and slice groups are these rounded coordinates.  ``np.round``
    is no substitute: it scales by a power of ten and rounds differently near
    half-way values, so Python's correctly rounded ``round`` runs once per
    distinct value instead.
    """
    return _per_distinct(_round_key, points, float)


def _center_keys(points) -> list:
    """The dedup key of each row of (m, n) ``points``: its ``key_round`` coordinates as a tuple.

    The tuples share one float object per distinct coordinate, so the keys
    of a lattice cost little more than their tuples.
    """
    return list(zip(*_per_distinct(_round_key, points, object).T))


# Reach slack of the bucket index on top of the cover radius: the largest
# tolerance any membership test adds (``project_to_grid``'s default), so a
# point within radius + tolerance of a live center is always answered from
# its neighbouring buckets alone.
_INDEX_TOL = LATTICE_TOL
# Relative widening of a query's reach, past the rounding of a computed
# distance that is <= reach.  Bucket widths exceed twice the widened reach.
_WIDEN = 1e-9
# Point-center differences per chunk of a brute-force scan (``scan_distances``).
_SCAN_CHUNK = 1 << 20
# Bucket probes per chunk of ``DeltaCover.outside``: as many rows in the
# own-bucket pass, ``_QUERY_ROWS >> n`` (at least one) in the neighbour pass,
# which probes up to ``2**n`` buckets a row: 4096 states, then 512 in 3-D.
# A chunk's index temporaries, about 100 bytes a probe, stay near 0.4 MB,
# cache-sized; the validation blocks and ``qnt-dp`` on lead-follow ran as
# fast at 2**12 as at 2**13 or 2**14, and slower at 2**11.
_QUERY_ROWS = 1 << 12
# Centers keyed per chunk when a cover builds its dedup map.
_KEY_ROWS = 1 << 12


def _bucket_width(reach: float) -> float:
    """The bucket width of an index that answers queries of ``reach``: a hair over twice the widened reach."""
    return 2.0 * reach * (1.0 + 2.0 * _WIDEN)


class _BucketIndex:
    """Uniform sup-norm bucket grid over the first ``n`` centers of a cover, as a dense slot table.

    Center ``c`` lies in bucket ``floor((c - origin) / h)``, whose row-major
    number ``flat`` (over the grid spanned by the centers) maps to slot
    ``flat % m``, where ``m`` is the number of buckets in that grid or
    ``8 * n + 1``, whichever is smaller.  ``order`` lists the ordinals sorted
    by slot (ascending within a slot) and ``starts`` (length ``m + 1``) where
    each slot begins in ``order``, so a lookup is two gathers.  A query
    visits every bucket that the sup-norm ball of the widened reach around a
    point touches.  The cover keeps ``h > 2 * reach * (1 + _WIDEN)``, so that
    is one bucket or two per axis: the point's base bucket and, on the axes
    whose bit is set in the point's mask, the next one.  Candidates that lie
    beyond the reach, and those of distinct buckets that share a slot (on a
    sparse grid, or where the row-major number wrapped in int64), only
    lengthen the candidate list; every center within reach of a point is
    therefore a candidate.
    """

    def __init__(self, centers: np.ndarray, origin: np.ndarray, h: float):
        self.n, self.origin, self.h = centers.shape[0], origin, h
        cell = np.floor((centers - origin) / h)
        self.kmin, self.kmax = cell.min(axis=0), cell.max(axis=0)
        extent = (self.kmax - self.kmin + 1).astype(np.int64)
        self.strides = np.append(np.cumprod(extent[:0:-1])[::-1], 1)
        self.m = min(math.prod(extent.tolist()), 8 * self.n + 1)
        slot = (cell - self.kmin).astype(np.int64) @ self.strides % self.m
        self.order = np.argsort(slot, kind="stable")
        self.starts = np.zeros(self.m + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot, minlength=self.m), out=self.starts[1:])
        # bit a of subset k: axis a takes its second bucket; shifts[k] is the bucket-number offset
        self.subsets = np.arange(1 << centers.shape[1])
        self.shifts = ((self.subsets[:, None] >> np.arange(centers.shape[1])) & 1) @ self.strides

    def _members(self, rows: np.ndarray, flat: np.ndarray):
        """(row, ordinal) of every center in the slot of bucket number ``flat[i]``, for row ``rows[i]``."""
        slot = flat % self.m
        start = self.starts[slot]
        count = self.starts[slot + 1] - start
        pos = np.arange(int(count.sum())) + np.repeat(start - (np.cumsum(count) - count), count)
        return np.repeat(rows, count), self.order[pos]

    def own_bucket(self, pts: np.ndarray):
        """(row, ordinal) of every center in the bucket that holds a row of ``pts``, grouped by row."""
        flat = np.zeros(pts.shape[0], dtype=np.int64)
        ok = np.ones(pts.shape[0], dtype=bool)
        for a in range(pts.shape[1]):
            k = np.floor((pts[:, a] - self.origin[a]) / self.h)
            inside = (k >= self.kmin[a]) & (k <= self.kmax[a])  # false for NaN too
            ok &= inside
            flat += np.where(inside, k - self.kmin[a], 0.0).astype(np.int64) * self.strides[a]
        rows = np.flatnonzero(ok)
        return self._members(rows, flat[rows])

    def candidates(self, pts: np.ndarray, reach: float):
        """(row, ordinal) of every center in a bucket within reach of a row of ``pts``, grouped by row."""
        half = reach * (1.0 + _WIDEN) / self.h
        base = np.zeros(pts.shape[0], dtype=np.int64)
        mask = np.zeros(pts.shape[0], dtype=np.int64)
        ok = np.ones(pts.shape[0], dtype=bool)
        for a in range(pts.shape[1]):
            q = (pts[:, a] - self.origin[a]) / self.h
            lo = np.maximum(np.floor(q - half), self.kmin[a])
            hi = np.minimum(np.floor(q + half), self.kmax[a])
            ok &= hi >= lo  # false for a non-finite coordinate too
            base += np.where(ok, lo - self.kmin[a], 0.0).astype(np.int64) * self.strides[a]
            mask |= (hi > lo) << a
        rows = np.flatnonzero(ok)
        row, k = np.nonzero((self.subsets & ~mask[rows, None]) == 0)
        return self._members(rows[row], base[rows[row]] + self.shifts[k])


def _sup_gaps(centers: np.ndarray, cand: np.ndarray, pts: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Sup-norm distance between ``centers[cand[i]]`` and ``pts[row[i]]`` per pair, one axis at a time."""
    d = np.abs(np.take(centers[:, 0], cand) - np.take(pts[:, 0], row))
    for a in range(1, centers.shape[1]):
        np.maximum(d, np.abs(np.take(centers[:, a], cand) - np.take(pts[:, a], row)), out=d)
    return d


def scan_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Min sup-norm distance from each row of ``points`` to the rows of non-empty ``centers``, by a full scan.

    Rows go through in chunks of at most ``_SCAN_CHUNK`` point-center
    differences, so transient memory stays bounded whatever their number.
    """
    out = np.empty(points.shape[0])
    rows = max(1, _SCAN_CHUNK // centers.size)
    for i in range(0, points.shape[0], rows):
        chunk = points[i:i + rows]
        d = np.abs(chunk[:, None, 0] - centers[None, :, 0])
        for a in range(1, centers.shape[1]):  # one axis at a time: a max over a short last axis is slow
            np.maximum(d, np.abs(chunk[:, None, a] - centers[None, :, a]), out=d)
        out[i:i + rows] = d.min(axis=1)
    return out


def _lattice_anchor(centers: np.ndarray, pitch: float) -> np.ndarray:
    """Per axis, the first coordinate of the most common lattice of pitch ``pitch`` among the non-empty ``centers``.

    Each coordinate falls in one of eight classes by its offset from the
    first center in eighths of the pitch, rounded; a refined cover's
    children outnumber the coarser lattices kept beside them, which sit in
    other classes, and off-lattice centers spread over all eight.
    """
    eighths = np.rint((centers - centers[0]) * (8.0 / pitch if pitch > 0.0 else 0.0))
    cls = np.where(np.isfinite(eighths), eighths % 8, 0).astype(np.int64)
    anchor = np.empty(centers.shape[1])
    for a in range(centers.shape[1]):
        first = np.flatnonzero(cls[:, a] == np.bincount(cls[:, a], minlength=8).argmax())[0]
        anchor[a] = centers[first, a]
    return anchor


class DeltaCover:
    """A finite set of centers whose closed ``radius``-balls cover a region.

    Centers are held in append-only ordinal order with an activity mask;
    deactivation never renumbers, so reach graphs and replay buffers that
    store ordinals stay valid across pruning and refinement.

    Storage is one growable center buffer (capacity doubles, so appends are
    amortised O(1)) with the activity mask beside it, plus the dedup map from
    a center's ``key_round`` coordinates to its ordinal (the last one, when
    the initial centers repeat a key) that makes a repeated append return,
    and reactivate, the existing ordinal.  Membership (``outside``) goes
    through a sup-norm bucket index (``_BucketIndex``) with bucket width a
    hair over ``2 * (radius + _INDEX_TOL)``, rebuilt lazily once centers were
    appended: a point is compared only with the centers of the buckets its
    reach touches, one or two per axis.  The grid is anchored once per cover,
    when it is first built, at the most common lattice of its centers
    (``_lattice_anchor``), which sits mid-bucket: one of its centers lies in
    each bucket, and a point within the radius of one shares its bucket.
    """

    def __init__(self, centers, radius: float, domain: BoxRegion, active=None):
        arr = np.asarray(centers, dtype=float)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError("centers must be an (m, n) array")
        self.radius = float(radius)
        self.domain = domain
        self._n = arr.shape[0]
        self._buf = arr.copy() if arr.size else arr.reshape(0, domain.dim)
        if active is None:
            self._act = np.ones(self._n, dtype=bool)
        else:
            self._act = np.asarray(active, dtype=bool).copy()
        self._seen = {}
        for lo in range(0, self._n, _KEY_ROWS):
            self._seen.update(zip(_center_keys(self._buf[lo:lo + _KEY_ROWS]), range(lo, self._n)))
        self._anchor = None
        self._index = None

    # -- basic accessors -------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def centers(self) -> np.ndarray:
        """All centers ever added, ordinal order, shape (m, n)."""
        return self._buf[:self._n]

    @property
    def active(self) -> np.ndarray:
        """Activity flag per ordinal (a writable view)."""
        return self._act[:self._n]

    def active_indices(self) -> np.ndarray:
        return np.flatnonzero(self.active)

    def active_centers(self) -> np.ndarray:
        return self.centers[self.active]

    def n_active(self) -> int:
        return int(self.active.sum())

    # -- mutation ---------------------------------------------------------

    def append(self, point) -> int:
        """Add a new active center; returns its ordinal (existing ordinal if duplicate).

        A duplicate of a deactivated center reactivates it — that is exactly
        the hole-refilling move the discovery rule relies on.
        """
        pt = np.asarray(point, dtype=float)
        key = tuple(map(_round_key, pt.tolist()))
        if key in self._seen:
            i = self._seen[key]
            self.active[i] = True
            return i
        i = self._n
        if i == self._buf.shape[0]:
            grown = max(16, 2 * i)
            self._buf = np.concatenate([self._buf, np.empty((grown - i, self.dim))])
            self._act = np.concatenate([self._act, np.zeros(grown - i, dtype=bool)])
        self._buf[i] = pt
        self._act[i] = True
        self._seen[key] = i
        self._n = i + 1
        return i

    def deactivate(self, ordinals) -> None:
        self.active[np.asarray(ordinals, dtype=int)] = False

    # -- queries ----------------------------------------------------------

    def _bucket_index(self, reach: float) -> _BucketIndex:
        """The bucket index over every center, rebuilt when one was appended or ``reach`` outgrew it."""
        idx = self._index
        if idx is None or idx.n != self._n or idx.h <= 2.0 * reach * (1.0 + _WIDEN):
            h = _bucket_width(max(reach, self.radius + _INDEX_TOL))
            if self._anchor is None:
                self._anchor = _lattice_anchor(self.centers, 2.0 * self.radius)
            idx = self._index = _BucketIndex(self.centers, self._anchor - 0.5 * h, h)
        return idx

    def outside(self, points, tol: float = MEMBER_TOL) -> np.ndarray:
        """Per row of ``points``, whether no live center lies within ``radius + tol`` of it.

        A first pass compares each row with the live centers of its own
        bucket's slot, a second one the rows still undecided with those of
        every bucket within reach.  A row is inside as soon as one computed
        sup-norm gap is at most the limit; no minimum is taken.  Rows go
        through in chunks of at most ``_QUERY_ROWS`` bucket probes, so
        transient memory stays bounded whatever their number.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        reach = self.radius + tol
        out = np.ones(pts.shape[0], dtype=bool)
        if self._n == 0:
            return out
        index = self._bucket_index(reach)
        rows = None  # the first pass slices ``pts``; the second gathers the undecided rows
        for near, step in ((index.own_bucket, _QUERY_ROWS),
                           (lambda chunk: index.candidates(chunk, reach), max(1, _QUERY_ROWS >> pts.shape[1]))):
            sub = pts if rows is None else pts[rows]
            for lo in range(0, sub.shape[0], step):
                chunk = sub[lo:lo + step]
                row, cand = near(chunk)
                live = self.active[cand]
                row, cand = row[live], cand[live]
                hit = lo + row[_sup_gaps(self.centers, cand, chunk, row) <= reach]
                out[hit if rows is None else rows[hit]] = False
            rows = np.flatnonzero(out)
        return out

    def batch_distances(self, points) -> np.ndarray:
        """Min sup-norm distance from each row of ``points`` to the live centers, by a full scan.

        Raises ``ValueError`` when no center is live.
        """
        live = self.active_centers()
        if live.shape[0] == 0:
            raise ValueError("cover has no active centers")
        return scan_distances(np.atleast_2d(np.asarray(points, dtype=float)), live)


def build_cover(region: BoxRegion, delta: float) -> DeltaCover:
    """Regular lattice cover of ``region`` with cell half-width ``delta``.

    Pitch is ``2*delta`` starting at ``lower + delta``; a trailing partial row
    per axis is clamped inward to ``upper - delta``.  An axis narrower than one
    full cell gets a single midpoint center (its ball may overhang the region;
    volume accounting clips the overhang).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return DeltaCover(_lattices(region.lower[None], region.upper[None], delta), delta, region)


def refine_cover(cover: DeltaCover, gamma: float, excluded=None, margin: float = 0.0) -> DeltaCover:
    """Shrink a cover's resolution by ``gamma``, preserving old ordinals.

    Every old center keeps its ordinal and activity flag.  Each *active* cell
    is re-covered by a child lattice at radius ``gamma * radius`` (clipped to
    the domain); children within ``margin`` of any point in ``excluded`` are
    dropped, as are exact duplicates of existing centers, live or dead (which
    stay as they are), and of earlier children.  The rest are appended active,
    cell by cell in ordinal order.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    new_radius = gamma * cover.radius
    act = cover.active_centers()
    lo = np.maximum(act - cover.radius, cover.domain.lower)
    hi = np.minimum(act + cover.radius, cover.domain.upper)
    if not np.all(lo < hi):
        raise ValueError("an active cell does not reach into the domain")
    children = _lattices(lo, hi, new_radius)
    if excluded is not None and np.size(excluded):
        excl = np.atleast_2d(np.asarray(excluded, dtype=float))
        children = children[~(scan_distances(children, excl) <= margin)]
    fresh: dict = {}  # key -> first child with it
    for i, key in enumerate(_center_keys(children)):
        if key not in cover._seen:
            fresh.setdefault(key, i)
    new = children[list(fresh.values())]
    return DeltaCover(np.concatenate([cover.centers, new]), new_radius, cover.domain,
                      active=np.concatenate([cover.active, np.ones(new.shape[0], dtype=bool)]))


class BandPredicate:
    """Membership test for the inner boundary band of a box.

    Accepts points at most ``sigma_bar`` inside the boundary (and on it);
    rejects strictly deeper interior points and everything outside.
    """

    def __init__(self, box: BoxRegion, sigma_bar: float):
        self.box = box
        self.sigma_bar = float(sigma_bar)

    def __call__(self, point) -> bool:
        return bool(self.mask(np.reshape(np.asarray(point, dtype=float), (1, -1)))[0])

    def mask(self, points: np.ndarray) -> np.ndarray:
        """Per row of (m, n) ``points``, whether it lies in the band: ``signed_distance`` of each row in one pass.

        A row with a coordinate beyond the box is outside it; any other row's
        depth is its smallest slack to a facet, and it lies in the band when
        that slack is at most ``sigma_bar``.  The floats compared are those
        ``signed_distance`` computes.
        """
        lo, hi = self.box.lower, self.box.upper
        beyond = ((lo - points) > 0.0).any(axis=1) | ((points - hi) > 0.0).any(axis=1)
        slack = np.minimum(points - lo, hi - points).min(axis=1)
        return ~beyond & (slack <= self.sigma_bar)


def boundary_band(box: BoxRegion, sigma_bar: float) -> BandPredicate:
    if sigma_bar < 0:
        raise ValueError("sigma_bar must be non-negative")
    return BandPredicate(box, sigma_bar)


def _union_volume(lo: np.ndarray, hi: np.ndarray) -> float:
    """Exact volume of a union of axis-aligned boxes (coordinate sweep)."""
    if lo.shape[0] == 0:
        return 0.0
    if lo.shape[1] == 1:
        order = np.argsort(lo[:, 0], kind="stable")
        total = 0.0
        cur_lo = cur_hi = None
        for i in order:
            a, b = float(lo[i, 0]), float(hi[i, 0])
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            elif b > cur_hi:
                cur_hi = b
        total += cur_hi - cur_lo
        return total
    xs = _distinct(np.concatenate([lo[:, 0], hi[:, 0]]))
    total = 0.0
    for x0, x1 in zip(xs[:-1], xs[1:]):
        sel = (lo[:, 0] < x1) & (hi[:, 0] > x0)
        if np.any(sel):
            total += (x1 - x0) * _union_volume(lo[sel, 1:], hi[sel, 1:])
    return float(total)


def volume_estimate(cover: DeltaCover) -> float:
    """Volume of the union of the active cells, clipped to the cover's domain.

    Union, not sum: refinement keeps the previous generation of centers, whose
    shrunken balls overlap their own children, and discovered off-lattice
    centers overlap the lattice — double counting would report more volume
    than the domain even holds.
    """
    idx = cover.active_indices()
    if idx.size == 0:
        return 0.0
    lo = np.maximum(cover.centers[idx] - cover.radius, cover.domain.lower)
    hi = np.minimum(cover.centers[idx] + cover.radius, cover.domain.upper)
    keep = np.all(hi > lo, axis=1)
    return _union_volume(lo[keep], hi[keep])


# -- serialization ---------------------------------------------------------


def _fmt(x: float) -> str:
    """Fixed-point decimal with 9 significant digits (no exponent for sane ranges)."""
    s = f"{x:.9g}"
    if "e" in s or "E" in s:
        s = f"{x:.12f}".rstrip("0").rstrip(".")
    return s


def _fmt_values(values) -> np.ndarray:
    """``_fmt`` of every entry of a float array, as an object array of strings."""
    return _per_distinct(_fmt, values, object)


def _write_csv(path, rows) -> None:
    """Rows of string fields as CSV with ``csv``'s ``\\r\\n`` line ends; no field holds a comma, quote or newline."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(r) + "\r\n" for r in rows))


def save_cover_csv(cover: DeltaCover, path, flags=None) -> None:
    """Write a cover as CSV: header ``dim,delta``, its values, then one row per center.

    ``flags`` (optional, aligned with ordinals) appends a 0/1 column per row;
    used by the ground-truth artifacts to mark membership.
    """
    cols = _fmt_values(cover.centers).T.tolist()
    if flags is not None:
        cols.append([str(v) for v in np.asarray(flags).astype(np.int64).tolist()])
    _write_csv(path, [["dim", "delta"], [str(cover.dim), _fmt(cover.radius)], *zip(*cols)])


def load_cover_csv(path, domain: BoxRegion | None = None):
    """Read a cover CSV back; returns (DeltaCover, flags-or-None).

    When the rows carry a trailing flag column the flags come back as a bool
    array and double as the active mask.  Without ``domain`` the domain is the
    centers' bounds grown by ``delta``, or ``[-delta, delta]^dim`` with no rows.  The rows are parsed ``_KEY_ROWS``
    at a time straight into one float array, with no list per row.  Raises
    ``ValueError`` for a header other than ``dim,delta``, a ``dim`` below 1
    or whose one row of floats passes ``_SIZE_CAP`` (checked before any
    allocation), a ``delta`` that is not positive or whose bucket width
    (``_bucket_width``) is not finite, rows that do
    not all have ``dim`` fields or all ``dim + 1``, a coordinate that is not
    finite or a flag other than 0 or 1.
    """
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if [h.strip() for h in header] != ["dim", "delta"]:
            raise ValueError(f"unexpected cover header: {header!r}")
        dim_s, delta_s = next(r, ("", ""))
        dim, delta = int(dim_s), float(delta_s)
        if dim < 1 or not (delta > 0.0 and math.isfinite(_bucket_width(delta))):
            raise ValueError(f"need dim >= 1 and a finite delta > 0 with a finite bucket width "
                             f"2 * delta * (1 + 2e-9), got dim {dim}, delta {delta}")
        if dim * 8 > _SIZE_CAP:
            raise ValueError(f"dim {dim}: one row of floats passes the {_SIZE_CAP}-byte size cap")
        body = filter(None, (line.rstrip("\r\n") for line in fh))  # csv reads an empty line as no row
        fields, chunks = None, []
        while lines := list(itertools.islice(body, _KEY_ROWS)):
            counts = {line.count(",") + 1 for line in lines}
            fields = fields or lines[0].count(",") + 1
            if counts != {fields} or fields not in (dim, dim + 1):
                raise ValueError(f"cover rows need {dim} fields in every row, or {dim + 1} with a flag; "
                                 f"got rows of {sorted(counts | {fields})}")
            try:
                vals = np.fromstring(",".join(lines), sep=",")
            except ValueError:  # a field that is not a number
                vals = np.empty(0)
            if vals.size != len(lines) * fields:  # an empty last field ends the parse without an error
                raise ValueError("a cover row holds an empty field or one that is not a number")
            chunks.append(vals.reshape(len(lines), fields))
    arr = np.concatenate(chunks) if chunks else np.empty((0, dim))
    del chunks  # the pieces are copied: free them before the cover copies the centers again
    if not np.isfinite(arr[:, :dim]).all():
        raise ValueError("a cover center has a coordinate that is not finite")
    mask = None
    if fields == dim + 1:
        mask = arr[:, dim] == 1.0
        if not (mask | (arr[:, dim] == 0.0)).all():
            raise ValueError("a cover flag is neither 0 nor 1")
    centers = arr[:, :dim]
    if domain is None:
        lo, hi = (centers.min(axis=0), centers.max(axis=0)) if len(centers) else (np.zeros(dim), np.zeros(dim))
        domain = BoxRegion(lo - delta, hi + delta)
    return DeltaCover(centers, delta, domain, active=mask), mask


def compare_grids(a: DeltaCover, b: DeltaCover, tol: float = LATTICE_TOL) -> bool:
    """True when two covers share the same lattice (same centers, same radius)."""
    if abs(a.radius - b.radius) > tol or len(a) != len(b):
        return False
    return bool(np.all(np.abs(a.centers - b.centers) <= tol))
