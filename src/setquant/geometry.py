"""Axis-aligned boxes, delta-covers and the distance predicates built on them.

Everything here is plain Euclidean geometry under the sup norm: boxes with
signed distances, regular center lattices whose closed infinity-norm balls
cover a box, and the bookkeeping needed to shrink such a cover in place
(refinement keeps every old center at its old ordinal so external structures
indexed by ordinal survive a resolution change).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BoxRegion",
    "Cell",
    "DeltaCover",
    "signed_distance",
    "build_cover",
    "cover_distance",
    "nearest_center",
    "refine_cover",
    "boundary_band",
    "BandPredicate",
    "volume_estimate",
    "save_cover_csv",
    "load_cover_csv",
]


@dataclass(frozen=True)
class BoxRegion:
    """Axis-aligned box given by per-dimension lower/upper bounds."""

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

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    def contains(self, point, tol: float = 0.0) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def clip(self, point) -> np.ndarray:
        return np.minimum(np.maximum(np.asarray(point, dtype=float), self.lower), self.upper)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


@dataclass(frozen=True)
class Cell:
    """One cover cell: a center plus the half-width of its infinity-norm ball."""

    center: np.ndarray
    radius: float

    def box(self) -> BoxRegion:
        c = np.asarray(self.center, dtype=float)
        return BoxRegion(c - self.radius, c + self.radius)


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


def _axis_centers(lo: float, hi: float, delta: float) -> list[float]:
    """Lattice of 1-d centers with pitch ``2*delta`` whose balls cover [lo, hi]."""
    width = hi - lo
    if width < 2.0 * delta:
        return [0.5 * (lo + hi)]
    out = []
    c = lo + delta
    while c <= hi - delta + 1e-12:
        out.append(c)
        c += 2.0 * delta
    # the trailing partial cell gets a center clamped inward so its ball
    # still reaches the upper bound without the lattice overshooting it
    if out[-1] < hi - delta - 1e-12:
        out.append(hi - delta)
    return out


# Reach slack of the bucket index on top of the cover radius: the largest
# tolerance any membership test adds (``project_to_grid``'s default), so a
# point within radius + tolerance of a live center is always answered from
# its neighbouring buckets alone.
_INDEX_TOL = 1e-9
# Relative widening of a query's reach, past the rounding of a computed
# distance that is <= reach.  Bucket widths exceed twice the widened reach.
_WIDEN = 1e-9
# Point-center differences per chunk of the brute-force fallback scan.
_SCAN_CHUNK = 1 << 20
# Query points per chunk of ``DeltaCover.distances_within`` and ``nearest_all``.
_QUERY_ROWS = 1 << 11


class _BucketIndex:
    """Uniform sup-norm bucket grid over the first ``n`` centers of a cover, in CSR form.

    Center ``c`` lies in bucket ``floor((c - lower) / h)``.  ``order`` lists
    the ordinals sorted by bucket (ascending within a bucket), ``keys`` the
    row-major numbers of the non-empty buckets and ``starts`` where each one
    begins in ``order``.  A query visits every bucket that the sup-norm ball
    of the widened reach around a point touches.  The cover keeps
    ``h > 2 * reach * (1 + _WIDEN)``, so that is one bucket or two per axis:
    the point's base bucket and, on the axes whose bit is set in the point's
    mask, the next one.  Candidates that lie beyond the reach, and those of
    distinct buckets whose numbers coincide because the row-major product
    wrapped in int64 on a very sparse cover, only lengthen the candidate
    list; the exact minimum over the candidates is therefore the global
    minimum whenever it is within reach.
    """

    def __init__(self, centers: np.ndarray, lower: np.ndarray, h: float):
        self.n, self.lower, self.h = centers.shape[0], lower, h
        cell = np.floor((centers - lower) / h)
        self.kmin, self.kmax = cell.min(axis=0), cell.max(axis=0)
        extent = (self.kmax - self.kmin + 1).astype(np.int64)
        self.strides = np.append(np.cumprod(extent[:0:-1])[::-1], 1)
        flat = (cell - self.kmin).astype(np.int64) @ self.strides
        self.order = np.argsort(flat, kind="stable")
        flat = flat[self.order]
        first = np.flatnonzero(np.r_[True, flat[1:] != flat[:-1]])
        self.keys = flat[first]
        self.starts = np.append(first, self.n)
        # bit a of subset k: axis a takes its second bucket; shifts[k] is the bucket-number offset
        self.subsets = np.arange(1 << centers.shape[1])
        self.shifts = ((self.subsets[:, None] >> np.arange(centers.shape[1])) & 1) @ self.strides

    def _lookup(self, flat: np.ndarray):
        """Slot in ``keys`` of each bucket number, and whether the bucket is non-empty."""
        j = np.minimum(np.searchsorted(self.keys, flat), self.keys.shape[0] - 1)
        return j, self.keys[j] == flat

    def _members(self, j: np.ndarray):
        """Ordinals of the centers in the buckets at slots ``j``, bucket by bucket, and their counts."""
        start, count = self.starts[j], self.starts[j + 1] - self.starts[j]
        pos = np.arange(int(count.sum())) + np.repeat(start - (np.cumsum(count) - count), count)
        return self.order[pos], count

    def candidates(self, pts: np.ndarray, reach: float):
        """(row, ordinal) of every center in a bucket within reach of a row of ``pts``, grouped by row."""
        half = reach * (1.0 + _WIDEN) / self.h
        base = np.zeros(pts.shape[0], dtype=np.int64)
        mask = np.zeros(pts.shape[0], dtype=np.int64)
        ok = np.ones(pts.shape[0], dtype=bool)
        for a in range(pts.shape[1]):
            q = (pts[:, a] - self.lower[a]) / self.h
            lo = np.maximum(np.floor(q - half), self.kmin[a])
            hi = np.minimum(np.floor(q + half), self.kmax[a])
            ok &= hi >= lo  # false for a non-finite coordinate too
            base += np.where(ok, lo - self.kmin[a], 0.0).astype(np.int64) * self.strides[a]
            mask |= (hi > lo) << a
        rows = np.flatnonzero(ok)
        row, k = np.nonzero((self.subsets & ~mask[rows, None]) == 0)
        j, hit = self._lookup(base[rows[row]] + self.shifts[k])
        ords, count = self._members(j[hit])
        return np.repeat(rows[row[hit]], count), ords


def _sup_gaps(centers: np.ndarray, cand: np.ndarray, pts: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Sup-norm distance between ``centers[cand[i]]`` and ``pts[row[i]]`` per pair, one axis at a time."""
    d = np.abs(np.take(centers[:, 0], cand) - np.take(pts[:, 0], row))
    for a in range(1, centers.shape[1]):
        np.maximum(d, np.abs(np.take(centers[:, a], cand) - np.take(pts[:, a], row)), out=d)
    return d


class DeltaCover:
    """A finite set of centers whose closed ``radius``-balls cover a region.

    Centers are held in append-only ordinal order with an activity mask;
    deactivation never renumbers, so reach graphs and replay buffers that
    store ordinals stay valid across pruning and refinement.

    Storage is one growable center buffer (capacity doubles, so appends are
    amortised O(1)) with the activity mask beside it, plus the dedup map of
    10-digit-rounded coordinates that makes a repeated append return, and
    reactivate, the existing ordinal.  Nearest-center queries go through a
    sup-norm bucket index (``_BucketIndex``) with bucket width a hair over
    ``2 * (radius + 1e-9)``, rebuilt lazily once centers were appended: a
    point is compared only with the centers of the buckets its reach
    touches, one or two per axis, and a point with no live center within
    reach falls back to a full scan, so every answer equals the brute-force
    one bit for bit.
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
        self._seen = {self._key(c): i for i, c in enumerate(self._buf)}
        self._index = None

    @staticmethod
    def _key(pt) -> tuple:
        return tuple(round(float(x), 10) for x in pt)

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

    def cell(self, ordinal: int) -> Cell:
        return Cell(self.centers[ordinal], self.radius)

    # -- mutation ---------------------------------------------------------

    def append(self, point) -> int:
        """Add a new active center; returns its ordinal (existing ordinal if duplicate).

        A duplicate of a deactivated center reactivates it — that is exactly
        the hole-refilling move the discovery rule relies on.
        """
        pt = np.asarray(point, dtype=float)
        key = self._key(pt)
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
            h = 2.0 * max(reach, self.radius + _INDEX_TOL) * (1.0 + 2.0 * _WIDEN)
            idx = self._index = _BucketIndex(self.centers, self.domain.lower, h)
        return idx

    def distances(self, point) -> np.ndarray:
        """Sup-norm distances from ``point`` to every center (active or not)."""
        p = np.asarray(point, dtype=float)
        return np.abs(self.centers - p).max(axis=1)

    def distances_within(self, points, reach: float) -> np.ndarray:
        """Min sup-norm distance from each row of ``points`` to the active centers, up to ``reach``.

        Rows whose nearest active center lies farther than ``reach`` get
        ``inf``; every other row gets the exact minimum.  Rows go through in
        chunks, so transient memory stays bounded whatever their number.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        best = np.full(pts.shape[0], np.inf)
        if self._n == 0:
            return best
        index = self._bucket_index(reach)
        for lo in range(0, pts.shape[0], _QUERY_ROWS):
            chunk = pts[lo:lo + _QUERY_ROWS]
            row, cand = index.candidates(chunk, reach)
            live = self.active[cand]
            row, cand = row[live], cand[live]
            if row.size:
                first = np.flatnonzero(np.diff(row, prepend=-1))
                best[lo + row[first]] = np.minimum.reduceat(_sup_gaps(self.centers, cand, chunk, row), first)
        best[best > reach] = np.inf
        return best

    def batch_distances(self, points) -> np.ndarray:
        """Min sup-norm distance from each row of ``points`` to the active centers."""
        if not self.active.any():
            raise ValueError("cover has no active centers")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.distances_within(pts, self.radius + _INDEX_TOL)
        far = np.flatnonzero(np.isinf(d))
        if far.size:
            act = self.active_centers()
            rows = max(1, _SCAN_CHUNK // act.size)
            d[far] = np.concatenate([
                np.abs(pts[far[i:i + rows], None, :] - act[None, :, :]).max(axis=2).min(axis=1)
                for i in range(0, far.size, rows)])
        return d

    def nearest(self, point, active_only: bool = True) -> tuple[int, float]:
        """(ordinal, distance) of the nearest center, the lowest ordinal on ties.

        ``active_only=False`` searches deactivated centers too.  A point with
        no candidate center within reach falls back to a full scan.  Raises
        ``ValueError`` when there is no center to search.
        """
        if self._n == 0:
            raise ValueError("cover has no centers")
        p = np.asarray(point, dtype=float)
        reach = self.radius + _INDEX_TOL
        cand = np.sort(self._bucket_index(reach).candidates(np.atleast_2d(p), reach)[1])
        if active_only:
            cand = cand[self.active[cand]]
        if cand.size:
            d = np.abs(self.centers[cand] - p).max(axis=1)
            k = int(np.argmin(d))  # candidates ascend, so the first minimum is the lowest ordinal
            if d[k] <= reach:
                return int(cand[k]), float(d[k])
        cand = self.active_indices() if active_only else np.arange(self._n)
        if cand.size == 0:
            raise ValueError("cover has no active centers")
        d = np.abs(self.centers[cand] - p).max(axis=1)
        k = int(np.argmin(d))
        return int(cand[k]), float(d[k])

    def nearest_all(self, points) -> np.ndarray:
        """Ordinal of the nearest center, active or not, to each row of ``points``.

        Row by row equal to ``nearest(p, active_only=False)[0]``: the lowest
        ordinal wins ties, and a row with no center within reach falls back
        to a full scan.  Rows go through in chunks, so transient memory stays
        bounded whatever their number.
        """
        if self._n == 0:
            raise ValueError("cover has no centers")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        reach = self.radius + _INDEX_TOL
        index = self._bucket_index(reach)
        out = np.zeros(pts.shape[0], dtype=np.int64)
        best = np.full(pts.shape[0], np.inf)
        for lo in range(0, pts.shape[0], _QUERY_ROWS):
            chunk = pts[lo:lo + _QUERY_ROWS]
            row, cand = index.candidates(chunk, reach)
            if row.size:
                d = _sup_gaps(self.centers, cand, chunk, row)
                first = np.flatnonzero(np.diff(row, prepend=-1))
                dmin = np.minimum.reduceat(d, first)
                tied = d == np.repeat(dmin, np.diff(np.append(first, row.size)))
                best[lo + row[first]] = dmin
                out[lo + row[first]] = np.minimum.reduceat(np.where(tied, cand, self._n), first)
        far = np.flatnonzero(~(best <= reach))
        rows = max(1, _SCAN_CHUNK // self.centers.size)
        for i in range(0, far.size, rows):
            sel = far[i:i + rows]
            out[sel] = np.abs(pts[sel, None, :] - self.centers[None, :, :]).max(axis=2).argmin(axis=1)
        return out


def build_cover(region: BoxRegion, delta: float) -> DeltaCover:
    """Regular lattice cover of ``region`` with cell half-width ``delta``.

    Pitch is ``2*delta`` starting at ``lower + delta``; a trailing partial row
    per axis is clamped inward to ``upper - delta``.  An axis narrower than one
    full cell gets a single midpoint center (its ball may overhang the region;
    volume accounting clips the overhang).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    axes = [_axis_centers(region.lower[i], region.upper[i], delta) for i in range(region.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([g.ravel() for g in grids], axis=-1)
    return DeltaCover(centers, delta, region)


def nearest_center(cover: DeltaCover, point) -> tuple[int, float]:
    """(ordinal, distance) of the nearest active center; ties pick the lowest ordinal.

    Raises ``ValueError`` on an empty active set rather than returning an
    infinite distance, so callers cannot mistake emptiness for remoteness.
    """
    return cover.nearest(point)


def cover_distance(cover: DeltaCover, point) -> float:
    """Sup-norm distance from ``point`` to the nearest active center."""
    return nearest_center(cover, point)[1]


def refine_cover(cover: DeltaCover, gamma: float, excluded=None, margin: float = 0.0) -> DeltaCover:
    """Shrink a cover's resolution by ``gamma``, preserving old ordinals.

    Every old center keeps its ordinal and activity flag.  Each *active* cell
    is re-covered by a child lattice at radius ``gamma * radius`` (clipped to
    the domain); children within ``margin`` of any point in ``excluded`` are
    dropped, as are exact duplicates of existing centers.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    new_radius = gamma * cover.radius
    old = cover.centers
    out = DeltaCover(old.copy(), new_radius, cover.domain, active=cover.active)
    excl = None
    if excluded is not None:
        excl = np.atleast_2d(np.asarray(excluded, dtype=float))
        if excl.size == 0:
            excl = None
    for i in cover.active_indices():
        cell_box = cover.cell(int(i)).box()
        lo = np.maximum(cell_box.lower, cover.domain.lower)
        hi = np.minimum(cell_box.upper, cover.domain.upper)
        child = build_cover(BoxRegion(lo, hi), new_radius)
        for pt in child.centers:
            if excl is not None:
                if np.abs(excl - pt).max(axis=1).min() <= margin:
                    continue
            key = DeltaCover._key(pt)
            if key in out._seen:
                continue
            out.append(pt)
    return out


class BandPredicate:
    """Membership test for the inner boundary band of a box.

    Accepts points at most ``sigma_bar`` inside the boundary (and on it);
    rejects strictly deeper interior points and everything outside.
    """

    def __init__(self, box: BoxRegion, sigma_bar: float):
        self.box = box
        self.sigma_bar = float(sigma_bar)

    def __call__(self, point) -> bool:
        d = signed_distance(point, self.box)
        return -self.sigma_bar <= d <= 0.0


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
    xs = np.unique(np.concatenate([lo[:, 0], hi[:, 0]]))
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


def save_cover_csv(cover: DeltaCover, path, flags=None) -> None:
    """Write a cover as CSV: header ``dim,delta``, its values, then one row per center.

    ``flags`` (optional, aligned with ordinals) appends a 0/1 column per row;
    used by the ground-truth artifacts to mark membership.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dim", "delta"])
        w.writerow([cover.dim, _fmt(cover.radius)])
        for i, row in enumerate(cover.centers):
            rec = [_fmt(v) for v in row]
            if flags is not None:
                rec.append(str(int(flags[i])))
            w.writerow(rec)


def load_cover_csv(path, domain: BoxRegion | None = None):
    """Read a cover CSV back; returns (DeltaCover, flags-or-None).

    When the rows carry a trailing flag column the flags come back as a bool
    array and double as the active mask.
    """
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if [h.strip() for h in header] != ["dim", "delta"]:
            raise ValueError(f"unexpected cover header: {header!r}")
        dim_s, delta_s = next(r, ("", ""))
        dim, delta = int(dim_s), float(delta_s)
        rows, flags = [], []
        has_flags = None
        for rec in r:
            if not rec:
                continue
            if has_flags is None:
                has_flags = len(rec) == dim + 1
            vals = [float(v) for v in rec[:dim]]
            rows.append(vals)
            if has_flags:
                flags.append(bool(int(rec[dim])))
    arr = np.asarray(rows, dtype=float)
    if domain is None:
        lo = arr.min(axis=0) - delta
        hi = arr.max(axis=0) + delta
        domain = BoxRegion(lo, hi)
    mask = np.asarray(flags, dtype=bool) if has_flags else None
    cover = DeltaCover(arr, delta, domain, active=mask if mask is not None else None)
    return cover, mask


def compare_grids(a: DeltaCover, b: DeltaCover, tol: float = 1e-9) -> bool:
    """True when two covers share the same lattice (same centers, same radius)."""
    if abs(a.radius - b.radius) > tol or len(a) != len(b):
        return False
    return bool(np.all(np.abs(a.centers - b.centers) <= tol))
