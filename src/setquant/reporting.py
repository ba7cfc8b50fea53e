"""Run artifacts: canonical JSON reports, cell CSVs, slice summaries, NDJSON logs.

The canonical payloads (report.json, cells.csv, oracle.csv, slices.csv) are
byte-reproducible for a fixed configuration: keys are sorted, floats rendered
identically, and anything timing-related lives in the run_meta.json sidecar
instead.  Every artifact set names the digest of the configuration that
produced it, so downstream comparisons can refuse apples-to-oranges input.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass

import numpy as np

from .geometry import DeltaCover, _fmt_values, _write_csv, key_round, save_cover_csv

# CPython's built-in SHA-256, hashlib's own fallback: hashlib loads OpenSSL's libcrypto, about 3.5 MB resident
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

__all__ = [
    "RunReport",
    "canonical_json",
    "config_digest",
    "write_report_json",
    "write_cells_csv",
    "write_oracle_csv",
    "write_slices_csv",
    "write_trajectories_ndjson",
    "write_run_meta",
]


@dataclass
class RunReport:
    """Summary of one quantification or oracle run.

    report.json holds its ``dataclasses.asdict`` plus the config digest.
    Timing is deliberately kept out of it: the run's wall time goes to the
    run_meta.json sidecar, so that report.json stays byte-identical across
    repeated runs of the same configuration.
    """

    algorithm: str
    seed: int
    hyper: dict
    final_delta: float
    cell_count: int
    volume: float
    cost: float
    converged: bool
    n_fresh_samples: int = 0
    n_replayed: int = 0
    n_decays: int = 0


def canonical_json(payload: dict) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_digest(config_text: str) -> str:
    """Stable hex digest of a configuration document (whitespace-insensitive lines)."""
    lines = [ln.strip() for ln in config_text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    body = "\n".join(sorted(lines))
    return sha256(body.encode("utf-8")).hexdigest()


def write_report_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(payload))


def write_cells_csv(path, cover: DeltaCover, flags=None) -> None:
    save_cover_csv(cover, path, flags=flags)


def write_oracle_csv(path, grid: DeltaCover, mask) -> None:
    save_cover_csv(grid, path, flags=np.asarray(mask, dtype=int))


def _first_extreme(ext, vals: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Per run of ``vals`` starting at the positions ``first``, the first position holding the run's ``ext``.

    Python's ``min`` and ``max`` keep the earlier of equal values, 0.0 and -0.0 included.
    """
    best = np.repeat(ext.reduceat(vals, first), np.diff(np.append(first, vals.size)))
    return np.minimum.reduceat(np.where(vals == best, np.arange(vals.size), vals.size), first)


def write_slices_csv(path, cover: DeltaCover) -> None:
    """Per-axis extent summary of the active centers.

    For each axis, active centers are grouped by their ``key_round``
    coordinates on the remaining axes; each group contributes one row with
    the min and max center coordinate along the axis, groups in ascending
    order of their coordinates.  ``fixed`` holds the grouping coordinates as
    ``dim=value`` pairs joined by semicolons (empty in one dimension), those
    of the group's first center in ordinal order.  Of equal extremes (0.0 and
    -0.0), the first in ordinal order is written.
    """
    act = cover.active_centers()
    keys = key_round(act)
    text, key_text = _fmt_values(act), _fmt_values(keys)
    rows = [["axis", "fixed", "min_center", "max_center"]]
    for axis in range(cover.dim if act.size else 0):
        other = [d for d in range(cover.dim) if d != axis]
        # stable, so each group lists its centers in ordinal order
        order = np.lexsort(keys[:, other[::-1]].T) if other else np.arange(act.shape[0])
        grouped = keys[order][:, other]
        first = np.flatnonzero(np.r_[True, (grouped[1:] != grouped[:-1]).any(axis=1)])
        vals = act[order, axis]
        lo, hi = (order[_first_extreme(ext, vals, first)] for ext in (np.minimum, np.maximum))
        prefix = [f"{d}=" for d in other]
        for f, a, b in zip(key_text[order[first]][:, other].tolist(), text[lo, axis].tolist(),
                           text[hi, axis].tolist()):
            rows.append([str(axis), ";".join(map(str.__add__, prefix, f)), a, b])
    _write_csv(path, rows)


def write_trajectories_ndjson(path, records) -> None:
    """One JSON object per line: {seed, start, states, actions, exit}."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_run_meta(path, digest: str, wall_time: float, artifacts: list) -> None:
    """Non-reproducible sidecar: timing and environment, never compared byte-wise."""
    meta = {
        "config_digest": digest,
        "wall_time": wall_time,
        "artifacts": sorted(artifacts),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")
