"""Run artifacts: canonical JSON reports, cell CSVs, slice summaries, NDJSON logs.

The canonical payloads (report.json, cells.csv, oracle.csv, slices.csv) are
byte-reproducible for a fixed configuration: keys are sorted, floats rendered
identically, and anything timing-related lives in the run_meta.json sidecar
instead.  Every artifact set names the digest of the configuration that
produced it, so downstream comparisons can refuse apples-to-oranges input.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
from dataclasses import dataclass

import numpy as np

from .geometry import KEY_DIGITS, DeltaCover, save_cover_csv, _fmt

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
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def write_report_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(payload))


def write_cells_csv(path, cover: DeltaCover, flags=None) -> None:
    save_cover_csv(cover, path, flags=flags)


def write_oracle_csv(path, grid: DeltaCover, mask) -> None:
    save_cover_csv(grid, path, flags=np.asarray(mask, dtype=int))


def write_slices_csv(path, cover: DeltaCover) -> None:
    """Per-axis extent summary of the active centers.

    For each axis, active centers are grouped by their coordinates on the
    remaining axes; each group contributes one row with the min and max center
    coordinate along the axis.  ``fixed`` holds the grouping coordinates as
    ``dim=value`` pairs joined by semicolons (empty in one dimension).
    """
    rows = []
    act = cover.active_centers()
    n = cover.dim
    for axis in range(n):
        groups: dict = {}
        for c in act:
            key = tuple(round(float(c[d]), KEY_DIGITS) for d in range(n) if d != axis)
            v = float(c[axis])
            lohi = groups.get(key)
            if lohi is None:
                groups[key] = [v, v]
            else:
                lohi[0] = min(lohi[0], v)
                lohi[1] = max(lohi[1], v)
        other = [d for d in range(n) if d != axis]
        for key in sorted(groups):
            fixed = ";".join(f"{d}={_fmt(val)}" for d, val in zip(other, key))
            rows.append([axis, fixed, _fmt(groups[key][0]), _fmt(groups[key][1])])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["axis", "fixed", "min_center", "max_center"])
        w.writerows(rows)


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
