"""Command-line entry point: run an algorithm from a config file, compare runs.

Exit codes: 0 — completed with a true verdict / converged result; 1 —
completed with a false verdict / non-converged result; 2 — usage or
configuration error.  All outputs land in the config's output_dir (the
SETQUANT_OUTPUT environment variable overrides it, a --output flag overrides
both): report.json (canonical payload), cells.csv / oracle.csv (geometry),
slices.csv (per-axis extents for external plotting), trajectories.ndjson
(opt-in), config.txt (the exact configuration, whose digest every artifact
set carries) and run_meta.json (timing sidecar, never byte-compared).
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _stdsys
import time

import numpy as np

from .config import ConfigError, RunConfig, materialize, parse_config, serialize_config
from .geometry import BoxRegion, DeltaCover, boundary_band, build_cover, load_cover_csv
from .oracle import OracleSet, brute_force_invariant, compare_sets, project_to_grid
from .quantification import (
    cost,
    quantify_adaptive,
    quantify_delta_pruning,
    quantify_spe,
    quantify_vanilla,
)
from .reporting import (
    RunReport,
    canonical_json,
    config_digest,
    write_cells_csv,
    write_oracle_csv,
    write_report_json,
    write_run_meta,
    write_slices_csv,
    write_trajectories_ndjson,
)
from .scenario import FiniteActionSet, default_action_samples
from .validation import validate_delta, validate_eps, validate_eps_delta

__all__ = ["main", "dispatch"]


def _resolve_output(cfg: RunConfig, flag_value: str | None) -> str:
    if flag_value:
        return flag_value
    env = os.environ.get("SETQUANT_OUTPUT")
    if env:
        return env
    return cfg.output_dir


def _candidate_cover(cfg: RunConfig, system, hyper):
    """The region a validation run checks: a cells file if given, else the full box."""
    path = cfg.options.get("cells_file")
    if path:
        try:
            cover, _ = load_cover_csv(path, domain=system.state_box)
        except (OSError, ValueError) as exc:
            raise ConfigError("E-DOMAIN", f"options.cells_file {path!r} cannot be read: {exc}") from None
        if cover.centers.shape[1] != system.state_box.dim or cover.n_active() == 0:
            raise ConfigError("E-DOMAIN", f"options.cells_file {path!r} holds no active "
                                          f"{system.state_box.dim}-dimensional cell")
        return cover
    return build_cover(system.state_box, hyper.delta0)


def dispatch(cfg: RunConfig, workers: int = 1, output: str | None = None) -> int:
    """Run the configured algorithm and write its artifact set."""
    system, actions, hyper = materialize(cfg)
    out_dir = _resolve_output(cfg, output)
    os.makedirs(out_dir, exist_ok=True)
    text = serialize_config(cfg)
    digest = config_digest(text)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(text)
    artifacts = ["report.json", "config.txt"]

    emit = cfg.options.get("emit_trajectories", False)
    records: list = []

    def recorder(i, traj):
        records.append({
            "seed": int(i),
            "start": [float(x) for x in traj.states[0]],
            "states": traj.states.tolist(),
            "actions": traj.actions.tolist(),
            "exit": traj.exit_kind,
        })

    rec = recorder if emit else None
    opts = cfg.options
    t0 = time.perf_counter()
    alg = cfg.algorithm
    exit_code = 0

    if alg in ("val-delta", "val-eps", "val-eps-delta"):
        if alg == "val-eps" and "cells_file" not in opts and "region_box" in opts:
            pairs = opts["region_box"]
            region = BoxRegion([p[0] for p in pairs], [p[1] for p in pairs])
            cover = None
        else:
            cover = _candidate_cover(cfg, system, hyper)
            region = cover
        if alg == "val-delta":
            u0 = opts.get("fixed_action")
            if u0 is None:
                if isinstance(actions, FiniteActionSet):
                    u0 = list(actions.points[0])
                else:
                    u0 = (0.5 * (actions.box.lower + actions.box.upper)).tolist()
            verdict = validate_delta(system, cover, hyper.horizon, lambda s: tuple(u0), record=rec)
        elif alg == "val-eps":
            verdict = validate_eps(system, region, hyper.horizon, hyper.epsilon, hyper.beta,
                                   actions, rng=cfg.seed, workers=workers, record=rec)
        else:
            band = boundary_band(system.state_box, system.sigma_bar) if opts.get("boundary_band") else None
            verdict = validate_eps_delta(system, cover, hyper.horizon, hyper.epsilon, hyper.beta,
                                         actions, rng=cfg.seed, band=band, workers=workers, record=rec)
        payload = verdict.to_json_dict()
        payload["config_digest"] = digest
        write_report_json(os.path.join(out_dir, "report.json"), payload)
        if cover is not None:
            write_cells_csv(os.path.join(out_dir, "cells.csv"), cover, flags=cover.active.astype(int))
            artifacts.append("cells.csv")
        exit_code = 0 if verdict.result else 1

    elif alg == "oracle":
        samples = default_action_samples(actions)
        oracle = brute_force_invariant(system, hyper.delta0, action_samples=samples,
                                       horizon=opts.get("horizon", 1))
        vol = oracle.volume()
        rep = RunReport(algorithm="oracle", seed=cfg.seed, hyper={**cfg.hyper},
                        n_fresh_samples=0, n_replayed=0, n_decays=0,
                        final_delta=hyper.delta0, cell_count=oracle.count(), volume=vol,
                        cost=cost(vol, actions), converged=oracle.converged, config_digest=digest)
        write_report_json(os.path.join(out_dir, "report.json"), rep.to_json_dict())
        write_oracle_csv(os.path.join(out_dir, "oracle.csv"), oracle.grid, oracle.mask)
        view = DeltaCover(oracle.grid.centers, oracle.grid.radius, oracle.grid.domain, active=oracle.mask)
        write_slices_csv(os.path.join(out_dir, "slices.csv"), view)
        artifacts += ["oracle.csv", "slices.csv"]
        exit_code = 0 if oracle.converged else 1

    else:
        if alg == "qnt-vs":
            result = quantify_vanilla(system, actions, hyper, cfg.seed,
                                      n_attempts=opts.get("n_attempts", 10), record=rec)
        elif alg == "qnt-dp":
            result = quantify_delta_pruning(system, actions, hyper.delta0, hyper.budget,
                                            hyper.horizon, cfg.seed, hyper=hyper, record=rec)
        elif alg == "qnt-ae":
            result = quantify_adaptive(system, actions, hyper, cfg.seed,
                                       initial_state=opts.get("initial_state"), record=rec)
        elif alg == "qnt-spe":
            result = quantify_spe(system, actions, hyper, cfg.seed,
                                  prioritized=opts.get("prioritized", False),
                                  replay=opts.get("replay", False),
                                  weight_power=opts.get("weight_power", 1.0),
                                  min_feature_scale=opts.get("min_feature_scale"),
                                  record=rec)
        else:  # pragma: no cover - parse_config guards the algorithm name
            raise ConfigError("E-DOMAIN", f"unknown algorithm {alg!r}")
        result.report.config_digest = digest
        write_report_json(os.path.join(out_dir, "report.json"), result.report.to_json_dict())
        write_cells_csv(os.path.join(out_dir, "cells.csv"), result.cover,
                        flags=result.cover.active.astype(int))
        write_slices_csv(os.path.join(out_dir, "slices.csv"), result.cover)
        artifacts += ["cells.csv", "slices.csv"]
        exit_code = 0 if result.converged else 1

    if emit:
        write_trajectories_ndjson(os.path.join(out_dir, "trajectories.ndjson"), records)
        artifacts.append("trajectories.ndjson")
    wall = time.perf_counter() - t0
    write_run_meta(os.path.join(out_dir, "run_meta.json"), digest, wall, artifacts + ["run_meta.json"])
    print(f"{alg}: exit {exit_code}, artifacts in {out_dir}")
    return exit_code


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_run(path: str):
    """Read a run directory: report payload, membership set, config (if present)."""
    run_dir = path
    if os.path.isfile(path):
        run_dir = os.path.dirname(path) or "."
    with open(os.path.join(run_dir, "report.json")) as fh:
        report = json.load(fh)
    geom = None
    for name in ("oracle.csv", "cells.csv"):
        p = os.path.join(run_dir, name)
        if os.path.exists(p):
            cover, mask = load_cover_csv(p)
            geom = (cover, mask if mask is not None else np.ones(len(cover), dtype=bool))
            break
    meta = {}
    cfg_path = os.path.join(run_dir, "config.txt")
    if os.path.exists(cfg_path):
        with open(cfg_path) as fh:
            cfg = parse_config(fh.read())
        meta = {"system": cfg.system_name, "sv_policy": cfg.sv_policy, "algorithm": cfg.algorithm}
    return report, geom, meta


def compare_runs(path_a: str, path_b: str, force: bool = False) -> dict:
    """Compare two run artifact sets on a common lattice.

    The second run is the reference: the first run's active cells are
    rasterized onto its grid (a no-op when both share the lattice).  Radii
    must match — cross-resolution comparison is refused, as is a digest
    mismatch without ``force``.
    """
    rep_a, geom_a, meta_a = _load_run(path_a)
    rep_b, geom_b, meta_b = _load_run(path_b)
    if geom_a is None or geom_b is None:
        raise ValueError("both runs must provide cells.csv or oracle.csv")
    dig_a, dig_b = rep_a.get("config_digest"), rep_b.get("config_digest")
    if dig_a != dig_b and not force:
        raise ValueError("config digests differ; pass --force to compare anyway")
    cover_a, mask_a = geom_a
    cover_b, mask_b = geom_b
    if abs(cover_a.radius - cover_b.radius) > 1e-9:
        raise ValueError(f"resolution mismatch: {cover_a.radius} vs {cover_b.radius}")
    view_a = DeltaCover(cover_a.centers, cover_a.radius, cover_a.domain, active=mask_a)
    grid_b = DeltaCover(cover_b.centers, cover_b.radius, cover_b.domain)
    proj_a = project_to_grid(view_a, grid_b)
    set_b = OracleSet(grid=grid_b, mask=np.asarray(mask_b, dtype=bool))
    metrics = compare_sets(proj_a, set_b)
    va, vb = metrics["a_volume"], metrics["b_volume"]
    ordering = "a>b" if va > vb else ("b>a" if vb > va else "a=b")
    summary = []
    for label, rep, meta in (("a", rep_a, meta_a), ("b", rep_b, meta_b)):
        summary.append({
            "run": label,
            "algorithm": meta.get("algorithm", rep.get("algorithm")),
            "system": meta.get("system"),
            "sv_policy": meta.get("sv_policy"),
            "volume": metrics[f"{label}_volume"],
            "cell_count": metrics[f"{label}_count"],
            "config_digest": rep.get("config_digest"),
        })
    return {"metrics": metrics, "volume_ordering": ordering, "runs": summary}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="setquant",
                                description="Validate and quantify safe operational domains by scenario sampling.")
    sub = p.add_subparsers(dest="cmd", required=True)
    runp = sub.add_parser("run", help="run the algorithm named in a config file")
    runp.add_argument("config", help="path to the key/value config document")
    runp.add_argument("--workers", type=int, default=1,
                      help="accepted for compatibility, must be >= 1; validation runs its samples "
                           "as in-process batches, so every N gives the same, bit-exact result")
    runp.add_argument("--output", default=None, help="override the output directory")
    cmpp = sub.add_parser("compare", help="compare two run directories on a common lattice")
    cmpp.add_argument("run_a")
    cmpp.add_argument("run_b")
    cmpp.add_argument("--force", action="store_true", help="compare despite differing config digests")
    cmpp.add_argument("--output", default=None, help="also write the comparison JSON to this file")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.cmd == "run":
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            print(f"E-PARSE: cannot read config: {exc}", file=_stdsys.stderr)
            return 2
        except ConfigError as exc:
            print(str(exc), file=_stdsys.stderr)
            return 2
        if args.workers < 1:
            print("E-DOMAIN: --workers must be >= 1", file=_stdsys.stderr)
            return 2
        try:
            return dispatch(cfg, workers=args.workers, output=args.output)
        except ConfigError as exc:
            print(str(exc), file=_stdsys.stderr)
            return 2
    if args.cmd == "compare":
        try:
            payload = compare_runs(args.run_a, args.run_b, force=args.force)
        except (OSError, ValueError) as exc:
            print(f"compare: {exc}", file=_stdsys.stderr)
            return 2
        text = canonical_json(payload)
        print(text, end="")
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        return 0
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
