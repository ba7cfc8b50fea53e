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
import dataclasses
import json
import os
import sys as _stdsys
import time

import numpy as np

from .config import ConfigError, RunConfig, materialize, parse_config, serialize_config
from .geometry import (
    LATTICE_TOL,
    BoxRegion,
    DeltaCover,
    LatticeSizeError,
    boundary_band,
    build_cover,
    load_cover_csv,
)
from .oracle import OracleSet, brute_force_invariant, compare_sets, project_to_grid
from .quantification import (
    cost,
    hyper_dict,
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
from .scenario import FiniteActionSet, FixedActionPolicy, default_action_samples, outside_domain
from .validation import validate_delta, validate_eps, validate_eps_delta

__all__ = ["main", "dispatch"]


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
        if outside_domain(system, cover.active_centers()).any():
            raise ConfigError("E-DOMAIN", f"options.cells_file {path!r} holds an active center "
                                          "outside the state box")
        return cover
    return build_cover(system.state_box, hyper.delta0)


# Every runner takes (cfg, system, actions, hyper, workers, record) and returns
# (report payload, success, {artifact name: cover}).  The library functions are
# looked up as this module's globals at call time, so rebinding one here (as a
# benchmark or a tracer does) takes effect.


def _validate(cfg, system, actions, hyper, workers, record):
    """val-*: the verdict, and the candidate cover unless the candidate is a box."""
    opts, alg = cfg.options, cfg.algorithm
    if "region_box" in opts:
        region = BoxRegion(*np.transpose(opts["region_box"]))  # the lower and the upper bounds
    else:
        region = _candidate_cover(cfg, system, hyper)
    if alg == "val-delta":
        u0 = opts.get("fixed_action")
        if u0 is None:
            if isinstance(actions, FiniteActionSet):
                u0 = list(actions.points[0])
            else:
                u0 = (0.5 * (actions.box.lower + actions.box.upper)).tolist()
        verdict = validate_delta(system, region, hyper.horizon, FixedActionPolicy(u0), record=record)
    elif alg == "val-eps":
        verdict = validate_eps(system, region, hyper.horizon, hyper.epsilon, hyper.beta,
                               actions, rng=cfg.seed, workers=workers, record=record)
    else:
        band = boundary_band(system.state_box, system.sigma_bar) if opts.get("boundary_band") else None
        verdict = validate_eps_delta(system, region, hyper.horizon, hyper.epsilon, hyper.beta,
                                     actions, rng=cfg.seed, band=band, workers=workers, record=record)
    covers = {"cells.csv": region} if isinstance(region, DeltaCover) else {}
    return verdict.to_json_dict(), verdict.result, covers


def _oracle(cfg, system, actions, hyper, workers, record):
    """oracle: the lattice fixed point."""
    oracle = brute_force_invariant(system, hyper.delta0, action_samples=default_action_samples(actions),
                                   horizon=cfg.options.get("horizon", 1))
    vol = oracle.volume()
    rep = RunReport(algorithm="oracle", seed=cfg.seed, hyper=hyper_dict(hyper, system), final_delta=hyper.delta0,
                    cell_count=oracle.count(), volume=vol, cost=cost(vol, actions),
                    converged=oracle.converged)
    view = DeltaCover(oracle.grid.centers, oracle.grid.radius, oracle.grid.domain, active=oracle.mask)
    return dataclasses.asdict(rep), oracle.converged, {"oracle.csv": view, "slices.csv": view}


def _quantify(cfg, system, actions, hyper, workers, record):
    """qnt-*: the quantifier's report and its final cover."""
    opts, alg, seed = cfg.options, cfg.algorithm, cfg.seed
    if alg == "qnt-vs":
        result = quantify_vanilla(system, actions, hyper, seed,
                                  n_attempts=opts.get("n_attempts", 10), record=record)
    elif alg == "qnt-dp":
        result = quantify_delta_pruning(system, actions, hyper.delta0, hyper.budget,
                                        hyper.horizon, seed, hyper=hyper, record=record)
    elif alg == "qnt-ae":
        result = quantify_adaptive(system, actions, hyper, seed,
                                   initial_state=opts.get("initial_state"), record=record)
    else:
        result = quantify_spe(system, actions, hyper, seed, prioritized=opts.get("prioritized", False),
                              replay=opts.get("replay", False), weight_power=opts.get("weight_power", 1.0),
                              min_feature_scale=opts.get("min_feature_scale"), record=record)
    cover = result.cover
    return dataclasses.asdict(result.report), result.converged, {"cells.csv": cover, "slices.csv": cover}


_RUNNERS = {"val-delta": _validate, "val-eps": _validate, "val-eps-delta": _validate, "oracle": _oracle,
            "qnt-vs": _quantify, "qnt-dp": _quantify, "qnt-ae": _quantify, "qnt-spe": _quantify}

# how each cover artifact is written: a cover's centers with its activity flags, or its slices
_COVER_WRITERS = {
    "cells.csv": lambda path, cover: write_cells_csv(path, cover, flags=cover.active.astype(int)),
    "oracle.csv": lambda path, cover: write_oracle_csv(path, cover, cover.active),
    "slices.csv": lambda path, cover: write_slices_csv(path, cover),
}


def dispatch(cfg: RunConfig, workers: int = 1, output: str | None = None) -> int:
    """Run the configured algorithm and write its artifact set."""
    system, actions, hyper = materialize(cfg)
    out_dir = output or os.environ.get("SETQUANT_OUTPUT") or cfg.output_dir
    os.makedirs(out_dir, exist_ok=True)
    text = serialize_config(cfg)
    digest = config_digest(text)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(text)

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

    t0 = time.perf_counter()
    try:
        payload, success, covers = _RUNNERS[cfg.algorithm](cfg, system, actions, hyper, workers,
                                                           recorder if emit else None)
    except LatticeSizeError as exc:
        raise ConfigError("E-DOMAIN", str(exc)) from None
    payload["config_digest"] = digest
    write_report_json(os.path.join(out_dir, "report.json"), payload)
    for name, cover in covers.items():
        _COVER_WRITERS[name](os.path.join(out_dir, name), cover)
    artifacts = ["report.json", "config.txt", *covers]
    if emit:
        write_trajectories_ndjson(os.path.join(out_dir, "trajectories.ndjson"), records)
        artifacts.append("trajectories.ndjson")
    wall = time.perf_counter() - t0
    write_run_meta(os.path.join(out_dir, "run_meta.json"), digest, wall, artifacts + ["run_meta.json"])
    exit_code = 0 if success else 1
    print(f"{cfg.algorithm}: exit {exit_code}, artifacts in {out_dir}")
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
    must match — cross-resolution comparison is refused, as are runs of
    different state dimension and a digest mismatch without ``force``.
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
    if cover_a.dim != cover_b.dim:
        raise ValueError(f"dimension mismatch: {cover_a.dim} vs {cover_b.dim}")
    if abs(cover_a.radius - cover_b.radius) > LATTICE_TOL:
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
