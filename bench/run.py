"""Layered benchmark for setquant: time to a quantified or validated ODD.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all lead-follow with the braking subject; see README.md):

* ``lf-spe``      -- ``qnt-spe`` on the acceptance reference config, twice a round;
* ``lf-oracle``   -- the brute-force oracle at delta = 1, 60-step horizon, full action box;
* ``lf-val``      -- two ``val-eps-delta`` jobs, a slab that passes (all 4603
  samples run) and the full box, which fails, each at ``--workers 1`` and at
  ``--workers 2`` (the process pool).

The benchmark writes the configs (and the slab's cells file) from the seed,
then runs rounds of jobs for ``--seconds`` (at least one), each job a fresh
``setquant run`` process.  Every output is checked against ``reference.py``,
which does not use setquant, or against a property the benchmark computes.
The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (jobs), and the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

import reference as ref

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DEADLINE_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 4
SPE_SEED = 0  # see README.md: qnt-spe's sample count varies by 1.7x across seeds
CE_SEED = 0  # the full-box validation fails at sample 77 with this seed

LF_SPE = {"algorithm": "qnt-spe",
          "hyper": {"epsilon": 0.01, "beta": 0.1, "delta0": 4.0, "gamma": 0.5, "delta_min": 1.0,
                    "K": 40, "N": 200000},
          "options": {"action_points": [[-5.0]], "prioritized": True, "replay": True}}
LF_ORACLE = {"algorithm": "oracle", "hyper": {"delta0": 1.0}, "options": {"horizon": 60}}
LF_VAL = {"algorithm": "val-eps-delta",
          "hyper": {"epsilon": 0.001, "beta": 0.01, "delta0": 1.0, "K": 40}, "options": {}}
SLAB = (np.array([0.0, 0.0, 20.0]), np.array([4.0, 16.0, 60.0]))
SLAB_FILE = "slab_cells.csv"


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def config_text(spec: dict, seed: int, **options) -> str:
    lines = [f"algorithm = {spec['algorithm']}", f"seed = {seed}",
             "system.name = lead-follow", "system.sv_policy = brake", "output_dir = out"]
    lines += [f"hyper.{k} = {json.dumps(v)}" for k, v in spec["hyper"].items()]
    lines += [f"options.{k} = {json.dumps(v)}" for k, v in {**spec["options"], **options}.items()]
    return "\n".join(lines) + "\n"


def write_slab(path: str, delta: float) -> None:
    """The slab's lattice as a cells file, every center active."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dim", "delta"])
        w.writerow([3, f"{delta:.9g}"])
        w.writerows([[f"{x:.9g}" for x in c] + ["1"] for c in ref.lattice(SLAB[0], SLAB[1], delta)])


def make_jobs(workload: str, seed: int, run_dir: str) -> list:
    """(job name, config file, workers) for one round; writes the inputs."""
    def put(name: str, text: str) -> str:
        path = os.path.join(run_dir, name + ".cfg")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    if workload == "lf-spe":
        cfg = put("spe", config_text(LF_SPE, SPE_SEED))
        return [("spe", cfg, 1), ("spe", cfg, 1)]  # the repeat checks byte identity
    if workload == "lf-oracle":
        return [("oracle", put("oracle", config_text(LF_ORACLE, seed)), 1)]
    if workload == "lf-val":
        write_slab(os.path.join(run_dir, SLAB_FILE), LF_VAL["hyper"]["delta0"])
        slab = put("val-slab", config_text(LF_VAL, seed, cells_file=SLAB_FILE))
        box = put("val-box", config_text(LF_VAL, CE_SEED))
        return [("val-slab", slab, 1), ("val-box", box, 1),
                ("val-slab-pool", slab, 2), ("val-box-pool", box, 2)]
    raise SystemExit(f"bench: unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running one job
# ---------------------------------------------------------------------------


def run_job(cfg: str, out_dir: str, workers: int, timeout: float, setup_only=False, trace=False):
    """Start ``bench/job.py`` in a fresh interpreter; returns its result dict or None."""
    result_path = out_dir + ".result.json"
    log_path = out_dir + ".log"
    cmd = [sys.executable, os.path.join(BENCH, "job.py"), cfg, out_dir, str(workers)]
    # temporary files (the replay buffer's spill) stay inside the run's directory
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + BENCH, TMPDIR=os.path.dirname(cfg))
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        cmd += [repr(t0), result_path] + (["--setup-only"] if setup_only else []) + \
            (["--trace"] if trace else [])
        # its own process group, so that a timeout also ends the pool workers
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env,
                                cwd=os.path.dirname(cfg), start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            code = "killed on timeout"
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            print(f"bench: job {cfg} failed ({code}); see {log_path}", file=sys.stderr)
            return None
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.n = 0
        self.failed: list = []
        self.jaccard: list = []

    def __call__(self, ok, what: str) -> bool:
        self.n += 1
        if not ok:
            self.failed.append(what)
            print(f"bench: CHECK FAILED: {what}", file=sys.stderr)
        return bool(ok)


def read_cells(path: str):
    """(centers, radius, flags) of a cells.csv / oracle.csv artifact."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    dim, radius = int(rows[1][0]), float(rows[1][1])
    body = np.asarray([[float(x) for x in r] for r in rows[2:] if r])
    return body[:, :dim], radius, body[:, dim].astype(bool)


def read_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        return json.load(fh)


class Reference:
    """The benchmark's own answers, computed lazily once per run."""

    def __init__(self):
        self.grid = ref.lattice(ref.LOWER, ref.UPPER, 1.0)
        self.vols = ref.cell_volumes(self.grid, 1.0)
        self._masks: dict = {}

    def mask(self, actions: tuple) -> np.ndarray:
        if actions not in self._masks:
            self._masks[actions] = ref.fixed_point(self.grid, actions, 60)[0]
        return self._masks[actions]


def check_spe(check: Checks, reference: Reference, out_dir: str) -> None:
    rep = read_report(out_dir)
    check(rep["converged"] and rep["final_delta"] == LF_SPE["hyper"]["delta_min"],
          f"lf-spe converged at delta_min (converged={rep['converged']}, final={rep['final_delta']})")
    centers, radius, flags = read_cells(os.path.join(out_dir, "cells.csv"))
    check(int(flags.sum()) == rep["cell_count"], "lf-spe cell_count matches the active rows of cells.csv")
    mask = ref.rasterize(centers, radius, flags, reference.grid)
    agree = ref.set_agreement(mask, reference.mask((-5.0,)), reference.vols)
    share = agree["sym_diff"] / agree["ref_volume"]
    check(share <= 0.02, f"lf-spe symmetric difference {share:.4f} of the reference volume (bound 0.02)")
    check.jaccard.append(agree["jaccard"])
    bad = ref.monotonicity_violations(mask, reference.grid, 2.0)
    check(bad == 0, f"lf-spe minimal safe gap monotone in v0 and v1 within one cell ({bad} violations)")


def check_identical(check: Checks, dirs: list) -> None:
    for name in ("report.json", "cells.csv", "slices.csv"):
        blobs = []
        for d in dirs:
            with open(os.path.join(d, name), "rb") as fh:
                blobs.append(fh.read())
        check(all(b == blobs[0] for b in blobs), f"lf-spe {name} byte-identical across repeats")


def check_oracle(check: Checks, reference: Reference, out_dir: str) -> None:
    rep = read_report(out_dir)
    check(rep["converged"], "lf-oracle reached its fixed point")
    centers, radius, flags = read_cells(os.path.join(out_dir, "oracle.csv"))
    same_grid = centers.shape == reference.grid.shape and radius == 1.0 \
        and bool(np.all(np.abs(centers - reference.grid) <= 1e-9))
    check(same_grid, "lf-oracle lattice equals the reference delta = 1 lattice")
    want = reference.mask((-5.0, -1.0, 3.0))
    check(same_grid and np.array_equal(flags, want),
          f"lf-oracle surviving mask equals the independent fixed point "
          f"({int(flags.sum())} vs {int(want.sum())} cells)")
    vol = float(reference.vols[want].sum())
    check(rep["cell_count"] == int(want.sum()) and abs(rep["volume"] - vol) <= 1e-9 * vol,
          f"lf-oracle report counts {rep['cell_count']} cells, volume {rep['volume']} (want {vol})")


def slab_is_invariant(horizon: int, delta: float) -> bool:
    """Worst case from every slab center: the gap closes by less than delta.

    The subject only slows down, so (v0, v1) stay in the slab's box, and a
    gap that never closes by delta from a center at least delta above the
    slab's floor keeps every state within delta of a slab center.
    """
    centers = ref.lattice(SLAB[0], SLAB[1], delta)
    closure, vmax = ref.worst_closure(centers, horizon - 1)
    floor_ok = bool(np.all(centers[:, 2] - delta >= SLAB[0][2] - 1e-12))
    return floor_ok and bool(np.all(closure < delta)) and bool(np.all(vmax <= SLAB[1][0]))


def check_val_slab(check: Checks, job: dict, out_dir: str, justified: bool) -> None:
    rep = read_report(out_dir)
    hyp = LF_VAL["hyper"]
    n_req = math.ceil(math.log(hyp["beta"]) / math.log(1.0 - hyp["epsilon"]))
    check(job["exit_code"] == 0 and rep["result"] is True, "val-slab verdict is True (exit 0)")
    check(rep["n_samples"] == n_req, f"val-slab ran {rep['n_samples']} samples (want {n_req})")
    check(justified, "val-slab True is justified by the worst-case closure check")


def check_val_box(check: Checks, job: dict, out_dir: str, cfg_path: str) -> None:
    from setquant.config import materialize, parse_config
    from setquant.validation import ValidationVerdict, replay_counterexample

    rep = read_report(out_dir)
    ok = check(job["exit_code"] == 1 and rep["result"] is False
               and rep["counterexample_seed"] is not None and "counterexample" in job,
               "val-box verdict is False with a recorded counterexample (exit 1)")
    if not ok:
        return
    with open(cfg_path) as fh:
        cfg = parse_config(fh.read())
    system, actions, hyper = materialize(cfg)
    verdict = ValidationVerdict(result=False, n_samples=rep["n_samples"],
                                counterexample_start=rep["counterexample_start"],
                                counterexample_seed=rep["counterexample_seed"])
    replayed = replay_counterexample(system, verdict, hyper.horizon, actions)
    recorded = np.asarray(job["counterexample"]["states"])
    check(np.array_equal(replayed.states, recorded),
          "val-box counterexample replays to the recorded trajectory")
    states, collided = ref.replay(recorded[0], np.asarray(job["counterexample"]["actions"])[:, 0])
    grid = ref.lattice(ref.LOWER, ref.UPPER, hyper.delta0)
    strays = ref.sup_dist(states[1:], grid).min(axis=1) > hyper.delta0 + 1e-12
    check(np.array_equal(states, recorded) and (collided or bool(strays.any())),
          f"val-box trajectory re-integrates exactly and {'collides' if collided else 'leaves the cover'}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_layer(jobs: list, check: Checks) -> dict:
    """Per-layer metrics of a traced run for one set of the workload's answers.

    Sums over the jobs, divided by how often each distinct job ran (rounds
    times repeats), so lf-spe reports one qnt-spe run and lf-val one (a) + (b)
    at each worker count.
    """
    reps = len(jobs) / len({job["name"] for job in jobs})
    spans: dict = {}
    counts: dict = {}
    sizes: dict = {}
    for job in jobs:
        for name, (calls, incl, self_s) in job["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for name, v in job["counts"].items():
            counts[name] = counts.get(name, 0) + v
        sizes.update(job["sizes"])

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0] / reps

    def secs(name, self_time=False):
        return spans.get(name, [0, 0.0, 0.0])[2 if self_time else 1] / reps

    def count(name):
        return counts.get(name, 0) / reps

    top = sorted(spans.items(), key=lambda kv: -kv[1][2])[:4]
    print("bench: largest self times per answer set: "
          + ", ".join(f"{name} {v[2] / reps:.2f} s" for name, v in top), file=sys.stderr)

    fresh = count("quantification.fresh_samples")
    out = {
        "scenario.transitions": (calls("scenario.step"), "count"),
        "scenario.step_s": (secs("scenario.step"), "s"),
        "scenario.transitions_per_s": (calls("scenario.step") / secs("scenario.step")
                                       if secs("scenario.step") else 0.0, "1/s"),
        "scenario.rollouts": (calls("scenario.run_scenario"), "count"),
        "scenario.rollout_s": (secs("scenario.run_scenario"), "s"),
        "scenario.action_draws": (calls("scenario.action_draw"), "count"),
        "scenario.action_draw_s": (secs("scenario.action_draw"), "s"),
        "geometry.batch_distances.calls": (calls("geometry.batch_distances"), "count"),
        "geometry.batch_distances.s": (secs("geometry.batch_distances"), "s"),
        "geometry.batch_distances.pairs": (count("geometry.batch_distances.pairs"), "count"),
        "geometry.append.calls": (calls("geometry.append"), "count"),
        "geometry.append.s": (secs("geometry.append"), "s"),
        "geometry.refine_cover.calls": (calls("geometry.refine_cover"), "count"),
        "geometry.refine_cover.s": (secs("geometry.refine_cover"), "s"),
        "geometry.volume_estimate.s": (secs("geometry.volume_estimate"), "s"),
        "geometry.cover_cells": (sizes.get("cover_cells", 0), "count"),
        "geometry.active_cells": (sizes.get("active_cells", 0), "count"),
        "quantification.replay_s": (secs("quantification.replay"), "s"),
        "quantification.replayed_transitions": (count("quantification.replayed_transitions"), "count"),
        "quantification.decays": (count("quantification.decays"), "count"),
        "quantification.prunes": (calls("quantification.reachable_closure"), "count"),
        "quantification.discoveries": (count("quantification.discoveries"), "count"),
        "quantification.event_ratio": (count("quantification.event_samples") / fresh if fresh else 0.0,
                                       "ratio"),
        "quantification.fresh_samples": (fresh, "count"),
        "quantification.jaccard": (statistics.median(check.jaccard) if check.jaccard else 0.0, "ratio"),
        "oracle.nearest.calls": (calls("oracle.nearest"), "count"),
        "oracle.nearest_s": (secs("oracle.nearest"), "s"),
        "oracle.sweeps": (count("oracle.sweeps"), "count"),
        "validation.samples": (count("validation.samples"), "count"),
        "validation.validate_s": (secs("validation.validate_eps_delta"), "s"),
        "validation.pool_wait_s": (secs("validation.pool_wait"), "s"),
        "reporting.write_s": (secs("reporting.write"), "s"),
        "reporting.bytes": (count("reporting.bytes"), "bytes"),
        "config.parse_s": (secs("config.parse_config"), "s"),
        "cli.dispatch.self_s": (secs("cli.dispatch", self_time=True), "s"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in out.items()}


def solve_time(jobs: list) -> float:
    """Time to the workload's answers: per distinct job the median wall time, summed."""
    by_name: dict = {}
    for job in jobs:
        by_name.setdefault(job["name"], []).append(job["solve_s"])
    return sum(statistics.median(v) for v in by_name.values())


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("lf-spe", "lf-oracle", "lf-val"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "setquant", "__init__.py")):
        print(f"bench: no setquant sources in {SRC}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t_begin = time.monotonic()

    run_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    specs = make_jobs(args.workload, args.seed, run_dir)
    check = Checks()
    reference = Reference()
    justified = slab_is_invariant(LF_VAL["hyper"]["K"], LF_VAL["hyper"]["delta0"]) \
        if args.workload == "lf-val" else False

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - t_begin)

    attempted = failed = 0
    setups: list = []
    for k in range(SETUP_PROBES):
        attempted += 1
        res = run_job(specs[0][1], os.path.join(run_dir, f"probe{k}"), specs[0][2], remaining(),
                      setup_only=True)
        if res is None or res["exit_code"] != 0:
            failed += 1
        else:
            setups.append(res["setup_s"])

    jobs: list = []
    rounds = 0
    t_measure = time.monotonic()

    def another_round() -> bool:
        """At least one round; then another only if one more fits in ``--seconds``."""
        if rounds == 0:
            return True
        elapsed = time.monotonic() - t_measure
        return elapsed + elapsed / rounds <= args.seconds and remaining() > elapsed / rounds

    while another_round():
        rounds += 1
        spe_dirs = []
        for j, (name, cfg, workers) in enumerate(specs):
            attempted += 1
            out_dir = os.path.join(run_dir, f"r{rounds}-{j}-{name}")
            res = run_job(cfg, out_dir, workers, remaining(), trace=bool(args.trace))
            if res is None or res["exit_code"] not in (0, 1):
                failed += 1
                continue
            res["name"] = name
            jobs.append(res)
            print(f"bench: {name} exit {res['exit_code']} in {res['solve_s']:.3f} s", file=sys.stderr)
            setups.append(res["setup_s"])
            if name == "spe":
                check_spe(check, reference, out_dir)
                spe_dirs.append(out_dir)
            elif name == "oracle":
                check_oracle(check, reference, out_dir)
            elif name.startswith("val-slab"):
                check_val_slab(check, res, out_dir, justified)
            else:
                check_val_box(check, res, out_dir, cfg)
        if len(spe_dirs) > 1:
            check_identical(check, spe_dirs)
        print(f"bench: {args.workload} round {rounds} done at {time.monotonic() - t_measure:.1f} s",
              file=sys.stderr)

    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds, {attempted} jobs ({failed} failed), "
          f"{check.n - len(check.failed)}/{check.n} checks passed", file=sys.stderr)
    if not jobs:
        print("bench: no job completed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(jobs, check)
        metrics["trace.solve_s"] = {"value": solve_time(jobs), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": solve_time(jobs), "unit": "s"},
            "peak_rss_mb": {"value": max(j["peak_rss_mb"] for j in jobs), "unit": "MB"},
        }
    correct = not check.failed
    if correct and not failed:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
