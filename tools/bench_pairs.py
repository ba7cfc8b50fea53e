"""Paired benchmark runs of two checkouts, and their summary as a ``BENCH_<commit>.json`` file.

Usage (from the repository root):

    python3 tools/bench_pairs.py run --parent DIR --change DIR --workload W --seeds 501-510 \\
        [--seconds 40] --log pairs.ndjson
    python3 tools/bench_pairs.py summarize --log pairs.ndjson [--log ...] --out BENCH_<commit>.json

``run`` runs ``python3 bench/run.py --workload W --seed N --seconds S --trace 0``
once in each checkout per seed, the parent first for the first seed and
then alternating, and appends one JSON line per run to the log as soon as
it ends, so an interrupted series keeps what it measured.  ``summarize``
refuses a log with two runs of one workload, seed and side (a series run
twice into one log), and otherwise groups the logged runs by workload and
end-to-end metric and writes, per side, the median and quartiles, the pairs the change won (ties count for
neither side), the change's median over the parent's, and whether that
ratio is within the metric's ``BENCHMARK.json`` bound (the share of the
parent's median by which the metric may worsen), and whether the gain rule
holds: the change won at least 9 in 10 of the pairs, and its median is
better than the parent's by more than the parent's interquartile range.
A metric is ``unresolved`` when the parent's spread, its interquartile
range over its median, is wider than the bound, unless every run of the
change is better than every run of the parent: the runs then cannot tell a
change within the bound from one past it.
The file also records the machine, the Python and numpy versions and both
commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                        platform.machine())
    except OSError:
        return platform.machine()


def _commit(checkout: str) -> str:
    return subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"], check=True,
                          capture_output=True, text=True).stdout.strip()


def _bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 1, "metrics": {}, "error": out.stderr[-2000:]}
    res = json.loads(lines[-1])
    if res.get("correct") is not True or res.get("failed", 0) > 0:  # run.py names the failed check on stderr
        res["error"] = out.stderr[-2000:]
    return res


def run(args) -> None:
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    sides = {"parent": args.parent, "change": args.change}
    commits = {side: _commit(path) for side, path in sides.items()}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            res = _bench(sides[side], args.workload, seed, args.seconds)
            rec = {"workload": args.workload, "seed": seed, "seconds": args.seconds, "side": side,
                   "first": order[0], "commit": commits[side], **res}
            with open(args.log, "a") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
            print(f"{args.workload} seed {seed} {side}: {json.dumps(res.get('metrics', {}))}", file=sys.stderr)


def _quartiles(xs: list) -> dict:
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": len(xs)}


def summarize(args) -> None:
    recs = []
    for path in args.log:
        with open(path) as fh:
            recs += [json.loads(line) for line in fh if line.strip()]
    with open("BENCHMARK.json") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    runs = Counter((rec["workload"], rec["seed"], rec["side"]) for rec in recs)
    dupes = [key for key, n in sorted(runs.items()) if n > 1]
    if dupes:
        raise SystemExit(f"summarize: more than one run of (workload, seed, side) {dupes}; "
                         "log each series once")
    workloads: dict = {}
    commits: dict = {}
    for rec in recs:
        commits[rec["side"]] = rec["commit"]
        workloads.setdefault(rec["workload"], {})[(rec["seed"], rec["side"])] = rec
    out = {"machine": {"platform": platform.platform(), "cpu": _cpu_model(), "cpus": os.cpu_count()},
           "python": platform.python_version(), "numpy": np.__version__,
           "commits": commits, "command": "python3 bench/run.py --workload W --seed N --seconds S --trace 0",
           "workloads": {}}
    for name, runs in sorted(workloads.items()):
        seeds = sorted({seed for seed, _ in runs})
        pairs = [(runs[(s, "parent")], runs[(s, "change")]) for s in seeds
                 if (s, "parent") in runs and (s, "change") in runs]
        by_side = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
        entry = {"seeds": seeds, "seconds": sorted({r["seconds"] for r in by_side["parent"] + by_side["change"]}),
                 "pairs": len(pairs),
                 "correct_runs": {side: sum(r["correct"] for r in rs) for side, rs in by_side.items()},
                 "failed_jobs": {side: sum(r["failed"] for r in rs) for side, rs in by_side.items()},
                 "metrics": {}}
        for metric, m in spec.items():
            good = [(p["metrics"][metric]["value"], c["metrics"][metric]["value"]) for p, c in pairs
                    if metric in p["metrics"] and metric in c["metrics"]]
            if not good:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            parent, change = _quartiles([p for p, _ in good]), _quartiles([c for _, c in good])
            ratio = change["median"] / parent["median"] if parent["median"] else None
            wins = sum(sign * (c - p) < 0 for p, c in good)
            gap = sign * (parent["median"] - change["median"])  # > 0 when the change is better
            iqr = parent["q3"] - parent["q1"]
            spread = iqr / parent["median"] if parent["median"] else None
            apart = max(sign * c for _, c in good) < min(sign * p for p, _ in good)  # every change run better
            entry["metrics"][metric] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": parent, "change": change,
                "change_wins": wins,
                "parent_wins": sum(sign * (c - p) > 0 for p, c in good),
                "change_over_parent": ratio,
                "within_bound": None if ratio is None else
                (ratio <= 1.0 + m["bound"] if sign > 0 else ratio >= 1.0 - m["bound"]),
                "gain": {"median_gap": gap, "parent_iqr": iqr,
                         "holds": 10 * wins >= 9 * len(good) and gap > iqr},
                "parent_spread": spread,
                "unresolved": spread is not None and spread > m["bound"] and not apart,
            }
        out["workloads"][name] = entry
    with open(args.out, "w") as fh:
        fh.write(json.dumps(out, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", required=True, help="N or A-B")
    r.add_argument("--seconds", type=float, default=40.0)
    r.add_argument("--log", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("--log", action="append", required=True)
    s.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    (run if args.cmd == "run" else summarize)(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
