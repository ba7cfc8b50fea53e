"""``tools/bench_pairs.py summarize`` on a hand-made log of two workloads.

Each workload has ten pairs of runs, parent and change, with values chosen
so that every figure of the summary is known in advance: the medians and
inclusive quartiles, the pairs each side won (a tie is a win for neither),
the ratio against the metric's bound at exactly ``1 + bound``, the gain
rule at 9 of 10 pairs won and at 8 of 10, and the unresolved verdict on a
parent spread wider than the bound, with the sides overlapping and apart.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# per workload and metric, ten (parent, change) values, one pair per seed
PAIRS = {
    "w-nine": {  # the change wins 9 pairs, by far more than the parent's spread
        "solve_s": [(20.0 + i, 10.0 + i) for i in range(9)] + [(29.0, 30.0)],
        "setup_s": [(4.0, 5.0 + 1e-9)] * 10,  # just past 1 + bound
    },
    "w-eight": {  # 8 wins, a tie and a loss: the gain rule fails at 8 of 10
        "solve_s": [(20.0 + i, 10.0 + i) for i in range(8)] + [(28.0, 28.0), (29.0, 30.0)],
        "setup_s": [(4.0, 5.0)] * 10,  # exactly 1 + bound
    },
    "w-wide": {  # the parent spreads 4.5 / 12.5 = 0.36 of its median, and the sides overlap
        "solve_s": [(8.0 + i, 8.5 + i) for i in range(10)],
    },
    "w-apart": {  # the parent spreads 9 / 19 = 0.47, but every change run beats every parent run
        "solve_s": [(10.0 + 2 * i, 1.0 + 0.5 * i) for i in range(10)],
    },
}


@pytest.fixture
def summary(tmp_path, monkeypatch):
    log = tmp_path / "pairs.ndjson"
    with open(log, "w") as fh:
        for workload, metrics in PAIRS.items():
            for seed in range(10):
                for k, side in enumerate(("parent", "change")):
                    values = {name: {"value": pairs[seed][k]} for name, pairs in metrics.items()}
                    fh.write(json.dumps({"workload": workload, "seed": 500 + seed, "seconds": 40.0, "side": side,
                                         "first": "parent", "commit": side[:3], "correct": True,
                                         "attempted": 6, "failed": 0, "metrics": values}) + "\n")
    out = tmp_path / "BENCH_x.json"
    monkeypatch.chdir(ROOT)  # summarize reads the bounds from BENCHMARK.json
    assert bench_pairs().main(["summarize", "--log", str(log), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_medians_and_quartiles(summary):
    assert summary["commits"] == {"parent": "par", "change": "cha"}
    w = summary["workloads"]["w-nine"]
    assert w["pairs"] == 10 and w["seeds"] == list(range(500, 510))
    assert w["correct_runs"] == {"parent": 10, "change": 10} and w["failed_jobs"] == {"parent": 0, "change": 0}
    solve = w["metrics"]["solve_s"]
    assert solve["parent"] == {"median": 24.5, "q1": 22.25, "q3": 26.75, "runs": 10}
    assert solve["change"] == {"median": 14.5, "q1": 12.25, "q3": 16.75, "runs": 10}
    assert solve["change_over_parent"] == 14.5 / 24.5
    assert "peak_rss_mb" not in w["metrics"]  # no run logged it


def test_a_tied_pair_is_a_win_for_neither_side(summary):
    solve = summary["workloads"]["w-eight"]["metrics"]["solve_s"]
    assert (solve["change_wins"], solve["parent_wins"]) == (8, 1)
    setup = summary["workloads"]["w-eight"]["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["parent_wins"]) == (0, 10)


def test_within_bound_holds_exactly_at_one_plus_the_bound(summary):
    at = summary["workloads"]["w-eight"]["metrics"]["setup_s"]
    past = summary["workloads"]["w-nine"]["metrics"]["setup_s"]
    assert at["bound"] == 0.25 and at["change_over_parent"] == 1.25
    assert at["within_bound"] is True
    assert past["within_bound"] is False


def test_the_gain_rule_holds_at_nine_pairs_in_ten_and_not_at_eight(summary):
    nine = summary["workloads"]["w-nine"]["metrics"]["solve_s"]
    eight = summary["workloads"]["w-eight"]["metrics"]["solve_s"]
    assert nine["change_wins"] == 9
    assert nine["gain"] == {"median_gap": 10.0, "parent_iqr": 4.5, "holds": True}
    # the median gap beats the spread here too: only the pair count fails
    assert eight["gain"]["median_gap"] > eight["gain"]["parent_iqr"]
    assert eight["gain"]["holds"] is False


def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_are_apart(summary):
    wide = summary["workloads"]["w-wide"]["metrics"]["solve_s"]
    assert wide["parent_spread"] == 4.5 / 12.5 and wide["bound"] == 0.25
    assert wide["within_bound"] is True and wide["unresolved"] is True
    apart = summary["workloads"]["w-apart"]["metrics"]["solve_s"]
    assert apart["parent_spread"] == 9.0 / 19.0
    assert apart["unresolved"] is False
    narrow = summary["workloads"]["w-nine"]["metrics"]["solve_s"]
    assert narrow["parent_spread"] == 4.5 / 24.5 and narrow["unresolved"] is False


def test_a_log_with_two_runs_of_one_seed_and_side_is_refused(tmp_path, monkeypatch):
    # a series re-run into the same log: the later parent run of seed 1 must not be dropped silently
    log = tmp_path / "pairs.ndjson"
    with open(log, "w") as fh:
        for side, value in (("parent", 0.10), ("change", 0.12), ("parent", 0.50)):
            fh.write(json.dumps({"workload": "lf-spe", "seed": 1, "seconds": 40.0, "side": side, "first": "parent",
                                 "commit": side[:3], "correct": True, "attempted": 6, "failed": 0,
                                 "metrics": {"solve_s": {"value": value}}}) + "\n")
    monkeypatch.chdir(ROOT)
    with pytest.raises(SystemExit, match=r"\[\('lf-spe', 1, 'parent'\)\]"):
        bench_pairs().main(["summarize", "--log", str(log), "--out", str(tmp_path / "BENCH_x.json")])
    assert not (tmp_path / "BENCH_x.json").exists()


FAKE_RUN = """import json, sys
print("bench: CHECK FAILED: lf-spe cell_count matches the active rows of cells.csv", file=sys.stderr)
print(json.dumps({"correct": %s, "attempted": 6, "failed": %d, "metrics": {"solve_s": {"value": 0.1}}}))
"""


@pytest.mark.parametrize("correct,failed,kept", [("False", 0, True), ("True", 1, True), ("True", 0, False)])
def test_a_failed_check_keeps_its_message_when_run_exits_zero(tmp_path, correct, failed, kept):
    # a fake checkout whose bench/run.py exits 0 but reports a failed check, or a failed job
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(FAKE_RUN % (correct, failed))
    res = bench_pairs()._bench(str(tmp_path), "lf-spe", 1, 0.0)
    assert res["metrics"] == {"solve_s": {"value": 0.1}} and res["failed"] == failed
    assert ("CHECK FAILED: lf-spe cell_count" in res.get("error", "")) is kept
