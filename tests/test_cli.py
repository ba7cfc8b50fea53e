"""End-to-end checks of the command line: dispatch, artifact sets, compare."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from setquant.cli import compare_runs, dispatch, main
from setquant.config import parse_config
from setquant.reporting import config_digest

SPE_CFG = (
    "algorithm = qnt-spe\n"
    "seed = 3\n"
    "system.name = toy-two-basins\n"
    "hyper.N = 5000\n"
    "options.prioritized = true\n"
    "options.replay = true\n"
)

ORACLE_CFG = (
    "algorithm = oracle\n"
    "seed = 0\n"
    "system.name = toy-threshold\n"
    "hyper.delta0 = 0.5\n"
    "options.horizon = 1\n"
)


def run_into(cfg_text, out_dir, **kw):
    code = dispatch(parse_config(cfg_text), output=str(out_dir), **kw)
    return code, {name: (out_dir / name).read_bytes()
                  for name in os.listdir(out_dir)}


def test_quantify_run_writes_the_full_artifact_set(tmp_path):
    code, files = run_into(SPE_CFG, tmp_path)
    assert code == 0
    assert set(files) == {"report.json", "config.txt", "cells.csv",
                          "slices.csv", "run_meta.json"}
    report = json.loads(files["report.json"])
    assert report["algorithm"] == "qnt-spe"
    assert report["converged"] is True
    assert report["config_digest"] == config_digest(files["config.txt"].decode())


def test_repeat_runs_are_byte_identical(tmp_path):
    _, first = run_into(SPE_CFG, tmp_path / "a")
    _, second = run_into(SPE_CFG, tmp_path / "b")
    for name in ("report.json", "cells.csv", "slices.csv", "config.txt"):
        assert first[name] == second[name], name
    # the sidecar carries timing and is allowed to differ
    meta = json.loads(first["run_meta.json"])
    assert meta["config_digest"] == json.loads(second["run_meta.json"])["config_digest"]
    assert meta["artifacts"] == sorted(meta["artifacts"])
    assert "run_meta.json" in meta["artifacts"]
    assert meta["wall_time"] >= 0.0


def test_oracle_run_emits_oracle_csv_instead_of_cells(tmp_path):
    code, files = run_into(ORACLE_CFG, tmp_path)
    assert code == 0
    assert "oracle.csv" in files and "slices.csv" in files
    assert "cells.csv" not in files
    # 9 of the 10 half-unit cells on [0, 10] survive the threshold map
    rows = files["oracle.csv"].decode().strip().splitlines()
    alive = sum(1 for r in rows[3:] if r.endswith(",1"))
    assert alive == 9


def test_exhaustive_validation_failure_sets_exit_code_one(tmp_path):
    cfg = ("algorithm = val-delta\nseed = 0\nsystem.name = toy-threshold\n"
           "hyper.delta0 = 0.5\n")
    code, files = run_into(cfg, tmp_path)
    assert code == 1
    report = json.loads(files["report.json"])
    assert report["result"] is False
    assert report["counterexample_start"] == [0.5]


def test_trajectory_log_is_opt_in_ndjson(tmp_path):
    cfg = ("algorithm = val-delta\nseed = 0\nsystem.name = toy-shrink\n"
           "options.emit_trajectories = true\n")
    code, files = run_into(cfg, tmp_path)
    assert code == 0
    lines = files["trajectories.ndjson"].decode().strip().splitlines()
    assert lines
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"seed", "start", "states", "actions", "exit"}


def test_worker_count_leaves_the_artifacts_byte_identical(tmp_path):
    cfg = ("algorithm = val-eps-delta\nseed = 11\nsystem.name = toy-shrink\n"
           "hyper.epsilon = 0.1\nhyper.beta = 0.2\n")
    _, seq = run_into(cfg, tmp_path / "w1", workers=1)
    _, par = run_into(cfg, tmp_path / "w2", workers=2)
    assert seq["report.json"] == par["report.json"]
    assert seq["cells.csv"] == par["cells.csv"]
    assert json.loads(seq["report.json"])["result"] is True


def test_output_dir_resolution_order(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("SETQUANT_OUTPUT", str(env_dir))
    cfg = parse_config(ORACLE_CFG)
    dispatch(cfg)
    assert (env_dir / "report.json").exists()
    # an explicit --output beats the environment
    flag_dir = tmp_path / "from-flag"
    dispatch(cfg, output=str(flag_dir))
    assert (flag_dir / "report.json").exists()


class TestCompare:
    def test_identical_runs_agree_exactly(self, tmp_path):
        run_into(SPE_CFG, tmp_path / "a")
        run_into(SPE_CFG, tmp_path / "b")
        out = compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        assert out["metrics"]["jaccard"] == 1.0
        assert out["metrics"]["sym_diff"] == 0.0
        assert out["volume_ordering"] == "a=b"
        assert [r["run"] for r in out["runs"]] == ["a", "b"]
        assert out["runs"][0]["system"] == "toy-two-basins"

    def test_digest_mismatch_is_refused_without_force(self, tmp_path):
        run_into(SPE_CFG, tmp_path / "a")
        run_into(SPE_CFG.replace("seed = 3", "seed = 4"), tmp_path / "b")
        with pytest.raises(ValueError, match="force"):
            compare_runs(str(tmp_path / "a"), str(tmp_path / "b"))
        out = compare_runs(str(tmp_path / "a"), str(tmp_path / "b"), force=True)
        assert set(out["metrics"]) >= {"jaccard", "a_volume", "b_volume"}

    def test_resolution_mismatch_is_refused(self, tmp_path):
        run_into(SPE_CFG, tmp_path / "a")
        run_into(ORACLE_CFG, tmp_path / "b")
        with pytest.raises(ValueError, match="resolution"):
            compare_runs(str(tmp_path / "a"), str(tmp_path / "b"), force=True)


def test_main_compare_refuses_runs_of_different_dimension(tmp_path, capsys):
    # a 1-D toy cover against a 3-D lead-follow one, with the digest check forced past
    oracle = "algorithm = oracle\nseed = 0\nhyper.delta0 = 1.0\nsystem.name = "
    run_into(oracle + "toy-threshold\n", tmp_path / "a")
    run_into(oracle + "lead-follow\n", tmp_path / "b")
    with pytest.raises(ValueError, match="dimension mismatch: 1 vs 3"):
        compare_runs(str(tmp_path / "a"), str(tmp_path / "b"), force=True)
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--force"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("compare: dimension mismatch") and "Traceback" not in err


def test_main_compare_refuses_a_cells_header_too_wide_to_hold(tmp_path, capsys):
    # a header-only file whose one row of 10**18 floats no machine could allocate
    run_into(ORACLE_CFG, tmp_path / "a")
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "report.json").write_bytes((tmp_path / "a" / "report.json").read_bytes())
    (tmp_path / "b" / "cells.csv").write_text(f"dim,delta\n{10**18},1\n")
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b"), "--force"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("compare: dim 1000000000000000000") and "size cap" in err


def test_main_run_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(ORACLE_CFG)
    code = main(["run", str(cfg_path), "--output", str(tmp_path / "out")])
    assert code == 0
    assert "artifacts in" in capsys.readouterr().out


def test_main_rejects_bad_input(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-flip\nwhat = 1\n")
    assert main(["run", str(bad)]) == 2
    assert "E-KEY" in capsys.readouterr().err
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(ORACLE_CFG)
    assert main(["run", str(cfg), "--workers", "0"]) == 2


@pytest.mark.parametrize("algorithm", ["val-eps-delta", "qnt-spe"])
def test_main_rejects_an_epsilon_too_small_to_size_a_sample(tmp_path, capsys, algorithm):
    cfg = tmp_path / "e.cfg"
    cfg.write_text(f"algorithm = {algorithm}\nseed = 0\nsystem.name = lead-follow\n"
                   "hyper.epsilon = 1e-17\nhyper.K = 5\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "E-DOMAIN: epsilon=1e-17 is too small" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [
    'options.horizon = "abc"',
    "options.horizon = 0",
])
def test_main_rejects_a_bad_oracle_horizon(tmp_path, capsys, extra):
    cfg = tmp_path / "h.cfg"
    cfg.write_text(ORACLE_CFG.replace("options.horizon = 1", extra))
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "E-DOMAIN: options.horizon" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm,option", [
    ("qnt-spe", 'options.weight_power = "abc"'),
    ("qnt-spe", "options.weight_power = 0.5"),
    ("qnt-vs", 'options.n_attempts = "x"'),
    ("qnt-ae", "options.initial_state = [1, 2]"),
    ("qnt-spe", 'options.action_points = [["a"]]'),
    ("qnt-spe", "options.action_points = [[0.5, 0.5]]"),
    ("qnt-spe", "options.action_points = [[-0.5], [-0.5]]"),  # a repeat: the cost would count it twice
    ("qnt-spe", "options.action_points = [[0.0], [-0.0]]"),  # equal by value
    ("qnt-spe", 'options.min_feature_scale = "z"'),
])
def test_main_rejects_a_malformed_option(tmp_path, capsys, algorithm, option):
    cfg = tmp_path / "o.cfg"
    cfg.write_text(f"algorithm = {algorithm}\nseed = 0\nsystem.name = toy-shrink\nhyper.N = 200\n{option}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    key = option.split(" =")[0]
    assert f"E-DOMAIN: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm,option", [
    ("val-eps", 'options.region_box = "abc"'),
    ("val-eps", "options.region_box = [[1, 0]]"),  # a reversed pair
    ("val-eps", "options.region_box = [[0, 1], [0, 1]]"),  # one pair short of the state
    ("val-delta", 'options.fixed_action = "abc"'),
    ("val-delta", "options.fixed_action = [0.5, 0.5]"),  # one number too many
    # a cells file that is not a path: not the full box, not a list, not a file descriptor
    ("val-eps-delta", "options.cells_file = 0"),
    ("val-eps-delta", 'options.cells_file = ""'),
    ("val-eps-delta", "options.cells_file = false"),
    ("val-eps-delta", "options.cells_file = [1]"),
    ("val-eps-delta", "options.cells_file = true"),
    ("val-eps-delta", "options.cells_file = 5"),
])
def test_main_rejects_a_malformed_candidate_or_action(tmp_path, capsys, algorithm, option):
    cfg = tmp_path / "r.cfg"
    cfg.write_text(f"algorithm = {algorithm}\nseed = 0\nsystem.name = lead-follow\nhyper.K = 4\n{option}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    key = option.split(" =")[0]
    assert f"E-DOMAIN: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("option", [
    "options.prioritised = true",  # a misspelt switch
    "options.workers = 2",
    "options.horizon_steps = 4",
])
def test_main_rejects_an_unknown_option(tmp_path, capsys, option):
    cfg = tmp_path / "k.cfg"
    cfg.write_text(SPE_CFG + option + "\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    key = option.split(" =")[0]
    assert f"E-KEY: unknown key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("algorithm,option", [
    ("qnt-spe", "options.replay = no"),  # a bare word, which bool() would read as true
    ("qnt-spe", "options.prioritized = 1"),
    ("qnt-spe", 'options.prioritized = "false"'),
    ("qnt-spe", "options.emit_trajectories = 0"),
    ("val-eps-delta", "options.boundary_band = yes"),
    ("qnt-spe", "options.adversarial = null"),
])
def test_main_rejects_a_switch_that_is_not_true_or_false(tmp_path, capsys, algorithm, option):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(f"algorithm = {algorithm}\nseed = 0\nsystem.name = lead-follow\nhyper.N = 200\n{option}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    key = option.split(" =")[0]
    assert f"E-DOMAIN: {key} must be true or false" in capsys.readouterr().err


@pytest.mark.parametrize("cells", [None, "", "dim,delta\n1,0.5\n", "dim,delta\n1,abc\n"])
def test_main_rejects_a_missing_or_unreadable_cells_file(tmp_path, capsys, cells):
    path = tmp_path / "cells.csv"
    if cells is not None:
        path.write_text(cells)
    cfg = tmp_path / "v.cfg"
    cfg.write_text("algorithm = val-eps-delta\nseed = 0\nsystem.name = toy-threshold\n"
                   f"options.cells_file = {json.dumps(str(path))}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "E-DOMAIN: options.cells_file" in capsys.readouterr().err


SLAB_ROWS = "1,1,21,1\n1,1,23,1\n"


@pytest.mark.parametrize("cells", [
    "dim,delta\n3,1\n1,1,21,1\n1,1,23\n",  # a row without the flag column after rows with it
    "dim,delta\n3,1\n1,1,21\n1,1,23,1\n",  # a row with the flag column after rows without it
    "dim,delta\n3,1\n1,nan,21,1\n1,1,23,1\n",  # a coordinate that is not finite
    "dim,delta\n3,nan\n" + SLAB_ROWS,
    "dim,delta\n3,-1\n" + SLAB_ROWS,
    "dim,delta\n3,1e308\n" + SLAB_ROWS,  # a bucket width 2 * delta * (1 + 2e-9) past the float range
    "dim,delta\n3,1\n1,1,21,2\n1,1,23,1\n",  # a flag other than 0 or 1
], ids=["flag-then-none", "none-then-flag", "nan-coordinate", "nan-delta", "negative-delta", "huge-delta", "flag-2"])
def test_main_rejects_a_malformed_cells_file(tmp_path, capsys, cells):
    (tmp_path / "cells.csv").write_text(cells)
    cfg = tmp_path / "v.cfg"
    cfg.write_text("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.epsilon = 0.5\n"
                   f"hyper.K = 4\noptions.cells_file = {json.dumps(str(tmp_path / 'cells.csv'))}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E-DOMAIN: options.cells_file" in err and "cannot be read" in err
    assert "Traceback" not in err


def test_main_compare_prints_and_saves_canonical_json(tmp_path, capsys):
    run_into(ORACLE_CFG, tmp_path / "a")
    run_into(ORACLE_CFG, tmp_path / "b")
    capsys.readouterr()  # drop the dispatch chatter from the setup runs
    saved = tmp_path / "cmp.json"
    code = main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                 "--output", str(saved)])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed == saved.read_text()
    payload = json.loads(printed)
    assert payload["volume_ordering"] == "a=b"
    assert np.isclose(payload["metrics"]["jaccard"], 1.0)


@pytest.mark.parametrize("algorithm,option", [
    ("val-eps-delta", "options.replay = true"),
    ("val-delta", "options.region_box = [[-1, 1]]"),
    ("oracle", "options.initial_state = [0.5]"),
    ("oracle", "options.emit_trajectories = true"),
    ("qnt-spe", "options.region_box = [[-1, 1]]"),
    ("qnt-spe", "options.fixed_action = [0.5]"),
    ("qnt-dp", "options.horizon = 3"),
])
def test_main_rejects_an_option_the_algorithm_does_not_read(tmp_path, capsys, algorithm, option):
    cfg = tmp_path / "u.cfg"
    cfg.write_text(f"algorithm = {algorithm}\nseed = 0\nsystem.name = toy-shrink\nhyper.N = 200\n{option}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    key = option.split(" =")[0]
    assert f"E-DOMAIN: {key} is not read by {algorithm}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_rejects_a_region_box_beside_a_cells_file(tmp_path, capsys):
    cfg = tmp_path / "r.cfg"
    cfg.write_text("algorithm = val-eps\nseed = 0\nsystem.name = toy-shrink\n"
                   'options.region_box = [[-1, 1]]\noptions.cells_file = "cells.csv"\n')
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "E-DOMAIN: options.region_box and options.cells_file" in capsys.readouterr().err


@pytest.mark.parametrize("algorithm,system,option,cells", [
    ("qnt-ae", "toy-two-basins", "options.initial_state = [50]", None),
    # lead-follow's gap floor is 5.5
    ("val-eps", "lead-follow", "options.region_box = [[0, 4], [0, 16], [0, 60]]", None),
    ("val-eps-delta", "toy-two-basins", "options.cells_file = CELLS", "dim,delta\n1,0.5\n0.5,1\n50,1\n"),
])
def test_main_rejects_a_start_region_outside_the_state_box(tmp_path, capsys, algorithm, system, option, cells):
    if cells is not None:
        (tmp_path / "cells.csv").write_text(cells)
        option = option.replace("CELLS", json.dumps(str(tmp_path / "cells.csv")))
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"algorithm = {algorithm}\nseed = 0\nsystem.name = {system}\nhyper.N = 200\nhyper.K = 4\n"
                   f"{option}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"E-DOMAIN: {option.split(' =')[0]}" in err and "outside the state box" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("algorithm", ["val-eps-delta", "qnt-vs", "qnt-dp", "qnt-spe", "oracle"])
def test_main_rejects_a_lattice_no_array_can_hold(tmp_path, capsys, algorithm):
    # 8e300 centers along the first axis: refused before anything is allocated
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(f"algorithm = {algorithm}\nseed = 0\nsystem.name = lead-follow\nhyper.K = 3\n"
                   "hyper.delta0 = 1e-300\nhyper.delta_min = 1e-300\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "E-DOMAIN: a lattice at delta 1e-300" in err and "more than an array can hold" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("algorithm", ["val-eps-delta", "qnt-dp", "qnt-spe", "oracle"])
@pytest.mark.parametrize("system,delta0,what", [
    # 1.74e9 centers: an array can count them, 2^30 bytes cannot hold them
    ("lead-follow", 0.01, "has 1.74e+09 centers of 3 floats: more than the 1073741824-byte size cap"),
    # 5e9 coordinates along the one axis, refused before the axis is laid out
    ("toy-threshold", 1e-9, "needs about 5e+09 centers along axis 0: more than the 1073741824-byte size cap"),
])
def test_main_rejects_a_lattice_past_the_size_cap(tmp_path, capsys, algorithm, system, delta0, what):
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(f"algorithm = {algorithm}\nseed = 0\nsystem.name = {system}\nhyper.K = 5\n"
                   f"hyper.delta0 = {delta0}\nhyper.delta_min = {delta0}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"E-DOMAIN: a lattice at delta {delta0}" in err and what in err
    assert "Traceback" not in err


# the largest delta0 whose bucket width 2 * delta0 * (1 + 2e-9) is finite, and the next float up
WIDEST_DELTA0 = 8.988465656334648e+307


@pytest.mark.parametrize("delta0", ["1e308", repr(math.nextafter(WIDEST_DELTA0, math.inf))])
def test_main_rejects_a_delta0_whose_bucket_width_overflows(tmp_path, capsys, delta0):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"algorithm = qnt-dp\nseed = 0\nsystem.name = lead-follow\nhyper.K = 5\nhyper.N = 10\n"
                   f"hyper.delta0 = {delta0}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"E-DOMAIN: delta0={float(delta0)!r} is too large" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_the_widest_accepted_delta0_runs(tmp_path, capsys):
    # one cell covers the whole box, and no rollout from its center leaves it
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"algorithm = qnt-dp\nseed = 0\nsystem.name = lead-follow\nhyper.K = 5\nhyper.N = 10\n"
                   f"hyper.delta0 = {WIDEST_DELTA0!r}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["cell_count"] == 1 and report["final_delta"] == WIDEST_DELTA0


@pytest.mark.parametrize("system,box,got", [
    ("lead-follow", "system.state_box = [[0, 16]]", "1 and 1"),
    ("lead-follow", "system.state_box = [[0, 16], [0, 16], [5.5, 60], [0, 1]]", "4 and 1"),
    ("lead-follow", "system.action_box = [[-5, 3], [-5, 3]]", "3 and 2"),
    ("three-vehicle", "system.action_box = [[-5, 3]]", "5 and 1"),
    ("three-vehicle", "system.state_box = [[0, 6], [0, 6], [0, 6], [5, 25]]", "4 and 2"),
    ("toy-shrink", "system.action_box = [[-0.5, 0.5], [-0.5, 0.5]]", "1 and 2"),
    # the vehicle count comes from the system, so the other chain's boxes are refused whole
    ("lead-follow", "system.state_box = [[0, 6], [0, 6], [0, 6], [5, 25], [-25, -5]]\n"
                    "system.action_box = [[-5, 3], [-7, -3]]", "5 and 2"),
    ("three-vehicle", "system.state_box = [[0, 16], [0, 16], [5.5, 60]]\nsystem.action_box = [[-5, 3]]", "3 and 1"),
])
def test_main_rejects_a_box_of_the_wrong_width(tmp_path, capsys, system, box, got):
    # a short state box used to end in an IndexError, and a wide action box ran on its first axis alone
    want = {"lead-follow": (3, 1), "three-vehicle": (5, 2), "toy-shrink": (1, 1)}[system]
    cfg = tmp_path / "box.cfg"
    cfg.write_text(f"algorithm = val-eps\nseed = 0\nsystem.name = {system}\nhyper.K = 5\nhyper.epsilon = 0.2\n{box}\n")
    assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"E-DOMAIN: system construction failed: {system} has {want[0]} state and {want[1]} action" in err
    assert f"not {got}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg,cost", [
    # every cell of toy-shift is pruned: the emptied cover scores cost(0.0, ...), which is -0.0
    ("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-shift\nhyper.epsilon = 0.05\nhyper.N = 2000\n", "-0.0"),
    # no guessed box validates: the failed run reports 0.0
    ("algorithm = qnt-vs\nseed = 0\nsystem.name = toy-shift\nhyper.epsilon = 0.05\noptions.n_attempts = 2\n",
     "0.0"),
])
def test_an_empty_answer_keeps_the_sign_of_its_cost(tmp_path, cfg, cost):
    _, files = run_into(cfg, tmp_path)
    report = files["report.json"].decode()
    assert f'  "cost": {cost},' in report.splitlines()
    assert json.loads(report)["cell_count"] == 0


@pytest.mark.parametrize("empty", ["a", "b"])
def test_compare_reads_a_cells_file_with_no_rows(tmp_path, capsys, empty):
    # no guessed box validates, so qnt-vs writes a cover header and no row
    run_into("algorithm = qnt-vs\nseed = 0\nsystem.name = toy-shift\noptions.n_attempts = 2\n", tmp_path / "vs")
    run_into("algorithm = oracle\nseed = 0\nsystem.name = toy-shift\n", tmp_path / "or")
    assert (tmp_path / "vs" / "cells.csv").read_text() == "dim,delta\n1,1\n"
    runs = ["vs", "or"] if empty == "a" else ["or", "vs"]
    capsys.readouterr()
    assert main(["compare", *(str(tmp_path / r) for r in runs), "--force"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics[f"{empty}_count"] == 0 and metrics[f"{empty}_volume"] == 0.0


# held qnt-spe pre-rolls its centers and sums the volume of a 3-D cover
FRESH_RUNS = {
    "qnt-spe-held": ("algorithm = qnt-spe\nseed = 0\nsystem.name = lead-follow\nhyper.delta0 = 4.0\n"
                     "hyper.delta_min = 2.0\nhyper.K = 10\nhyper.N = 400\nhyper.epsilon = 0.05\n"
                     "options.action_points = [[-5.0]]\noptions.prioritized = true\noptions.replay = true\n", 0),
    "oracle": ("algorithm = oracle\nseed = 0\nsystem.name = lead-follow\nhyper.delta0 = 4.0\n"
               "options.horizon = 5\n", 0),
    "val-eps-delta": ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.delta0 = 4.0\n"
                      "hyper.K = 5\nhyper.epsilon = 0.05\n", 0),
}


@pytest.mark.parametrize("name", sorted(FRESH_RUNS))
def test_a_run_does_not_import_numpy_ma(name, tmp_path):
    # np.unique and np.union1d ask np.ma whether their input is masked, which
    # costs a fresh process the import of numpy.ma: milliseconds and about a megabyte
    text, want = FRESH_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    script = ("import sys\nfrom setquant.cli import main\n"
              "code = main(['run', sys.argv[1], '--output', sys.argv[2]])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", script, str(cfg), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"{want} False"


# each validation run draws n = 4603 or 230 starts, and each qnt-spe run its
# starts block by block: their noise and their start picks come from the
# lanes, not from numpy.random
LANE_RUNS = {
    "val-eps-delta-pass": ("algorithm = val-eps-delta\nseed = 0\nsystem.name = toy-shrink\n"
                           "hyper.delta0 = 0.25\nhyper.epsilon = 0.01\n", 0),
    "val-eps-delta-fail": ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\n"
                           "hyper.delta0 = 1.0\nhyper.K = 40\nhyper.epsilon = 0.001\nhyper.beta = 0.01\n", 1),
    "val-eps-box": ("algorithm = val-eps\nseed = 0\nsystem.name = toy-shrink\nhyper.epsilon = 0.01\n"
                    "options.region_box = [[-1.0, 1.0]]\n", 0),
    # a finite action set: its picks come from the lanes too
    "val-eps-delta-three-points": ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\n"
                                   "hyper.delta0 = 1.0\nhyper.K = 40\nhyper.epsilon = 0.001\n"
                                   "hyper.beta = 0.01\noptions.action_points = [[-5.0], [-1.0], [3.0]]\n", 1),
    # the acceptance reference config: a held input, prioritized starts and replay
    "qnt-spe-reference": ("algorithm = qnt-spe\nseed = 0\nsystem.name = lead-follow\nhyper.delta0 = 4.0\n"
                          "hyper.delta_min = 1.0\nhyper.K = 40\nhyper.N = 200000\nhyper.epsilon = 0.01\n"
                          "hyper.beta = 0.1\noptions.action_points = [[-5.0]]\noptions.prioritized = true\n"
                          "options.replay = true\n", 0),
    # box actions: lane noise blocks, and uniform start draws once a start is pruned
    "qnt-spe-box-prioritized": ("algorithm = qnt-spe\nseed = 0\nsystem.name = lead-follow\nhyper.delta0 = 4.0\n"
                                "hyper.delta_min = 2.0\nhyper.K = 10\nhyper.N = 3000\nhyper.epsilon = 0.05\n"
                                "options.prioritized = true\n", 0),
    # qnt-dp and qnt-ae pick their starts from the lane selection stream, and qnt-ae its seed points
    "qnt-dp-box": ("algorithm = qnt-dp\nseed = 1\nsystem.name = toy-threshold\nhyper.delta0 = 0.5\n"
                   "hyper.N = 300\n", 0),
    "qnt-dp-three-points": ("algorithm = qnt-dp\nseed = 0\nsystem.name = toy-threshold\nhyper.delta0 = 0.5\n"
                            "hyper.K = 5\nhyper.N = 3000\noptions.action_points = [[-1.0], [0.0], [1.0]]\n", 0),
    "qnt-ae-box": ("algorithm = qnt-ae\nseed = 2\nsystem.name = toy-threshold\nhyper.epsilon = 0.05\n"
                   "hyper.N = 20000\n", 0),
    "qnt-ae-three-points": ("algorithm = qnt-ae\nseed = 1\nsystem.name = toy-threshold\nhyper.epsilon = 0.05\n"
                            "options.action_points = [[-1.0], [0.0], [1.0]]\n", 0),
}


@pytest.mark.parametrize("name", sorted(LANE_RUNS))
def test_a_lane_run_does_not_import_numpy_random(name, tmp_path):
    # a fresh process pays milliseconds for numpy.random's import
    text, want = LANE_RUNS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    script = ("import sys\nfrom setquant.cli import main\n"
              "code = main(['run', sys.argv[1], '--output', sys.argv[2]])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", script, str(cfg), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == f"{want} False"


def test_importing_the_cli_does_not_import_numpy_random():
    script = "import sys\nimport setquant.cli\nprint('numpy.random' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("name", sorted(FRESH_RUNS) + sorted(LANE_RUNS))
def test_a_run_does_not_import_openssl(name, tmp_path):
    # hashlib's sha256 loads OpenSSL's libcrypto, about 3.5 MB of a fresh process's peak memory
    text, want = {**FRESH_RUNS, **LANE_RUNS}[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    script = ("import sys\nfrom setquant.cli import main\n"
              "code = main(['run', sys.argv[1], '--output', sys.argv[2]])\n"
              "print(code, '_hashlib' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", script, str(cfg), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, check=True)
    # the run did compute its digest
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["config_digest"] == config_digest((tmp_path / "out" / "config.txt").read_text())
    assert out.stdout.splitlines()[-1] == f"{want} False"


def test_importing_the_cli_does_not_import_openssl():
    script = "import sys\nimport setquant.cli\nprint('_hashlib' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"
