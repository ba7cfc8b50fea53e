"""End-to-end checks of the command line: dispatch, artifact sets, compare."""

import json
import os

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
    "dim,delta\n3,1\n1,1,21,2\n1,1,23,1\n",  # a flag other than 0 or 1
], ids=["flag-then-none", "none-then-flag", "nan-coordinate", "nan-delta", "negative-delta", "flag-2"])
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
