"""Run-config document: parsing, validation codes, round-trip, materialize."""

import pathlib
import re

import pytest

from setquant.config import ALGORITHMS, OPTIONS, ConfigError, materialize, parse_config, serialize_config
from setquant.config import _SIZE_CAP
from setquant.quantification import HyperParams
from setquant.scenario import BoxActionSet, FiniteActionSet

MINIMAL = """
algorithm = qnt-spe
seed = 42
system.name = toy-two-basins
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.algorithm == "qnt-spe"
    assert cfg.seed == 42
    assert cfg.system_name == "toy-two-basins"
    assert cfg.hyper["epsilon"] == 0.01
    assert cfg.hyper["delta0"] == 1.0
    assert cfg.hyper["K"] == 8
    assert cfg.output_dir == "setquant-out"


def test_driving_defaults_differ_from_toy_defaults():
    cfg = parse_config("algorithm = qnt-spe\nseed = 1\nsystem.name = lead-follow\n")
    assert cfg.hyper["delta0"] == 4.0
    assert cfg.hyper["K"] == 40
    assert cfg.sv_policy == "brake"  # implicit subject-vehicle default


def test_comments_blanks_and_bare_words():
    cfg = parse_config(
        "# a comment\n\nalgorithm = oracle\nseed = 0\nsystem.name = toy-flip\n"
        "output_dir = runs/today\n")
    assert cfg.algorithm == "oracle"
    assert cfg.output_dir == "runs/today"  # bare word read as a string


@pytest.mark.parametrize(
    "text,code",
    [
        ("algorithm qnt-spe\nseed = 1\nsystem.name = toy-flip\n", "E-PARSE"),
        ("algorithm = qnt-spe\nalgorithm = oracle\nseed = 1\nsystem.name = toy-flip\n", "E-PARSE"),
        ("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-flip\nfrobnicate = 3\n", "E-KEY"),
        ("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-flip\nhyper.epsilon = 2\n", "E-DOMAIN"),
        # 1 - epsilon rounds to 1, so no sample size follows
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.epsilon = 1e-17\nhyper.K = 5\n",
         "E-DOMAIN"),
        ("algorithm = warp\nseed = 1\nsystem.name = toy-flip\n", "E-DOMAIN"),
        ("algorithm = qnt-spe\nseed = 1\nsystem.name = atlantis\n", "E-DOMAIN"),
        ("algorithm = qnt-spe\nsystem.name = toy-flip\n", "E-SEED"),
        ("algorithm = qnt-spe\nseed = -3\nsystem.name = toy-flip\n", "E-SEED"),
        ("algorithm = qnt-spe\nseed = 1.5\nsystem.name = toy-flip\n", "E-SEED"),
        ("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-flip\nhyper.K = 2.5\n", "E-DOMAIN"),
        ("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-flip\nsystem.state_box = [[1, 0]]\n", "E-DOMAIN"),
        ("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-flip\nsystem.state_box = [[0, Infinity]]\n", "E-DOMAIN"),
        ("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-flip\nsystem.action_box = [[false, true]]\n", "E-DOMAIN"),
        ("algorithm = qnt-spe\nseed = 1\nsystem.name = toy-flip\nsystem.sv_policy = \"brake\"\n", "E-DOMAIN"),
        # finite bounds whose width or span overflows to inf
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nsystem.action_box = [[-1e308, 1e308]]\n",
         "E-DOMAIN"),
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.omega_bar = 1e308\n", "E-DOMAIN"),
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\n"
         "system.state_box = [[-1e308, 1e308], [0, 16], [5.5, 60]]\n", "E-DOMAIN"),
        # an integer past the float range, and hyper-parameters that are not finite
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.omega_bar = 1" + "0" * 400 + "\n",
         "E-DOMAIN"),
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\n"
         "system.state_box = [[0, 1" + "0" * 400 + "], [0, 16], [5.5, 60]]\n", "E-DOMAIN"),
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.delta0 = Infinity\n", "E-DOMAIN"),
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.delta_min = Infinity\n", "E-DOMAIN"),
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.dt = Infinity\n", "E-DOMAIN"),
        ("algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.dt = NaN\n", "E-DOMAIN"),
        # a toy steps with dt = 1.0 whatever the config says
        ("algorithm = qnt-dp\nseed = 0\nsystem.name = toy-threshold\nhyper.N = 50\nhyper.dt = 0.5\n", "E-DOMAIN"),
    ],
)
def test_rejections_carry_their_diagnostic_code(text, code):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.code == code


def test_parse_error_reports_the_line():
    with pytest.raises(ConfigError) as err:
        parse_config("algorithm = qnt-spe\nseed = 1\nbroken line here\n")
    assert err.value.line == 3


def test_round_trip_is_stable():
    text = (
        "algorithm = qnt-spe\nseed = 9\nsystem.name = lead-follow\n"
        "system.sv_policy = \"idm\"\nhyper.delta0 = 2.5\nhyper.N = 1000\n"
        "options.prioritized = true\noptions.replay = false\n"
        "system.state_box = [[0, 8], [0, 8], [5.5, 30]]\n")
    cfg = parse_config(text)
    out = serialize_config(cfg)
    again = parse_config(out)
    assert again == cfg
    assert serialize_config(again) == out  # canonical form is a fixed point


def test_underscores_normalize_to_dashes():
    cfg = parse_config("algorithm = oracle\nseed = 1\nsystem.name = toy_two_basins\n")
    assert cfg.system_name == "toy-two-basins"


def test_materialize_builds_the_configured_system():
    cfg = parse_config(
        "algorithm = qnt-spe\nseed = 3\nsystem.name = lead-follow\n"
        "system.sv_policy = \"idm\"\nhyper.K = 12\nhyper.N = 500\n")
    sys_, actions, hyper = materialize(cfg)
    assert sys_.name == "lead-follow"
    assert sys_.sv_policy_name == "idm"
    assert isinstance(actions, BoxActionSet)
    assert isinstance(hyper, HyperParams)
    assert hyper.horizon == 12 and hyper.budget == 500


def test_materialize_custom_boxes_and_facets():
    cfg = parse_config(
        "algorithm = oracle\nseed = 0\nsystem.name = lead-follow\n"
        "system.state_box = [[0, 8], [0, 8], [5.5, 30]]\n"
        "system.action_box = [[-3, 1]]\n"
        "system.facets = [[0, \"upper\", \"unsafe\"]]\n")
    sys_, actions, _ = materialize(cfg)
    assert sys_.state_box.upper.tolist() == [8.0, 8.0, 30.0]
    assert actions.box.lower.tolist() == [-3.0]
    assert (0, "upper") in sys_.unsafe_facets()
    assert (2, "lower") in sys_.unsafe_facets()  # the built-in one stays


def test_materialize_adversarial_and_point_actions():
    base = "algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\n"
    _, acts, _ = materialize(parse_config(base + "options.adversarial = true\n"))
    assert isinstance(acts, FiniteActionSet) and acts.points == ((-5.0,),)
    _, acts, _ = materialize(parse_config(base + "options.action_points = [[-5], [0], [3]]\n"))
    assert isinstance(acts, FiniteActionSet) and len(acts.points) == 3
    with pytest.raises(ConfigError):
        materialize(parse_config(base + "options.action_points = []\n"))


@pytest.mark.parametrize("K", [10**40, 2**62, 10**11])
def test_materialize_refuses_a_horizon_no_array_can_hold(K):
    # K steps of 3 + 1 + 2 floats: refused before anything is allocated
    cfg = parse_config(f"algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\nhyper.K = {K}\n")
    with pytest.raises(ConfigError) as err:
        materialize(cfg)
    assert err.value.code == "E-DOMAIN" and "size cap" in str(err.value)


def test_the_size_cap_refuses_one_sample_past_it_and_nothing_below():
    # materialize only sizes the arrays: neither config is run
    base = "algorithm = val-eps-delta\nseed = 0\nsystem.name = lead-follow\n"
    most = _SIZE_CAP // ((3 + 1 + 2) * 8)
    materialize(parse_config(base + f"hyper.K = {most}\n"))
    with pytest.raises(ConfigError, match="size cap"):
        materialize(parse_config(base + f"hyper.K = {most + 1}\n"))


@pytest.mark.parametrize("algorithm", ["val-eps", "val-eps-delta", "qnt-vs"])
@pytest.mark.parametrize("epsilon", [1e-12, 1e-7])
def test_materialize_refuses_start_draws_past_the_size_cap(algorithm, epsilon):
    # n(1e-12, 0.01) is about 4.6e12 starts of 3 floats, n(1e-7, 0.01) 46,051,700: 1.1 GB
    text = f"algorithm = {algorithm}\nseed = 0\nsystem.name = lead-follow\nhyper.K = 5\n" \
           f"hyper.epsilon = {epsilon}\nhyper.beta = 0.01\n"
    if algorithm == "val-eps":
        text += "options.region_box = [[0, 4], [0, 16], [20, 60]]\n"
    materialize(parse_config(text.replace(str(epsilon), "1e-06")))  # 4,605,168 starts: 110 MB
    with pytest.raises(ConfigError) as err:
        materialize(parse_config(text))
    assert err.value.code == "E-DOMAIN" and "size cap" in str(err.value)


def test_a_run_that_draws_no_start_block_is_not_sized_by_epsilon():
    # qnt-spe reads n(epsilon, beta) as its stability window, a count of samples it never holds at once
    cfg = parse_config("algorithm = qnt-spe\nseed = 0\nsystem.name = lead-follow\nhyper.epsilon = 1e-12\n")
    assert materialize(cfg)[2].stability_window() > _SIZE_CAP


def test_materialize_rejects_adversarial_on_systems_without_one():
    cfg = parse_config("algorithm = qnt-spe\nseed = 0\nsystem.name = toy-flip\n"
                       "options.adversarial = true\n")
    with pytest.raises(ConfigError) as err:
        materialize(cfg)
    assert err.value.code == "E-DOMAIN"


def test_readme_options_table_is_the_schema():
    """README's options table names every option with exactly the algorithms that read it."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]+)\|", text, re.M)
    readers = {key: set(ALGORITHMS) if cell.strip() == "all" else set(re.findall(r"`([\w-]+)`", cell))
               for key, cell in rows}
    assert readers == {key: set(algs) for key, algs in OPTIONS.items()}
