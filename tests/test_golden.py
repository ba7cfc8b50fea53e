"""Golden artifacts: sha256 digests of the canonical outputs of small fixed runs.

The digests were recorded from the sequential reference implementation (one
scalar ``step`` at a time).  Any change to the rollouts, the random draw
order, the cover queries or the artifact writers that alters a single byte
of a canonical file fails here, so every refactor or fast path must leave
them unchanged.  The configs cover passing and failing ``val-eps-delta``
(the failing ones past several sample blocks), ``val-eps`` on a region box,
a finite action set with noise, the oracle at ``horizon > 1`` on lead-follow
and on a noisy toy map, one validation trajectory log, and the four
quantifiers: ``qnt-spe`` on the lead-follow reference config (prioritized
sampling and replay over the adversarial singleton), on a noisy toy map with
box actions, and with its fresh rollouts logged, plus small ``qnt-dp``,
``qnt-ae`` and ``qnt-vs`` runs, and ``val-delta`` with a constant action
given as JSON integers (a failing three-vehicle run, a passing lead-follow
run and a truncating toy map, each with its rollouts logged).
"""

import hashlib
import warnings

import pytest

from setquant.cli import dispatch
from setquant.config import parse_config

CASES = {
    "val-eps-delta-pass": (
        "algorithm = val-eps-delta\nseed = 4\nsystem.name = lead-follow\n"
        "system.state_box = [[0, 4], [0, 16], [20, 60]]\n"
        "hyper.delta0 = 2.0\nhyper.K = 20\nhyper.epsilon = 0.005\nhyper.beta = 0.1\n"
    ),
    # fails at sample 773 of 920
    "val-eps-delta-fail": (
        "algorithm = val-eps-delta\nseed = 4\nsystem.name = lead-follow\nsystem.sv_policy = idm\n"
        "system.state_box = [[0, 3], [0, 16], [12, 60]]\nhyper.omega_bar = 0.3\n"
        "hyper.delta0 = 2.0\nhyper.K = 20\nhyper.epsilon = 0.0025\nhyper.beta = 0.1\n"
    ),
    "val-eps-delta-three-vehicle": (
        "algorithm = val-eps-delta\nseed = 0\nsystem.name = three-vehicle\n"
        "hyper.delta0 = 2.5\nhyper.K = 15\nhyper.epsilon = 0.01\nhyper.beta = 0.1\n"
    ),
    "val-eps-region-box": (
        "algorithm = val-eps\nseed = 3\nsystem.name = lead-follow\n"
        "options.region_box = [[0, 4], [0, 16], [20, 60]]\n"
        "hyper.K = 20\nhyper.epsilon = 0.005\nhyper.beta = 0.1\n"
    ),
    "val-eps-region-box-three-vehicle": (
        "algorithm = val-eps\nseed = 0\nsystem.name = three-vehicle\nsystem.sv_policy = idm\n"
        "hyper.omega_bar = 0.2\noptions.region_box = [[0, 3], [0, 6], [0, 6], [12, 25], [-25, -12]]\n"
        "hyper.K = 15\nhyper.epsilon = 0.01\nhyper.beta = 0.1\n"
    ),
    "val-eps-finite-noisy": (
        "algorithm = val-eps-delta\nseed = 8\nsystem.name = toy-shrink\n"
        "options.action_points = [[-0.5], [0.0], [0.5]]\nhyper.omega_bar = 0.1\n"
        "hyper.delta0 = 0.25\nhyper.K = 6\nhyper.epsilon = 0.05\nhyper.beta = 0.1\n"
    ),
    "oracle-lead-follow": (
        "algorithm = oracle\nseed = 0\nsystem.name = lead-follow\n"
        "hyper.delta0 = 2.0\noptions.horizon = 12\n"
    ),
    "oracle-noisy-toy": (
        "algorithm = oracle\nseed = 0\nsystem.name = toy-two-basins\nhyper.omega_bar = 0.1\n"
        "hyper.delta0 = 0.5\noptions.horizon = 3\n"
    ),
    # fails at sample 275 of 920; every rollout up to it is logged
    "trajectories": (
        "algorithm = val-eps-delta\nseed = 3\nsystem.name = lead-follow\nsystem.sv_policy = idm\n"
        "system.state_box = [[0, 3], [0, 16], [12, 60]]\nhyper.omega_bar = 0.3\n"
        "hyper.delta0 = 2.0\nhyper.K = 20\nhyper.epsilon = 0.0025\nhyper.beta = 0.1\n"
        "options.emit_trajectories = true\n"
    ),
    # the benchmark's lf-spe config: 1970 fresh samples, two decays, replay
    "qnt-spe-lead-follow-reference": (
        "algorithm = qnt-spe\nseed = 0\nsystem.name = lead-follow\nsystem.sv_policy = brake\n"
        "hyper.epsilon = 0.01\nhyper.beta = 0.1\nhyper.delta0 = 4.0\nhyper.gamma = 0.5\n"
        "hyper.delta_min = 1.0\nhyper.K = 40\nhyper.N = 200000\n"
        "options.action_points = [[-5.0]]\noptions.prioritized = true\noptions.replay = true\n"
    ),
    "qnt-spe-two-basins-noisy": (
        "algorithm = qnt-spe\nseed = 5\nsystem.name = toy-two-basins\nhyper.omega_bar = 0.1\n"
        "hyper.epsilon = 0.05\nhyper.N = 4000\n"
        "options.prioritized = true\noptions.replay = true\n"
    ),
    # every fresh qnt-spe rollout is logged, in sample order
    "qnt-spe-trajectories": (
        "algorithm = qnt-spe\nseed = 2\nsystem.name = toy-threshold\nhyper.omega_bar = 0.2\n"
        "hyper.epsilon = 0.05\nhyper.N = 1500\noptions.replay = true\noptions.emit_trajectories = true\n"
    ),
    "qnt-dp-threshold": (
        "algorithm = qnt-dp\nseed = 1\nsystem.name = toy-threshold\nhyper.delta0 = 0.5\nhyper.N = 300\n"
    ),
    "qnt-ae-two-basins": (
        "algorithm = qnt-ae\nseed = 4\nsystem.name = toy-two-basins\nhyper.epsilon = 0.05\n"
        "hyper.N = 3000\noptions.initial_state = [5.0]\n"
    ),
    "qnt-vs-threshold": (
        "algorithm = qnt-vs\nseed = 6\nsystem.name = toy-threshold\nhyper.epsilon = 0.05\n"
        "options.n_attempts = 5\n"
    ),
    # fails at center 65 of 128
    "val-delta-three-vehicle": (
        "algorithm = val-delta\nseed = 0\nsystem.name = three-vehicle\nsystem.sv_policy = idm\n"
        "hyper.delta0 = 2.5\nhyper.K = 15\n"
        "options.fixed_action = [-3, -3]\noptions.emit_trajectories = true\n"
    ),
    "val-delta-lead-follow": (
        "algorithm = val-delta\nseed = 0\nsystem.name = lead-follow\nsystem.sv_policy = idm\n"
        "system.state_box = [[0, 4], [0, 16], [20, 60]]\nhyper.delta0 = 2.0\nhyper.K = 25\n"
        "options.fixed_action = [0]\noptions.emit_trajectories = true\n"
    ),
    # the action pushes every rollout through the upper facet, which truncates
    "val-delta-toy-shrink": (
        "algorithm = val-delta\nseed = 0\nsystem.name = toy-shrink\nhyper.delta0 = 0.125\nhyper.K = 6\n"
        "options.fixed_action = [1]\noptions.emit_trajectories = true\n"
    ),
}

GOLDEN = {
    "oracle-lead-follow": {
        "report.json": "bf1fd1d1b3bc2fcad03b7e659cc9c2588ca2dd8145a76006e03fb1165b66df50",
        "oracle.csv": "e4bd25f7b57f8d5ea346293c2908e9069af3207f17676ac0a6442127dff0abe1",
        "slices.csv": "31e9b1962e5b459b90a20c8d4be5ac0d4624e284e01d823cf84dfbcd08950fbb",
    },
    "oracle-noisy-toy": {
        "report.json": "d8d0eeb50f3becf5eba9765d0aa75300483601305b5888532e7a9267cb29ddb0",
        "oracle.csv": "b8a9a7cc5160e845046f1b2a55e3c527e9483b27e214bf72c7d5ce39a904ad9c",
        "slices.csv": "7c3f43e08aa22b28b57e6c7ba4e5eba6194797666527393cf52d2e2596c1b33a",
    },
    "trajectories": {
        "report.json": "b65011fab2f8aafd4773eb606ab8b86e42a459febc8fd63b4b9d2d0a8806ab83",
        "cells.csv": "d6cdb59287227a8f549f9b782d221225ab93473b4c35a40cb94cb479ed2f143a",
        "trajectories.ndjson": "48008a759e9433faa3b267a4897304cb7fc3a4ff4cd6a13289ac7a1a6a9588a8",
    },
    "val-eps-delta-fail": {
        "report.json": "cd464654f781b5596fbc0516b49da1eafb3320a7b245c6fc13fdf11b68d0a0d9",
        "cells.csv": "d6cdb59287227a8f549f9b782d221225ab93473b4c35a40cb94cb479ed2f143a",
    },
    "val-eps-delta-pass": {
        "report.json": "2ad57530f68d92b6d02e74b63f21d7d7e6a2afc680cdf37811a7495f24fe58c1",
        "cells.csv": "b1ed4a2fb9cccc67750c97ef3d1a36be117497b7035ad85626d273f91b8b8a39",
    },
    "val-eps-delta-three-vehicle": {
        "report.json": "3c45d96eb0fa14739c0825874c42d1fc07ade694054eeccdbe45b1cfe34634f5",
        "cells.csv": "201fb952ec1327c1ef7aa1097d386bde0856e4dd563539e09c8eb52821a4fa23",
    },
    "val-eps-finite-noisy": {
        "report.json": "3e969c269a92dfb4aa0da82e411b54fd2f2c036d868b7e9c10790fc55fd5cc79",
        "cells.csv": "39f1e57053241163d10ee985ed4f658d5a445431333b5b9f49aa2e3e289b93d9",
    },
    "val-eps-region-box": {
        "report.json": "9d9beb791507692107c338e86fb8060f8f41f3f312d240b7e0d3680e867b7be4",
    },
    "val-eps-region-box-three-vehicle": {
        "report.json": "5b487f25065935e15e2aa556482c07a412e3c372e3a17259fc9dcb26eee15de3",
    },
    "qnt-spe-lead-follow-reference": {
        "report.json": "ad4979a28ee576729d08b6223f5bf05180f711ab7a955f3aec4247d0cae821fb",
        "cells.csv": "9feea44561eccbee824b215a8019a0b1e0ff1a61ff1bd179fa47bb7f548a28b0",
        "slices.csv": "43fde9570fc0918d3cfeb6c95b8fb05a968e65605bdc2c3a89a695d7d67c0d8e",
    },
    "qnt-spe-two-basins-noisy": {
        "report.json": "1ae354491731b6136763cbd9eb818124db9a456504d864c490f51ef1059d6ecc",
        "cells.csv": "4d635531dc394e97599c15655776d4d519f0527e3f43604e12c664bdc490f121",
        "slices.csv": "472723e34bfdd17b13c4b6073b0e7614415891cb4f244817a27ca3d19cf6fc4c",
    },
    "qnt-spe-trajectories": {
        "report.json": "4c0129ce90848a0f9abfd89a27fdd428193512ee9cfaab65de206de125b634d6",
        "cells.csv": "d87c553b0a292c4262aab8e619f1962e03a05d3939c7b7daaf5451f6ad25295f",
        "slices.csv": "098e2b5471b07dcc3aa4307451182bcd445ae524d7a2822c7681143c1e0abecd",
        "trajectories.ndjson": "8a06c2cef18fb551216e620ccda6dbca9ae1d3ac4ecdd14c72de09900bc77205",
    },
    "qnt-dp-threshold": {
        "report.json": "6e9c570397ec32ede9887a778813cc42a1ae906148c130bb1e0ccb13e3b57cb6",
        "cells.csv": "b8eeae4bb0503dd0d65e36790c8415c61b44558ae818470405e30ea110a7657d",
        "slices.csv": "26d0f6720d57e6227b33dea2e55360f39ad3c003b13d0002f25c066957942463",
    },
    "qnt-ae-two-basins": {
        "report.json": "3334564b70de4fe2b7ee4713bfdb036825087919853855a510d8eabe94f87992",
        "cells.csv": "831081a2ce174579292ca5d480e5b8e4fade7759fb9f4007c0d7a8612b5c727f",
        "slices.csv": "ae629bf59123753e2691fcf082ec06d3e20acfa0325e1e76a51178b2712680fd",
    },
    "qnt-vs-threshold": {
        "report.json": "4ac6223cf60ae3b216a7dac9904bcc4b126834a39810eccf92e5bfbad0d37163",
        "cells.csv": "26f6d58a777d7bac681326a999e58c530b778258c092bd51fe39253e2f1967b8",
        "slices.csv": "5b86e2d5e23cb5ea406276bc820f614b12e54a7d6a14da18d00946ee4dca3de9",
    },
    "val-delta-three-vehicle": {
        "report.json": "0e74918f9b665f029f87a99dc5d51569a033c47fd8f17cf7c3f20fe5d8f05d49",
        "cells.csv": "201fb952ec1327c1ef7aa1097d386bde0856e4dd563539e09c8eb52821a4fa23",
        "trajectories.ndjson": "971cb1fa34185330e39c6cb52a794de93216669e02547d47965d33325d1328e8",
    },
    "val-delta-lead-follow": {
        "report.json": "c99ee697e299a37b9797c919721c61153749afbadb50cfd0b5a7b216dc98eda3",
        "cells.csv": "b1ed4a2fb9cccc67750c97ef3d1a36be117497b7035ad85626d273f91b8b8a39",
        "trajectories.ndjson": "1a7568b3bc834e8764f3765ce3e8b00f8cdd2920fece2fa161f0bbb51267361f",
    },
    "val-delta-toy-shrink": {
        "report.json": "27d5167bdfd2cfe543fd138587a61b5551275bb1c816c0b885d1871018f092d4",
        "cells.csv": "5cc5feb1e9d8e2d2f1917717ed8134b2d04dfe76760889b145035d3575a4d1f2",
        "trajectories.ndjson": "42b1f7ebf1a8df089ac32f59564cf6d4a2e267fcc8c593a5e972af6855575110",
    },
}


def _digests(out_dir) -> dict:
    names = ("report.json", "cells.csv", "oracle.csv", "slices.csv", "trajectories.ndjson")
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names if (out_dir / name).exists()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_canonical_artifacts_match_their_golden_digests(name, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dispatch(parse_config(CASES[name]), output=str(tmp_path))
    assert _digests(tmp_path) == GOLDEN[name]
