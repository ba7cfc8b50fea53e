"""Run configuration: a small line-based key/value document.

One assignment per line, ``dotted.key = value``, where the value is JSON
(bare words are accepted as strings for convenience).  Blank lines and ``#``
comments are ignored.  The accepted keys are fixed; anything else is a hard
error with a diagnostic code:

* ``E-PARSE``  — malformed line or duplicated key
* ``E-KEY``    — unknown key
* ``E-DOMAIN`` — value outside its documented domain
* ``E-SEED``   — missing or invalid seed (seeds are mandatory: a wall-clock
  default would silently destroy reproducibility)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .geometry import _SIZE_CAP, DOMAIN_TOL, BoxRegion, _bucket_width
from .quantification import HyperParams
from .systems import (
    BUILTIN_SYSTEMS,
    BoxActionSet,
    FiniteActionSet,
    ScenarioSystem,
    TRUNCATE,
    UNSAFE,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "serialize_config", "materialize"]

ALGORITHMS = ("val-delta", "val-eps", "val-eps-delta", "qnt-vs", "qnt-dp", "qnt-ae", "qnt-spe", "oracle")

_TOP_KEYS = {"algorithm", "seed", "output_dir"}
_SYSTEM_KEYS = {"system.name", "system.state_box", "system.action_box", "system.facets", "system.sv_policy"}
_HYPER_KEYS = {"hyper.epsilon", "hyper.beta", "hyper.delta0", "hyper.gamma", "hyper.delta_min",
               "hyper.K", "hyper.N", "hyper.omega_bar", "hyper.dt"}

# per-system hyper defaults, filled in when the config stays silent: its keys are the vehicle
# systems, the ones with a subject-vehicle policy and a settable dt; the toys share _TOY_HYPER
_DEFAULT_HYPER = {
    "lead-follow": {"epsilon": 0.01, "beta": 0.1, "delta0": 4.0, "gamma": 0.5, "delta_min": 1.0,
                    "K": 40, "N": 200_000, "omega_bar": 0.0, "dt": 0.1},
    "three-vehicle": {"epsilon": 0.01, "beta": 0.1, "delta0": 2.5, "gamma": 0.5, "delta_min": 2.5,
                      "K": 30, "N": 100_000, "omega_bar": 0.0, "dt": 0.1},
}
_TOY_HYPER = {"epsilon": 0.01, "beta": 0.1, "delta0": 1.0, "gamma": 0.5, "delta_min": 0.25,
              "K": 8, "N": 50_000, "omega_bar": 0.0, "dt": 1.0}

# The algorithms that draw all their n(epsilon, beta) starts at once, so the draw is checked against the size cap.
_DRAW_ALL_STARTS = ("val-eps", "val-eps-delta", "qnt-vs")


class ConfigError(ValueError):
    def __init__(self, code: str, message: str, line: int | None = None):
        self.code = code
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{code}: {message}{where}")


@dataclass
class RunConfig:
    algorithm: str
    system_name: str
    seed: int
    hyper: dict
    sv_policy: str | None = None
    state_box: list | None = None
    action_box: object = None
    facets: list | None = None
    options: dict = field(default_factory=dict)
    output_dir: str = "setquant-out"


def _parse_lines(text: str) -> dict:
    pairs: dict = {}
    for ln_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("E-PARSE", f"expected key = value, got {line!r}", ln_no)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or any(c.isspace() for c in key):
            raise ConfigError("E-PARSE", f"malformed key {key!r}", ln_no)
        if key in pairs:
            raise ConfigError("E-PARSE", f"duplicate key {key!r}", ln_no)
        try:
            pairs[key] = json.loads(val)
        except json.JSONDecodeError:
            if val == "":
                raise ConfigError("E-PARSE", f"empty value for {key!r}", ln_no)
            pairs[key] = val  # bare word: treat as string
    return pairs


def _domain(cond: bool, message: str):
    if not cond:
        raise ConfigError("E-DOMAIN", message)


def _is_number(v) -> bool:
    """Whether ``v`` is a JSON number, not a switch, that converts to a finite float."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(float(v))
    except OverflowError:  # an integer literal past the float range
        return False


# every options.* key and the algorithms that read it: any other key is refused
# as E-KEY, and a key that the run's algorithm does not read as E-DOMAIN
OPTIONS = {
    "cells_file": ALGORITHMS[:3],
    "region_box": ("val-eps",),
    "fixed_action": ("val-delta",),
    "boundary_band": ("val-eps-delta",),
    "horizon": ("oracle",),
    "n_attempts": ("qnt-vs",),
    "initial_state": ("qnt-ae",),
    "prioritized": ("qnt-spe",),
    "replay": ("qnt-spe",),
    "weight_power": ("qnt-spe",),
    "min_feature_scale": ("qnt-spe",),
    "adversarial": ALGORITHMS,
    "action_points": ALGORITHMS,
    "emit_trajectories": tuple(a for a in ALGORITHMS if a != "oracle"),  # the oracle logs no rollout
}
# switches: JSON true or false, nothing else
_BOOLEAN_OPTIONS = ("adversarial", "boundary_band", "emit_trajectories", "prioritized", "replay")

# numeric options: (integers only, least allowed value)
_NUMERIC_OPTIONS = {"horizon": (True, 1), "n_attempts": (True, 1),
                    "weight_power": (False, 1.0), "min_feature_scale": (False, 0.0)}


def _check_options(opts: dict, box: BoxRegion, action_dim: int) -> None:
    """Check the option values; a state or a region must lie in ``box`` as far as ``step`` checks."""
    state_dim = box.dim
    path = opts.get("cells_file")
    _domain(path is None or (isinstance(path, str) and path),
            f"options.cells_file must be a non-empty path, got {path!r}")
    for key in _BOOLEAN_OPTIONS:
        v = opts.get(key, False)
        _domain(isinstance(v, bool), f"options.{key} must be true or false, got {v!r}")
    for key, (integer, least) in _NUMERIC_OPTIONS.items():
        v = opts.get(key, least)
        _domain(_is_number(v) and (isinstance(v, int) or not integer) and v >= least,
                f"options.{key} must be {'an integer' if integer else 'a number'} >= {least}, got {v!r}")
    state = opts.get("initial_state")
    _domain(state is None or (isinstance(state, list) and len(state) == state_dim
                              and all(_is_number(x) for x in state)),
            f"options.initial_state must be a list of {state_dim} numbers, got {state!r}")
    _domain(state is None or box.contains(state, DOMAIN_TOL),
            f"options.initial_state {state!r} lies outside the state box")
    if "region_box" in opts:
        pairs = opts["region_box"]
        _domain(isinstance(pairs, list) and len(pairs) == state_dim,
                f"options.region_box must be {state_dim} [lower, upper] pairs, got {pairs!r}")
        _check_box_pairs(pairs, "options.region_box")
        _domain(all(box.contains([p[k] for p in pairs], DOMAIN_TOL) for k in (0, 1)),
                f"options.region_box {pairs!r} reaches outside the state box")
    action = opts.get("fixed_action")
    _domain(action is None or (isinstance(action, list) and len(action) == action_dim
                               and all(_is_number(x) for x in action)),
            f"options.fixed_action must be a list of {action_dim} numbers, got {action!r}")
    pts = opts.get("action_points", [[0.0] * action_dim])
    _domain(isinstance(pts, list) and pts and all(
        isinstance(p, list) and len(p) == action_dim and all(_is_number(x) for x in p) for p in pts),
        f"options.action_points must be a non-empty list of points of {action_dim} numbers, got {pts!r}")
    # a repeat would count twice in the set's measure, and so in the reported cost
    _domain(len({tuple(map(float, p)) for p in pts}) == len(pts),
            f"options.action_points must be distinct points, got {pts!r}")


def _check_hyper(h: dict) -> None:
    _domain(0.0 < h["epsilon"] <= 1.0, f"epsilon={h['epsilon']} outside (0, 1]")
    _domain(1.0 - h["epsilon"] < 1.0, f"epsilon={h['epsilon']} is too small: 1 - epsilon rounds to 1")
    _domain(0.0 < h["beta"] < 1.0, f"beta={h['beta']} outside (0, 1)")
    _domain(h["delta0"] > 0.0, f"delta0={h['delta0']} must be positive")
    _domain(math.isfinite(_bucket_width(h["delta0"])),
            f"delta0={h['delta0']} is too large: a cover's bucket width 2 * delta0 * (1 + 2e-9) is not finite")
    _domain(0.0 < h["gamma"] < 1.0, f"gamma={h['gamma']} outside (0, 1)")
    _domain(h["delta_min"] > 0.0, f"delta_min={h['delta_min']} must be positive")
    _domain(isinstance(h["K"], int) and h["K"] >= 1, f"K={h['K']} must be an integer >= 1")
    _domain(isinstance(h["N"], int) and h["N"] >= 1, f"N={h['N']} must be an integer >= 1")
    _domain(h["omega_bar"] >= 0.0 and math.isfinite(2.0 * h["omega_bar"]),
            f"omega_bar={h['omega_bar']} must be non-negative, with a finite span 2 * omega_bar")
    _domain(h["dt"] > 0.0, f"dt={h['dt']} must be positive")


def _check_box_pairs(v, what: str) -> list:
    ok = isinstance(v, list) and v and all(
        isinstance(p, list) and len(p) == 2 and all(_is_number(x) for x in p) and p[0] < p[1]
        and math.isfinite(float(p[1]) - float(p[0])) for p in v)
    _domain(ok, f"{what} must be a list of [lower, upper] pairs with lower < upper and a finite width")
    return [[float(p[0]), float(p[1])] for p in v]


def parse_config(text: str) -> RunConfig:
    pairs = _parse_lines(text)
    for key in pairs:
        if key in _TOP_KEYS or key in _SYSTEM_KEYS or key in _HYPER_KEYS \
                or (key.startswith("options.") and key.split(".", 1)[1] in OPTIONS):
            continue
        raise ConfigError("E-KEY", f"unknown key {key!r}")

    if "seed" not in pairs:
        raise ConfigError("E-SEED", "seed is mandatory (explicit reproducibility, no wall-clock default)")
    seed = pairs["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or not (0 <= seed < 2**64):
        raise ConfigError("E-SEED", f"seed must be a 64-bit unsigned integer, got {seed!r}")

    algorithm = pairs.get("algorithm")
    _domain(isinstance(algorithm, str) and algorithm in ALGORITHMS,
            f"algorithm must be one of {', '.join(ALGORITHMS)}; got {algorithm!r}")

    name = pairs.get("system.name")
    _domain(isinstance(name, str) and name, "system.name is required")
    name = name.replace("_", "-")
    _domain(name in BUILTIN_SYSTEMS, f"unknown system {pairs['system.name']!r}")

    sv = pairs.get("system.sv_policy")
    if sv is not None:
        _domain(sv in ("brake", "idm"), f"sv_policy must be brake or idm, got {sv!r}")
        _domain(name in _DEFAULT_HYPER, f"system {name!r} has no subject-vehicle policy")
    elif name in _DEFAULT_HYPER:
        sv = "brake"

    state_box = pairs.get("system.state_box")
    if state_box is not None:
        state_box = _check_box_pairs(state_box, "system.state_box")

    action_box = pairs.get("system.action_box")
    if action_box is not None:
        # finite run action sets go through options.action_points instead
        action_box = _check_box_pairs(action_box, "system.action_box")

    facets = pairs.get("system.facets")
    if facets is not None:
        ok = isinstance(facets, list) and all(
            isinstance(f, list) and len(f) == 3 and isinstance(f[0], int)
            and f[1] in ("lower", "upper") and f[2] in (UNSAFE, TRUNCATE) for f in facets)
        _domain(ok, "system.facets must be [dim, lower|upper, unsafe|truncate] triplets")
        facets = sorted([int(f[0]), f[1], f[2]] for f in facets)

    defaults = dict(_DEFAULT_HYPER.get(name, _TOY_HYPER))
    for key in _HYPER_KEYS:
        short = key.split(".", 1)[1]
        if key in pairs:
            v = pairs[key]
            if short in ("K", "N"):
                _domain(isinstance(v, int) and not isinstance(v, bool), f"{key} must be an integer")
            else:
                _domain(_is_number(v), f"{key} must be a finite number, got {v!r}")
                v = float(v)
            defaults[short] = v
    _check_hyper(defaults)
    _domain(name in _DEFAULT_HYPER or defaults["dt"] == 1.0,
            f"hyper.dt = {defaults['dt']!r}: system {name!r} steps with dt = 1.0")

    options = {k.split(".", 1)[1]: v for k, v in pairs.items() if k.startswith("options.")}
    for key in options:
        _domain(algorithm in OPTIONS[key], f"options.{key} is not read by {algorithm}")
    _domain(not {"region_box", "cells_file"} <= options.keys(),
            "options.region_box and options.cells_file both name the candidate; set one")

    output_dir = pairs.get("output_dir", "setquant-out")
    _domain(isinstance(output_dir, str) and output_dir, "output_dir must be a non-empty path")

    return RunConfig(algorithm=algorithm, system_name=name, seed=seed, hyper=defaults,
                     sv_policy=sv, state_box=state_box, action_box=action_box,
                     facets=facets, options=options, output_dir=output_dir)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; ``parse_config(serialize_config(c)) == c``."""
    lines = [
        f"algorithm = {json.dumps(cfg.algorithm)}",
        f"seed = {cfg.seed}",
        f"output_dir = {json.dumps(cfg.output_dir)}",
        f"system.name = {json.dumps(cfg.system_name)}",
    ]
    if cfg.sv_policy is not None:
        lines.append(f"system.sv_policy = {json.dumps(cfg.sv_policy)}")
    if cfg.state_box is not None:
        lines.append(f"system.state_box = {json.dumps(cfg.state_box)}")
    if cfg.action_box is not None:
        lines.append(f"system.action_box = {json.dumps(cfg.action_box)}")
    if cfg.facets is not None:
        lines.append(f"system.facets = {json.dumps(cfg.facets)}")
    for short in sorted(cfg.hyper):
        lines.append(f"hyper.{short} = {json.dumps(cfg.hyper[short])}")
    for key in sorted(cfg.options):
        lines.append(f"options.{key} = {json.dumps(cfg.options[key])}")
    return "\n".join(lines) + "\n"


def materialize(cfg: RunConfig) -> tuple[ScenarioSystem, object, HyperParams]:
    """Build the concrete system, run action set and hyper bundle from a config."""
    factory = BUILTIN_SYSTEMS[cfg.system_name]
    kwargs: dict = {"omega_bar": cfg.hyper["omega_bar"]}
    if cfg.state_box is not None:
        kwargs["state_box"] = BoxRegion([p[0] for p in cfg.state_box], [p[1] for p in cfg.state_box])
    if cfg.action_box is not None:
        kwargs["action_box"] = BoxActionSet([p[0] for p in cfg.action_box],
                                            [p[1] for p in cfg.action_box])
    if cfg.system_name in _DEFAULT_HYPER:
        kwargs["sv"] = cfg.sv_policy or "brake"
        kwargs["dt"] = cfg.hyper["dt"]
    try:
        sys = factory(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError("E-DOMAIN", f"system construction failed: {exc}")
    if cfg.facets is not None:
        n = sys.state_box.dim
        for d, side, label in cfg.facets:
            if not (0 <= d < n):
                raise ConfigError("E-DOMAIN", f"facet dimension {d} outside 0..{n - 1}")
            sys.facets[(d, side)] = label

    _check_options(cfg.options, sys.state_box, sys.action_box.dim)
    width = sys.state_box.dim + sys.action_box.dim + sys.disturbance_dim
    _domain(cfg.hyper["K"] * width * 8 <= _SIZE_CAP,
            f"hyper.K = {cfg.hyper['K']} steps of {width} floats a sample take more than the "
            f"{_SIZE_CAP}-byte size cap")
    if cfg.options.get("adversarial"):
        if sys.adversarial is None:
            raise ConfigError("E-DOMAIN", f"system {sys.name!r} defines no adversarial action set")
        actions = sys.adversarial
    elif "action_points" in cfg.options:
        actions = FiniteActionSet(cfg.options["action_points"])
    else:
        actions = sys.action_box

    hyper = HyperParams(epsilon=cfg.hyper["epsilon"], beta=cfg.hyper["beta"],
                        delta0=cfg.hyper["delta0"], gamma=cfg.hyper["gamma"],
                        delta_min=cfg.hyper["delta_min"], horizon=cfg.hyper["K"],
                        budget=cfg.hyper["N"])
    if cfg.algorithm in _DRAW_ALL_STARTS:
        n = hyper.stability_window()
        _domain(n * sys.state_box.dim * 8 <= _SIZE_CAP,
                f"epsilon={hyper.epsilon}, beta={hyper.beta} ask {n} starts of {sys.state_box.dim} floats: "
                f"more than the {_SIZE_CAP}-byte size cap")
    return sys, actions, hyper
