"""setquant: scenario-sampling validation and quantification of safe operational domains."""

from .geometry import (
    BandPredicate,
    BoxRegion,
    DeltaCover,
    boundary_band,
    build_cover,
    load_cover_csv,
    refine_cover,
    save_cover_csv,
    signed_distance,
    volume_estimate,
)
from .systems import (
    BUILTIN_SYSTEMS,
    BoxActionSet,
    BrakeToStop,
    FiniteActionSet,
    FixedActionPolicy,
    IdmParams,
    IdmPolicy,
    ScenarioSystem,
    UniformPolicy,
    idm_accel,
    make_lead_follow,
    make_three_vehicle,
    make_toy_flip,
    make_toy_shift,
    make_toy_shrink,
    make_toy_threshold,
    make_toy_two_basins,
)
from .scenario import (
    StepOutcome,
    Trajectory,
    adversarial_actions,
    default_action_samples,
    run_scenario,
    step,
    step_batch,
)
from .validation import (
    ValidationVerdict,
    replay_counterexample,
    sample_size_probabilistic,
    sample_size_resolution,
    validate_delta,
    validate_eps,
    validate_eps_delta,
)
from .oracle import OracleSet, brute_force_invariant, cell_volumes, compare_sets, project_to_grid
from .quantification import (
    HyperParams,
    QuantifyResult,
    ReachGraph,
    TrajectoryBuffer,
    cost,
    prioritized_weights,
    quantify_adaptive,
    quantify_delta_pruning,
    quantify_spe,
    quantify_vanilla,
    reachable_closure,
)
from .config import ConfigError, RunConfig, materialize, parse_config, serialize_config
from .reporting import RunReport, canonical_json, config_digest

__version__ = "0.1.0"
