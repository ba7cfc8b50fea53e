"""The module layout of ``setquant``: the names ``scenario`` exports, and the size of each module.

``scenario`` once held the system definitions, the per-sample streams and
the rollouts in one 1,323-line module.  They now live in ``systems``,
``streams`` and ``scenario``, and ``scenario`` still exports every name of
its old ``__all__``, each the object its defining module holds: callers
outside the package import them from there (``bench/selftest.py``, README's
Library example), and ``bench/tracing.py`` rebinds ``scenario.step``,
``scenario.run_scenario`` and ``scenario.UniformPolicy.__call__``.

No module may exceed 800 lines.  Where no bytecode cache is written
(``PYTHONDONTWRITEBYTECODE=1``), every ``setquant run`` process compiles
``src/`` from source, and CPython holds a module's whole AST while it
compiles it, so the largest module sets the start-up high-water mark of the
run's peak RSS.  Measured in a fresh Python 3.11 process that had imported
numpy (2 vCPUs, Linux): compiling the 1,323-line ``scenario.py`` raised
VmHWM by 3.55 MB and the 737-line ``geometry.py`` by 2.16 MB; after the
split, ``scenario.py``, ``systems.py`` and ``streams.py`` raise it by 1.30,
1.27 and 1.10 MB, and ``import setquant.cli`` peaks about 1.4 MB lower.
"""

import ast
import pathlib

import pytest

import setquant
from setquant import scenario, streams, systems

PACKAGE = pathlib.Path(setquant.__file__).parent
MAX_LINES = 800

# ``scenario.__all__`` before the split, kept here as written then
SCENARIO_ALL = [
    "Facet",
    "StepOutcome",
    "Trajectory",
    "ScenarioSystem",
    "BoxActionSet",
    "FiniteActionSet",
    "UniformPolicy",
    "FixedActionPolicy",
    "BrakeToStop",
    "IdmParams",
    "IdmPolicy",
    "idm_accel",
    "idm_accel_array",
    "step",
    "step_batch",
    "run_held",
    "outside_domain",
    "run_scenario",
    "Rollouts",
    "run_batch",
    "noise_sampler",
    "sample_stream",
    "adversarial_actions",
    "default_action_samples",
    "make_lead_follow",
    "make_three_vehicle",
    "make_toy_shift",
    "make_toy_shrink",
    "make_toy_threshold",
    "make_toy_two_basins",
    "make_toy_flip",
    "BUILTIN_SYSTEMS",
]

# the names of that list that ``setquant`` itself exported then
PACKAGE_NAMES = {
    "BUILTIN_SYSTEMS", "BoxActionSet", "BrakeToStop", "FiniteActionSet", "FixedActionPolicy", "IdmParams",
    "IdmPolicy", "ScenarioSystem", "StepOutcome", "Trajectory", "UniformPolicy", "adversarial_actions",
    "default_action_samples", "idm_accel", "make_lead_follow", "make_three_vehicle", "make_toy_flip",
    "make_toy_shift", "make_toy_shrink", "make_toy_threshold", "make_toy_two_basins", "run_scenario", "step",
    "step_batch",
}


def top_level_names(module) -> set:
    """The names a module binds at its top level by ``def``, ``class`` or assignment: the names it defines."""
    names = set()
    for node in ast.parse(pathlib.Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


DEFINED = {module: top_level_names(module) for module in (systems, streams, scenario)}


@pytest.mark.parametrize("name", SCENARIO_ALL)
def test_scenario_still_exports_each_old_name_as_its_defining_modules_object(name):
    owners = [module for module, names in DEFINED.items() if name in names]
    assert len(owners) == 1, f"{name} is defined in {[m.__name__ for m in owners]}"
    obj = getattr(owners[0], name)
    assert getattr(scenario, name) is obj
    assert name in scenario.__all__
    if name in PACKAGE_NAMES:
        assert getattr(setquant, name) is obj


@pytest.mark.parametrize("module,imports", [(systems, {"geometry"}), (streams, set()),
                                            (scenario, {"geometry", "systems", "streams"})])
def test_the_split_modules_import_in_one_direction_at_the_top(module, imports):
    # geometry -> systems and streams -> scenario: no cycle, and no import below a definition
    body = ast.parse(pathlib.Path(module.__file__).read_text()).body
    first_def = next(i for i, node in enumerate(body) if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
    found = {node.module for node in ast.walk(ast.Module(body=body, type_ignores=[]))
             if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert found == imports
    assert not [node for node in body[first_def:] if isinstance(node, (ast.Import, ast.ImportFrom))]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_exceeds_the_line_guard(path):
    lines = len(path.read_text().splitlines())
    assert lines <= MAX_LINES, f"{path.name} has {lines} lines: its compile would set a run's start-up peak RSS"
