"""The README's library quickstart runs as written, its scenario schema
names the fields the loader reads, and the package exports a fixed list of
names."""

import inspect
import re
from pathlib import Path

import mrilqr
from mrilqr import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: The public names of the package, its submodules aside. Adding or dropping
#: one is a decision made here, in the open.
PUBLIC_NAMES = [
    "ContinuousPlant", "ControllabilityReport", "CostWeights", "DareDivergenceError", "DisturbanceSpec",
    "InputPolicy", "MriLqrDesign", "NumericalError", "PathologicalCandidate", "PeriodReport", "PreviewPlan",
    "RiccatiSolution", "SampledCost", "SampledModel", "SimulationDivergence", "Trajectory",
    "UncontrollablePlantError", "candidate_pathological_periods", "certified_horizon", "cost_matrices",
    "design", "impulse_hold_matrix", "is_pathological", "kalman_controllable", "period_reports",
    "preview_plan", "reduced_hautus_mri", "resonant_eigenvalues", "sample_plant", "sample_plants",
    "simulate_closed_loop", "simulate_inputs",
]


def test_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quickstart", "exec"), {})


def test_scenario_schema_lists_the_loaded_fields():
    section = README.read_text().split("### Scenario schema", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[1])}
    loaded = set(cli._SCENARIO_SCALARS) | {"A", "B", "Btilde", "Q", "Ctilde", "Rc", "Ri",
                                           "output_row", "name"}
    assert documented == loaded


def test_public_names_are_the_listed_ones():
    names = (name for name in dir(mrilqr) if not name.startswith("_"))
    assert sorted(name for name in names if not inspect.ismodule(getattr(mrilqr, name))) == PUBLIC_NAMES


def test_names_the_readme_and_acceptance_tests_import_are_public():
    texts = [README.read_text(), (ROOT / "tests" / "test_acceptance.py").read_text()]
    imported = {name for text in texts for group in re.findall(r"from mrilqr import \(([^)]*)\)", text)
                for name in re.findall(r"\w+", group)}
    assert len(imported) > 10
    assert imported <= set(PUBLIC_NAMES)
