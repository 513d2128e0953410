"""The README's library quickstart runs as written, its scenario schema
names the fields the loader reads, and the package exports a fixed list of
names."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import mrilqr
from mrilqr import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: The public names of the package, its submodules aside. Adding or dropping
#: one is a decision made here, in the open. Dropped: ``sample_plants``, the
#: list view of ``discretize._sample_stack`` that no library code used;
#: ``sample_plant`` is the one sampling entry, a stack of one. Dropped:
#: ``simulate_inputs``, a second route to the open-loop run that
#: ``simulate_closed_loop`` makes with a zero gain and the inputs as its
#: feedforward rows (as ``simulate --mode open_loop`` does). Dropped:
#: ``resonant_eigenvalues``, ``reduced_hautus_mri`` and ``is_pathological``,
#: which each read one period's answer from a ``period_reports`` report, and
#: ``ControllabilityReport``, whose fields a ``PeriodReport`` now holds.
PUBLIC_NAMES = [
    "ContinuousPlant", "CostWeights", "DareDivergenceError", "DisturbanceSpec",
    "InputPolicy", "MriLqrDesign", "NumericalError", "PathologicalCandidate", "PeriodReport", "PreviewPlan",
    "RiccatiSolution", "SampledCost", "SampledModel", "SimulationDivergence", "Trajectory",
    "UncontrollablePlantError", "candidate_pathological_periods", "certified_horizon", "cost_matrices",
    "design", "impulse_hold_matrix", "kalman_controllable", "period_reports",
    "preview_plan", "sample_plant", "simulate_closed_loop",
]


SUBMODULES = {info.name: importlib.import_module(f"mrilqr.{info.name}")
              for info in pkgutil.iter_modules(mrilqr.__path__)}


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


def test_every_name_a_submodule_exports_resolves():
    assert len(SUBMODULES) > 5
    missing = [f"{module}.{name}" for module, mod in SUBMODULES.items()
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_every_module_name_the_readme_cites_exists():
    cited = [(module, name) for module, name in re.findall(r"`(?:mrilqr\.)?(\w+)\.(\w+)", README.read_text())
             if module in SUBMODULES]
    assert len(cited) > 10
    assert [f"{module}.{name}" for module, name in cited if not hasattr(SUBMODULES[module], name)] == []
