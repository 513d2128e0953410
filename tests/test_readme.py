"""The README's library quickstart runs as written, and its scenario schema
names the fields the loader reads."""

import re
from pathlib import Path

from mrilqr import cli

README = Path(__file__).resolve().parents[1] / "README.md"


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
