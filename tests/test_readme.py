"""The README's scenario file and sweep axis tables and its library example,
held to the code."""
import contextlib
import dataclasses
import io
import json
from pathlib import Path

import pytest

import timdcop.cli as cli
from timdcop.errors import InputError
from timdcop.scenarios import SCENARIO_FIELDS, Scenario, scenario_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"
# the README's words for the field table's kinds
KINDS = {"count": "count", "number": "number", "text": "text", "switch": "switch",
         "list of counts": "counts", "list of numbers": "numbers"}


def table(header: str) -> list[list[str]]:
    """The body rows of the README table under `header`, each cell stripped
    of its code marks."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index(header) + 2:]:  # past the header and rule
        if not line.startswith("|"):
            break
        rows.append([cell.strip().replace("`", "")
                     for cell in line.strip().strip("|").split("|")])
    return rows


SCENARIO_ROWS = table("| key | kind | default | must be |")


def test_readme_lists_every_scenario_key_in_table_order():
    assert [row[0] for row in SCENARIO_ROWS] == list(SCENARIO_FIELDS)


@pytest.mark.parametrize("row", SCENARIO_ROWS, ids=[row[0] for row in SCENARIO_ROWS])
def test_readme_scenario_row_matches_the_code(row):
    key, kind, default, must_be = row
    attr, table_kind, rule, _ = SCENARIO_FIELDS[key]
    assert KINDS[kind] == table_kind
    # the rule first, then any cross-field rule the key takes part in; a key
    # with no rule has an empty cell
    assert must_be.startswith(rule) if rule else must_be == ""
    required = {"seed": 1, "schedule": [1]}
    if default == "required":
        with pytest.raises(InputError, match=f"needs {key}"):
            scenario_from_dict({k: v for k, v in required.items() if k != key})
    else:
        value = {f.name: f.default for f in dataclasses.fields(Scenario)}[attr]
        value = list(value) if isinstance(value, tuple) else value
        assert json.dumps(json.loads(default)) == json.dumps(value)
        assert key not in required


def test_readme_sweep_axes_match_the_code():
    rows = table("| axis | key |")
    assert [tuple(row) for row in rows] == list(cli._AXES.items())


def test_readme_library_example_runs_and_prints_the_kernel_it_states():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(block, namespace)
    line = next(line for line in block.splitlines()
                if line.startswith("print(world.forecast.kernel)"))
    stated = line.split("# ", 1)[1]
    assert str(namespace["world"].forecast.kernel) == stated
    assert stated in out.getvalue().splitlines()


def test_package_root_exports_only_the_library_api():
    import timdcop

    assert sorted(timdcop.__all__) == [
        "RunResult", "Scenario", "__version__", "materialize", "run_policy"]
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    imported = {name.strip() for line in block.splitlines()
                if line.startswith("from timdcop")
                for name in line.split(" import ", 1)[1].split(",")}
    assert imported and imported <= set(timdcop.__all__)
