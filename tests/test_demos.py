"""Each narrative demo, and the Python quick start of README.md, runs to
completion with warnings as errors, every scenario config the docs show
parses, and README's command and demo lists match the CLI and demos/, so an
API or schema change that breaks one fails the suite."""

import json
import re
import runpy
import warnings
from pathlib import Path

import pytest

from kimdiff.cli import build_parser
from kimdiff.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_without_warnings(demo, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs_without_warnings(capsys):
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(blocks[0], str(readme), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out


def test_documented_scenario_configs_parse():
    # the parser rejects unknown keys, so a schema drift in the docs fails here
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```json\n(.*?)^```", readme.read_text(), re.M | re.S)
    assert len(blocks) == 1
    load_scenario(json.loads(blocks[0]))
    configs = sorted((ROOT / "demos" / "configs").glob("*.json"))
    assert [c.name for c in configs] == ["neutral_uniform.json", "selection_bump.json"]
    for config in configs:
        assert load_scenario(config).name == json.loads(config.read_text())["name"]


def test_readme_lists_every_subcommand_and_demo():
    readme = (ROOT / "README.md").read_text()
    shell = "".join(re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S))
    (command,) = [action for action in build_parser()._actions if action.dest == "command"]
    assert set(re.findall(r"^kimdiff (\S+)", shell, re.M)) == set(command.choices)
    assert re.findall(r"^python (demos/\S+)", shell, re.M) == [
        str(demo.relative_to(ROOT)) for demo in DEMOS]
