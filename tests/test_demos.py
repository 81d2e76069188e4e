"""Each narrative demo, and the Python quick start and command examples of
README.md, runs to completion with warnings as errors, demos 02 and 05 write
their artifacts, every scenario config the docs show parses, and README's
command and demo lists match the CLI and demos/, so an API, flag or schema
change that breaks one fails the suite."""

import csv
import io
import json
import re
import runpy
import shlex
import warnings
from pathlib import Path

import pytest

from kimdiff.cli import build_parser, main
from kimdiff.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_without_warnings(demo, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    # paths print relative to the root, so two checkouts print the same
    assert out and str(ROOT) not in out


def test_endpoint_demo_writes_the_bessel_comparison(capsys):
    path = ROOT / "demos" / "output" / "bessel.json"
    path.unlink(missing_ok=True)
    runpy.run_path(str(ROOT / "demos" / "05_endpoint_asymptotics.py"), run_name="__main__")
    payload = json.loads(path.read_text())
    assert [row["mode"] for row in payload["comparison"]] == [4, 8, 16]
    assert payload["decreasing"] is True


def test_spectrum_demo_writes_the_eigenfunctions(capsys):
    path = ROOT / "demos" / "output" / "eigenfunctions.csv"
    path.unlink(missing_ok=True)
    runpy.run_path(str(ROOT / "demos" / "02_spectrum_and_growth.py"), run_name="__main__")
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["x"] + [f"phi{j}" for j in range(64)]
    assert len(rows) == 2048
    # float repr round-trips, so csv.writer's bytes pin every field's text
    expected = io.StringIO()
    csv.writer(expected).writerows([header, *([float(v) for v in row] for row in rows)])
    assert path.read_bytes() == expected.getvalue().encode()


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


def test_readme_command_examples_run(tmp_path, monkeypatch, capsys):
    # from the repository root, as the examples' config paths assume, with
    # every --out pointed into tmp_path
    monkeypatch.chdir(ROOT)
    shell = "".join(re.findall(r"^```sh\n(.*?)^```", (ROOT / "README.md").read_text(),
                               re.M | re.S))
    examples = re.findall(r"^kimdiff (.*)", shell, re.M)
    assert examples
    for i, example in enumerate(examples):
        argv = shlex.split(example, comments=True)
        if "--out" not in argv:
            argv += ["--out", ""]
        argv[argv.index("--out") + 1] = str(tmp_path / str(i))
        assert main(argv) == 0, example
