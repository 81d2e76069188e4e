"""Each narrative demo runs to completion with warnings as errors, so an API
change that breaks a demo fails the suite."""

import runpy
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_without_warnings(demo, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
