"""Each narrative script in demos/ runs to completion."""

import runpy
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(_DEMOS) >= 4


@pytest.mark.parametrize("path", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
