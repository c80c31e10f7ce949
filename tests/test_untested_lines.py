"""tools/untested_lines.py: which lines a traced pytest run reports."""

import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "untested_lines.py"

_MODULE = '''"""A toy module."""


def sign(x):
    if x < 0:
        return -1
    return 1


def unused():
    return 0
'''

_TEST = '''from toy.mod import sign


def test_sign():
    assert sign(2) == 1


def test_fails():
    assert False
'''


def test_untested_lines_reports_the_branch_no_test_takes(tmp_path):
    (tmp_path / "src" / "toy").mkdir(parents=True)
    (tmp_path / "src" / "toy" / "__init__.py").write_text("")
    (tmp_path / "src" / "toy" / "mod.py").write_text(_MODULE)
    (tmp_path / "test_toy.py").write_text(_TEST)
    done = subprocess.run(
        [sys.executable, str(TOOL), "--package", "src/toy", "-q", "-p", "no:cacheprovider",
         "test_toy.py"], cwd=tmp_path, capture_output=True, text=True,
        # the toy tests need no plugin, and loading them would take most of the time
        env={**os.environ, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"})
    # pytest's exit code: one of the toy tests fails
    assert done.returncode == 1, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    path = str(Path("src/toy/mod.py"))
    # the taken branch, the defs and the docstring ran; the other branch and
    # the body of `unused` did not
    assert [line for line in lines if line.startswith(path + ":")] == [
        f"{path}:6: return -1", f"{path}:11: return 0"]
    assert lines[-2:] == [f"     0 {Path('src/toy/__init__.py')}", f"     2 {path}"]
