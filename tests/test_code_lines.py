"""tools/code_lines.py: what counts as a line of code."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).parents[1] / "tools" / "code_lines.py"

_SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment leaves the line counted

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
# that is not a comment
"""
        return text
'''


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True,
                          text=True, check=True).stdout


def test_code_lines_skip_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(_SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n\ny = 2\n")
    lines = _run(str(tmp_path / "pkg")).splitlines()
    # import, class, def, the three lines of the assignment, return
    assert [line.split()[0] for line in lines] == ["7", "2", "9"]
    assert lines[-1].split()[1] == "total"
