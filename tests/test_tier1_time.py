"""tools/tier1_time.py: its summary parsing, median and run schedule, without
starting pytest."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "tier1_time", Path(__file__).parents[1] / "tools" / "tier1_time.py")
tier1_time = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tier1_time)


@pytest.mark.parametrize("output, want", [
    ("....\n974 passed in 40.12s\n", "974 passed in 40.12s"),
    ("..F\nFAILED tests/test_a.py::test_b - assert 1 == 2\n"
     "1 failed, 973 passed, 2 warnings in 41.00s\n", "1 failed, 973 passed, 2 warnings in 41.00s"),
    ("===== 5 passed, 1 skipped in 0.01s =====\n", "5 passed, 1 skipped in 0.01s"),
    ("...\n974 passed in 61.90s (0:01:01)\n", "974 passed in 61.90s (0:01:01)"),
    ("ERROR tests/test_a.py\n1 error in 0.50s\n", "1 error in 0.50s"),
    ("\nno tests ran in 0.01s\n", "no tests ran in 0.01s"),
    # a test's own output that looks like a count is not the closing line
    ("974 passed in 40.12s\n3 of 4 parts in 2s done\n", "974 passed in 40.12s"),
])
def test_summary_line_is_the_last_pytest_summary(output, want):
    assert tier1_time.summary_line(output) == want


def test_summary_line_is_none_without_one():
    assert tier1_time.summary_line("") is None
    assert tier1_time.summary_line("ImportError: no module named stratal\n") is None


def test_median():
    assert tier1_time.median([3.0]) == 3.0
    assert tier1_time.median([41.9, 37.2, 39.0]) == 39.0
    assert tier1_time.median([4, 1, 3, 2]) == 2.5


def test_runs_below_one_are_refused():
    with pytest.raises(SystemExit, match="at least 1"):
        tier1_time.main(["tier1_time.py", "0"])


def test_schedule_alternates_which_tree_goes_first():
    assert tier1_time.schedule(1, ["."]) == ["."]
    assert tier1_time.schedule(3, ["."]) == [".", ".", "."]
    assert tier1_time.schedule(4, [".", "parent"]) == [
        ".", "parent", "parent", ".", ".", "parent", "parent", "."]
    assert tier1_time.schedule(3, ["a", "b"]).count("b") == 3


def test_against_runs_each_tree_in_turn(monkeypatch, capsys):
    """`--against` times both trees by the schedule, in their own
    directories, and prints each tree's median."""
    walls = iter([10.0, 20.0, 22.0, 11.0, 12.0, 21.0])
    ran = []

    def run_once(tree):
        ran.append(tree)
        return next(walls), 0, "1014 passed in 9.00s"

    monkeypatch.setattr(tier1_time, "_run_once", run_once)
    assert tier1_time.main(["tier1_time.py", "3", "--against", "../parent"]) == 0
    assert ran == tier1_time.schedule(3, [".", "../parent"])
    out = capsys.readouterr().out
    assert "run 2 (../parent): 20.0 s, exit 0: 1014 passed in 9.00s" in out
    assert out.endswith("median (.): 11.0 s over 3 runs\n"
                        "median (../parent): 21.0 s over 3 runs\n")


def test_a_failed_run_fails_the_tool(monkeypatch, capsys):
    monkeypatch.setattr(tier1_time, "_run_once", lambda tree: (1.0, 1, None))
    assert tier1_time.main(["tier1_time.py", "1"]) == 1
    assert "exit 1: no summary line" in capsys.readouterr().out
