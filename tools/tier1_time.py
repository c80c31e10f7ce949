"""Time the Tier-1 test run: the whole suite, as ROADMAP.md gives it.

Run from the repository root:

    python tools/tier1_time.py [RUNS] [--against DIR]

RUNS defaults to 3. Each run is

    PYTHONPATH=src[:$PYTHONPATH] python -m pytest -q --continue-on-collection-errors

in a fresh process, in the tree it times. With `--against DIR` the tool
times this tree and the tree at DIR (say, a copy of the parent commit) in
RUNS rounds of one run each, the first tree switching every round (this,
DIR; DIR, this; ...), so that drift of the host falls on both alike. It
prints each run's wall time and pytest's summary line, then each tree's
median wall time. It exits 1 if any run fails.
"""

import argparse
import os
import re
import subprocess
import sys
import time

COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

# pytest -q ends with e.g. "974 passed, 2 skipped in 40.12s" (bare or
# between "=" rules)
_SUMMARY = re.compile(r"^=*\s*((?:\d+ \w+|no tests ran).* in [\d.]+s(?: \([\d:]+\))?)\s*=*$")


def summary_line(output):
    """pytest's closing summary ("974 passed in 40.12s") from its output,
    or None when the output has none."""
    for line in reversed(output.splitlines()):
        match = _SUMMARY.match(line.strip())
        if match:
            return match.group(1)
    return None


def median(values):
    """The median of a non-empty list of numbers."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def schedule(runs, trees):
    """The trees in the order they run: `runs` rounds of one run per tree,
    the rounds in turn forward and backward, so each pair switches which
    tree goes first."""
    return [tree for k in range(runs) for tree in (trees if k % 2 == 0 else trees[::-1])]


def _run_once(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(COMMAND, cwd=tree, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done.returncode, summary_line(done.stdout)


def main(argv):
    parser = argparse.ArgumentParser(description="Time the Tier-1 test run.")
    parser.add_argument("runs", nargs="?", type=int, default=3, help="runs per tree")
    parser.add_argument("--against", metavar="DIR", help="a second tree, timed alternately")
    args = parser.parse_args(argv[1:])
    if args.runs < 1:
        raise SystemExit("RUNS must be at least 1")
    trees = ["."] if args.against is None else [".", args.against]
    times, failed = {tree: [] for tree in trees}, False
    for k, tree in enumerate(schedule(args.runs, trees)):
        wall, code, summary = _run_once(tree)
        times[tree].append(wall)
        failed = failed or code != 0
        print(f"run {k + 1} ({tree}): {wall:.1f} s, exit {code}: {summary or 'no summary line'}",
              flush=True)
    for tree, walls in times.items():
        print(f"median ({tree}): {median(walls):.1f} s over {len(walls)} runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
