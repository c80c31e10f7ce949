"""Time the Tier-1 test run: the whole suite, as ROADMAP.md gives it.

Run from the repository root:

    python tools/tier1_time.py [RUNS]

RUNS defaults to 3. Each run is

    PYTHONPATH=src[:$PYTHONPATH] python -m pytest -q --continue-on-collection-errors

in a fresh process. The tool prints each run's wall time and pytest's
summary line, then the median wall time. It exits 1 if any run fails.
"""

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


def _run_once():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = subprocess.run(COMMAND, env=env, capture_output=True, text=True)
    return time.perf_counter() - start, done.returncode, summary_line(done.stdout)


def main(argv):
    runs = int(argv[1]) if len(argv) > 1 else 3
    if runs < 1:
        raise SystemExit("RUNS must be at least 1")
    times, failed = [], False
    for k in range(runs):
        wall, code, summary = _run_once()
        times.append(wall)
        failed = failed or code != 0
        print(f"run {k + 1}: {wall:.1f} s, exit {code}: {summary or 'no summary line'}",
              flush=True)
    print(f"median: {median(times):.1f} s over {runs} runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
