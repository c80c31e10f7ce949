"""List the lines of a package that a test run never executes.

Stdlib only: a line tracer (`sys.settrace`, and `threading.settrace` for
threads started later) is installed before the package is imported, and
pytest then runs in this process. Run from the repository root:

    python tools/untested_lines.py [--package DIR] [PYTEST_ARGS...]

DIR defaults to src/stratal; its parent directory goes first on sys.path,
so the package is imported from there. PYTEST_ARGS default to the Tier-1
options, `-q --continue-on-collection-errors`. After pytest's own output
the tool prints `path:line: source` for each executable line of DIR/*.py
that never ran, and then the count per module. A line is executable when
the compiled module, or any code object nested in it, maps an instruction
to it (`co_lines`). Code that runs only in a child process, as a CLI test
that starts `python -m stratal.cli` does, is not seen. The exit code is
pytest's. Tracing makes the run about three times slower.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest


def executable_lines(code):
    """The line numbers that `code` or a code object nested in it runs."""
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line)
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def _line_tracer(ran):
    """A local trace function that adds each line it sees to the set `ran`.
    One is made per file, never per call: the function refers to itself,
    and a new one per call would leave a reference cycle behind each call."""
    def local(frame, event, arg):
        ran.add(frame.f_lineno)
        return local
    return local


def _tracer(modules):
    """A trace function that records, per file of `modules` (real path ->
    set of lines run), each line that runs; frames of other files are not
    traced line by line."""
    known = {}  # each code filename seen, to its file's line tracer or None

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in known:
            ran = modules.get(os.path.realpath(filename))
            known[filename] = None if ran is None else _line_tracer(ran)
        local = known[filename]
        return None if local is None else local(frame, event, arg)
    return trace


def main(argv):
    args = argv[1:]
    package = Path("src/stratal")
    if args[:1] == ["--package"]:
        package, args = Path(args[1]), args[2:]
    paths = sorted(package.glob("*.py"))
    ran = {os.path.realpath(path): set() for path in paths}
    sys.path.insert(0, str(package.resolve().parent))
    trace = _tracer(ran)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    counts = []
    for path in paths:
        source = path.read_text()
        lines = source.splitlines()
        missed = sorted(executable_lines(compile(source, str(path), "exec"))
                        - ran[os.path.realpath(path)])
        for line in missed:
            print(f"{path}:{line}: {lines[line - 1].strip()}")
        counts.append((len(missed), path))
    for count, path in counts:
        print(f"{count:6d} {path}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
