"""Traced `stratal` command for the cli-cold workload.

Usage: python3 perfbench/cli_child.py SPANS_OUT COMMAND [ARGS...]

Times `import stratal.cli`, installs the tracer's wrappers, calls
`cli.main(argv)`, writes the spans and both timings to SPANS_OUT as JSON and
exits with the command's own exit code. Standard output is the command's.
"""

import json
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import stratal.cli
    imported = time.perf_counter()

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    began = time.perf_counter()
    try:
        code = stratal.cli.main(argv)
    finally:
        ended = time.perf_counter()
        tracer.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"import_s": imported - start, "main_s": ended - began,
                       "leftover": tracer.leftover_wrappers(),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
