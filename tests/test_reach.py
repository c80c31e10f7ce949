"""Every function of the package is reached by a command or a demo.

A profile hook (`sys.setprofile`) records each call of a function defined
in `src/stratal` while a fixed list of command lines runs through
`cli.main` in this process and the demos run through `runpy`. The
command lines cover every perversity spec kind, `ih --cobetti
--emit-generators`, a malformed spec, both `perversity` forms, `predict`,
`cone`, `hilbert --decompose`, `corpus-list`, `corpus-build` and every
verify suite. The functions that the AST of each module defines and that
were never called must be exactly `UNREACHED`, each kept for the reason
given there. Dunder methods are not checked: they define the value types'
semantics (repr, hash, pickling, the assignment guards) whether or not a
command reaches them. A function that no command and no demo calls is
either given a caller or deleted, with its entry added here only when a
reason to keep it holds.
"""

import ast
import json
import os
import runpy
import sys
from pathlib import Path

import stratal
from stratal import cli
from stratal.corpus import load_space
from stratal.verify import SUITES

SRC = Path(stratal.__file__).parent
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

UNREACHED = {
    "complexes.FilteredComplex.level":
        "the test oracle of vertex levels (test_complexes, test_intersection)",
    "complexes.FilteredComplex.label":
        "the test oracle of strata (conftest, test_complexes); the Stratum docstring "
        "defines membership through it",
    "intersection.StratifiedChainComplex.reg":
        "read by perfbench's tracer in every traced run",
    "hilbert.laplacian_cols":
        "the reference implementation that test_hilbert checks harmonic_dims against",
}


def _functions():
    """(module, first line) -> module.qualname of every function that the
    AST of `src/stratal/*.py` defines, nested ones included, dunders left
    out. A decorated function's code starts at its first decorator."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}{child.name}"
                    if not (child.name.startswith("__") and child.name.endswith("__")):
                        first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                        out[path.stem, first] = f"{path.stem}.{name}"
                    visit(child, f"{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)
        visit(ast.parse(path.read_text()), "")
    return out


def _commands(tmp_path):
    space = "cone_t2"
    (stratum,) = (s.id for s in load_space(space).singular_strata())
    per_stratum = tmp_path / "p.json"
    per_stratum.write_text(json.dumps({stratum: 1}))
    complex_file = tmp_path / "complex.json"
    complex_file.write_text(json.dumps(
        {"dims": [1, 2, 1], "differentials": [[[1], [1]], [[1, -1]]]}))
    vector = tmp_path / "vector.json"
    vector.write_text(json.dumps([1, 2]))
    specs = ["zero", "top", "lower-middle", "upper-middle", "gm:0,1", "from-weights",
             f"per-stratum:{per_stratum}", "gm:x"]
    return [
        *(["ih", "--space", space, "--perversity", spec, "--cobetti", "--emit-generators"]
          for spec in specs),
        ["ih", "--space", str(SRC / "corpus_data" / "susp_t2.json"),
         "--perversity", "lower-middle"],
        ["predict", "--space", "susp_t2"],
        ["perversity", "--space", "susp_t2"],
        ["perversity", "--dim", "4", "--spec", "upper-middle", "--dual"],
        ["cone", "--link-betti", "1,2,1", "--link-dim", "2", "--weight", "1/2"],
        ["hilbert", "--complex", str(complex_file), "--decompose", "1",
         "--vector", str(vector)],
        ["corpus-list"],
        ["corpus-build", "--out", str(tmp_path / "corpus")],
        *(["verify", "--suite", suite, "--quiet"] for suite in sorted(SUITES)),
    ]


def test_every_function_is_reached_by_a_command_or_demo(tmp_path, capsys):
    commands = _commands(tmp_path)
    src = str(SRC) + os.sep
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                called.add((Path(code.co_filename).stem, code.co_firstlineno))

    codes = []
    sys.setprofile(hook)
    try:
        for argv in commands:
            codes.append(cli.main(argv))
        for demo in DEMOS:
            runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    # the malformed spec exits 2; a failing verify suite would exit 1
    assert codes == [2 if "gm:x" in argv else 0 for argv in commands], codes
    functions = _functions()
    unreached = {name for key, name in functions.items() if key not in called}
    assert unreached == set(UNREACHED), (
        f"called by no command: {sorted(unreached - set(UNREACHED))}; "
        f"reached though listed: {sorted(set(UNREACHED) - unreached)}")
