"""Every function of the package is reached by a command or a demo, and
every parameter with a default is set by one.

A profile hook (`sys.setprofile`) records each call of a function defined
in `src/stratal` while a fixed list of command lines runs through
`cli.main` in this process and the demos run through `runpy`. The
command lines cover every perversity spec kind, `ih --cobetti
--emit-generators`, a malformed spec, both `perversity` forms, `predict`,
`cone`, `hilbert --decompose`, `corpus-list`, `corpus-build`, every verify
suite, and `--corpus-dir` with `corpus-list` and each suite that reads a
whole directory (`verify.CORPUS_SUITES`): every option of every command
appears in one of them, and the options are counted. The functions that
the AST of each module defines and that were never called must be exactly
`UNREACHED`, each kept for the reason given there. Dunder methods are not
checked: they define the value types' semantics (repr, hash, pickling, the
assignment guards) whether or not a command reaches them. A function that
no command and no demo calls is either given a caller or deleted, with its
entry added here only when a reason to keep it holds.

In the same pass the hook records, for each function with defaulted
parameters (`__init__` included), every such parameter that a call binds
to an object other than its default. The parameters never set must be
exactly `UNSET`: a parameter that nothing sets is a constant, and is
deleted unless a reason to keep it is given there.

With no profile pass, an AST scan of `src/stratal` finds every attribute
that a method assigns on `self` and checks that the package reads an
attribute of that name somewhere (`x.name` in a load). The ones never
read must be exactly `UNREAD`: a field that is stored and never read is
deleted, unless a reason to keep it is given there.
"""

import argparse
import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import runpy
import sys
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

import pytest

import stratal
from stratal import cli
from stratal.corpus import load_space
from stratal.verify import CORPUS_SUITES, SUITES

SRC = Path(stratal.__file__).parent
DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

UNREACHED = {
    "intersection.StratifiedChainComplex.reg":
        "read by perfbench's tracer in every traced run",
}

# attributes that the package assigns on `self` and reads nowhere, each
# with the reason it is kept
UNREAD = {}

UNSET = {
    f"verify.{suite}.seed": "perfbench's verify-sweep runs the suite at each run's seed; "
                            "the CLI runs it at DEFAULT_SEED"
    for suite in ("suite_duality", "suite_realizability", "suite_hilbert")
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


def _unwrapped(member):
    """The function behind a method descriptor, else `member` itself."""
    if isinstance(member, (staticmethod, classmethod)):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    if isinstance(member, cached_property):
        return member.func
    return member


def _defaulted():
    """The code object of each function of `src/stratal` that has defaulted
    parameters, mapped to its module.qualname and its (parameter, default
    object) pairs. The functions are found in the module namespaces and
    their classes, which must hold every function whose AST gives defaults."""
    in_ast, out = set(), {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and (node.args.defaults or any(node.args.kw_defaults))):
                in_ast.add((path.stem, min([node.lineno,
                                            *(d.lineno for d in node.decorator_list)])))
        module = importlib.import_module(f"stratal.{path.stem}")
        members = [m for m in vars(module).values()
                   if getattr(m, "__module__", None) == module.__name__]
        members += [m for cls in members if inspect.isclass(cls) for m in vars(cls).values()]
        for fn in map(_unwrapped, members):
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            code, defaults = fn.__code__, fn.__defaults__ or ()
            named = code.co_varnames[code.co_argcount - len(defaults):code.co_argcount]
            if pairs := [*zip(named, defaults), *(fn.__kwdefaults__ or {}).items()]:
                out[code] = (f"{path.stem}.{fn.__qualname__}", pairs)
    assert {(Path(code.co_filename).stem, code.co_firstlineno) for code in out} == in_ast
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
    bundled = ["--corpus-dir", str(SRC / "corpus_data")]
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
        ["corpus-list", *bundled],
        ["corpus-build", "--out", str(tmp_path / "corpus")],
        *(["verify", "--suite", suite, *(bundled if suite in CORPUS_SUITES else [])]
          for suite in sorted(SUITES)),
    ]


@pytest.fixture(scope="module")
def profile(tmp_path_factory):
    """One profile pass over the commands and the demos: the command lines,
    their exit codes, the (module, first line) of each function called, and
    the module.qualname.parameter of each defaulted parameter never set."""
    commands = _commands(tmp_path_factory.mktemp("reach"))
    defaulted = _defaulted()
    src = str(SRC) + os.sep
    called, set_params = set(), set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(src):
                called.add((Path(code.co_filename).stem, code.co_firstlineno))
                if code in defaulted:
                    bound = frame.f_locals
                    set_params.update((code, name) for name, default in defaulted[code][1]
                                      if bound[name] is not default)

    codes = []
    out = io.StringIO()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for argv in commands:
                codes.append(cli.main(argv))
            for demo in DEMOS:
                runpy.run_path(str(demo), run_name="__main__")
    finally:
        sys.setprofile(None)
    unset = {f"{name}.{param}" for code, (name, pairs) in defaulted.items()
             for param, _ in pairs if (code, param) not in set_params}
    return SimpleNamespace(commands=commands, codes=codes, called=called, unset=unset)


def test_every_function_is_reached_by_a_command_or_demo(profile):
    # the malformed spec exits 2; a failing verify suite would exit 1
    codes = profile.codes
    assert codes == [2 if "gm:x" in argv else 0 for argv in profile.commands], codes
    functions = _functions()
    unreached = {name for key, name in functions.items() if key not in profile.called}
    assert unreached == set(UNREACHED), (
        f"called by no command: {sorted(unreached - set(UNREACHED))}; "
        f"reached though listed: {sorted(set(UNREACHED) - unreached)}")


def test_every_defaulted_parameter_is_set_by_a_command_or_demo(profile):
    assert profile.unset == set(UNSET), (
        f"set by no command: {sorted(profile.unset - set(UNSET))}; "
        f"set though listed: {sorted(set(UNSET) - profile.unset)}")


def test_every_option_appears_in_a_command(profile):
    """Each option of each command is given on one of its command lines, so
    the parameters it reaches can be seen set."""
    parser = cli._build_parser()
    (subparsers,) = [a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    options = {(command, option) for command, sub in subparsers.items()
               for action in sub._actions if action.dest != "help"
               for option in action.option_strings}
    given = {(argv[0], arg) for argv in profile.commands for arg in argv[1:]
             if arg.startswith("--")}
    assert options - given == set()


def test_the_option_count_is_pinned():
    """The option positions of all commands, `-h` left out. A change that
    adds or removes an option changes this pin in the same diff, so each
    new knob is seen and counted."""
    parser = cli._build_parser()
    (subparsers,) = [a.choices for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)]
    positions = [(command, action.dest) for command, sub in subparsers.items()
                 for action in sub._actions if action.option_strings and action.dest != "help"]
    assert len(positions) == 19, positions


def _stored_but_unread():
    """module.Class.attribute for each attribute that a method of a class in
    `src/stratal` assigns on `self` and that no attribute load in the
    package reads by name."""
    trees = [(path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    read = {node.attr for _, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {f"{stem}.{cls.name}.{node.attr}"
            for stem, tree in trees for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr not in read}


def test_every_attribute_stored_on_self_is_read():
    unread = _stored_but_unread()
    assert unread == set(UNREAD), (
        f"stored and never read: {sorted(unread - set(UNREAD))}; "
        f"read though listed: {sorted(set(UNREAD) - unread)}")
