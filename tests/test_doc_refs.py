"""Every dotted name that the docs cite exists.

The scan reads README.md and every docstring under `src/stratal`, and takes
each backticked span that starts with a dotted name, `K.skeleton(j)` giving
`K.skeleton`. A name is checked when its head is `stratal`, a stratal
module, a stratal class or `K`, the docs' name for a loaded complex: each
attribute after the head must exist. A `FilteredComplex` name is looked up
on a loaded complex too, since some of its attributes (`degree_memo`,
`strata`) are set per instance. Other heads (`sys`, `dict`, ...) are not
stratal's to check.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import stratal
from stratal import corpus

SRC = Path(stratal.__file__).parent
README = SRC.parents[1] / "README.md"
MODULES = {path.stem: importlib.import_module(f"stratal.{path.stem}")
           for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}
CLASSES = {name: obj for module in MODULES.values() for name, obj in vars(module).items()
           if inspect.isclass(obj) and obj.__module__ == module.__name__}


def _texts():
    """(where, text) for each README paragraph and each docstring: an
    inline code span ends with its paragraph, and a fenced block holds
    none."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    for paragraph in re.split(r"\n\s*\n", text):
        yield "README.md", paragraph
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield f"{path.name}:{getattr(node, 'lineno', 1)}", doc


def _references():
    """(where, dotted name) for each backticked span that starts with one."""
    for where, text in _texts():
        for span in re.findall(r"`([^`]+)`", text):
            if m := re.match(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
                yield where, m.group()


def test_every_cited_stratal_name_exists():
    K = corpus.load_space("cone_t2")
    heads = {"stratal": stratal, **MODULES, **CLASSES, "K": K, "FilteredComplex": K}
    checked, missing = set(), []
    for where, ref in _references():
        head, *attrs = ref.split(".")
        if head not in heads:
            continue
        checked.add(ref)
        obj = heads[head]
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append((where, ref))
                break
            obj = getattr(obj, attr)
    # the scan sees the names that the docs are known to cite
    assert {"linalg.chain_ranks", "FilteredComplex.interior", "K.skeleton",
            "StratifiedChainComplex.allowable_indices"} <= checked
    assert missing == []
