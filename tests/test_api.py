"""The package surface: exported names, what an import loads, and the value
semantics of the record types."""

import ast
import copy
import importlib
import pickle
import subprocess
import sys
import tomllib
from fractions import Fraction as F
from pathlib import Path

import pytest

import stratal
from stratal import verify
from stratal.l2model import ClosedManifold, Cone, L2Report, cone_report
from stratal.perversity import BY_CODIM, PER_STRATUM, Perversity
from stratal.verify import CheckSuiteReport

SRC = str(Path(stratal.__file__).parents[1])

# every name the package exports in 0.5.0, with its defining module
EXPORTS = {
    "complexes": ("FilteredComplex", "Stratum", "barycentric_subdivide", "build",
                  "check_orientation", "cone", "load", "suspension", "to_document"),
    "errors": ("ConfigurationError", "ConstructionError", "RealizabilityError",
               "SpaceFormatError", "StratalError", "StructureError"),
    "hilbert": ("FiniteHilbertComplex", "cohomology_dims", "dual_complex", "harmonic_dims",
                "index_even_odd", "kodaira_decompose", "random_complex", "validate"),
    "intersection": ("StratifiedChainComplex", "duality_check", "intersection_betti"),
    "l2model": ("ClosedManifold", "Cone", "L2Report", "cone_max_cohomology", "cone_report",
                "eval_max", "fredholm_indices", "local_model_check", "theorem_predictions"),
    "perversity": ("Perversity", "bracket", "dual", "hunsicker_shift_check",
                   "is_gm_perversity", "middle_perversities", "perversity_from_weights",
                   "top_perversity", "weight_perversity", "weights_from_perversity",
                   "zero_perversity"),
}


def _loaded_after(statement):
    """Names of the modules loaded by one statement in a fresh interpreter
    without site hooks (`-S`): a site may import `typing` and others itself."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); {statement}; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


@pytest.mark.parametrize("module, name", [
    pytest.param(module, name, id=name) for module, names in EXPORTS.items() for name in names
])
def test_exported_name_is_the_defining_object(module, name):
    namespace = {}
    exec(f"from stratal import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"stratal.{module}"), name)


# exported names that a later version deleted, with their old module: two
# functions of 0.1.0 gone in 0.2.0, and the cylinder model of 0.2.0 gone in 0.3.0
REMOVED = {"allowable": "intersection", "compare": "perversity",
           "Cylinder": "l2model", "cylinder_max_cohomology": "l2model"}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_name_is_not_exported(name):
    assert name not in dir(stratal)
    assert not hasattr(importlib.import_module(f"stratal.{REMOVED[name]}"), name)
    with pytest.raises(ImportError, match=name):
        exec(f"from stratal import {name}", {})


def test_unknown_attribute_raises():
    assert stratal.__version__ == "0.9.0"
    assert {name for names in EXPORTS.values() for name in names} <= set(dir(stratal))
    assert "importlib" not in dir(stratal)
    with pytest.raises(AttributeError, match="no_such_name"):
        stratal.no_such_name
    with pytest.raises(ImportError):
        exec("from stratal import no_such_name", {})


def test_package_and_project_versions_agree():
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == stratal.__version__


def test_package_import_loads_no_layer():
    loaded = _loaded_after("import stratal")
    assert "stratal" in loaded
    assert not {name for name in loaded if name.startswith("stratal.")}


# the modules that every command but `hilbert` loads: the CLI, its errors and
# readers, and the perversities; a space loads the complexes, which read
# their ranks from `linalg`
_BASE = {"cli", "errors", "rationals", "perversity"}
_SPACE = {"complexes", "linalg"}


@pytest.mark.parametrize("argv, layers", [
    pytest.param(["perversity", "--dim", "4", "--spec", "upper-middle", "--dual"], _BASE,
                 id="perversity-dim"),
    pytest.param(["cone", "--link-betti", "1,2,1", "--link-dim", "2", "--weight", "1/2"],
                 _BASE | {"l2model"}, id="cone"),
    pytest.param(["verify", "--suite", "hunsicker"], _BASE | {"verify"}, id="verify-hunsicker"),
    pytest.param(["verify", "--suite", "realizability"], _BASE | {"verify"},
                 id="verify-realizability"),
    pytest.param(["verify", "--suite", "hilbert"], _BASE | {"verify", "hilbert", "linalg"},
                 id="verify-hilbert"),
    pytest.param(["ih", "--space", "susp_t2", "--perversity", "lower-middle"],
                 _BASE | _SPACE | {"corpus", "intersection"}, id="ih-corpus"),
    pytest.param(["ih", "--space", f"{SRC}/stratal/corpus_data/susp_t2.json",
                  "--perversity", "upper-middle"], _BASE | _SPACE | {"intersection"},
                 id="ih-file"),
    pytest.param(["predict", "--space", "susp_t2"],
                 _BASE | _SPACE | {"corpus", "intersection", "l2model"}, id="predict"),
    pytest.param(["perversity", "--space", "susp_t2"], _BASE | _SPACE | {"corpus"},
                 id="perversity-space"),
    pytest.param(["corpus-list"], _BASE | _SPACE | {"corpus"}, id="corpus-list"),
    pytest.param(["hilbert", "--complex", "{complex}"],
                 (_BASE - {"perversity"}) | {"hilbert", "linalg"}, id="hilbert"),
])
def test_each_command_loads_only_the_layers_it_runs(tmp_path, argv, layers):
    """The exact `stratal.*` modules that one command, run through
    `cli.main` in a fresh interpreter, loads; its report is discarded."""
    complex_file = tmp_path / "complex.json"
    complex_file.write_text('{"dims": [1, 1], "differentials": [[[1]]]}')
    argv = [a.format(complex=complex_file) for a in argv]
    loaded = _loaded_after(
        "import io; from stratal.cli import main; out, sys.stdout = sys.stdout, io.StringIO(); "
        f"code = main({argv!r}); sys.stdout = out; assert code == 0, code")
    assert {name[len("stratal."):] for name in loaded if name.startswith("stratal.")} == layers


def test_cli_import_surface():
    loaded = _loaded_after("import stratal.cli")
    assert "stratal.cli" in loaded
    unwanted = {"dataclasses", "inspect", "typing",
                "stratal.verify", "stratal.hilbert", "stratal.l2model"}
    assert not loaded & unwanted


# ------------------------------------------------------------- record types

_M = ClosedManifold((1, 1), 1)
FROZEN = [
    (lambda: Perversity(BY_CODIM, {2: 0, 3: 1}),
     "Perversity(kind='by-codim', values={2: 0, 3: 1})"),
    (lambda: Perversity(PER_STRATUM, {"y": -1}),
     "Perversity(kind='per-stratum', values={'y': -1})"),
    (lambda: ClosedManifold([1, 2, 1], 2), "ClosedManifold(betti=(1, 2, 1), dim=2)"),
    (lambda: Cone(F(1, 2), _M),
     "Cone(c=Fraction(1, 2), link=ClosedManifold(betti=(1, 1), dim=1))"),
    (lambda: Cone(2, Cone(F(1, 2), _M)),
     "Cone(c=Fraction(2, 1), link=Cone(c=Fraction(1, 2), "
     "link=ClosedManifold(betti=(1, 1), dim=1)))"),
]


@pytest.mark.parametrize("make, text", [pytest.param(m, t, id=t.split("(")[0] + str(i))
                                        for i, (m, t) in enumerate(FROZEN)])
def test_frozen_records(make, text):
    a, b = make(), make()
    assert repr(a) == text
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != text
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    for field in (*a.__match_args__, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
    assert repr(a) == text


def test_frozen_record_equality_is_by_value():
    assert Perversity(BY_CODIM, {3: 1, 2: 0}) == Perversity(BY_CODIM, {2: 0, 3: 1})
    assert Cone("1/2", _M) == Cone(F(1, 2), ClosedManifold([1, 1], 1))
    assert hash(Cone("1/2", _M)) == hash(Cone(F(1, 2), _M))
    assert ClosedManifold((1, 2, 1), 2) != ClosedManifold((1, 0, 1), 2)
    assert ClosedManifold((1, 2, 1), 2) != (1, 2, 1)
    assert Cone(2, _M) != Cone(1, _M)
    assert {Perversity(BY_CODIM, {2: 0}), Perversity(BY_CODIM, {2: 0})} == {
        Perversity(BY_CODIM, {2: 0})}


def test_records_take_keyword_arguments():
    assert repr(ClosedManifold(betti=(1,), dim=0)) == "ClosedManifold(betti=(1,), dim=0)"
    assert Cone(c=1, link=_M) == Cone(1, _M)
    assert Perversity(kind=BY_CODIM, values={}).values == {}
    report = L2Report(max_betti=(1,), cutoff=F(1), hypothesis_used="h")
    assert report == L2Report((1,), F(1), "h")
    assert CheckSuiteReport(suite="x").checks == []
    with pytest.raises(TypeError):  # 0.5.0 dropped the checks parameter
        CheckSuiteReport("x", [1])


@pytest.mark.parametrize("make, error, message", [
    (lambda: Perversity("x", {}), "ConfigurationError", "unknown perversity kind 'x'"),
    (lambda: ClosedManifold((1, 0), 2), "ConfigurationError",
     "betti vector of length 2 does not match dim 2"),
    (lambda: ClosedManifold((1, -1), 1), "ConfigurationError",
     "betti numbers cannot be negative"),
    (lambda: Cone(0, _M), "ConfigurationError", "cone weight must be positive"),
    (lambda: Cone(0.5, _M), "ConfigurationError",
     "cone weight: floats are not accepted as rationals: 0.5"),
    (lambda: Cone(True, _M), "ConfigurationError", "cone weight: not a rational: True"),
    (lambda: Cone(1, 3), "ConfigurationError", "malformed cone link: 3"),
    (lambda: ClosedManifold(betti=(1,), dim=0, extra=1), "TypeError",
     "unexpected keyword argument 'extra'"),
    (lambda: Perversity(BY_CODIM), "TypeError",
     "missing 1 required positional argument: 'values'"),
])
def test_record_constructor_errors(make, error, message):
    with pytest.raises(Exception) as info:
        make()
    assert type(info.value).__name__ == error
    assert message in str(info.value)


def test_report_records_are_mutable_values():
    r = cone_report([1, 0, 1], 2, F(1, 3))
    assert repr(r) == ("L2Report(max_betti=(1, 0, 1, 0), cutoff=Fraction(5, 2), "
                       "hypothesis_used='weight below one')")
    assert r == cone_report([1, 0, 1], 2, F(1, 3))
    assert r != (1, 0, 1, 0)
    r.hypothesis_used = "changed"
    assert r.hypothesis_used == "changed"
    s, t = CheckSuiteReport("mil"), CheckSuiteReport("mil")
    s.add("a", True)
    assert repr(s) == ("CheckSuiteReport(suite='mil', "
                       "checks=[{'name': 'a', 'pass': True, 'detail': {}}])")
    assert s != t
    t.add("a", 1)
    assert s == t and s.passed
    assert CheckSuiteReport("mil") != CheckSuiteReport("hunsicker")
    for report in (r, s):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(report).__name__}'"):
            hash(report)


def test_no_module_reads_the_environment():
    """Every setting is an argument or a command-line option, so no variable
    of the environment can change an answer unseen."""
    for path in sorted(Path(stratal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path.name


def test_each_verify_suite_reads_every_parameter_it_takes():
    """A parameter that a suite never reads would take a value and drop it;
    the suites that take `corpus_dir` are the ones `verify.CORPUS_SUITES`
    names, which `stratal verify --corpus-dir` accepts."""
    tree = ast.parse(Path(verify.__file__).read_text())
    suites = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("suite_")}
    assert set(suites) == {suite.__name__ for suite in verify.SUITES.values()}
    takes = {}
    for name, node in suites.items():
        takes[name] = {arg.arg for arg in node.args.args + node.args.kwonlyargs}
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        assert takes[name] <= read, name
    assert set(verify.CORPUS_SUITES) == {
        key for key, suite in verify.SUITES.items() if "corpus_dir" in takes[suite.__name__]}
