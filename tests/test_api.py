"""The package surface: exported names, what an import loads, and the value
semantics of the record types."""

import copy
import importlib
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import stratal
from stratal.l2model import ClosedManifold, Cone, Cylinder, L2Report, cone_report
from stratal.perversity import BY_CODIM, PER_STRATUM, Perversity
from stratal.verify import CheckSuiteReport

SRC = str(Path(stratal.__file__).parents[1])

# every name the package exports in 0.2.0, with its defining module
EXPORTS = {
    "complexes": ("FilteredComplex", "Stratum", "barycentric_subdivide", "build",
                  "check_orientation", "cone", "load", "suspension", "to_document"),
    "errors": ("ConfigurationError", "ConstructionError", "RealizabilityError",
               "SpaceFormatError", "StratalError", "StructureError"),
    "hilbert": ("FiniteHilbertComplex", "cohomology_dims", "dual_complex", "harmonic_dims",
                "index_even_odd", "kodaira_decompose", "random_complex", "validate"),
    "intersection": ("StratifiedChainComplex", "duality_check", "intersection_betti"),
    "l2model": ("ClosedManifold", "Cone", "Cylinder", "L2Report", "cone_max_cohomology",
                "cone_report", "cylinder_max_cohomology", "eval_max", "fredholm_indices",
                "local_model_check", "theorem_predictions"),
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


# names exported in 0.1.0 whose functions 0.2.0 deleted, with their old module
REMOVED = {"allowable": "intersection", "compare": "perversity"}


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_removed_name_is_not_exported(name):
    assert name not in dir(stratal)
    assert not hasattr(importlib.import_module(f"stratal.{REMOVED[name]}"), name)
    with pytest.raises(ImportError, match=name):
        exec(f"from stratal import {name}", {})


def test_unknown_attribute_raises():
    assert stratal.__version__ == "0.2.0"
    assert {name for names in EXPORTS.values() for name in names} <= set(dir(stratal))
    assert "importlib" not in dir(stratal)
    with pytest.raises(AttributeError, match="no_such_name"):
        stratal.no_such_name
    with pytest.raises(ImportError):
        exec("from stratal import no_such_name", {})


def test_package_import_defers_hilbert_and_l2model():
    loaded = _loaded_after("import stratal")
    assert {"stratal.complexes", "stratal.perversity"} <= loaded
    assert not loaded & {"stratal.hilbert", "stratal.l2model"}


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
    (lambda: Cylinder(ClosedManifold((1, 0, 1), 2)),
     "Cylinder(base=ClosedManifold(betti=(1, 0, 1), dim=2))"),
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
    assert Cylinder(base=_M) == Cylinder(_M)
    assert Perversity(kind=BY_CODIM, values={}).values == {}
    report = L2Report(max_betti=(1,), cutoff=F(1), hypothesis_used="h")
    assert report == L2Report((1,), F(1), "h")
    assert CheckSuiteReport(suite="x").checks == []
    assert CheckSuiteReport("x", [1]).checks == [1]


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
    (lambda: Cone(1, Cylinder(_M)), "ConfigurationError",
     "the link of a cone must be compact-flavored"),
    (lambda: Cone(1, 3), "ConfigurationError", "malformed cone link: 3"),
    (lambda: Cylinder(4), "ConfigurationError", "malformed cylinder base: 4"),
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
