"""CLI smoke tests: reports, determinism, exit codes."""

import argparse
import ast
import hashlib
import inspect
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stratal
from stratal import cli, corpus, verify
from stratal import complexes as cx
from stratal import hilbert as hb
from stratal import l2model as l2
from stratal import perversity as pv
from stratal.corpus import corpus_dir
from stratal.errors import ConfigurationError, SpaceFormatError

# the child processes import the same stratal as the tests, installed or not
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(stratal.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def _run(*args, **kw):
    """The CLI as a child process: for exit codes paired with stderr that
    must hold no traceback, the environment and resource limits."""
    return subprocess.run(
        [sys.executable, "-m", "stratal.cli", *args],
        capture_output=True,
        text=True,
        env=_ENV,
        **kw,
    )


def _main(capsys, *args):
    """The CLI run in this process through `cli.main`, as a completed
    process: for tests that read only what a command reports."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, captured.out, captured.err)


def test_ih_torus_zero(capsys):
    r = _main(capsys, "ih", "--space", "t2_7", "--perversity", "zero")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["betti"] == [1, 2, 1]
    assert doc["coefficients"] == "R0"


def test_ih_suspension_lower_middle(capsys):
    r = _main(capsys, "ih", "--space", "susp_t2", "--perversity", "lower-middle")
    doc = json.loads(r.stdout)
    assert doc["betti"] == [1, 2, 0, 1]


def test_ih_from_weights_pairs_with_dual_middle(capsys):
    r = _main(capsys, "ih", "--space", "susp_t2", "--perversity", "from-weights")
    doc = json.loads(r.stdout)
    # unit weights give the upper middle perversity, the dual of lower-middle
    assert doc["betti"] == [1, 0, 2, 1]
    assert set(doc["perversity_used"]["values"].values()) == {1}
    r2 = _main(capsys, "ih", "--space", "susp_t2", "--perversity", "upper-middle")
    assert json.loads(r2.stdout)["betti"] == doc["betti"]


def test_ih_cobetti_and_generators(capsys):
    r = _main(capsys, "ih", "--space", "s1_hex", "--perversity", "zero",
              "--cobetti", "--emit-generators")
    doc = json.loads(r.stdout)
    assert doc["cobetti"] == doc["betti"] == [1, 1]
    assert set(doc["chain_basis"]) == {"0", "1"}
    assert len(doc["chain_basis"]["1"]) == 6


def test_cone_command(capsys):
    r = _main(capsys, "cone", "--link-betti", "1,2,1", "--link-dim", "2", "--weight", "1/2")
    doc = json.loads(r.stdout)
    assert doc["max_betti"] == [1, 2, 0, 0]
    assert doc["cutoff"] == "2/1"


def test_predict_command(capsys):
    r = _main(capsys, "predict", "--space", "susp_t2")
    doc = json.loads(r.stdout)
    assert doc["max_betti"] == [1, 2, 0, 1]
    assert doc["min_betti"] == [1, 0, 2, 1]
    assert doc["fredholm"] == {"ind_max": 0, "ind_min": 0}


def test_perversity_command(capsys):
    r = _main(capsys, "perversity", "--dim", "4", "--spec", "upper-middle", "--dual")
    doc = json.loads(r.stdout)
    assert doc["perversity"]["values"] == {"1": -1, "2": 0, "3": 0, "4": 1}
    r = _main(capsys, "perversity", "--space", "susp_t2")
    doc = json.loads(r.stdout)
    assert set(doc["p_g"]["values"].values()) == {1}
    assert set(doc["q_g"]["values"].values()) == {0}


def test_hilbert_command(tmp_path: Path, capsys):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({
        "dims": [1, 2, 1],
        "differentials": [[[1], [1]], [[1, -1]]],
    }))
    r = _main(capsys, "hilbert", "--complex", str(cfile))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["cohomology"] == doc["harmonic"] == [0, 0, 0]
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps([1, 0]))
    r = _main(capsys, "hilbert", "--complex", str(cfile), "--decompose", "1",
              "--vector", str(vfile))
    doc = json.loads(r.stdout)
    parts = doc["decomposition"]
    assert parts["harmonic"] == {}
    assert parts["exact"] == {"0": "1/2", "1": "1/2"}
    assert parts["coexact"] == {"0": "1/2", "1": "-1/2"}


def test_verify_suite_exit_codes(tmp_path: Path, monkeypatch, capsys):
    r = _main(capsys, "verify", "--suite", "hunsicker")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["pass"] is True
    assert r.stderr == f"suite hunsicker: {len(doc['checks'])} checks PASS\n"
    # mil checks bundled spaces whose weights its checks assume: no directory
    r = _main(capsys, "verify", "--suite", "mil", "--corpus-dir", str(tmp_path))
    assert (r.returncode, r.stdout) == (2, "")
    # a failed check -> exit 1, with the failing report on stdout
    def failing():
        report = verify.CheckSuiteReport("mil")
        report.add("passes", True)
        report.add("fails", False, {"want": 1, "got": 0})
        return report

    monkeypatch.setitem(verify.SUITES, "mil", failing)
    r = _main(capsys, "verify", "--suite", "mil")
    assert r.returncode == 1
    assert json.loads(r.stdout) == failing().to_json()
    assert json.loads(r.stdout)["pass"] is False
    assert r.stderr == "suite mil: 2 checks FAIL\n"


def test_corpus_list(capsys):
    r = _main(capsys, "corpus-list")
    doc = json.loads(r.stdout)
    names = [s["name"] for s in doc["spaces"]]
    assert len(names) >= 8
    assert "susp_t2" in names
    susp = next(s for s in doc["spaces"] if s["name"] == "susp_t2")
    assert susp["singular_strata"] == 2
    cone_half = next(s for s in doc["spaces"] if s["name"] == "cone_s1_c_half")
    weights = [e.get("weight") for e in cone_half["strata"] if e["singular"]]
    assert weights == ["1/2"]


def test_reports_are_byte_stable(capsys):
    """A report is the same in this process and in a child, whose hash
    seed differs."""
    for args in (
        ("ih", "--space", "susp_t2", "--perversity", "top"),
        ("verify", "--suite", "cone-local"),
        ("corpus-list",),
    ):
        a = _main(capsys, *args).stdout
        b = _run(*args).stdout
        assert a == b


def test_load_error_exit_code(tmp_path: Path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "vertices": [0, 1]}')
    r = _main(capsys, "ih", "--space", str(bad), "--perversity", "zero")
    assert r.returncode == 2
    assert "maximal_simplices" in r.stderr
    r = _main(capsys, "ih", "--space", "no_such_space", "--perversity", "zero")
    assert r.returncode == 2
    r = _main(capsys, "ih", "--space", "susp_t2", "--perversity", "bogus")
    assert r.returncode == 2


_CIRCLE = {"dimension": 1, "vertices": [0, 1, 2], "maximal_simplices": [[0, 1], [1, 2], [0, 2]]}


@pytest.mark.parametrize("space, perversity", [
    pytest.param("{not json", "zero", id="not-json"),
    pytest.param({**_CIRCLE, "vertices": 3}, "zero", id="vertices-int"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], 2]}, "zero", id="bare-int-simplex"),
    pytest.param({**_CIRCLE, "dimension": True}, "zero", id="dimension-bool"),
    pytest.param({**_CIRCLE, "skeleta": {"0": 5}}, "zero", id="skeleton-int"),
    pytest.param({**_CIRCLE, "weights": [1]}, "zero", id="weights-list"),
    pytest.param(_CIRCLE, [1], id="per-stratum-list"),
    pytest.param({**_CIRCLE, "maximal_simplices": []}, "zero", id="empty-complex"),
    pytest.param({**_CIRCLE, "vertices": [[0], 1, 2]}, "zero", id="vertex-list-id"),
    pytest.param({**_CIRCLE, "vertices": [0, True, 2]}, "zero", id="vertex-bool"),
    pytest.param({**_CIRCLE, "name": 5}, "zero", id="name-int"),
    pytest.param({**_CIRCLE, "skeleta": {"0": [[0]]}, "weights": {"s0:0": True}}, "zero",
                 id="weight-bool"),
    pytest.param({**_CIRCLE, "skeleta": []}, "zero", id="skeleta-list"),
    pytest.param({**_CIRCLE, "weights": None}, "zero", id="weights-null"),
    pytest.param({**_CIRCLE, "weights": False}, "zero", id="weights-false"),
    pytest.param({**_CIRCLE, "skeleton": {"0": [[0]]}}, "zero", id="unknown-key-skeleton"),
    pytest.param({**_CIRCLE, "orientation": [[[0, 1], 1]]}, "zero", id="unknown-key-orientation"),
])
def test_malformed_json_no_traceback(tmp_path: Path, space, perversity):
    bad = tmp_path / "space.json"
    bad.write_text(space if isinstance(space, str) else json.dumps(space))
    if not isinstance(perversity, str):
        pfile = tmp_path / "perversity.json"
        pfile.write_text(json.dumps(perversity))
        perversity = f"per-stratum:{pfile}"
    r = _run("ih", "--space", str(bad), "--perversity", perversity)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr


def test_from_weights_missing_weight_exit_code(tmp_path: Path):
    space = json.loads((corpus_dir() / "susp_t2.json").read_text())
    dropped = sorted(space["weights"])[0]
    del space["weights"][dropped]
    st = tmp_path / "susp_t2_unweighted.json"
    st.write_text(json.dumps(space))
    r = _run("ih", "--space", str(st), "--perversity", "from-weights")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert dropped in r.stderr


def _cap_address_space():
    cap = 2**30
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS,
                       (cap, cap if hard == resource.RLIM_INFINITY else min(cap, hard)))


@pytest.mark.parametrize("complex_doc", [
    pytest.param({"dims": [100_000_000], "differentials": []}, id="one-space"),
    pytest.param({"dims": [100_000_000, 0], "differentials": [[]]}, id="two-spaces"),
])
def test_hilbert_refuses_a_huge_declared_dimension(tmp_path: Path, complex_doc):
    """A document of under 50 bytes declaring 10**8 columns is refused
    before anything is sized by them, with one line naming the bound. The
    child's address space is capped at 1 GiB, so a table sized by the
    declared dimension fails this test (exit 3, a MemoryError) instead of
    filling memory."""
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(complex_doc))
    r = _run("hilbert", "--complex", str(cfile), preexec_fn=_cap_address_space, timeout=60)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.splitlines() == [
        "error: total dimension 100000000 exceeds the bound 100000"]


_LINE = {"dims": [1, 1], "differentials": [[[1]]]}
_PATH = {"dims": [1, 2, 1], "differentials": [[[1], [1]], [[1, -1]]]}


@pytest.mark.parametrize("complex_doc, vector", [
    pytest.param({"dims": [1, 1], "differentials": [[[True]]]}, None, id="entry-true"),
    pytest.param({"dims": [1, 1], "differentials": [[[0.1]]]}, None, id="entry-float"),
    pytest.param(_LINE, [True], id="vector-true"),
    pytest.param(_LINE, [0.5], id="vector-float"),
])
def test_hilbert_rejects_bool_and_float_entries(tmp_path: Path, complex_doc, vector):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(complex_doc))
    args = ["hilbert", "--complex", str(cfile)]
    if vector is not None:
        vfile = tmp_path / "v.json"
        vfile.write_text(json.dumps(vector))
        args += ["--decompose", "0", "--vector", str(vfile)]
    r = _run(*args)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("complex_doc, vector, degree", [
    pytest.param(5, None, "0", id="document-int"),
    pytest.param(_LINE, 5, "0", id="vector-int"),
    pytest.param({"dims": [1, 1], "differentials": 7}, None, "0", id="differentials-int"),
    pytest.param({"dims": [1, 1], "differentials": [5]}, None, "0", id="matrix-int"),
    pytest.param({"dims": [1, 1], "differentials": [[5]]}, None, "0", id="row-int"),
    pytest.param({"dims": [None, 1], "differentials": [[[1]]]}, None, "0", id="dim-null"),
    pytest.param({"dims": [True, 1.5], "differentials": [[[1]]]}, None, "0", id="dims-bool-float"),
    pytest.param({"dims": 2, "differentials": []}, None, "0", id="dims-int"),
    pytest.param({"dims": [1, 1], "differentials": [[{"0": 1}]]}, None, "0", id="dict-column"),
    pytest.param(_PATH, [1], "-1", id="degree-negative"),
    pytest.param(_PATH, [1], "3", id="degree-past-top"),
    pytest.param(_PATH, [1], "1", id="vector-short"),
    pytest.param(_PATH, [1, 0, 0], "1", id="vector-long"),
])
def test_hilbert_rejects_malformed_shape(tmp_path: Path, capsys, complex_doc, vector, degree):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps(complex_doc))
    args = ["hilbert", "--complex", str(cfile)]
    if vector is not None:
        vfile = tmp_path / "v.json"
        vfile.write_text(json.dumps(vector))
        args += ["--decompose", degree, "--vector", str(vfile)]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal" not in captured.err
    assert len(captured.err.splitlines()) == 1


def test_perversity_rejects_negative_dim(tmp_path, capsys):
    per_stratum = tmp_path / "p.json"
    per_stratum.write_text('{"s0:apex": 0}')
    for spec in ("zero", "gm:0,1", f"per-stratum:{per_stratum}"):
        assert cli.main(["perversity", "--dim", "-3", "--spec", spec]) == 2, spec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ambient dimension cannot be negative, got -3\n"


@pytest.mark.parametrize("argv, named", [
    (["perversity", "--dim", "4", "--spec", "gm:a"], "'gm:a'"),
    (["ih", "--space", "s2", "--perversity", "gm:0,1.5"], "'gm:0,1.5'"),
    (["perversity", "--dim", "4", "--spec", "per-stratum:{by_codim}"], "'x'"),
])
def test_perversity_with_a_non_integer_codimension_exits_2(tmp_path, capsys, argv, named):
    by_codim = tmp_path / "p.json"
    by_codim.write_text('{"kind": "by-codim", "values": {"x": 1}}')
    assert cli.main([a.format(by_codim=by_codim) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named in captured.err and "integer" in captured.err


def _refuse(*args, **kwargs):
    raise AssertionError("work began before the bound was checked")


@pytest.mark.parametrize("argv, message", [
    (["perversity", "--dim", "100001"], "--dim exceeds the bound of 100000"),
    (["perversity", "--dim", "100001", "--spec", "top", "--dual"],
     "--dim exceeds the bound of 100000"),
    (["cone", "--link-betti", "1", "--link-dim", "100001", "--weight", "1"],
     "--link-dim exceeds the bound of 100000"),
    (["cone", "--link-betti", "1" + ",0" * 100001, "--link-dim", "1", "--weight", "1"],
     "--link-betti exceeds the bound of 100001 entries"),
])
def test_one_past_a_dimension_bound_exits_2_before_any_work(monkeypatch, capsys, argv, message):
    """One past each bound exits 2 with one line naming the bound, before a
    perversity is resolved or a link betti number is read: both are
    replaced by a step that fails, which would exit 3."""
    monkeypatch.setattr(cli, "_resolve_perversity", _refuse)
    monkeypatch.setattr(cli, "parse_int", _refuse)
    monkeypatch.setattr(l2, "cone_report", _refuse)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_dimension_bounds_admit_their_own_value(monkeypatch, capsys):
    """At the bound a command answers and one past it refuses, for each
    bounded value (with the bound lowered to 3)."""
    monkeypatch.setattr(cli, "MAX_DIMENSION", 3)
    assert cli.main(["perversity", "--dim", "3"]) == 0
    assert cli.main(["cone", "--link-betti", "1,0,0,1", "--link-dim", "3", "--weight", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["perversity", "--dim", "4"]) == 2
    assert cli.main(["cone", "--link-betti", "1,0,0,0,1", "--link-dim", "3", "--weight", "1"]) == 2
    assert cli.main(["cone", "--link-betti", "1,0,0,1", "--link-dim", "4", "--weight", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --dim exceeds the bound of 3",
        "error: --link-betti exceeds the bound of 4 entries",
        "error: --link-dim exceeds the bound of 3"]


def _simplex_document(k, full):
    """One k-simplex. Unless `full`, its X_0 is two vertices, which is not
    full (the edge between them lies outside it), so a load subdivides it."""
    doc = {"name": f"delta{k}", "dimension": k, "vertices": list(range(k + 1)),
           "maximal_simplices": [list(range(k + 1))]}
    if not full:
        doc["skeleta"] = {"0": [[0], [1]]}
    return doc


@pytest.mark.parametrize("k, full, refused, message", [
    pytest.param(21, True, ("_faces_by_dim", "_subdivide"),
                 "the maximal simplices have up to 4194303 faces, above the bound of "
                 "1000000 simplices", id="22-vertex-simplex"),
    pytest.param(9, False, ("_subdivide", "_chain_shapes"),
                 "subdividing the filtration to make it full gives 204495125 simplices, "
                 "above the bound of 1000000 simplices", id="non-full-9-simplex"),
])
def test_an_oversized_document_exits_2_before_it_is_built(monkeypatch, tmp_path, capsys,
                                                          k, full, refused, message):
    """A 22-vertex simplex has 2^22 - 1 faces, and the subdivision of a
    9-simplex 2 a(10) - 1 simplices, a(m) the ordered partitions of m
    vertices: each document exits 2 with one line naming the bound, before
    the faces or the subdivision that it asks for are built (those steps are
    replaced by one that fails, which would exit 3)."""
    for name in refused:
        monkeypatch.setattr(cx, name, _refuse)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_simplex_document(k, full)))
    assert cli.main(["ih", "--space", str(path), "--perversity", "zero"]) == 2
    assert capsys.readouterr() == ("", f"error: space file {path}: {message}\n")


def test_a_non_full_5_simplex_document_still_loads(tmp_path, capsys):
    """Its subdivision has 2 a(6) - 1 = 9,365 simplices and is a cone, so
    its IH is that of a point."""
    path = tmp_path / "delta5.json"
    path.write_text(json.dumps(_simplex_document(5, full=False)))
    r = _main(capsys, "ih", "--space", str(path), "--perversity", "zero")
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["betti"] == [1, 0, 0, 0, 0, 0]
    assert sum(cx.load(path).counts()) == 9365


def test_perversity_dim_zero_is_a_dimension(capsys):
    """--dim 0 is given, not absent: the zero perversity of a point has no
    stratum to take a value on."""
    assert cli.main(["perversity", "--dim", "0", "--spec", "zero"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"perversity": {"kind": "per-stratum", "values": {}}}
    assert captured.err == ""
    # without --dim (or --space) there is still nothing to build
    assert cli.main(["perversity", "--spec", "zero"]) == 2
    assert "needs --space or --dim" in capsys.readouterr().err


@pytest.mark.parametrize("space, values, missing", [
    pytest.param("susp_t2", {"s0:north": 1}, "s0:south", id="susp_t2"),
    pytest.param("cone_cone_s1", {"s0:apex'": 1}, "s1:apex", id="cone_cone_s1"),
])
def test_ih_per_stratum_missing_stratum(tmp_path, space, values, missing):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(values))
    r = _run("ih", "--space", space, "--perversity", f"per-stratum:{pfile}")
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"error: perversity has no value on stratum {missing!r}\n"


@pytest.mark.parametrize("betti", [
    pytest.param("1,-1", id="negative"),
    pytest.param("1,1,1,1,1", id="too-long"),
    pytest.param("1", id="too-short"),
])
def test_cone_rejects_bad_link_vector(betti):
    r = _run("cone", "--link-betti", betti, "--link-dim", "1", "--weight", "1")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("suite", ["nonsense", "", "Mil"])
def test_verify_rejects_unknown_suite(suite):
    r = _run("verify", "--suite", suite)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines() == [
        f"error: unknown suite {suite!r}; use one of cone-local, degeneration, duality, "
        "hilbert, hunsicker, mil, realizability, ris-consistency"]


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_ih", broken)
    assert cli.main(["ih", "--space", "s1_hex", "--perversity", "zero"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError('boom')\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    pytest.param(("verify", "--suite", "duality"), id="verify-duality"),
    pytest.param(("corpus-list",), id="corpus-list"),
])
def test_corpus_with_a_branching_regular_face_exits_2(tmp_path, theta, command):
    """The theta complex has no boundary face, so it is refused, not passed
    over as "not applicable (boundary)"."""
    (tmp_path / "theta.json").write_text(json.dumps(cx.to_document(theta)))
    r = _run(*command, "--corpus-dir", str(tmp_path))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.splitlines() == ["error: regular face (0,1) has 3 top cofaces"]


def test_corpus_dir_option_reads_spaces_and_is_reported_as_given(tmp_path, capsys):
    shutil.copy(corpus_dir() / "s2.json", tmp_path)
    given = str(tmp_path) + os.sep
    r = _main(capsys, "corpus-list", "--corpus-dir", given)
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["corpus_dir"] == given
    assert [s["name"] for s in doc["spaces"]] == ["s2"]
    r = _main(capsys, "ih", "--space", given + "s2.json", "--perversity", "zero")
    assert r.returncode == 0 and json.loads(r.stdout)["betti"] == [1, 0, 1]
    r = _main(capsys, "ih", "--space", given + "t2_7.json", "--perversity", "zero")
    assert r.returncode == 2


_TRIANGLE = {"dimension": 2, "vertices": [0, 1, 2], "maximal_simplices": [[0, 1, 2]]}


@pytest.mark.parametrize("argv, files, message", [
    pytest.param(("ih", "--space", "susp_t2", "--perversity", "gm:"), {},
                 "perversity has no value at codimension 3", id="gm-empty"),
    pytest.param(("perversity", "--dim", "3", "--spec", "from-weights"), {},
                 "perversity spec 'from-weights' needs a space", id="from-weights-no-space"),
    pytest.param(("perversity", "--dim", "3", "--spec", "per-stratum:@p.json"),
                 {"p.json": [0]}, "must hold a JSON object", id="perversity-list"),
    pytest.param(("perversity", "--dim", "3", "--spec", "per-stratum:@p.json"),
                 {"p.json": {"kind": "by-codim"}}, "perversity document needs 'kind' and 'values'",
                 id="perversity-no-values"),
    pytest.param(("perversity", "--dim", "3", "--spec", "per-stratum:@p.json"),
                 {"p.json": {"kind": "by-codim", "values": [0]}},
                 "perversity values must map keys to integers", id="perversity-values-list"),
    pytest.param(("verify", "--suite", "nope"), {},
                 "unknown suite 'nope'; use one of cone-local, degeneration, duality, hilbert, "
                 "hunsicker, mil, realizability, ris-consistency", id="verify-unknown-suite"),
    pytest.param(("verify", "--suite", "duality", "--corpus-dir", "@empty"), {},
                 "no corpus spaces under", id="verify-empty-corpus"),
    pytest.param(("hilbert", "--complex", "@c.json", "--decompose", "0"),
                 {"c.json": {"dims": [1, 1], "differentials": [[[0]]]}},
                 "--decompose needs --vector FILE", id="hilbert-decompose-no-vector"),
    pytest.param(("hilbert", "--complex", "@c.json"),
                 {"c.json": {"dims": [1, 1], "differentials": [[]]}},
                 "D_0: expected 1 rows, got 0", id="hilbert-row-count"),
    pytest.param(("hilbert", "--complex", "@c.json"),
                 {"c.json": {"dims": [-1], "differentials": []}},
                 "space dimensions cannot be negative", id="hilbert-negative-dim"),
    pytest.param(("hilbert", "--complex", "@c.json"),
                 {"c.json": {"dims": [1, 1], "differentials": []}},
                 "expected 1 differentials for 2 spaces, got 0", id="hilbert-differential-count"),
    pytest.param(("hilbert", "--complex", "@c.json"),
                 {"c.json": {"dims": [2, 1], "differentials": [[{}]]}},
                 "D_0: expected 2 columns, got 1", id="hilbert-column-count"),
    pytest.param(("ih", "--space", "@k.json", "--perversity", "zero"), {"k.json": []},
                 "space document must be a JSON object", id="space-not-object"),
    pytest.param(("ih", "--space", "@k.json", "--perversity", "zero"),
                 {"k.json": {**_TRIANGLE, "name": 5}}, "name must be a string",
                 id="space-name-not-string"),
    pytest.param(("ih", "--space", "@k.json", "--perversity", "zero"),
                 {"k.json": {**_TRIANGLE, "skeleta": []}},
                 "skeleta and weights must be JSON objects", id="space-skeleta-not-object"),
    pytest.param(("ih", "--space", "@k.json", "--perversity", "zero"),
                 {"k.json": {**_TRIANGLE, "skeleta": {"2": [[0]]}}},
                 "skeleton level 2 outside 0..1", id="space-skeleton-level"),
])
def test_error_paths_exit_2_with_their_message(tmp_path, capsys, argv, files, message):
    """Each of these errors is met in this process: exit 2, one error line
    holding its message, no traceback. An argument "@name" names a file or
    (for "@empty") an empty directory under `tmp_path`."""
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "empty").mkdir()
    r = _main(capsys, *(a.replace("@", str(tmp_path) + os.sep) for a in argv))
    assert (r.returncode, r.stdout) == (2, "")
    assert "Traceback" not in r.stderr
    (line,) = r.stderr.splitlines()
    assert line.startswith("error: ") and message in line


def _options(parser):
    return {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}


def test_each_command_takes_exactly_the_options_it_reads():
    """An option that no code reads would be accepted and dropped: the
    root parser takes none, and each command's options are the `args.<name>`
    attributes that its `cmd_*` function reads."""
    parser = cli._build_parser()
    assert _options(parser) == set()
    (commands,) = [a.choices for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.items():
        tree = ast.parse(textwrap.dedent(inspect.getsource(sub.get_default("func"))))
        read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "args"}
        assert _options(sub) == read, name


_BUNDLED = Path(corpus.__file__).parent / "corpus_data"
_EMPTY_PATH = "an empty path names no file"


@pytest.mark.parametrize("argv, message", [
    pytest.param(("corpus-build", "--corpus-dir", "@out"),
                 "unrecognized arguments: --corpus-dir", id="corpus-build-corpus-dir"),
    pytest.param(("hilbert", "--complex", "@c.json", "--quiet"),
                 "unrecognized arguments: --quiet", id="hilbert-quiet"),
    pytest.param(("--quiet", "verify", "--suite", "hunsicker"),
                 "unrecognized arguments: --quiet", id="quiet-before-command"),
    pytest.param(("perversity", "--space", "susp_t2", "--spec", "top"),
                 "--spec and --dual go with --dim, not --space", id="space-spec"),
    pytest.param(("perversity", "--space", "susp_t2", "--dual"),
                 "--spec and --dual go with --dim, not --space", id="space-dual"),
    pytest.param(("perversity", "--space", "susp_t2", "--dim", "3"),
                 "argument --dim: not allowed with argument --space", id="space-dim"),
    pytest.param(("perversity", "--dim", "3", "--corpus-dir", "@empty"),
                 "unrecognized arguments: --corpus-dir", id="dim-corpus-dir"),
    pytest.param(("hilbert", "--complex", "@c.json", "--vector", "@v.json"),
                 "--vector needs --decompose DEGREE", id="hilbert-vector-no-decompose"),
    *(pytest.param(("verify", "--suite", suite, "--corpus-dir", "@nonexistent"),
                   "--corpus-dir goes with the suites degeneration, duality, ris-consistency",
                   id=f"verify-{suite}-corpus-dir")
      for suite in ("hunsicker", "realizability", "hilbert", "mil", "cone-local")),
    # an empty path once stood for the bundled corpus or the working
    # directory; a command that names one space file takes no directory
    *(pytest.param((*command, "--corpus-dir", ""), message,
                   id=f"{command[0]}-empty-corpus-dir")
      for command, message in (
          (("ih", "--space", "s2", "--perversity", "zero"), "unrecognized arguments: --corpus-dir"),
          (("perversity", "--space", "s2"), "unrecognized arguments: --corpus-dir"),
          (("predict", "--space", "s2"), "unrecognized arguments: --corpus-dir"),
          (("verify", "--suite", "duality"), f"argument --corpus-dir: {_EMPTY_PATH}"),
          (("corpus-list",), f"argument --corpus-dir: {_EMPTY_PATH}"))),
    pytest.param(("corpus-build", "--out", ""), f"argument --out: {_EMPTY_PATH}",
                 id="corpus-build-empty-out"),
    pytest.param(("hilbert", "--complex", ""), f"argument --complex: {_EMPTY_PATH}",
                 id="hilbert-empty-complex"),
    pytest.param(("hilbert", "--complex", "@c.json", "--decompose", "0", "--vector", ""),
                 f"argument --vector: {_EMPTY_PATH}", id="hilbert-empty-vector"),
    pytest.param(("ih", "--space", "s2", "--perversity", "per-stratum:"),
                 "perversity spec 'per-stratum:' names no FILE", id="ih-empty-per-stratum"),
    pytest.param(("perversity", "--dim", "2", "--spec", "per-stratum:"),
                 "perversity spec 'per-stratum:' names no FILE",
                 id="perversity-empty-per-stratum"),
    pytest.param(("ih", "--space", "", "--perversity", "zero"),
                 "corpus space '' not found under ", id="ih-empty-space"),
    # a key the loader does not read, such as a misspelled "skeleta", would
    # load a different space
    pytest.param(("ih", "--space", "@skeleton.json", "--perversity", "zero"),
                 "space document key 'skeleton' is not one of ", id="document-skeleton"),
    pytest.param(("predict", "--space", "@orientation.json"),
                 "space document key 'orientation' is not one of ", id="document-orientation"),
])
def test_options_that_would_be_ignored_are_refused(tmp_path, monkeypatch, capsys, argv,
                                                   message):
    """Each of these inputs would change nothing, or would be read as
    something else, so it is refused: exit 2, no report, and one error line
    holding its message, after argparse's usage lines for an option. An
    argument "@name" names a path under `tmp_path`. Nothing is written,
    neither in the working directory nor over the bundled corpus."""
    (tmp_path / "c.json").write_text(json.dumps(_PATH))
    (tmp_path / "v.json").write_text(json.dumps([1, 0]))
    (tmp_path / "empty").mkdir()
    space = json.loads((corpus_dir() / "susp_t2.json").read_text())
    (tmp_path / "orientation.json").write_text(
        json.dumps({**space, "orientation": [[s, 1] for s in space["maximal_simplices"]]}))
    (tmp_path / "skeleton.json").write_text(
        json.dumps({**space, "skeleton": space.pop("skeleta")}))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    bundled = {path: (path.read_bytes(), path.stat().st_mtime_ns)
               for path in _BUNDLED.glob("*.json")}
    r = _main(capsys, *(a.replace("@", str(tmp_path) + os.sep) for a in argv))
    assert (r.returncode, r.stdout) == (2, "")
    assert "Traceback" not in r.stderr
    *usage, line = r.stderr.splitlines()
    assert all(u.startswith(("usage: ", " ")) for u in usage)
    assert "error: " in line and message in line
    assert not (tmp_path / "out").exists()
    assert list(work.iterdir()) == []
    assert {path: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in _BUNDLED.glob("*.json")} == bundled


def test_a_space_file_may_have_any_name(tmp_path, monkeypatch, capsys):
    """`--space` names a file whenever one exists: a name starting with "{"
    was once read as JSON text and refused."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(_BUNDLED / "s2.json", tmp_path / "{s2}.json")
    r = _main(capsys, "ih", "--space", "{s2}.json", "--perversity", "zero")
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["betti"] == [1, 0, 1]


@pytest.mark.parametrize("unnamed", [pytest.param(False, id="renamed"),
                                     pytest.param(True, id="both-unnamed")])
def test_corpus_spaces_of_one_name_exit_2_naming_both_files(tmp_path, capsys, unnamed):
    """A corpus knows its spaces by name, so a second document of one name
    would hide the first: `a.json` holds s2 and `b.json` t2_7 renamed "s2",
    or both omit the name and load as "unnamed"."""
    s2, t2 = (json.loads((_BUNDLED / f"{name}.json").read_text()) for name in ("s2", "t2_7"))
    if unnamed:
        del s2["name"], t2["name"]
    else:
        t2["name"] = "s2"
    (tmp_path / "a.json").write_text(json.dumps(s2))
    (tmp_path / "b.json").write_text(json.dumps(t2))
    r = _main(capsys, "corpus-list", "--corpus-dir", str(tmp_path))
    assert (r.returncode, r.stdout) == (2, "")
    name = "unnamed" if unnamed else "s2"
    assert r.stderr.splitlines() == [
        f"error: {tmp_path / 'a.json'} and {tmp_path / 'b.json'} both hold a space named {name!r}"]


def _repeated_vertex_file(path):
    """t2_7's document, its first maximal simplex made [0, 0, 1], at `path`."""
    doc = json.loads((_BUNDLED / "t2_7.json").read_text())
    doc["maximal_simplices"][0] = [0, 0, 1]
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("command", [
    pytest.param(("corpus-list",), id="corpus-list"),
    pytest.param(("verify", "--suite", "degeneration"), id="verify-degeneration"),
])
def test_a_bad_file_of_a_corpus_directory_is_named(tmp_path, capsys, command):
    """Among the files of a directory, the error names the one at fault."""
    shutil.copy(_BUNDLED / "s2.json", tmp_path)
    bad = _repeated_vertex_file(tmp_path / "t2_7.json")
    r = _main(capsys, *command, "--corpus-dir", str(tmp_path))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: space file {bad}: repeated vertex in simplex [0, 0, 1]\n"


def test_a_bad_space_file_is_named_once(tmp_path, capsys):
    """A load from a file names the file once, whether it cannot be read or
    holds a bad document, and a load from the text of the same document
    keeps the bare message."""
    bad = _repeated_vertex_file(tmp_path / "t2_7.json")
    r = _main(capsys, "ih", "--space", str(bad), "--perversity", "zero")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: space file {bad}: repeated vertex in simplex [0, 0, 1]\n"
    for path in (bad, tmp_path / "missing.json", tmp_path):
        with pytest.raises(SpaceFormatError) as from_file:
            cx.load(path)
        assert str(from_file.value).count(str(path)) == 1, from_file.value
    with pytest.raises(SpaceFormatError) as from_text:
        cx.load(bad.read_text())
    assert str(from_text.value) == "repeated vertex in simplex [0, 0, 1]"


# sha256 of each command's stdout for `--space NAME --corpus-dir DIR`, the
# form that named a file of DIR before `--corpus-dir` went with directory
# readers alone; `--space DIR/NAME.json` prints the same bytes
_SPACE_FILE_DIGESTS = {
    ("susp_t2", "ih"): "99ffe47f4998975949ca28c5a119e4a0c595ad29c7449dd231946a4819c67dd2",
    ("susp_t2", "predict"): "4e31ad012d52d5cce54bcc9b99ee2122a82a1f9877bcf6025c86daaef044c1e8",
    ("susp_t2", "perversity"): "588fce175b152b7be586be696df2b9b0d213ce9408405feaeada5bc130e74edc",
    ("cone_t2", "ih"): "87ff838f8920aa7d1f3bfaad9e01956bd272fef890c89c5c63ef5a17d88c2095",
    ("cone_t2", "predict"): "57a2efe830a2d31f0d1aaa9cfaadd0b34a010a195b2775df1ee7b12aee7bc2b6",
    ("cone_t2", "perversity"): "0b8e640d13c8280fa71395e3619a7e94459c056e352a143aa575442fe7111c12",
}


@pytest.mark.parametrize("name, command", sorted(_SPACE_FILE_DIGESTS))
def test_a_space_file_reports_as_its_corpus_directory_name_did(tmp_path, capsys, name, command):
    shutil.copy(_BUNDLED / f"{name}.json", tmp_path)
    perversity = ("--perversity", "lower-middle") if command == "ih" else ()
    r = _main(capsys, command, "--space", str(tmp_path / f"{name}.json"), *perversity)
    assert (r.returncode, r.stderr) == (0, "")
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == _SPACE_FILE_DIGESTS[name, command]


def test_a_space_name_with_a_directory_names_no_bundled_space(tmp_path, capsys):
    """`--space DIR/NAME` once read DIR/NAME.json by the corpus-name rule: a
    space is a file, or the name of a bundled space, and nothing between."""
    shutil.copy(_BUNDLED / "s2.json", tmp_path)
    spec = str(tmp_path / "s2")
    r = _main(capsys, "ih", "--space", spec, "--perversity", "zero")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: corpus space {spec!r} not found under {_BUNDLED}\n"


def test_a_by_codim_file_without_codimension_2_is_not_called_classical(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "by-codim", "values": {"3": 0}}))
    r = _main(capsys, "perversity", "--dim", "3", "--spec", f"per-stratum:{path}")
    assert r.returncode == 0
    assert json.loads(r.stdout) == {"perversity": {"kind": "by-codim", "values": {"3": 0}}}


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: hb.kodaira_decompose(hb.validate([1, 1], [[[0]]]), 0, {5: 1}),
                 ConfigurationError, "vector does not live in degree 0", id="kodaira"),
    pytest.param(lambda: pv.dual(pv.Perversity(pv.PER_STRATUM, {"nope": 0}),
                                 corpus.load_space("cone_t2")),
                 ConfigurationError, "no codimension known for stratum 'nope'", id="dual"),
    pytest.param(lambda: pv.is_gm_perversity(pv.Perversity(pv.PER_STRATUM, {"a": 0})),
                 ConfigurationError, "classicality is a by-codim notion", id="is-gm"),
    pytest.param(lambda: pv.hunsicker_shift_check(0, 1), ConfigurationError,
                 "the edge reduction needs link dimension >= 1", id="hunsicker"),
    pytest.param(lambda: l2.eval_max("x"), ConfigurationError, "not a space expression: 'x'",
                 id="eval-max"),
    pytest.param(lambda: corpus.generate_space("nope"), SpaceFormatError,
                 "unknown corpus space 'nope'", id="generate-space"),
    pytest.param(lambda: corpus.load_space("nope"), SpaceFormatError,
                 "corpus space 'nope' not found under", id="load-space"),
])
def test_library_errors_carry_their_message(call, error, message):
    """Messages of the library that no command reaches."""
    with pytest.raises(error, match=re.escape(message)):
        call()
