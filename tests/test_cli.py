"""CLI smoke tests: reports, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stratal
from stratal import cli
from stratal.corpus import corpus_dir

# the child processes import the same stratal as the tests, installed or not
_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(stratal.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def _run(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "stratal.cli", *args],
        capture_output=True,
        text=True,
        env=_ENV,
        **kw,
    )


def test_ih_torus_zero():
    r = _run("ih", "--space", "t2_7", "--perversity", "zero")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["betti"] == [1, 2, 1]
    assert doc["coefficients"] == "R0"


def test_ih_suspension_lower_middle():
    r = _run("ih", "--space", "susp_t2", "--perversity", "lower-middle")
    doc = json.loads(r.stdout)
    assert doc["betti"] == [1, 2, 0, 1]


def test_ih_from_weights_pairs_with_dual_middle():
    r = _run("ih", "--space", "susp_t2", "--perversity", "from-weights")
    doc = json.loads(r.stdout)
    # unit weights give the upper middle perversity, the dual of lower-middle
    assert doc["betti"] == [1, 0, 2, 1]
    assert set(doc["perversity_used"]["values"].values()) == {1}
    r2 = _run("ih", "--space", "susp_t2", "--perversity", "upper-middle")
    assert json.loads(r2.stdout)["betti"] == doc["betti"]


def test_ih_cobetti_and_generators():
    r = _run("ih", "--space", "s1_hex", "--perversity", "zero",
             "--cobetti", "--emit-generators")
    doc = json.loads(r.stdout)
    assert doc["cobetti"] == doc["betti"] == [1, 1]
    assert set(doc["chain_basis"]) == {"0", "1"}
    assert len(doc["chain_basis"]["1"]) == 6


def test_cone_command():
    r = _run("cone", "--link-betti", "1,2,1", "--link-dim", "2", "--weight", "1/2")
    doc = json.loads(r.stdout)
    assert doc["max_betti"] == [1, 2, 0, 0]
    assert doc["cutoff"] == "2/1"


def test_predict_command():
    r = _run("predict", "--space", "susp_t2")
    doc = json.loads(r.stdout)
    assert doc["max_betti"] == [1, 2, 0, 1]
    assert doc["min_betti"] == [1, 0, 2, 1]
    assert doc["fredholm"] == {"ind_max": 0, "ind_min": 0}


def test_perversity_command():
    r = _run("perversity", "--dim", "4", "--spec", "upper-middle", "--dual")
    doc = json.loads(r.stdout)
    assert doc["perversity"]["values"] == {"1": -1, "2": 0, "3": 0, "4": 1}
    r = _run("perversity", "--space", "susp_t2")
    doc = json.loads(r.stdout)
    assert set(doc["p_g"]["values"].values()) == {1}
    assert set(doc["q_g"]["values"].values()) == {0}


def test_hilbert_command(tmp_path: Path):
    cfile = tmp_path / "c.json"
    cfile.write_text(json.dumps({
        "dims": [1, 2, 1],
        "differentials": [[[1], [1]], [[1, -1]]],
    }))
    r = _run("hilbert", "--complex", str(cfile))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["cohomology"] == doc["harmonic"] == [0, 0, 0]
    vfile = tmp_path / "v.json"
    vfile.write_text(json.dumps([1, 0]))
    r = _run("hilbert", "--complex", str(cfile), "--decompose", "1",
             "--vector", str(vfile))
    doc = json.loads(r.stdout)
    parts = doc["decomposition"]
    assert parts["harmonic"] == {}
    assert parts["exact"] == {"0": "1/2", "1": "1/2"}
    assert parts["coexact"] == {"0": "1/2", "1": "-1/2"}


def test_verify_suite_exit_codes(tmp_path: Path):
    r = _run("verify", "--suite", "hunsicker", "--quiet")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["pass"] is True
    # a tampered corpus makes the mil whole-space check fail -> exit 1
    build = _run("corpus-build", "--out", str(tmp_path))
    assert build.returncode == 0
    st = tmp_path / "susp_t2.json"
    doc = json.loads(st.read_text())
    doc["weights"] = {k: "1/4" for k in doc["weights"]}
    st.write_text(json.dumps(doc))
    r = _run("verify", "--suite", "mil", "--corpus-dir", str(tmp_path), "--quiet")
    assert r.returncode == 1
    assert json.loads(r.stdout)["pass"] is False


def test_corpus_list():
    r = _run("corpus-list")
    doc = json.loads(r.stdout)
    names = [s["name"] for s in doc["spaces"]]
    assert len(names) >= 8
    assert "susp_t2" in names
    susp = next(s for s in doc["spaces"] if s["name"] == "susp_t2")
    assert susp["singular_strata"] == 2
    cone_half = next(s for s in doc["spaces"] if s["name"] == "cone_s1_c_half")
    weights = [e.get("weight") for e in cone_half["strata"] if e["singular"]]
    assert weights == ["1/2"]


def test_reports_are_byte_stable():
    for args in (
        ("ih", "--space", "susp_t2", "--perversity", "top"),
        ("verify", "--suite", "cone-local", "--quiet"),
        ("corpus-list",),
    ):
        a = _run(*args).stdout
        b = _run(*args).stdout
        assert a == b


def test_load_error_exit_code(tmp_path: Path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2, "vertices": [0, 1]}')
    r = _run("ih", "--space", str(bad), "--perversity", "zero")
    assert r.returncode == 2
    assert "maximal_simplices" in r.stderr
    r = _run("ih", "--space", "no_such_space", "--perversity", "zero")
    assert r.returncode == 2
    r = _run("ih", "--space", "susp_t2", "--perversity", "bogus")
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


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_ih", broken)
    assert cli.main(["ih", "--space", "s1_hex", "--perversity", "zero"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError('boom')\n"
    assert "Traceback" not in captured.err
