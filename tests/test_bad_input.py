"""Seeded malformed input never crashes the program.

About 300 seeded mutations of the inputs a user hands the command line run
through `cli.main` in this process: corpus space documents (through `ih`,
`predict`, `perversity --space` and `corpus-list --corpus-dir`), Hilbert
complex and vector documents (`hilbert`), `per-stratum:` perversity files
(`ih` and `perversity --dim`), and the raw bytes of space files, with
invalid UTF-8, a byte-order mark and NUL bytes among the changes. Each
must exit 0, 1 or 2: exit 3 is an internal error, and an exception that
escapes `cli.main` would print a traceback. The mutated space files are
also handed to `complexes.load` directly, which may raise only
`SpaceFormatError`.

A JSON mutation picks a random node of the document and replaces it with
a value of another kind, deletes it, wraps it in a list, repeats it or
shifts an integer; a text mutation cuts the JSON text short or puts a
stray character into it. One to three mutations make each case.
"""

import contextlib
import copy
import io
import json
import random

from stratal import cli
from stratal import complexes as cx
from stratal.corpus import corpus_dir, load_space
from stratal.errors import SpaceFormatError

_SPACES = ("s1_hex", "mobius", "cone_s1_c_half", "cone_t2", "susp_s0")
_JUNK = (None, True, False, 0, 1, -1, 2, 7, 10**12, 1.5, "", "x", "1/2", "s0:apex",
         [], {}, [0], [[0, 1]], {"0": [[0]]})
_HILBERT = ({"dims": [1, 2, 1], "differentials": [[[1], [1]], [[1, -1]]]},
            {"dims": [2, 2], "differentials": [[["1/2", 0], [0, 1]]]})
_CASES = {"space": 100, "bytes": 60, "perversity": 70, "hilbert": 70}


def _nodes(doc):
    """(container, key) for every value inside the JSON value `doc`."""
    out = []
    stack = [doc]
    while stack:
        x = stack.pop()
        items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
        for key, value in items:
            out.append((x, key))
            stack.append(value)
    return out


def _mutate_json(rng, doc):
    """`doc` with one random change. A document already turned to text
    (a str) gets a text mutation, as does any document now and then."""
    if isinstance(doc, str) or rng.random() < 0.15:
        text = doc if isinstance(doc, str) else json.dumps(doc)
        at = rng.randrange(len(text) + 1)
        if rng.random() < 0.5:
            return text[:at]
        return text[:at] + rng.choice('{}[],:"\\-0x') + text[at:]
    nodes = _nodes(doc := copy.deepcopy(doc))
    if not nodes:
        return copy.deepcopy(rng.choice(_JUNK))
    parent, key = rng.choice(nodes)
    op = rng.randrange(5)
    if op == 1:
        del parent[key]
    elif op == 2:
        parent[key] = [parent[key]]
    elif op == 3 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif op == 4 and type(parent[key]) is int:
        parent[key] += rng.choice((-2, -1, 1, 3, 1000))
    else:
        parent[key] = copy.deepcopy(rng.choice(_JUNK))
    return doc


def _mutated(rng, doc):
    """`doc` after one to three mutations, as the text of a file."""
    for _ in range(rng.randint(1, 3)):
        doc = _mutate_json(rng, doc)
    return doc if isinstance(doc, str) else json.dumps(doc)


def _mutate_bytes(rng, data):
    """`data` with one to three byte-level changes."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        op = rng.randrange(6)
        if op == 0:
            data = b"\xef\xbb\xbf" + data
        elif op == 1:
            data = data[:at] + b"\x00" + data[at:]
        elif op == 2:
            data = data[:at] + rng.choice((b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80")) + data[at:]
        elif op == 3:
            data = data[:at]
        elif op == 4 and data:
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
        else:
            data = data[:at] + "é∂".encode() + data[at:]
    return data


def _run(argv):
    """(exit code, stderr) of `cli.main(argv)`; an exception that escapes
    it gives the code None and its repr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the defect this test looks for
            return None, repr(exc)
    return code, err.getvalue()


def _space_commands(path, directory):
    return (["ih", "--space", str(path), "--perversity", "zero"],
            ["ih", "--space", str(path), "--perversity", "from-weights", "--emit-generators"],
            ["predict", "--space", str(path)],
            ["perversity", "--space", str(path)],
            ["corpus-list", "--corpus-dir", str(directory)])


def _load_directly(path):
    """None when `complexes.load` reads the file or raises SpaceFormatError,
    else the repr of what it raised."""
    try:
        cx.load(path)
    except SpaceFormatError:
        pass
    except Exception as exc:  # the defect this test looks for
        return repr(exc)
    return None


def test_seeded_bad_input_exits_cleanly(tmp_path):
    rng = random.Random(43)
    directory = tmp_path / "corpus"
    directory.mkdir()
    space_file = directory / "space.json"
    stratum = load_space("cone_t2").singular_strata()[0].id
    perversity_docs = ({stratum: 1}, {"kind": "per-stratum", "values": {stratum: 0}},
                       {"kind": "by-codim", "values": {"2": 0, "3": 1}})
    other = tmp_path / "other.json"
    vector = tmp_path / "vector.json"
    vector.write_text("[1, 0]")
    bad, cases = [], []
    for _ in range(_CASES["space"]):
        name = rng.choice(_SPACES)
        space_file.write_text(_mutated(rng, json.loads(
            (corpus_dir() / f"{name}.json").read_text(encoding="utf-8"))), encoding="utf-8")
        cases.append(rng.choice(_space_commands(space_file, directory)))
        code, err = _run(cases[-1])
        if code not in (0, 1, 2) or "Traceback" in err:
            bad.append((name, space_file.read_text(encoding="utf-8"), code, err))
        if (raised := _load_directly(space_file)) is not None:
            bad.append((name, space_file.read_text(encoding="utf-8"), "load", raised))
    for _ in range(_CASES["bytes"]):
        name = rng.choice(_SPACES)
        data = _mutate_bytes(rng, (corpus_dir() / f"{name}.json").read_bytes())
        space_file.write_bytes(data)
        cases.append(rng.choice(_space_commands(space_file, directory)))
        code, err = _run(cases[-1])
        if code not in (0, 1, 2) or "Traceback" in err:
            bad.append((name, data, code, err))
        if (raised := _load_directly(space_file)) is not None:
            bad.append((name, data, "load", raised))
    for _ in range(_CASES["perversity"]):
        other.write_text(_mutated(rng, rng.choice(perversity_docs)), encoding="utf-8")
        cases.append(rng.choice((
            ["ih", "--space", "cone_t2", "--perversity", f"per-stratum:{other}"],
            ["perversity", "--dim", "3", "--spec", f"per-stratum:{other}", "--dual"])))
        code, err = _run(cases[-1])
        if code not in (0, 1, 2) or "Traceback" in err:
            bad.append(("perversity", other.read_text(encoding="utf-8"), code, err))
    for _ in range(_CASES["hilbert"]):
        argv = ["hilbert", "--complex", str(other)]
        if rng.random() < 0.5:
            other.write_text(_mutated(rng, rng.choice(_HILBERT)), encoding="utf-8")
        else:
            other.write_text(json.dumps(_HILBERT[0]))
            vector.write_text(_mutated(rng, [1, 0]), encoding="utf-8")
            argv += ["--decompose", str(rng.choice((0, 1, 1, 2, -1))), "--vector", str(vector)]
        cases.append(argv)
        code, err = _run(argv)
        if code not in (0, 1, 2) or "Traceback" in err:
            bad.append(("hilbert", other.read_text(encoding="utf-8"),
                        vector.read_text(encoding="utf-8"), code, err))
    assert len(cases) == sum(_CASES.values())
    assert bad == []
