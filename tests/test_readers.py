"""Readers of outside text: round trip or reject.

Each reader of integer text, "p/q" text or a JSON document either refuses an
input with its own error class (on the command line: exit code 2 and one
error line) or reads it so that its writer gives back the input's canonical
form. The property tests draw valid inputs, write them canonically and then
respell one field the way `int()`, `float()` or `json.loads` would still
read it: underscores, spaces, signs, leading zeros, "-0", non-ASCII digits,
floats, bools and repeated object keys.
"""

import contextlib
import io
import json
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stratal import cli, corpus
from stratal import complexes as cx
from stratal import hilbert as hb
from stratal import perversity as pv
from stratal.errors import ConfigurationError, ConstructionError, SpaceFormatError, StratalError
from stratal.rationals import format_rational, parse_int, parse_rational, parse_weight, read_json

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                     suppress_health_check=[HealthCheck.too_slow])
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _int_misspellings(n):
    """Texts that Python's `int()` (or `float()`) reads, but that are not
    the canonical decimal text of n."""
    s = str(n)
    digits = s.lstrip("-")
    sign = s[:len(s) - len(digits)]
    out = [f"+{s}", f" {s}", f"{s} ", f"\t{s}\n", f"{sign}0{digits}", f"{sign}0_{digits}",
           f"{s}.0", f"{s}e0", s.translate(_ARABIC_INDIC)]
    if len(digits) > 1:
        out.append(f"{sign}{digits[0]}_{digits[1:]}")
    if n == 0:
        out.append("-0")
    return out


def _int_text(n):
    """(text, accepted): the canonical text of n or one misspelling of it."""
    return st.one_of(st.just((str(n), True)),
                     st.sampled_from([(t, False) for t in _int_misspellings(n)]))


def _int_value(n):
    """(JSON value, accepted) where an integer is expected: n itself, or its
    text, a float or a bool."""
    return st.sampled_from([(n, True), (str(n), False), (float(n), False), (n == 1, False)])


def _rational_text(c, json_only=True):
    """(value, accepted) for a positive rational weight c: a spelling every
    weight reader takes (p/q, an unreduced p/q, bare p or the int p when
    q = 1), or one it refuses."""
    p, q = c.numerator, c.denominator
    good = [f"{p}/{q}", f"{2 * p}/{2 * q}"] + ([str(p), p] if q == 1 else [])
    if not json_only:
        good.append(c)
    bad = ([f"{t}/{q}" for t in _int_misspellings(p)]
           + [f"{p}/{t}" for t in _int_misspellings(q)]
           + [f"-{p}/-{q}", f"{p}/0", f"{p}/{q}/1", f"{p}/", f"/{q}", f"{p} / {q}",
              f"-{p}/{q}", "0/1", p / q, True])
    return st.one_of(st.sampled_from([(v, True) for v in good]),
                     st.sampled_from([(v, False) for v in bad]))


_WEIGHTS = st.builds(F, st.integers(1, 40), st.integers(1, 40))


class _Obj(list):
    """A JSON object as its list of (key, value) pairs, so a key may repeat."""


def _pairs(value):
    return _Obj((k, _pairs(v)) for k, v in value.items()) if isinstance(value, dict) else value


def _dumps(value):
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(v)}" for k, v in value) + "}"
    return json.dumps(value)


def _respell(draw, obj, spelling):
    """Replace one pair of `obj` by (key, value) = spelling(draw, key, value)
    and return whether the reader must accept the result."""
    i = draw(st.integers(0, len(obj) - 1))
    key, value, ok = spelling(draw, *obj[i])
    obj[i] = (key, value)
    return ok


def _repeat_key(draw, obj):
    """Give one key of `obj` a second pair; the reader must refuse it."""
    key, value = obj[draw(st.integers(0, len(obj) - 1))]
    other = obj[draw(st.integers(0, len(obj) - 1))][1]
    obj.insert(draw(st.integers(0, len(obj))), (key, draw(st.sampled_from([value, other]))))
    return False


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process `stratal` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_refused(code, out, err):
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error: " in line]) == 1, err


# ------------------------------------------------------ load / to_document

_WEIGHTED = ["susp_s0", "cone_s1_c_half", "cone_cone_s1", "susp_s2"]


@st.composite
def _space_texts(draw):
    """(JSON text, canonical document, accepted): a weighted corpus space
    under drawn weights, with one skeleton key, weight or dimension
    respelled, or one object key repeated."""
    doc = cx.to_document(corpus.load_space(draw(st.sampled_from(_WEIGHTED))))
    doc["weights"] = {sid: format_rational(draw(_WEIGHTS)) for sid in doc["weights"]}
    obj = _pairs(doc)
    fields = dict(obj)
    kind = draw(st.sampled_from(["skeleton level", "weight", "dimension", "repeat"]))
    if kind == "skeleton level":
        def spelling(draw, key, value):
            text, ok = draw(_int_text(int(key)))
            return text, value, ok
        ok = _respell(draw, fields["skeleta"], spelling)
    elif kind == "weight":
        def spelling(draw, key, value):
            spelled, ok = draw(_rational_text(parse_rational(value)))
            return key, spelled, ok
        ok = _respell(draw, fields["weights"], spelling)
    elif kind == "dimension":
        i = [k for k, _ in obj].index("dimension")
        spelled, ok = draw(_int_value(doc["dimension"]))
        obj[i] = ("dimension", spelled)
    else:
        ok = _repeat_key(draw, draw(st.sampled_from([obj, fields["skeleta"], fields["weights"]])))
    return _dumps(obj), doc, ok


@_PROPERTY
@given(_space_texts())
def test_space_documents_round_trip_or_reject(case):
    text, doc, ok = case
    try:
        K = cx.load(text)
    except SpaceFormatError:
        assert not ok, text
        return
    assert ok, text
    assert cx.to_document(K) == doc


# ----------------------------------- perversity_from_json / perversity_to_json

@st.composite
def _perversity_texts(draw):
    """(per-stratum file text, canonical document, accepted): a by-codim
    perversity with one key or value respelled, or one key repeated."""
    values = draw(st.dictionaries(st.integers(1, 12), st.integers(-3, 12),
                                  min_size=1, max_size=5))
    doc = pv.perversity_to_json(pv.Perversity(pv.BY_CODIM, values))
    obj = _pairs(doc)
    pairs = dict(obj)["values"]
    kind = draw(st.sampled_from(["key", "value", "repeat"]))
    if kind == "key":
        def spelling(draw, key, value):
            text, ok = draw(_int_text(int(key)))
            return text, value, ok
        ok = _respell(draw, pairs, spelling)
    elif kind == "value":
        def spelling(draw, key, value):
            spelled, ok = draw(_int_value(value))
            return key, spelled, ok
        ok = _respell(draw, pairs, spelling)
    else:
        ok = _repeat_key(draw, draw(st.sampled_from([obj, pairs])))
    return _dumps(obj), doc, ok


@_PROPERTY
@given(_perversity_texts())
def test_perversity_files_round_trip_or_reject(tmp_path_factory, case):
    text, doc, ok = case
    path = tmp_path_factory.mktemp("perversity") / "p.json"
    path.write_text(text)
    try:
        p = cli._resolve_perversity(f"per-stratum:{path}", 12)
    except ConfigurationError:
        assert not ok, text
        return
    assert ok, text
    assert pv.perversity_to_json(p) == doc


# ----------------------------------------------------------- the gm: spec

@st.composite
def _gm_specs(draw):
    """(argv, canonical perversity, accepted): `perversity --dim n --spec
    gm:...` with one value or the dimension respelled, or an empty value."""
    values = draw(st.lists(st.integers(-2, 12), max_size=4))
    n = draw(st.integers(0, 12))
    canonical = pv.perversity_to_json(
        pv.Perversity(pv.BY_CODIM, {k + 2: v for k, v in enumerate(values)}))
    texts, dim, ok = list(map(str, values)), str(n), True
    kind = draw(st.sampled_from(["value", "dimension", "empty"] if values else ["dimension"]))
    if kind == "value":
        i = draw(st.integers(0, len(values) - 1))
        texts[i], ok = draw(_int_text(values[i]))
    elif kind == "dimension":
        dim, ok = draw(_int_text(n))
    else:
        texts.insert(draw(st.integers(0, len(texts))), "")
        ok = False
    return ["perversity", "--dim", dim, "--spec", "gm:" + ",".join(texts)], canonical, ok


@_PROPERTY
@given(_gm_specs())
def test_gm_specs_round_trip_or_reject(case):
    argv, canonical, ok = case
    code, out, err = _cli(argv)
    if not ok:
        _assert_refused(code, out, err)
        return
    assert code == 0, err
    assert json.loads(out)["perversity"] == canonical


# ------------------------------------------- parse_weight / format_rational

@_PROPERTY
@given(_WEIGHTS.flatmap(lambda c: st.tuples(st.just(c), _rational_text(c, json_only=False))),
       st.sampled_from([ConfigurationError, SpaceFormatError, ConstructionError]))
def test_weights_round_trip_or_reject(case, error):
    c, (spelled, ok) = case
    try:
        got = parse_weight(spelled, "weight", error)
    except error as exc:
        assert not ok, spelled
        assert str(exc).startswith("weight")
        return
    assert ok, spelled
    assert format_rational(got) == format_rational(c)


@pytest.mark.parametrize("value", ["0", "0/7", "-1/2", F(-1, 2), 0, -3])
def test_weights_that_are_not_positive_are_refused(value):
    with pytest.raises(ConfigurationError, match=r"^cone weight must be positive$"):
        parse_weight(value, "cone weight")


@pytest.mark.parametrize("value, problem", [
    (True, "not a rational: True"),
    (False, "not a rational: False"),
    (0.5, "floats are not accepted as rationals: 0.5"),
    (-1.0, "floats are not accepted as rationals: -1.0"),
])
def test_weights_refuse_bools_and_floats(value, problem):
    with pytest.raises(SpaceFormatError) as info:
        parse_weight(value, "weight for 's1:x'", SpaceFormatError)
    assert str(info.value) == f"weight for 's1:x': {problem}"


def test_positive_weights_are_read_exactly():
    assert parse_weight("3/6", "weight") == F(1, 2)
    assert parse_weight(F(1, 7), "weight") == F(1, 7)
    assert parse_weight(2, "weight") == 2


# ----------------------------------------------------------- hilbert.validate

@st.composite
def _complex_texts(draw):
    """(complex file text, canonical complex, accepted): a seeded random
    complex as dense rows with one entry or dimension respelled, or a
    top-level key repeated."""
    C = hb.random_complex(random.Random(draw(st.integers(0, 200))))
    rows = []
    for i in range(len(C.dims) - 1):
        dense = [[0] * C.dims[i] for _ in range(C.dims[i + 1])]
        for j, col in enumerate(C.maps[i + 1].cols):
            for r, v in col.items():
                dense[r][j] = v
        rows.append(dense)
    doc = {"dims": list(C.dims), "differentials": rows}
    entries = [(m, r, j) for m, dense in enumerate(rows)
               for r, row in enumerate(dense) for j in range(len(row))]
    kind = draw(st.sampled_from(["entry", "dimension", "repeat"] if entries
                                else ["dimension", "repeat"]))
    if kind == "entry":
        m, r, j = draw(st.sampled_from(entries))
        e = rows[m][r][j]
        spelled, ok = draw(st.one_of(
            st.sampled_from([(str(e), True), (f"{e}/1", True), (f"{2 * e}/2", True)]),
            st.sampled_from([(t, False) for t in _int_misspellings(e)]
                            + [(float(e), False), (True, False), (f"{e}/0", False),
                               (f"{e}/-1", False)])))
        rows[m][r][j] = spelled
    elif kind == "dimension":
        i = draw(st.integers(0, len(C.dims) - 1))
        spelled, ok = draw(_int_value(C.dims[i]))
        doc["dims"][i] = spelled
    obj = _pairs(doc)
    if kind == "repeat":
        ok = _repeat_key(draw, obj)
    return _dumps(obj), C, ok


@_PROPERTY
@given(_complex_texts())
def test_complex_files_round_trip_or_reject(tmp_path_factory, case):
    text, C, ok = case
    path = tmp_path_factory.mktemp("complex") / "c.json"
    path.write_text(text)
    code, out, err = _cli(["hilbert", "--complex", str(path)])
    if not ok:
        _assert_refused(code, out, err)
        with pytest.raises(ConstructionError):
            doc = read_json(text, ConstructionError)
            hb.validate(doc["dims"], doc["differentials"])
        return
    assert code == 0, err
    assert json.loads(out)["cohomology"] == list(hb.cohomology_dims(C))
    doc = json.loads(text)
    E = hb.validate(doc["dims"], doc["differentials"])
    assert [m.cols for m in E.maps[1:-1]] == [m.cols for m in C.maps[1:-1]]


# ------------------------------------------------------ pinned regressions

@pytest.mark.parametrize("key", ["1_0", " 2", "+3", "03", "-0", "٣"])
def test_by_codim_keys_must_be_canonical(key):
    with pytest.raises(ConfigurationError,
                       match=re.escape(f"by-codim key {key!r} is not an integer")):
        pv.perversity_from_json({"kind": pv.BY_CODIM, "values": {key: 0}})


def test_python_keys_are_not_truncated():
    # int() read 1.7 as 1 and True as 1, and the second overwrote the first
    with pytest.raises(ConfigurationError):
        pv.perversity_from_json({"kind": pv.BY_CODIM, "values": {1.7: 0, True: 1}})
    p = pv.perversity_from_json({"kind": pv.BY_CODIM, "values": {2: 0, 3: 1}})
    assert pv.perversity_to_json(p) == {"kind": pv.BY_CODIM, "values": {"2": 0, "3": 1}}


def test_skeleton_keys_0_and_00_no_longer_collide():
    # "00" read as level 0 too, and the later key won: susp_t2 then loaded
    # with one apex singular instead of two
    doc = cx.to_document(corpus.load_space("susp_t2"))
    level = doc["skeleta"]["0"]
    doc["skeleta"] = {"0": level[:1], "00": level[1:]}
    with pytest.raises(SpaceFormatError, match="skeleton level '00' is not an integer"):
        cx.load(doc)


def test_an_int_key_and_its_text_do_not_collide():
    # the later of the two keys won silently
    for kind, values in ((pv.BY_CODIM, {2: 0, "2": 1}), (pv.PER_STRATUM, {1: 0, "1": 1})):
        with pytest.raises(ConfigurationError, match="give one key twice"):
            pv.perversity_from_json({"kind": kind, "values": values})
    doc = cx.to_document(corpus.load_space("susp_t2"))
    level = doc["skeleta"]["0"]
    with pytest.raises(SpaceFormatError, match="give one level twice"):
        cx.load({**doc, "skeleta": {0: level[:1], "0": level[1:]}})


def test_parse_int_takes_ints_and_canonical_text_only():
    assert [parse_int(t, "x") for t in ("0", "-7", "12", 5, -3)] == [0, -7, 12, 5, -3]
    for bad in (True, 1.0, None, b"1", "", "-", "1 2"):
        with pytest.raises(SpaceFormatError):
            parse_int(bad, "x")


@pytest.mark.parametrize("text", ["3/-2", "-1/-2", "1_0/2", "1/0_2", " 1/2", "1/ 2"])
def test_parse_rational_wants_canonical_parts_and_a_positive_denominator(text):
    with pytest.raises(ConstructionError, match=re.escape(f"D_0: malformed rational {text!r}")):
        parse_rational(text, "D_0", ConstructionError)


# 5000 digits: canonical integer text past the interpreter's default limit
# of 4300 digits for integer text, which it refuses to convert
_LONG = "7" * 5000
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_limited = pytest.mark.skipif(not 0 < _DIGIT_LIMIT < len(_LONG),
                              reason="no interpreter limit on integer text below 5000 digits")


@_limited
def test_integer_text_past_the_digit_limit_names_the_limit():
    """It used to be called "not an integer", with all 5000 digits echoed."""
    too_long = f"5000 digits, more than the limit of {_DIGIT_LIMIT} for integer text"
    for text in (_LONG, "-" + _LONG):
        with pytest.raises(ConfigurationError) as raised:
            parse_int(text, "by-codim key", ConfigurationError)
        assert too_long in str(raised.value) and len(str(raised.value)) < 200
    for text in (_LONG, _LONG + "/2", "2/" + _LONG):
        with pytest.raises(ConstructionError) as raised:
            parse_rational(text, "D_0", ConstructionError)
        assert str(raised.value).startswith("D_0: rational '")
        assert too_long in str(raised.value) and len(str(raised.value)) < 200
    # text that is not canonical is still refused as such, in a bounded echo
    with pytest.raises(SpaceFormatError, match=r"^x '07{38}\.\.\. is not an integer$"):
        parse_int("0" + _LONG, "x")
    with pytest.raises(SpaceFormatError, match=r"^malformed rational '\+7{38}\.\.\.$"):
        parse_rational("+" + _LONG)


@_limited
def test_cli_names_the_digit_limit_of_a_long_dimension():
    code, out, err = _cli(["perversity", "--dim", _LONG, "--spec", "zero"])
    _assert_refused(code, out, err)
    (line,) = [line for line in err.splitlines() if "error: " in line]
    assert f"limit of {_DIGIT_LIMIT}" in line and len(line) < 200


@pytest.mark.parametrize("text", ['{"a": ' + "[" * 10_000, '{"a": ' * 10_000])
def test_deeply_nested_json_raises_the_readers_error(text):
    # the JSON scanner gives up with RecursionError, not a ValueError
    with pytest.raises(SpaceFormatError):
        cx.load(text)


def _files(tmp_path):
    space = cx.to_document(corpus.load_space("susp_t2"))
    texts = {
        "per_stratum": '{"s0:north": 0, "s0:north": 1, "s0:south": 0}',
        "complex": '{"dims": [1], "dims": [1], "differentials": []}',
        "space": json.dumps(space).replace('"name":', '"dimension": 3, "name":', 1),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text)
    return {name: str(tmp_path / f"{name}.json") for name in texts}


@pytest.mark.parametrize("argv, named", [
    (["perversity", "--dim", "4", "--spec", "gm:0,1_0"], "'1_0'"),
    (["perversity", "--dim", "4", "--spec", "gm:0,,1"], "''"),
    (["cone", "--link-betti", "1,+2,1_0", "--link-dim", "2", "--weight", "1/2"], "'+2'"),
    (["cone", "--link-betti", "1,2,1", "--link-dim", "2", "--weight", "1_0/2"], "'1_0/2'"),
    (["perversity", "--dim", "1_0", "--spec", "zero"], "'1_0'"),
    (["cone", "--link-betti", "1,2,1", "--link-dim", " 2", "--weight", "1"], "' 2'"),
    (["hilbert", "--complex", "{complex}", "--decompose", "+0"], "'+0'"),
    (["ih", "--space", "s2", "--perversity", "per-stratum:{per_stratum}"], "'s0:north'"),
    (["hilbert", "--complex", "{complex}"], "'dims'"),
    (["ih", "--space", "{space}", "--perversity", "zero"], "'dimension'"),
])
def test_cli_refuses_misspelled_input_with_exit_2(tmp_path, argv, named):
    files = _files(tmp_path)
    code, out, err = _cli([a.format(**files) for a in argv])
    _assert_refused(code, out, err)
    assert named in err


def test_hilbert_refuses_a_complex_key_it_does_not_read(tmp_path):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({"dims": [1, 1], "differentials": [[[1]]], "dimz": [3]}))
    code, out, err = _cli(["hilbert", "--complex", str(path)])
    _assert_refused(code, out, err)
    assert err == "error: complex file key 'dimz' is not one of dims, differentials\n"


def test_a_perversity_document_refuses_a_key_it_does_not_read(tmp_path):
    doc = {"kind": "by-codim", "values": {"2": 0, "3": 1}, "extra": 1}
    with pytest.raises(ConfigurationError, match="key 'extra' is not one of kind, values"):
        pv.perversity_from_json(doc)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, err = _cli(["perversity", "--dim", "3", "--spec", f"per-stratum:{path}"])
    _assert_refused(code, out, err)
    assert err == "error: perversity document key 'extra' is not one of kind, values\n"


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "kind-and-values"])
def test_ih_refuses_a_per_stratum_value_on_a_stratum_the_space_lacks(tmp_path, wrapped):
    values = {"s0:apex": 1, "s9:typo": 5}
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"kind": "per-stratum", "values": values} if wrapped else values))
    code, out, err = _cli(["ih", "--space", "cone_t2", "--perversity", f"per-stratum:{path}"])
    _assert_refused(code, out, err)
    assert err == (f"error: perversity file {path} names unknown singular stratum "
                   "'s9:typo'; known: ['s0:apex']\n")
    # with no space there are no strata to check against
    code, out, err = _cli(["perversity", "--dim", "3", "--spec", f"per-stratum:{path}"])
    assert code == 0 and json.loads(out)["perversity"]["values"] == values


@pytest.mark.parametrize("spec, doc, message", [
    pytest.param("gm:0,1,2,3,4,5", None,
                 "perversity names codimension 4, above the dimension 3 of the space",
                 id="gm"),
    pytest.param("per-stratum:{path}", {"kind": "by-codim", "values": {"3": 1, "7": 5}},
                 "perversity file {path} names codimension 7, above the dimension 3 of the space",
                 id="by-codim-file"),
])
def test_ih_refuses_a_codimension_above_the_dimension_of_the_space(tmp_path, spec, doc, message):
    """A by-codim key above n on cone_t2 (dimension 3): exit 2 and one line,
    which names the file when a file gives the key."""
    path = tmp_path / "p.json"
    spec = spec.format(path=path)
    if doc is not None:
        path.write_text(json.dumps(doc))
    code, out, err = _cli(["ih", "--space", "cone_t2", "--perversity", spec])
    _assert_refused(code, out, err)
    assert err == f"error: {message.format(path=path)}\n"
    # `perversity --dim` has no space to resolve against
    code, out, err = _cli(["perversity", "--dim", "3", "--spec", spec])
    assert (code, err) == (0, "")


# a byte-order mark of UTF-16 and "{": no UTF-8 decoder reads it
_NOT_UTF8 = b"\xff\xfe{"


def test_a_space_file_that_is_not_utf8_is_refused_naming_it(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(_NOT_UTF8)
    with pytest.raises(SpaceFormatError) as info:
        cx.load(path)
    assert isinstance(info.value, StratalError)
    assert str(info.value).startswith(f"cannot read space file {path}: 'utf-8' codec ")


@pytest.mark.parametrize("argv, what", [
    (["ih", "--space", "{bad}", "--perversity", "zero"], "space file"),
    (["ih", "--space", "s2", "--perversity", "per-stratum:{bad}"], "perversity file"),
    (["hilbert", "--complex", "{bad}"], "complex file"),
    (["hilbert", "--complex", "{complex}", "--decompose", "0", "--vector", "{bad}"],
     "vector file"),
])
def test_cli_refuses_a_file_that_is_not_utf8_naming_it(tmp_path, argv, what):
    bad, complex_file = tmp_path / "bad.json", tmp_path / "complex.json"
    bad.write_bytes(_NOT_UTF8)
    complex_file.write_text('{"dims": [1], "differentials": []}')
    code, out, err = _cli([a.format(bad=bad, complex=complex_file) for a in argv])
    _assert_refused(code, out, err)
    assert err.startswith(f"error: cannot read {what} {bad}: 'utf-8' codec ")
    assert err.count("\n") == 1
