"""Perversity algebra: bracket, middles, duals, weight maps, classicality."""

import json
import random
from fractions import Fraction as F
from math import gcd

import pytest

from stratal import complexes as cx
from stratal import intersection as ix
from stratal import perversity as pv
from stratal.errors import ConfigurationError, RealizabilityError


def test_bracket_examples():
    assert pv.bracket(F(1, 2)) == 0
    assert pv.bracket(1) == 0
    assert pv.bracket(F(3, 2)) == 1
    assert pv.bracket(2) == 1


def test_bracket_rejects_nonpositive():
    with pytest.raises(ConfigurationError, match="must be positive"):
        pv.bracket(0)
    with pytest.raises(ConfigurationError, match="must be positive"):
        pv.bracket(F(-1, 2))


@pytest.mark.parametrize("x", [3 * 0.1 * 10, 3.0, 0.5, True, False, None, "1/0"])
def test_bracket_reads_its_argument_exactly(x):
    with pytest.raises(ConfigurationError, match="^bracket argument"):
        pv.bracket(x)
    assert pv.bracket("3") == pv.bracket(3) == 2 and pv.bracket("5/2") == 2


def test_bracket_sandwich_property():
    rng = random.Random(3)
    for _ in range(500):
        x = F(rng.randint(1, 400), rng.randint(1, 40))
        b = pv.bracket(x)
        assert b < x <= b + 1


def test_top_perversity_values():
    t3 = pv.top_perversity(3)
    assert t3.values[3] == 1
    assert t3.values[2] == 0
    assert pv.top_perversity(4).values[1] == -1


def test_middle_perversities():
    lower, upper = pv.middle_perversities(3)
    assert (lower.values[3], upper.values[3]) == (0, 1)
    lower4, upper4 = pv.middle_perversities(4)
    assert (lower4.values[4], upper4.values[4]) == (1, 1)
    lower2, upper2 = pv.middle_perversities(2)
    assert (lower2.values[2], upper2.values[2]) == (0, 0)


def test_middles_sum_to_top():
    for n in range(1, 12):
        lower, upper = pv.middle_perversities(n)
        t = pv.top_perversity(n)
        for k in range(1, n + 1):
            assert lower.values[k] + upper.values[k] == t.values[k]


def test_dual_examples_and_involution():
    lower, upper = pv.middle_perversities(3)
    assert pv.dual(upper) == lower
    assert pv.dual(pv.top_perversity(3)) == pv.zero_perversity(3)
    assert pv.dual(pv.zero_perversity(5)) == pv.top_perversity(5)
    for n in (2, 4, 7):
        for p in pv.middle_perversities(n) + (pv.top_perversity(n),):
            assert pv.dual(pv.dual(p)) == p


def test_dual_per_stratum_needs_codims(cone_t2):
    apex = cone_t2.singular_strata()[0]
    assert apex.codim == 3
    p = pv.Perversity(pv.PER_STRATUM, {apex.id: 1})
    with pytest.raises(ConfigurationError, match="dualizing a per-stratum perversity needs "
                                                 "codimensions"):
        pv.dual(p)
    q = pv.dual(p, cone_t2)
    assert q == pv.Perversity(pv.PER_STRATUM, {apex.id: 0})
    assert pv.dual(q, cone_t2) == p


def test_the_empty_per_stratum_perversity_is_its_own_dual(spaces):
    """Zero on a 0-dimensional space is the empty per-stratum perversity: it
    has no value to dualize, so it is its own dual with or without a
    complex, as on any space with no singular stratum."""
    empty = pv.named_perversity("zero", 0)
    assert empty == pv.Perversity(pv.PER_STRATUM, {})
    assert pv.dual(empty) == empty
    assert pv.dual(pv.dual(empty)) == empty
    assert pv.dual(empty, spaces["point"]) == empty


def test_perversity_from_weights_examples():
    assert pv.perversity_from_weights([("a", 2)], {"a": F(1)}).values["a"] == 1
    assert pv.perversity_from_weights([("a", 0)], {"a": F(7, 3)}).values["a"] == 0
    assert pv.perversity_from_weights([("a", 1)], {"a": F(1, 2)}).values["a"] == 1
    assert pv.perversity_from_weights([("a", 3)], {"a": F(1)}).values["a"] == 1


# every weight a/b in lowest terms with 1 <= a, b <= 40: each link dimension
# 0..12 meets integer cutoffs l/2 + b/(2a) among them
WEIGHT_GRID = [F(a, b) for a in range(1, 41) for b in range(1, 41) if gcd(a, b) == 1]


def test_perversity_from_weights_matches_raw_bracket_above_dim_zero():
    with_integer_cutoff = set()
    for l in range(13):
        for c in WEIGHT_GRID:
            got = pv.perversity_from_weights([("y", l)], {"y": c}).values["y"]
            cutoff = pv.cone_cutoff(l, c)
            if cutoff.denominator == 1:
                with_integer_cutoff.add(l)
            assert got == (pv.bracket(cutoff) if l else 0), (l, c)
    assert with_integer_cutoff == set(range(13))


def test_text_weight_is_read_exactly():
    # the float 1/6 lies just above 1/6, so it gave 4 here: [[1 + 3]] = 3
    assert pv.perversity_from_weights([("y", 2)], {"y": "1/6"}).values["y"] == 3
    assert pv.perversity_from_weights([("y", 2)], {"y": F(1, 6)}).values["y"] == 3
    assert pv.hunsicker_shift_check(2, "1/6")


def _weight_entry_points():
    from stratal import l2model as l2

    s1 = cx.build("s1", [0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    return {
        "cone": (lambda c: cx.cone(s1, c), "cone weight"),
        "suspension": (lambda c: cx.suspension(s1, (1, c)), "suspension weights"),
        "Cone": (lambda c: l2.Cone(c, l2.ClosedManifold((1, 1), 1)), "cone weight"),
        "cone_max_cohomology": (lambda c: l2.cone_max_cohomology((1, 1), 1, c), "cone weight"),
        "cone_report": (lambda c: l2.cone_report((1, 1), 1, c), "cone weight"),
        "local_model_check": (lambda c: l2.local_model_check(s1, c), "cone weight"),
        "perversity_from_weights": (
            lambda c: pv.perversity_from_weights([("y", 2)], {"y": c}), "weight for stratum 'y'"),
        "hunsicker_shift_check": (lambda c: pv.hunsicker_shift_check(2, c),
                                  "weight for stratum 'Y'"),
    }


@pytest.mark.parametrize("entry", list(_weight_entry_points()))
@pytest.mark.parametrize("weight, message", [
    (1 / 6, "floats are not accepted as rationals: 0.1666"),
    (0.5, "floats are not accepted as rationals: 0.5"),
    (True, "not a rational: True"),
    (False, "not a rational: False"),
    ("1/0", "malformed rational '1/0'"),
    (0, "must be positive"),
    ("-1/2", "must be positive"),
])
def test_every_weight_entry_point_reads_weights_exactly(entry, weight, message):
    call, what = _weight_entry_points()[entry]
    with pytest.raises(ConfigurationError) as info:
        call(weight)
    assert str(info.value).startswith(what)
    assert message in str(info.value)
    # the same value as text is accepted
    call("1/2")


def test_missing_weight_is_configuration_error():
    with pytest.raises(ConfigurationError):
        pv.perversity_from_weights([("a", 2)], {})


def test_weight_perversity_names_every_missing_stratum(susp_t2, t2):
    strata = [(s.id, s.link_dim) for s in susp_t2.singular_strata()]
    assert pv.weight_perversity(susp_t2) == pv.perversity_from_weights(strata, susp_t2.weights)
    bare = cx.suspension(t2)
    bare.weights.clear()
    with pytest.raises(ConfigurationError) as err:
        pv.weight_perversity(bare)
    for s in bare.singular_strata():
        assert s.id in str(err.value)


def test_weights_from_perversity_examples():
    w = pv.weights_from_perversity(pv.Perversity(pv.PER_STRATUM, {"a": 1}), [("a", 2)])
    assert w["a"] == F(1)
    w = pv.weights_from_perversity(pv.Perversity(pv.PER_STRATUM, {"a": 2}), [("a", 2)])
    assert w["a"] == F(1, 3)
    w = pv.weights_from_perversity(pv.Perversity(pv.PER_STRATUM, {"a": 1}), [("a", 3)])
    assert w["a"] == F(1)


def test_weights_round_trip_exact():
    for l in range(0, 10):
        base = 0 if l == 0 else (l // 2 if l % 2 == 0 else (l - 1) // 2)
        for excess in range(0, 5):
            if l == 0 and excess > 0:
                continue
            p = pv.Perversity(pv.PER_STRATUM, {"y": base + excess})
            w = pv.weights_from_perversity(p, [("y", l)])
            assert pv.perversity_from_weights([("y", l)], w) == p


def test_realizability_errors_name_the_stratum():
    with pytest.raises(RealizabilityError, match="'low'"):
        pv.weights_from_perversity(
            pv.Perversity(pv.PER_STRATUM, {"low": 0}), [("low", 2)]
        )
    with pytest.raises(RealizabilityError, match="'edge'"):
        pv.weights_from_perversity(
            pv.Perversity(pv.PER_STRATUM, {"edge": 1}), [("edge", 0)]
        )


def test_weights_from_perversity_refuses_a_stratum_without_a_value():
    """A listed stratum that p gives no value is a ConfigurationError that
    names it, not a KeyError, for either kind of p."""
    strata = [("a", 2), ("b", 3)]
    with pytest.raises(ConfigurationError, match="^perversity has no value on stratum 'b'$"):
        pv.weights_from_perversity(pv.Perversity(pv.PER_STRATUM, {"a": 1}), strata)
    with pytest.raises(ConfigurationError, match="^perversity has no value at codimension 4$"):
        pv.weights_from_perversity(pv.Perversity(pv.BY_CODIM, {3: 1}), strata)
    assert pv.weights_from_perversity(pv.Perversity(pv.BY_CODIM, {3: 1, 4: 1}), strata) == {
        "a": F(1), "b": F(1)}


def test_is_gm_perversity():
    # the top perversity at n=4 does satisfy the growth rule
    assert pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {2: 0, 3: 1, 4: 2}))
    lower6 = {k: (k - 2) // 2 for k in range(2, 7)}
    assert pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, lower6))
    assert not pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {2: 1, 3: 1}))
    assert not pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {2: 0, 3: 2}))
    assert not pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {2: 0, 3: -1}))
    # an empty domain, and a codimension-one value, which is ignored
    assert pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {}))
    assert pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {1: 5, 2: 0, 3: 0}))
    with pytest.raises(ConfigurationError, match="cover codimensions 2..n"):
        pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {2: 0, 4: 1}))


def test_hunsicker_examples_and_grid():
    assert pv.hunsicker_shift_check(2, F(1))
    assert pv.hunsicker_shift_check(1, F(1, 2))
    assert pv.hunsicker_shift_check(3, F(1, 4))
    for f in range(1, 9):
        for c in (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(1), F(2), F(4)):
            assert pv.hunsicker_shift_check(f, c)


def test_json_round_trip():
    t = pv.top_perversity(3)
    assert pv.perversity_from_json(json.loads(json.dumps(pv.perversity_to_json(t)))) == t
    ps = pv.Perversity(pv.PER_STRATUM, {"apex-n": 1})
    assert pv.perversity_from_json(pv.perversity_to_json(ps)) == ps
    w = {"apex-s": F(2), "apex-n": F(1, 3)}
    assert list(pv.weights_to_json(w).items()) == [("apex-n", "1/3"), ("apex-s", "2/1")]


def test_perversity_from_json_rejects_codimension_below_one():
    for key in ("0", "-1"):
        with pytest.raises(ConfigurationError):
            pv.perversity_from_json({"kind": pv.BY_CODIM, "values": {key: 0, "2": 0}})


@pytest.mark.parametrize("key", ["x", "1.5", ""])
def test_perversity_from_json_names_a_non_integer_codimension(key):
    with pytest.raises(ConfigurationError, match=f"key {key!r} is not an integer"):
        pv.perversity_from_json({"kind": pv.BY_CODIM, "values": {key: 1}})


@pytest.mark.parametrize("kind, values, message", [
    pytest.param(pv.PER_STRATUM, {"y": 0.5}, "perversity values must map keys to integers",
                 id="float-value"),
    pytest.param(pv.PER_STRATUM, {"y": True}, "perversity values must map keys to integers",
                 id="bool-value"),
    pytest.param(pv.BY_CODIM, {0: 0, 2: 0}, "by-codim perversity keys must be codimensions >= 1",
                 id="codim-zero"),
])
def test_perversity_owns_its_value_and_key_rules(kind, values, message):
    """A perversity built in code obeys the rules its JSON form does, with
    the same message."""
    with pytest.raises(ConfigurationError, match=message):
        pv.Perversity(kind, values)
    doc = {"kind": kind, "values": {str(k): v for k, v in values.items()}}
    with pytest.raises(ConfigurationError, match=message):
        pv.perversity_from_json(doc)


def test_a_non_integer_perversity_value_is_not_an_answer(cone_t2):
    # the apex value 1/2 gave (1, 2, 0, 0), and True was read as 1
    apex = cone_t2.singular_strata()[0].id
    for value in (F(1, 2), 0.5, True):
        with pytest.raises(ConfigurationError, match="must map keys to integers"):
            ix.intersection_betti(cone_t2, pv.Perversity(pv.PER_STRATUM, {apex: value}))


def test_named_perversity():
    lower, upper = pv.middle_perversities(4)
    assert [pv.named_perversity(name, 4) for name in pv.NAMED_PERVERSITIES] == [
        pv.zero_perversity(4), pv.top_perversity(4), lower, upper]
    # a 0-dimensional space has no codimensions: only zero exists there
    assert pv.named_perversity("zero", 0) == pv.Perversity(pv.PER_STRATUM, {})
    for name in ("top", "lower-middle", "upper-middle", "middle"):
        with pytest.raises(ConfigurationError):
            pv.named_perversity(name, 0)


@pytest.mark.parametrize("name", pv.NAMED_PERVERSITIES)
def test_named_perversity_rejects_negative_dimension(name):
    with pytest.raises(ConfigurationError):
        pv.named_perversity(name, -3)
