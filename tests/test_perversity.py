"""Perversity algebra: bracket, middles, duals, weight maps, comparisons."""

import json
import random
from fractions import Fraction as F

import pytest

from stratal import complexes as cx
from stratal import perversity as pv
from stratal.errors import ConfigurationError, RealizabilityError


def test_bracket_examples():
    assert pv.bracket(F(1, 2)) == 0
    assert pv.bracket(1) == 0
    assert pv.bracket(F(3, 2)) == 1
    assert pv.bracket(2) == 1


def test_bracket_rejects_nonpositive():
    with pytest.raises(ValueError):
        pv.bracket(0)
    with pytest.raises(ValueError):
        pv.bracket(F(-1, 2))


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


def test_dual_per_stratum_needs_codims():
    p = pv.Perversity(pv.PER_STRATUM, {"a": 1})
    with pytest.raises(ConfigurationError):
        pv.dual(p)
    q = pv.dual(p, {"a": 3})
    assert q.values["a"] == 0
    assert pv.dual(q, {"a": 3}) == p


def test_perversity_from_weights_examples():
    assert pv.perversity_from_weights([("a", 2)], {"a": F(1)}).values["a"] == 1
    assert pv.perversity_from_weights([("a", 0)], {"a": F(7, 3)}).values["a"] == 0
    assert pv.perversity_from_weights([("a", 1)], {"a": F(1, 2)}).values["a"] == 1
    assert pv.perversity_from_weights([("a", 3)], {"a": F(1)}).values["a"] == 1


def test_perversity_from_weights_matches_raw_bracket_above_dim_zero():
    rng = random.Random(9)
    for _ in range(300):
        l = rng.randint(1, 12)
        c = F(rng.randint(1, 30), rng.randint(1, 30))
        got = pv.perversity_from_weights([("y", l)], {"y": c}).values["y"]
        assert got == pv.bracket(F(l, 2) + F(1, 2) / c)


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


def test_is_gm_perversity():
    # the top perversity at n=4 does satisfy the growth rule
    assert pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {2: 0, 3: 1, 4: 2}))
    lower6 = {k: (k - 2) // 2 for k in range(2, 7)}
    assert pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, lower6))
    assert not pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {2: 1, 3: 1}))
    assert not pv.is_gm_perversity(pv.Perversity(pv.BY_CODIM, {2: 0, 3: 2}))


def test_hunsicker_examples_and_grid():
    assert pv.hunsicker_shift_check(2, F(1))
    assert pv.hunsicker_shift_check(1, F(1, 2))
    assert pv.hunsicker_shift_check(3, F(1, 4))
    for f in range(1, 9):
        for c in (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(1), F(2), F(4)):
            assert pv.hunsicker_shift_check(f, c)


def test_compare_reports_incomparable():
    a = pv.Perversity(pv.BY_CODIM, {2: 0, 3: 0})
    b = pv.Perversity(pv.BY_CODIM, {2: 0, 3: 1})
    m = pv.Perversity(pv.BY_CODIM, {2: 1, 3: 0})
    assert pv.compare(a, b) == "le"
    assert pv.compare(b, a) == "ge"
    assert pv.compare(a, a) == "eq"
    assert pv.compare(b, m) == "incomparable"


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
