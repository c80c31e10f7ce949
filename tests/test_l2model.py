"""Cone truncation formulas and the global prediction pipeline."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from types import SimpleNamespace

from stratal import complexes as cx
from stratal import l2model as l2
from stratal.errors import ConfigurationError
from stratal.perversity import (
    BY_CODIM,
    PER_STRATUM,
    Perversity,
    cone_cutoff,
    is_gm_perversity,
    weight_perversity,
)


def test_cone_max_cohomology_examples():
    assert l2.cone_max_cohomology((1, 0, 1), 2, F(1)) == (1, 0, 0, 0)
    assert l2.cone_max_cohomology((1, 1), 1, F(1)) == (1, 0, 0)
    assert l2.cone_max_cohomology((1, 1), 1, F(1, 2)) == (1, 1, 0)
    assert l2.cone_max_cohomology((1, 2, 1), 2, F(5)) == (1, 2, 0, 0)


def test_cone_truncation_never_creates_cohomology():
    # every link dimension 0..12 against every weight a/b in lowest terms with
    # 1 <= a, b <= 40, integer cutoffs included; the oracle compares each
    # degree with the rational cutoff itself
    rng = random.Random(4)
    weights = [F(a, b) for a in range(1, 41) for b in range(1, 41) if gcd(a, b) == 1]
    for f in range(13):
        for c in weights:
            betti = tuple(rng.randint(0, 4) for _ in range(f + 1))
            out = l2.eval_max(l2.Cone(c, l2.ClosedManifold(betti, f)))
            cutoff = cone_cutoff(f, c)
            assert out == tuple(b if i < cutoff else 0 for i, b in enumerate(betti + (0,))), (f, c)


def test_eval_max_recursion():
    t2 = l2.ClosedManifold((1, 2, 1), 2)
    assert l2.eval_max(l2.Cone(F(1), t2)) == (1, 2, 0, 0)
    s1 = l2.ClosedManifold((1, 1), 1)
    assert l2.eval_max(l2.Cone(F(1), l2.Cone(F(1), s1))) == (1, 0, 0, 0)
    # a triple cone whose outer cutoff 2 + 1/4 keeps degree 2 only because
    # the middle cone has dimension 4
    triple = l2.Cone(F(2), l2.Cone(F(1, 3), l2.Cone(F(1, 6), t2)))
    assert l2.eval_max(triple) == (1, 2, 1, 0, 0, 0)
    assert l2.eval_max(l2.Cone(F(2), l2.Cone(F(1, 3), l2.Cone(F(1), s1)))) == (1, 0, 0, 0, 0)


def test_space_expr_validation():
    with pytest.raises(ConfigurationError):
        l2.ClosedManifold((1, 0), 2)
    with pytest.raises(ConfigurationError):
        l2.Cone(F(0), l2.ClosedManifold((1,), 0))


@pytest.mark.parametrize("entry", [1.7, 2.9, True, "2"])
def test_betti_vectors_hold_ints_only(entry):
    # int() would read 1.7 and True as 1 and "2" as 2
    with pytest.raises(ConfigurationError, match="betti numbers must be integers"):
        l2.ClosedManifold([1, entry, 1], 2)
    with pytest.raises(ConfigurationError, match="betti numbers must be integers"):
        l2.cone_max_cohomology([1, entry, 1], 2, 1)


def test_cone_report_hypothesis_clauses():
    rep = l2.cone_report((1, 1), 1, F(1, 2))
    assert rep.hypothesis_used == "weight below one"
    assert rep.cutoff == F(3, 2)
    rep = l2.cone_report((1, 0, 1), 2, F(2))
    assert rep.hypothesis_used == "even link"
    rep = l2.cone_report((1, 1), 1, F(2))
    assert rep.hypothesis_used == "odd link, finite-dimensional link cohomology"


def test_theorem_predictions_suspension(susp_t2):
    pred = l2.theorem_predictions(susp_t2)
    assert pred["max_betti"] == [1, 2, 0, 1]
    assert pred["min_betti"] == [1, 0, 2, 1]
    assert pred["cor_z_applies"] is True


def test_theorem_predictions_manifold(t2):
    pred = l2.theorem_predictions(t2)
    assert pred["max_betti"] == pred["min_betti"] == [1, 2, 1]


def test_theorem_predictions_quarter_weight(t2):
    st = cx.suspension(t2, (F(1, 4), F(1, 4)))
    pred = l2.theorem_predictions(st)
    assert set(pred["p_g"]["values"].values()) == {2}
    assert set(pred["q_g"]["values"].values()) == {-1}
    assert pred["max_betti"] == [1, 2, 1, 0]
    assert pred["min_betti"] == [0, 1, 2, 1]


def test_predictions_need_weights(t2):
    st = cx.suspension(t2)
    st.weights.clear()
    with pytest.raises(ConfigurationError):
        l2.theorem_predictions(st)


def test_fredholm_indices_examples():
    assert l2.fredholm_indices((1, 2, 0, 1), (1, 0, 2, 1)) == (0, 0)
    assert l2.fredholm_indices((1, 0, 1), (1, 0, 1)) == (2, 2)
    assert l2.fredholm_indices((0, 0), (0, 0)) == (0, 0)
    with pytest.raises(ConfigurationError):
        l2.fredholm_indices((1, 0), (1, 0, 0))


def test_max_min_reversal_on_oriented_closed(spaces):
    for name in ("susp_t2", "susp_s2", "susp_s0", "t2_7", "s2"):
        K = spaces[name]
        pred = l2.theorem_predictions(K)
        n = K.n
        assert all(
            pred["max_betti"][i] == pred["min_betti"][n - i] for i in range(n + 1)
        )


def test_local_model_check_examples(t2, s1):
    r = l2.local_model_check(t2, F(1))
    assert r["analytic"] == r["simplicial"] == [1, 2, 0, 0] and r["pass"]
    r = l2.local_model_check(s1, F(1, 2))
    assert r["analytic"] == [1, 1, 0] and r["pass"]
    r = l2.local_model_check(s1, F(2))
    assert r["analytic"] == [1, 0, 0] and r["pass"]


def test_local_model_check_stratified_link(spaces):
    r = l2.local_model_check(spaces["cone_s1_c_half"], F(1))
    assert r["pass"]


def test_middle_weights_give_middle_vectors(spaces, t2):
    from stratal import intersection as ix
    from stratal import perversity as pv

    for c in (F(1), F(3, 2), F(5)):
        st = cx.suspension(t2, (c, c))
        pred = l2.theorem_predictions(st)
        lower, upper = pv.middle_perversities(st.n)
        assert pred["max_betti"] == list(ix.intersection_betti(st, lower))
        assert pred["min_betti"] == list(ix.intersection_betti(st, upper))


def _classical_by_codim(p: Perversity, K):
    """The former classicality test, kept verbatim as the oracle: a by-codim
    classical perversity matching p on K's strata, or None."""
    by_codim = {}
    for s in K.singular_strata():
        v = p.values[s.id]
        if by_codim.get(s.codim, v) != v:
            return None
        by_codim[s.codim] = v
    if 1 in by_codim:
        return None
    if by_codim.get(2, 0) != 0:
        return None
    targets = dict(by_codim)
    targets.setdefault(2, 0)
    anchored = sorted(targets.items())
    for (k1, v1), (k2, v2) in zip(anchored, anchored[1:]):
        if not (0 <= v2 - v1 <= k2 - k1):
            return None
    # complete by climbing as late as possible, then recheck the growth rule
    filled = {2: 0}
    for k in range(3, K.n + 1):
        if k in targets:
            filled[k] = targets[k]
        else:
            nxt = min((kk for kk in targets if kk > k), default=None)
            if nxt is None:
                filled[k] = filled[k - 1]
            else:
                filled[k] = max(filled[k - 1], targets[nxt] - (nxt - k))
    candidate = Perversity(BY_CODIM, filled)
    return candidate if is_gm_perversity(candidate) else None


def test_classicality_matches_completion_oracle_on_corpus(spaces):
    seen = set()
    for K in spaces.values():
        p_g = weight_perversity(K)
        got = l2._is_classical(p_g, K)
        assert got == (_classical_by_codim(p_g, K) is not None), K.name
        seen.add(got)
    assert seen == {True, False}


# Hand cases of the one growth rule, (codims, values, classical): gaps a GM
# perversity can fill, drops, rises wider than the codimension gap,
# codimension one, and two values at one codimension.
CLASSICALITY_CASES = [
    ((), (), True),
    ((2,), (0,), True),
    ((2,), (1,), False),
    ((3,), (1,), True),
    ((3,), (-1,), False),
    ((4,), (2,), True),
    ((4,), (3,), False),
    ((2, 5), (0, 3), True),
    ((3, 3), (1, 1), True),
    ((3, 3), (0, 1), False),
    ((3, 5), (1, 0), False),
    ((1, 3), (0, 1), False),
]


def test_classicality_matches_completion_oracle_on_random_strata():
    rng = random.Random(5)
    outcomes = {True: 0, False: 0}
    for _ in range(12000):
        n = rng.randint(0, 9)
        strata, values = [], {}
        for idx in range(rng.randint(0, 5) if n else 0):
            codim = rng.randint(1, n) if rng.random() < 0.15 else rng.randint(min(2, n), n)
            sid = f"y{idx}"
            strata.append(SimpleNamespace(id=sid, codim=codim))
            values[sid] = rng.randint(-1, codim - 1)
        K = SimpleNamespace(n=n, singular_strata=lambda strata=strata: strata)
        p = Perversity(PER_STRATUM, values)
        got = l2._is_classical(p, K)
        assert got == (_classical_by_codim(p, K) is not None), (n, strata, values)
        outcomes[got] += 1
    assert min(outcomes.values()) >= 2000, outcomes
    for codims, values, classical in CLASSICALITY_CASES:
        strata = [SimpleNamespace(id=f"y{i}", codim=k) for i, k in enumerate(codims)]
        K = SimpleNamespace(n=6, singular_strata=lambda strata=strata: strata)
        p = Perversity(PER_STRATUM, {s.id: v for s, v in zip(strata, values)})
        assert l2._is_classical(p, K) is classical, (codims, values)
        assert (_classical_by_codim(p, K) is not None) is classical, (codims, values)
