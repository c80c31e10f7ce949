"""Allowable chains and intersection homology against worked oracles."""

import random
from fractions import Fraction as F

from stratal import complexes as cx
from stratal import intersection as ix
from stratal import linalg
from stratal import perversity as pv
from stratal.verify import _named_perversities


def _per_stratum(K, value):
    return pv.Perversity(pv.PER_STRATUM, {s.id: value for s in K.singular_strata()})


def test_allowable_examples(cone_t2):
    apex_id = cone_t2.singular_strata()[0].id
    apex_vertex = len(cone_t2.vertex_ids) - 1
    through_apex = next(
        s for s in cone_t2.simplices(2) if apex_vertex in s
    )
    off_apex = next(s for s in cone_t2.simplices(2) if apex_vertex not in s)
    p1 = pv.Perversity(pv.PER_STRATUM, {apex_id: 1})
    p0 = pv.Perversity(pv.PER_STRATUM, {apex_id: 0})
    # 0 <= 2 - 3 + 1 admits the apex face; 0 <= 2 - 3 + 0 does not
    assert ix.allowable(through_apex, 2, cone_t2, p1)
    assert not ix.allowable(through_apex, 2, cone_t2, p0)
    # a regular simplex with no singular faces is allowable for any perversity
    assert ix.allowable(off_apex, 2, cone_t2, p0)


def test_manifold_degeneration(t2, s2):
    for K in (t2, s2):
        betti = K.betti()
        for p in (pv.zero_perversity(K.n), pv.top_perversity(K.n)):
            assert ix.intersection_betti(K, p) == betti


def test_saturation_equals_full_r0_complex(susp_t2):
    n = susp_t2.n
    saturated = ix.intersection_betti(susp_t2, _per_stratum(susp_t2, n))
    way_up = ix.intersection_betti(susp_t2, _per_stratum(susp_t2, n + 5))
    assert saturated == way_up
    # relative homology of the suspension modulo its two apexes
    assert saturated == (0, 1, 2, 1)


def test_suspension_oracle_vectors(susp_t2):
    lower, upper = pv.middle_perversities(3)
    assert ix.intersection_betti(susp_t2, lower) == (1, 2, 0, 1)
    assert ix.intersection_betti(susp_t2, upper) == (1, 0, 2, 1)
    assert ix.intersection_betti(susp_t2, _per_stratum(susp_t2, 2)) == (0, 1, 2, 1)
    assert ix.intersection_betti(susp_t2, _per_stratum(susp_t2, -1)) == (1, 2, 1, 0)


def test_disk_oracle_vector(s1):
    disk = cx.cone(s1, F(1))
    q0 = pv.Perversity(pv.PER_STRATUM, {disk.singular_strata()[0].id: 0})
    assert ix.intersection_betti(disk, q0) == (1, 0, 0)


def test_monotonicity_of_chain_spaces(susp_t2, cone_t2):
    rng = random.Random(71)
    for K in (susp_t2, cone_t2):
        for _ in range(5):
            lowv = {s.id: rng.randint(-2, 2) for s in K.singular_strata()}
            highv = {sid: v + rng.randint(0, 2) for sid, v in lowv.items()}
            small = ix.StratifiedChainComplex(K, pv.Perversity(pv.PER_STRATUM, lowv))
            big = ix.StratifiedChainComplex(K, pv.Perversity(pv.PER_STRATUM, highv))
            for i in range(K.n + 1):
                for col in small.bases[i]:
                    assert linalg.in_span(col, big.bases[i])


def test_boundary_closure(susp_t2):
    lower, upper = pv.middle_perversities(3)
    for p in (lower, upper, _per_stratum(susp_t2, 2)):
        chains = ix.StratifiedChainComplex(susp_t2, p)
        for i in range(1, susp_t2.n + 1):
            for img in linalg.combine_columns(chains._bnd[i], chains.bases[i]):
                assert linalg.in_span(img, chains.bases[i - 1])


def _basis_homology(chains):
    """Betti numbers from the explicit bases: dim IC_i minus the ranks of the
    boundary images of the degree-i and degree-(i+1) bases."""
    n = chains.K.n
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        ranks[i] = linalg.rank(linalg.combine_columns(chains._bnd[i], chains.bases[i]))
    return tuple(len(chains.bases[i]) - ranks[i] - ranks[i + 1] for i in range(n + 1))


def _oracle_perversities(K, rng):
    seeded = [
        pv.Perversity(pv.PER_STRATUM,
                      {s.id: rng.randint(-2, K.n + 1) for s in K.singular_strata()})
        for _ in range(3)
    ]
    return [p for _, p in _named_perversities(K.n)] + seeded


def test_rank_homology_matches_basis_homology(spaces):
    rng = random.Random(2011)
    for name in sorted(spaces):
        K = spaces[name]
        for p in _oracle_perversities(K, rng):
            chains = ix.StratifiedChainComplex(K, p)
            betti = chains.homology()
            assert "bases" not in vars(chains)
            assert betti == _basis_homology(chains), (name, p)


def test_dd_zero_on_r0_chains(susp_t2):
    lower, _ = pv.middle_perversities(3)
    chains = ix.StratifiedChainComplex(susp_t2, lower)
    bnd = chains._bnd
    for i in range(2, susp_t2.n + 1):
        for col in linalg.combine_columns(bnd[i - 1], bnd[i]):
            assert not col


def test_duality_examples(susp_t2, t2, mobius):
    lower, upper = pv.middle_perversities(3)
    r = ix.duality_check(susp_t2, lower)
    assert r["applicable"] and r["pass"]
    r = ix.duality_check(susp_t2, pv.zero_perversity(3))
    assert r["pass"]
    r = ix.duality_check(t2, pv.zero_perversity(2))
    assert r["pass"]
    r = ix.duality_check(mobius, pv.zero_perversity(2))
    assert not r["applicable"]


def test_duality_not_applicable_on_cone(cone_t2):
    r = ix.duality_check(cone_t2, pv.zero_perversity(3))
    assert not r["applicable"]
    assert "boundary" in r["reason"]


def test_subdivision_stability_spot_check(susp_t2):
    sd = cx.barycentric_subdivide(susp_t2)
    lower, upper = pv.middle_perversities(3)
    for p in (lower, upper):
        assert ix.intersection_betti(sd, p) == ix.intersection_betti(susp_t2, p)
