"""Allowable chains and intersection homology against worked oracles."""

import copy
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratal import complexes as cx
from stratal import intersection as ix
from stratal import linalg
from stratal import perversity as pv
from stratal.errors import ConfigurationError
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


def test_allowable_rejects_a_simplex_that_is_not_regular(cone_t2):
    apex = (len(cone_t2.vertex_ids) - 1,)
    p = _per_stratum(cone_t2, 0)
    for sigma in (apex, (0, 99), (), tuple(range(5))):
        with pytest.raises(ConfigurationError, match=re.escape(f"{sigma} is not a regular")):
            ix.allowable(sigma, 2, cone_t2, p)


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


def _in_span(col, basis):
    """Membership in the span of an rcef basis: the canonical form is unchanged."""
    return linalg.rcef([*basis, col]) == basis


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
                    assert _in_span(col, big.bases[i])


def test_boundary_closure(susp_t2):
    lower, upper = pv.middle_perversities(3)
    for p in (lower, upper, _per_stratum(susp_t2, 2)):
        chains = ix.StratifiedChainComplex(susp_t2, p)
        for i in range(1, susp_t2.n + 1):
            for img in linalg.combine_columns(chains.K.regular[i], chains.bases[i]):
                assert _in_span(img, chains.bases[i - 1])


def _basis_homology(chains):
    """Betti numbers from the explicit bases: dim IC_i minus the ranks of the
    boundary images of the degree-i and degree-(i+1) bases."""
    n = chains.K.n
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        ranks[i] = linalg.rank(linalg.combine_columns(chains.K.regular[i], chains.bases[i]))
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


def _two_rank_homology(chains):
    """The homology computation before clearing, kept as an oracle: two
    independent ranks per degree, with no reduction shared between them."""
    n = chains.K.n
    allow = chains.allowable_indices
    dims = [len(a) for a in allow]
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        allowed_rows = set(allow[i - 1])
        cols = [chains.K.regular[i][j] for j in allow[i]]
        r_bad = linalg.rank(
            [{r: v for r, v in col.items() if r not in allowed_rows} for col in cols]
        )
        dims[i] -= r_bad
        ranks[i] = linalg.rank(cols) - r_bad
    return tuple(dims[i] - ranks[i] - ranks[i + 1] for i in range(n + 1))


def _allowable_by_definition(K, p, profiles):
    """Per degree, the complex's indices of the regular simplices that are
    p-allowable, each tested on its own profile from `face_profiles`."""
    def allowed(s, i):
        return all(d <= i - K.strata[sid].codim + p.value(sid, K.strata[sid].codim)
                   for sid, d in profiles[s].items())
    return [[K.index(s) for s in K.simplices(i) if s in profiles and allowed(s, i)]
            for i in range(K.n + 1)]


_BASES = ("point", "s0", "s1_hex", "s2", "susp_s0", "mobius", "cone_s1_c_half", "t2_7",
          "cone_cone_s1", "susp_s2")
_BUILD = {"cone": cx.cone, "susp": cx.suspension, "sd": cx.barycentric_subdivide}


@pytest.fixture(scope="module")
def generated():
    """(base, op, ...) -> space, so each generated space is built once."""
    return {}


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_clearing_matches_two_rank_oracle_on_generated_spaces(spaces, generated, face_profiles,
                                                              regular_profiles, data):
    """Iterated cones, suspensions and subdivisions of small corpus spaces,
    under drawn per-stratum perversities. A space stops growing past 400
    simplices and is subdivided only up to 100, which keeps the oracle fast."""
    path = (data.draw(st.sampled_from(_BASES)),)
    K = spaces[path[0]]
    for _ in range(data.draw(st.integers(1, 3))):
        size = sum(K.counts())
        if size > 400:
            break
        path += (data.draw(st.sampled_from(sorted(_BUILD) if size <= 100 else ["cone", "susp"])),)
        if path not in generated:
            generated[path] = _BUILD[path[-1]](K)
        K = generated[path]
    profiles = face_profiles(K)
    assert regular_profiles(K) == profiles, K.name
    for _ in range(2):
        p = pv.Perversity(pv.PER_STRATUM, {
            s.id: data.draw(st.integers(-2, K.n + 1)) for s in K.singular_strata()})
        chains = ix.StratifiedChainComplex(K, p)
        assert chains.allowable_indices == _allowable_by_definition(K, p, profiles), (K.name, p)
        assert chains.homology() == _two_rank_homology(chains), (K.name, p)


def test_regular_profiles_match_face_enumeration(spaces, face_profiles, regular_profiles):
    """Profiles read from vertex levels equal the per-face definition on
    every corpus space and its subdivision."""
    for name in sorted(spaces):
        K = spaces[name]
        for L in (K, cx.barycentric_subdivide(K)):
            assert regular_profiles(L) == face_profiles(L), L.name


def _all_spaces(spaces, ih_ladder):
    return [*(spaces[name] for name in sorted(spaces)), *ih_ladder.values()]


def _singular_vertices(K):
    return {v for (v,) in K.simplices(0) if K.level((v,)) < K.n}


def test_simplices_off_the_singular_set_have_empty_profiles(spaces, ih_ladder, regular_profiles):
    for K in _all_spaces(spaces, ih_ladder):
        singular = _singular_vertices(K)
        profiles = regular_profiles(K)
        off = [s for s in profiles if singular.isdisjoint(s)]
        assert off, K.name
        for s in off:
            assert profiles[s] == {}, (K.name, s)
        # and the others keep a profile
        assert all(profiles[s] for s in profiles if not singular.isdisjoint(s)), K.name


def test_simplices_off_the_singular_set_are_allowable_in_every_degree(spaces, ih_ladder):
    for K in _all_spaces(spaces, ih_ladder):
        singular = _singular_vertices(K)
        p = _per_stratum(K, -100)
        for simplices in ix.StratifiedChainComplex(K, p).reg:
            for s in simplices:
                off = singular.isdisjoint(s)
                for i in range(len(s) - 1, K.n + 1):
                    # -100 rejects every simplex that meets a singular stratum
                    assert ix.allowable(s, i, K, p) is off, (K.name, s, i)


def test_allowable_indices_match_per_simplex_allowability(spaces, ih_ladder, face_profiles):
    """Allowability decided once per profile picks the same simplices as the
    per-simplex test, under the named perversities and seeded per-stratum
    ones."""
    rng = random.Random(11)
    for K in _all_spaces(spaces, ih_ladder):
        profiles = face_profiles(K)
        for p in _oracle_perversities(K, rng):
            chains = ix.StratifiedChainComplex(K, p)
            want = _allowable_by_definition(K, p, profiles)
            assert chains.allowable_indices == want, (K.name, p)
            assert want == [[K.index(s) for s in simplices if ix.allowable(s, i, K, p)]
                            for i, simplices in enumerate(chains.reg)], (K.name, p)


def test_dropped_face_columns_restrict_the_full_boundary(spaces, ih_ladder):
    """Column j of the dropped-face boundary is the boundary of the i-simplex
    j over its regular facets, built here from the facets; when the simplex
    has two non-singular vertices it is the `boundary_matrix` column itself."""
    subdivided = [cx.barycentric_subdivide(spaces[name]) for name in sorted(spaces)]
    for K in [*_all_spaces(spaces, ih_ladder), *subdivided]:
        singular = _singular_vertices(K)
        bnd = K.regular
        in_singular_set = K.skeleton(K.n - 1)
        reg = ix.StratifiedChainComplex(K, pv.zero_perversity(K.n)).reg
        assert reg == [[s for s in K.simplices(i) if s not in in_singular_set]
                       for i in range(K.n + 1)], K.name
        for i in range(K.n + 1):
            full = K.boundary_matrix(i)
            assert len(bnd[i]) == len(full), (K.name, i)
            for j, s in enumerate(K.simplices(i)):
                want = {}
                for k in range(len(s) if i else 0):
                    face = s[:k] + s[k + 1:]
                    if face not in in_singular_set:
                        want[K.index(face)] = (-1) ** k
                assert bnd[i][j] == want, (K.name, s)
                if len(set(s) - singular) >= 2:
                    assert bnd[i][j] is full[j], (K.name, s)


# the ih-ladder answers, recorded before the regular part moved to the
# complex's own indices: zero, lower-middle, upper-middle, top, then betti()
IH_LADDER = {
    "susp(susp t2)": [(1, 2, 0, 0, 1), (1, 2, 0, 0, 1), (1, 0, 0, 2, 1), (1, 0, 0, 2, 1),
                      (1, 0, 0, 2, 1)],
    "cone(susp(susp t2))": [(1, 2, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0),
                            (1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0)],
    "sd(cone_t2)": [(1, 2, 0, 0), (1, 2, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)],
    "sd(susp t2)": [(1, 2, 0, 1), (1, 2, 0, 1), (1, 0, 2, 1), (1, 0, 2, 1), (1, 0, 2, 1)],
    "cone(sd(susp t2))": [(1, 2, 0, 0, 0), (1, 2, 0, 0, 0), (1, 0, 0, 0, 0), (1, 0, 0, 0, 0),
                          (1, 0, 0, 0, 0)],
}


@pytest.mark.parametrize("name", sorted(IH_LADDER))
def test_ih_ladder_answers_pinned(ih_ladder, name):
    K = ih_ladder[name]
    lower, upper = pv.middle_perversities(K.n)
    got = [ix.intersection_betti(K, p)
           for p in (pv.zero_perversity(K.n), lower, upper, pv.top_perversity(K.n))]
    assert [*got, K.betti()] == IH_LADDER[name]


def test_elimination_leaves_cached_boundaries_unchanged(spaces, ih_ladder):
    """`_reduce` works in place on its columns, so it must be handed copies:
    the cached boundaries and dropped-face boundaries stay as they were."""
    for K in _all_spaces(spaces, ih_ladder):
        full = copy.deepcopy([K.boundary_matrix(i) for i in range(K.n + 1)])
        dropped = copy.deepcopy(K.regular)
        for _, p in _named_perversities(K.n):
            ix.intersection_betti(K, p)
        K.betti()
        assert [K.boundary_matrix(i) for i in range(K.n + 1)] == full, K.name
        assert K.regular == dropped, K.name


def _plain_betti(K, p=None):
    """IH (or, for p None, plain) Betti numbers through `linalg.chain_ranks`
    without the shared interior table: every allowed column reduced."""
    if p is None:
        bnd = [K.boundary_matrix(i) for i in range(K.n + 1)]
        allow = [range(len(b)) for b in bnd]
    else:
        bnd, allow = K.regular, ix.StratifiedChainComplex(K, p).allowable_indices
    dims = [len(a) for a in allow]
    ranks = [0] * (K.n + 2)
    for i, (r_all, r_bad) in enumerate(linalg.chain_ranks(bnd, allow)):
        dims[i] -= r_bad
        ranks[i] = r_all - r_bad
    return tuple(dims[i] - ranks[i] - ranks[i + 1] for i in range(K.n + 1))


def test_shared_interior_table_matches_the_plain_path(spaces, ih_ladder):
    """Named and seeded by-codim perversities and `betti()`, asked in two
    orders of two fresh copies of each space, give what the plain path
    gives, and leave the complex's interior table as it was built."""
    rng = random.Random(16)
    subdivided = [cx.barycentric_subdivide(spaces[name]) for name in sorted(spaces)]
    for K in [*_all_spaces(spaces, ih_ladder), *subdivided]:
        queries = [p for _, p in _named_perversities(K.n)]
        for _ in range(2):
            queries.append(pv.Perversity(pv.BY_CODIM, {k: rng.randint(-1, k - 1)
                                                       for k in range(1, K.n + 1)}))
        queries.append(None)
        want = [_plain_betti(K, p) for p in queries]
        for order in (queries, queries[::-1]):
            fresh = cx.load(cx.to_document(K))
            table = copy.deepcopy(fresh.interior)
            got = [fresh.betti() if p is None else ix.intersection_betti(fresh, p)
                   for p in order]
            assert got == [want[queries.index(p)] for p in order], K.name
            assert fresh.interior == table, K.name


def test_dd_zero_on_r0_chains(susp_t2):
    lower, _ = pv.middle_perversities(3)
    chains = ix.StratifiedChainComplex(susp_t2, lower)
    bnd = chains.K.regular
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
