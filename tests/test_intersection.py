"""Allowable chains and intersection homology against worked oracles."""

import copy
import itertools
import json
import random
import sys
from fractions import Fraction as F

import pytest
from conftest import simplex_index, simplex_level
from hypothesis import given, settings
from hypothesis import strategies as st

from stratal import cli
from stratal import complexes as cx
from stratal import corpus
from stratal import intersection as ix
from stratal import l2model, linalg
from stratal import perversity as pv
from stratal import verify
from stratal.errors import ConfigurationError, StructureError
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
    allowed = {value: ix.StratifiedChainComplex(
        cone_t2, pv.Perversity(pv.PER_STRATUM, {apex_id: value})).allowable_indices[2]
        for value in (0, 1)}
    # 0 <= 2 - 3 + 1 admits the apex face; 0 <= 2 - 3 + 0 does not
    assert simplex_index(cone_t2, through_apex) in allowed[1]
    assert simplex_index(cone_t2, through_apex) not in allowed[0]
    # a regular simplex with no singular faces is allowable for any perversity
    assert simplex_index(cone_t2, off_apex) in allowed[0]


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


def test_boundary_closure(susp_t2, dropped_boundary):
    lower, upper = pv.middle_perversities(3)
    for p in (lower, upper, _per_stratum(susp_t2, 2)):
        chains = ix.StratifiedChainComplex(susp_t2, p)
        for i in range(1, susp_t2.n + 1):
            for img in linalg.combine_columns(dropped_boundary(susp_t2)[i], chains.bases[i]):
                assert _in_span(img, chains.bases[i - 1])


def _basis_homology(chains, bnd):
    """Betti numbers from the explicit bases: dim IC_i minus the ranks of the
    images under the dropped-face boundary `bnd` of the degree-i and
    degree-(i+1) bases."""
    n = chains.K.n
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        ranks[i] = linalg.rank(linalg.combine_columns(bnd[i], chains.bases[i]))
    return tuple(len(chains.bases[i]) - ranks[i] - ranks[i + 1] for i in range(n + 1))


def _oracle_perversities(K, rng):
    seeded = [
        pv.Perversity(pv.PER_STRATUM,
                      {s.id: rng.randint(-2, K.n + 1) for s in K.singular_strata()})
        for _ in range(3)
    ]
    return [p for _, p in _named_perversities(K.n)] + seeded


def test_rank_homology_matches_basis_homology(spaces, dropped_boundary):
    rng = random.Random(2011)
    for name in sorted(spaces):
        K = spaces[name]
        for p in _oracle_perversities(K, rng):
            chains = ix.StratifiedChainComplex(K, p)
            betti = chains.homology()
            assert "bases" not in vars(chains)
            assert betti == _basis_homology(chains, dropped_boundary(K)), (name, p)


def _two_rank_homology(chains, bnd):
    """The homology computation before clearing, kept as an oracle: two
    independent ranks per degree of the dropped-face boundary `bnd`, with no
    reduction shared between them."""
    n = chains.K.n
    allow = chains.allowable_indices
    dims = [len(a) for a in allow]
    ranks = [0] * (n + 2)
    for i in range(1, n + 1):
        allowed_rows = set(allow[i - 1])
        cols = [bnd[i][j] for j in allow[i]]
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
    return [[simplex_index(K, s) for s in K.simplices(i) if s in profiles and allowed(s, i)]
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
                                                              regular_profiles, dropped_boundary,
                                                              data):
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
        assert chains.homology() == _two_rank_homology(chains, dropped_boundary(K)), (K.name, p)


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
    return {v for (v,) in K.simplices(0) if simplex_level(K, (v,)) < K.n}


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
        chains = ix.StratifiedChainComplex(K, _per_stratum(K, -100))
        for i, simplices in enumerate(chains.reg):
            # -100 rejects every simplex that meets a singular stratum
            off = [simplex_index(K, s) for s in simplices if singular.isdisjoint(s)]
            assert chains.allowable_indices[i] == off, (K.name, i)


def test_simplices_that_are_not_regular_are_never_allowable(spaces, ih_ladder):
    for K in _all_spaces(spaces, ih_ladder):
        chains = ix.StratifiedChainComplex(K, _per_stratum(K, 100))
        for i in range(K.n + 1):
            # 100 admits every regular simplex; a simplex of X_{n-1} stays out
            regular = [j for j, s in enumerate(K.simplices(i)) if simplex_level(K, s) == K.n]
            assert chains.allowable_indices[i] == regular, (K.name, i)


def test_allowable_indices_match_per_simplex_allowability(spaces, ih_ladder, face_profiles):
    """Allowability decided once per profile picks the same simplices as
    testing each simplex on its own face profile, under the named
    perversities and seeded per-stratum ones."""
    rng = random.Random(11)
    for K in _all_spaces(spaces, ih_ladder):
        profiles = face_profiles(K)
        for p in _oracle_perversities(K, rng):
            chains = ix.StratifiedChainComplex(K, p)
            want = _allowable_by_definition(K, p, profiles)
            assert chains.allowable_indices == want, (K.name, p)


def test_dropped_face_columns_restrict_the_full_boundary(spaces, ih_ladder, dropped_boundary):
    """The regular simplices are those off X_{n-1}, and the boundary over
    their regular facets, built from the facets by `dropped_boundary`, is
    `boundary_matrix` with the rows of X_{n-1} deleted: the row partition
    that `homology` hands to `linalg.chain_ranks`."""
    subdivided = [cx.barycentric_subdivide(spaces[name]) for name in sorted(spaces)]
    for K in [*_all_spaces(spaces, ih_ladder), *subdivided]:
        in_singular_set = K.skeleton(K.n - 1)
        reg = ix.StratifiedChainComplex(K, pv.zero_perversity(K.n)).reg
        assert reg == [[s for s in K.simplices(i) if s not in in_singular_set]
                       for i in range(K.n + 1)], K.name
        for i, cols in enumerate(dropped_boundary(K)):
            dropped = {simplex_index(K, s) for s in in_singular_set if len(s) == i}
            assert cols == [{r: v for r, v in col.items() if r not in dropped}
                            for col in K.boundary_matrix(i)], (K.name, i)


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


def _queries(K, rng):
    """The named perversities of K and three seeded per-stratum ones."""
    queries = [p for _, p in _named_perversities(K.n)]
    queries += [pv.Perversity(pv.PER_STRATUM, {s.id: rng.randint(-2, s.codim + 1)
                                               for s in K.singular_strata()})
                for _ in range(3)]
    return queries


def _cached_columns(K):
    """The columns that a complex keeps, all in its one rank-query table:
    per degree, in order, the near columns and the columns of the interior
    pivot table."""
    return [[list(columns) for _, _, columns, _ in K.interior],
            [list(pivots.items()) for _, pivots, _, _ in K.interior]]


def test_elimination_leaves_cached_boundaries_unchanged(spaces, ih_ladder):
    """`_reduce` works in place on its columns, so it must be handed copies,
    and dropping the X_{n-1} rows copies a column and never edits it: after
    IH queries on a fresh copy of each space, named and seeded, and
    `betti()`, the complex's rank-query table is the same object, and every
    column in it, near or of the interior pivot tables, is the same dict,
    unchanged. The near columns are those of `boundary_matrix`, with None at
    the interior simplices and throughout degree 0."""
    rng = random.Random(26)
    for K in _all_spaces(spaces, ih_ladder):
        K = cx.load(cx.to_document(K))
        table = K.interior
        cols = _cached_columns(K)
        full = copy.deepcopy(cols)
        for p in _queries(K, rng):
            ix.intersection_betti(K, p)
        K.betti()
        assert K.ih_memo, K.name
        assert K.interior is table, K.name
        after = _cached_columns(K)
        assert after == full, K.name
        assert all(a is b for was, now in zip(cols[0], after[0]) for a, b in zip(was, now)), K.name
        assert all(a[1] is b[1] for was, now in zip(cols[1], after[1])
                   for a, b in zip(was, now)), K.name
        near, _, columns, _ = zip(*table)
        assert columns[0] == [None] * len(K.simplices(0)), K.name
        for i in range(1, K.n + 1):
            assert columns[i] == [col if j in set(near[i]) else None
                                  for j, col in enumerate(K.boundary_matrix(i))], K.name


def test_the_table_lists_the_simplices_of_the_singular_set(spaces, ih_ladder):
    """Per degree, the X_{n-1} positions of the rank-query table, taken from
    the None class of `profile_classes`, are those of `skeleton(n - 1)`, on
    the corpus, its subdivisions and the ih-ladder spaces."""
    subdivided = [cx.barycentric_subdivide(spaces[name]) for name in sorted(spaces)]
    for K in [*_all_spaces(spaces, ih_ladder), *subdivided]:
        in_singular_set = K.skeleton(K.n - 1)
        want = [sorted(simplex_index(K, s) for s in in_singular_set if len(s) == i + 1)
                for i in range(K.n + 1)]
        assert [singular for _, _, _, singular in K.interior] == want, K.name


def test_rank_queries_read_only_the_table(spaces, ih_ladder, monkeypatch, capsys):
    """Named and seeded IH queries and `betti()` on a fresh copy of each
    space build no skeleton and no `boundary_matrix`: the one table holds
    all they read. Neither does `ih --emit-generators`, whose bases take
    their near columns from the table."""
    calls = []

    def spy(name):
        method = getattr(cx.FilteredComplex, name)

        def wrapper(*args, **kw):
            calls.append(name)
            return method(*args, **kw)
        monkeypatch.setattr(cx.FilteredComplex, name, wrapper)

    fresh = [cx.load(cx.to_document(K)) for K in _all_spaces(spaces, ih_ladder)]
    spy("skeleton")
    spy("boundary_matrix")
    rng = random.Random(43)
    for K in fresh:
        for p in _queries(K, rng):
            ix.intersection_betti(K, p)
        K.betti()
        assert K.ih_memo, K.name
    assert calls == []
    for name in ("cone_t2", "susp_t2", "mobius"):
        for spec in ("zero", "lower-middle", "upper-middle", "top"):
            assert cli.main(["ih", "--space", name, "--perversity", spec,
                             "--emit-generators"]) == 0
            assert "chain_basis" in json.loads(capsys.readouterr().out)
    assert "boundary_matrix" not in calls


def test_each_near_column_is_built_once_and_no_cleared_column_at_all(spaces, ih_ladder,
                                                                      monkeypatch):
    """Named and seeded IH queries and `betti()` on a fresh copy of each
    space build, through the one column builder, each near column of degree
    1 and up once, and of the interior columns only those that the interior
    pivots of the degree above do not clear, each once; no column of degree
    0 is built."""
    built = []
    columns = cx.FilteredComplex._columns

    def spy(K, i, indices):
        built.extend((i, j) for j in indices)
        return columns(K, i, indices)

    monkeypatch.setattr(cx.FilteredComplex, "_columns", spy)
    rng = random.Random(36)
    counts = {}
    for K in _all_spaces(spaces, ih_ladder):
        K = cx.load(cx.to_document(K))
        built.clear()
        for p in _queries(K, rng):
            ix.intersection_betti(K, p)
        K.betti()
        near = {(i, j) for i in range(1, K.n + 1) for j in K.interior[i][0]}
        cleared = {(i, j) for i in range(1, K.n) for j in K.interior[i + 1][1]}
        inner = {(i, j) for i in range(1, K.n + 1)
                 for j in range(len(K.simplices(i)))}.difference(near, cleared)
        assert len(built) == len(set(built)), K.name
        assert set(built) == near | inner, K.name
        counts[K.name] = len(near), len(inner), sum(K.counts()[1:])
    assert counts[ih_ladder["sd(susp t2)"].name] == (504, 1219, 2814)


def _plain_betti(K, p, dropped):
    """IH (or, for p None, plain) Betti numbers through `linalg.chain_ranks`
    without the shared interior table or dropped rows: every allowed column
    of the boundary (for IH, the dropped-face boundary `dropped`) reduced."""
    if p is None:
        bnd = [K.boundary_matrix(i) for i in range(K.n + 1)]
        allow = [range(len(b)) for b in bnd]
    else:
        bnd, allow = dropped, ix.StratifiedChainComplex(K, p).allowable_indices
    dims = [len(a) for a in allow]
    ranks = [0] * (K.n + 2)
    for i, (r_all, r_bad) in enumerate(linalg.chain_ranks(bnd, allow)):
        dims[i] -= r_bad
        ranks[i] = r_all - r_bad
    return tuple(dims[i] - ranks[i] - ranks[i + 1] for i in range(K.n + 1))


def test_shared_interior_table_matches_the_plain_path(spaces, ih_ladder, dropped_boundary):
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
        want = [_plain_betti(K, p, dropped_boundary(K)) for p in queries]
        for order in (queries, queries[::-1]):
            fresh = cx.load(cx.to_document(K))
            table = copy.deepcopy(fresh.interior)
            got = [fresh.betti() if p is None else ix.intersection_betti(fresh, p)
                   for p in order]
            assert got == [want[queries.index(p)] for p in order], K.name
            assert fresh.interior == table, K.name


def _sweep(K):
    """Every per-stratum perversity with values in -2..codim+1 on each
    singular stratum: every value from codim - 1 up admits each simplex that
    meets the stratum, so many of them share a pattern."""
    strata = K.singular_strata()
    for values in itertools.product(*(range(-2, s.codim + 2) for s in strata)):
        yield pv.Perversity(pv.PER_STRATUM, {s.id: v for s, v in zip(strata, values)})


def _space_and_subdivision(name):
    K = corpus.load_space(name)
    return [K, cx.barycentric_subdivide(K)]


def _counting_chain_ranks(monkeypatch):
    calls = []
    chain_ranks = linalg.chain_ranks

    def spy(*args):
        calls.append(args)
        return chain_ranks(*args)

    monkeypatch.setattr(linalg, "chain_ranks", spy)
    return calls


@pytest.mark.parametrize("name", corpus.SPACE_NAMES)
def test_memo_hits_equal_the_answers_of_a_freshly_loaded_complex(name):
    for K in _space_and_subdivision(name):
        doc = cx.to_document(K)
        hits = 0
        for p in _sweep(K):
            stored = len(K.ih_memo)
            got = ix.intersection_betti(K, p)
            if len(K.ih_memo) == stored:
                hits += 1
                assert got == ix.intersection_betti(cx.load(doc), p), (K.name, p)
        # codim - 1, codim and codim + 1 share a pattern on every stratum
        assert hits > 0 or not K.singular_strata(), K.name


@pytest.mark.parametrize("name", corpus.SPACE_NAMES)
def test_perversities_with_one_allowable_pattern_reduce_once(monkeypatch, name):
    calls = _counting_chain_ranks(monkeypatch)
    for K in _space_and_subdivision(name):
        seen = set()
        for p in _sweep(K):
            chains = ix.StratifiedChainComplex(K, p)
            pattern = tuple(map(tuple, chains.allowable_indices))
            before = len(calls)
            chains.homology()
            assert len(calls) - before == (pattern not in seen), (K.name, p)
            seen.add(pattern)
        assert len(K.ih_memo) == len(seen), K.name


def test_memo_never_crosses_complex_objects(monkeypatch):
    calls = _counting_chain_ranks(monkeypatch)
    first, second = corpus.load_space("susp_s2"), corpus.load_space("susp_s2")
    p = _per_stratum(first, 1)
    want = ix.intersection_betti(first, p)
    assert len(calls) == 1 and len(first.ih_memo) == 1 and not second.ih_memo
    assert ix.intersection_betti(second, p) == want
    assert len(calls) == 2 and len(second.ih_memo) == 1
    # a subdivision is a new complex with its own, empty memo
    sd = cx.barycentric_subdivide(first)
    assert not sd.ih_memo
    assert ix.intersection_betti(sd, _per_stratum(sd, 1)) == want and len(calls) == 3


def test_a_perversity_lacking_a_stratum_raises_after_its_pattern_is_stored():
    K = corpus.load_space("susp_s2")
    north, south = (s.id for s in sorted(K.singular_strata(), key=lambda s: s.id))
    ix.intersection_betti(K, pv.Perversity(pv.PER_STRATUM, {north: 0, south: 0}))
    assert K.ih_memo
    with pytest.raises(ConfigurationError, match="south"):
        ix.intersection_betti(K, pv.Perversity(pv.PER_STRATUM, {north: 0}))


# each entry point to a Betti vector, run on a complex of its own
_BETTI_QUERIES = {
    "betti": lambda K: K.betti(),
    "intersection_betti": lambda K: [ix.intersection_betti(K, p)
                                     for _, p in _named_perversities(K.n)],
    "duality_check": lambda K: [ix.duality_check(K, p) for _, p in _named_perversities(K.n)],
    "theorem_predictions": l2model.theorem_predictions,
}


@pytest.mark.parametrize("query", sorted(_BETTI_QUERIES))
def test_every_rank_query_comes_from_betti_of(monkeypatch, query):
    callers = []
    chain_ranks = linalg.chain_ranks

    def spy(*args):
        callers.append(sys._getframe(1).f_code)
        return chain_ranks(*args)

    monkeypatch.setattr(linalg, "chain_ranks", spy)
    for name in corpus.SPACE_NAMES:
        _BETTI_QUERIES[query](corpus.load_space(name))
    assert callers and set(callers) == {cx.FilteredComplex.betti_of.__code__}


@pytest.mark.parametrize("name", corpus.SPACE_NAMES)
def test_betti_shares_the_memo_with_the_perversities_exactly_on_a_manifold(monkeypatch, name):
    """With X_{n-1} empty every perversity allows every simplex, as `betti()`
    does, so all of them make one reduction; otherwise `betti()` allows the
    simplices of X_{n-1}, which no perversity does, and keeps an entry of
    its own beside the perversities' patterns."""
    alone = corpus.load_space(name)
    want = [ix.intersection_betti(alone, p) for _, p in _named_perversities(alone.n)]
    calls = _counting_chain_ranks(monkeypatch)
    K = corpus.load_space(name)
    betti = K.betti()
    assert [ix.intersection_betti(K, p) for _, p in _named_perversities(K.n)] == want
    if K.singular_strata():
        assert len(K.ih_memo) == len(calls) == 1 + len(alone.ih_memo)
    else:
        assert len(K.ih_memo) == len(calls) == 1
        assert want == [betti] * len(want)


def test_dd_zero_on_r0_chains(susp_t2, dropped_boundary):
    bnd = dropped_boundary(susp_t2)
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


# the 6-vertex projective plane: triangles 123 134 145 156 162 235 346 452
# 563 624, vertices renumbered from 0
_RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
        (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)]


@pytest.fixture(scope="module")
def rp2():
    return cx.build("rp2", range(6), _RP2)


def test_duality_is_not_applicable_on_an_unorientable_space(rp2):
    assert rp2.is_closed() and cx.check_orientation(rp2) is None
    assert rp2.betti() == (1, 0, 0)
    # the suspension is singular at both apexes and still unorientable
    for K in (rp2, cx.suspension(rp2)):
        r = ix.duality_check(K, pv.zero_perversity(K.n))
        assert (r["applicable"], r["reason"]) == (False, "space is unorientable"), K.name


def test_duality_suite_reports_an_unorientable_space_as_not_applicable(rp2, tmp_path):
    (tmp_path / "rp2.json").write_text(json.dumps(cx.to_document(rp2)))
    report = verify.suite_duality(tmp_path)
    assert report.passed
    assert [c["name"] for c in report.checks] == ["rp2: not applicable (unorientable)"]


def test_ris_consistency_skips_a_singular_space_without_weights(cone_t2, tmp_path):
    doc = cx.to_document(cone_t2)
    del doc["weights"]
    (tmp_path / "cone_t2.json").write_text(json.dumps(doc))
    assert verify.suite_ris_consistency(tmp_path).checks == []
    # with its weights the space is checked
    (tmp_path / "cone_t2.json").write_text(json.dumps(cx.to_document(cone_t2)))
    assert verify.suite_ris_consistency(tmp_path).checks


def test_duality_refuses_a_branching_regular_face(theta):
    with pytest.raises(StructureError, match="regular face \\(0,1\\) has 3 top cofaces"):
        ix.duality_check(theta, pv.zero_perversity(2))


def test_subdivision_stability_spot_check(susp_t2):
    sd = cx.barycentric_subdivide(susp_t2)
    lower, upper = pv.middle_perversities(3)
    for p in (lower, upper):
        assert ix.intersection_betti(sd, p) == ix.intersection_betti(susp_t2, p)
