"""Complex loading, validation, constructors, subdivision, orientation."""

import functools
import gc
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction as F
from itertools import permutations

import pytest
from conftest import simplex_index, simplex_label, simplex_level
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stratal import complexes as cx
from stratal import corpus, linalg
from stratal import intersection as ix
from stratal import perversity as pv
from stratal import verify
from stratal.errors import ConfigurationError, SpaceFormatError, StratalError, StructureError


def test_load_boundary_delta3_single_stratum(s2):
    assert s2.counts() == (4, 6, 4)
    assert len(s2.strata) == 1
    assert not s2.singular_strata()
    assert s2.betti() == (1, 0, 1)


def test_load_cone_file_has_apex_stratum(cone_t2):
    singular = cone_t2.singular_strata()
    assert len(singular) == 1
    apex = singular[0]
    assert apex.link_dim == cone_t2.n - 1
    assert cone_t2.weights[apex.id] == F(1)


def test_stratum_repr_and_simplices_outside_the_dimensions(cone_t2):
    apex = cone_t2.singular_strata()[0]
    assert repr(apex) == f"<Stratum {apex.id} dim=0 codim=3 singular>"
    assert cone_t2.simplices(-1) == () == cone_t2.simplices(cone_t2.n + 1)


def test_load_rejects_non_nested_skeleta():
    doc = {
        "name": "bad",
        "dimension": 2,
        "vertices": [0, 1, 2, 3],
        "maximal_simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        "skeleta": {"0": [[0]], "1": []},
    }
    with pytest.raises(SpaceFormatError, match="not nested"):
        cx.load(doc)


def test_load_rejects_oversized_skeleton_member():
    doc = {
        "name": "bad",
        "dimension": 2,
        "vertices": [0, 1, 2, 3],
        "maximal_simplices": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
        "skeleta": {"0": [[0, 1]]},
    }
    with pytest.raises(SpaceFormatError, match="dimension 1"):
        cx.load(doc)


def test_load_rejects_impure_complex():
    doc = {
        "name": "bad",
        "dimension": 2,
        "vertices": [0, 1, 2, 3],
        "maximal_simplices": [[0, 1, 2], [3]],
    }
    with pytest.raises(SpaceFormatError, match="not pure"):
        cx.load(doc)


_CIRCLE = {"dimension": 1, "vertices": [0, 1, 2], "maximal_simplices": [[0, 1], [1, 2], [0, 2]]}


@pytest.mark.parametrize("doc, message", [
    pytest.param({**_CIRCLE, "skeleta": {"x": [[0]]}}, "skeleton level 'x' is not an integer",
                 id="skeleton-key-text"),
    # an impure document with a non-full filtration names its own simplex
    pytest.param({"dimension": 2, "vertices": [0, 1, 2, 3, 4],
                  "maximal_simplices": [[0, 1, 2], [3, 4]], "skeleta": {"0": [[3], [4]]}},
                 r"maximal simplex \(3,4\) has dimension 1", id="impure-not-full"),
    pytest.param({"dimension": 1, "vertices": [0, 1, 2, 3], "maximal_simplices": [[0, 1, 2, 3]]},
                 r"simplex \(0,1,2,3\) exceeds dimension 1", id="exceeds-dimension"),
    # rejected before the face closure, which would hold 2^40 - 1 faces per
    # simplex; the least of the widest simplices is named
    pytest.param({"dimension": 1, "vertices": list(range(41)),
                  "maximal_simplices": [[0, 1], list(range(1, 41)), list(range(40))]},
                 r"^simplex \(0,1,2,[0-9,]*,39\) exceeds dimension 1$", id="exceeds-dimension-wide"),
    pytest.param({**_CIRCLE, "maximal_simplices": []}, "at least one simplex", id="empty"),
    # listed faces, or simplices all of one wrong length, still name the simplex
    pytest.param({"dimension": 2, "vertices": [0, 1, 2, 3],
                  "maximal_simplices": [[0, 1, 2], [0, 1], [3]]},
                 r"maximal simplex \(3\) has dimension 0", id="impure-with-face"),
    pytest.param({"dimension": 2, "vertices": [0, 1, 2], "maximal_simplices": [[0, 1], [1, 2]]},
                 r"maximal simplex \(0,1\) has dimension 1, expected 2",
                 id="equal-lengths-short"),
    pytest.param({"dimension": 1, "vertices": [0, 1, 2, 3],
                  "maximal_simplices": [[0, 1, 2, 3], [0, 1]]},
                 r"simplex \(0,1,2,3\) exceeds dimension 1", id="too-high-with-face"),
    pytest.param({"dimension": 1, "vertices": [0, 1, 2, 3],
                  "maximal_simplices": [[0, 1, 2], [1, 2, 3]]},
                 r"simplex \(0,1,2\) exceeds dimension 1", id="equal-lengths-long"),
    # each simplex rule, named by the first simplex that breaks any of them
    pytest.param({**_CIRCLE, "maximal_simplices": {"0": [0, 1]}},
                 "maximal_simplices must be a list of simplices", id="simplices-object"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [1, True]]},
                 r"^bad simplex \[1, True\] in maximal_simplices$", id="vertex-true"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [1, 2.0]]},
                 r"^bad simplex \[1, 2\.0\] in maximal_simplices$", id="vertex-float"),
    # the vertex types are checked before the simplex is sorted or made a set
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [1, "2"]]},
                 r"^bad simplex \[1, '2'\] in maximal_simplices$", id="vertex-string"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [1, [2]]]},
                 r"^bad simplex \[1, \[2\]\] in maximal_simplices$", id="vertex-unhashable"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [True, True]]},
                 r"^bad simplex \[True, True\] in maximal_simplices$", id="vertex-true-repeated"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [-1, 2]]},
                 r"^bad simplex \[-1, 2\] in maximal_simplices$", id="vertex-negative"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [1, 3]]},
                 r"^bad simplex \[1, 3\] in maximal_simplices$", id="vertex-past-count"),
    # within one simplex the range rule comes before the repeat rule
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [4, 4]]},
                 r"^bad simplex \[4, 4\] in maximal_simplices$", id="past-count-repeated"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], []]},
                 r"^bad simplex \[\] in maximal_simplices$", id="simplex-empty"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], "12"]},
                 r"^bad simplex '12' in maximal_simplices$", id="simplex-string"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [1, 2, 1]]},
                 r"^repeated vertex in simplex \[1, 2, 1\]$", id="vertex-repeated"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 0], [0, 5]]},
                 r"^repeated vertex in simplex \[0, 0\]$", id="first-bad-repeated"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 5], [0, 0]]},
                 r"^bad simplex \[0, 5\] in maximal_simplices$", id="first-bad-range"),
    pytest.param({**_CIRCLE, "skeleta": {"0": [[0], [3]]}},
                 r"^bad simplex \[3\] in skeleton 0$", id="skeleton-vertex-past-count"),
    # a document holds only the keys the loader reads; any other key, such as
    # a misspelled "skeleta", would otherwise load a different space
    pytest.param({**_CIRCLE, "skeleton": {"0": [[0]]}},
                 r"^space document key 'skeleton' is not one of name, dimension, vertices, "
                 r"maximal_simplices, skeleta, weights$", id="unknown-key-skeleton"),
    pytest.param({**_CIRCLE, "orientation": [[[0, 1], 1]]},
                 r"^space document key 'orientation' is not one", id="unknown-key-orientation"),
    pytest.param({"orientation": []}, r"^space document key 'orientation' is not one",
                 id="unknown-key-before-missing-key"),
])
def test_load_rejects_malformed_structure(doc, message):
    with pytest.raises(SpaceFormatError, match=message):
        cx.load(doc)


@pytest.mark.parametrize("vertices, maximal, message", [
    pytest.param([0, 1], [(0, 0, 1)], "repeated vertex in simplex (0, 0, 1)", id="vertex-repeated"),
    pytest.param([0, 1], [(0, -1)], "bad simplex (0, -1) in maximal_simplices", id="vertex-negative"),
    pytest.param([0, 1], [(0, 2)], "bad simplex (0, 2) in maximal_simplices", id="vertex-past-count"),
    pytest.param([0, 1], [(0, None)], "bad simplex (0, None) in maximal_simplices",
                 id="vertex-none"),
    pytest.param([0, "0"], [(0, 1)], "vertices must be a list of unique ids", id="ids-not-unique"),
])
def test_build_reads_its_fields_by_the_document_rules(vertices, maximal, message):
    """`build` and `load` go through one field check, so what a space document
    may not hold is refused as a `build` argument too, with the same message.
    A repeated vertex gave counts (2, 2, 1), -1 wrapped round to vertex 1, and
    2 raised a bare IndexError."""
    with pytest.raises(SpaceFormatError) as built:
        cx.build("x", vertices, maximal)
    doc = {"dimension": 1, "vertices": vertices, "maximal_simplices": list(map(list, maximal))}
    with pytest.raises(SpaceFormatError) as loaded:
        cx.load(doc)
    assert str(built.value) == message
    assert str(loaded.value) == message.replace("(", "[").replace(")", "]")


def test_load_ignores_repeated_and_non_maximal_simplices(spaces):
    # repeats alone keep every listed simplex at full length; listed faces do not
    for name in ("s2", "susp_t2", "cone_cone_s1"):
        doc = cx.to_document(spaces[name])
        top = doc["maximal_simplices"]
        repeated = {**doc, "maximal_simplices": top + [top[0], top[-1], top[0]]}
        with_faces = {**doc, "maximal_simplices":
                      [top[-1][1:], top[0]] + top + [s[:-1] for s in top[:3]] + [[top[1][0]]]}
        for noisy in (repeated, with_faces):
            assert cx.to_document(cx.load(json.dumps(noisy))) == doc


def test_load_rejects_unknown_weight_key(spaces):
    doc = cx.to_document(spaces["susp_t2"])
    doc["weights"] = {"nonsense": "1/1"}
    with pytest.raises(SpaceFormatError, match="nonsense"):
        cx.load(doc)


@pytest.mark.parametrize("text, message", [
    ("0", "weight for 's0:south' must be positive"),
    ("-1/2", "weight for 's0:south' must be positive"),
    ("1/0", "malformed rational '1/0'"),
    ("half", "malformed rational 'half'"),
    (0.5, "floats are not accepted as rationals: 0.5"),
    (True, "not a rational: True"),
])
def test_load_reads_document_weights_exactly(spaces, text, message):
    doc = cx.to_document(spaces["susp_t2"])
    doc["weights"] = {**doc["weights"], "s0:south": text}
    with pytest.raises(SpaceFormatError, match=re.escape(message)):
        cx.load(doc)
    doc["weights"]["s0:south"] = "3/2"
    assert cx.load(doc).weights["s0:south"] == F(3, 2)


def test_fullness_remedy_subdivides():
    # X_0 = {0, 1} is not full: the edge (0,1) has both vertices in it
    doc = {
        "name": "strip",
        "dimension": 2,
        "vertices": [0, 1, 2, 3],
        "maximal_simplices": [[0, 1, 2], [0, 1, 3]],
        "skeleta": {"0": [[0], [1]]},
    }
    K = cx.load(doc)
    # one barycentric subdivision was applied; skeleta are now full
    assert K.counts()[0] > 4
    assert K.betti() == (1, 0, 0)
    assert len([s for s in K.singular_strata()]) == 2


def test_boundary_matrix_edge_and_dd_zero(t2, s2):
    edge = cx.build("d1", [0, 1], [(0, 1)])
    assert edge.boundary_matrix(1) == [{0: -1, 1: 1}]
    for K in (t2, s2):
        for i in range(2, K.n + 1):
            composed = linalg.combine_columns(
                K.boundary_matrix(i - 1), K.boundary_matrix(i)
            )
            assert all(not col for col in composed)


def test_torus_boundary_shape(t2):
    cols = t2.boundary_matrix(2)
    assert len(cols) == 14
    assert len(t2.simplices(1)) == 21


def test_betti_oracles(t2, s2):
    assert s2.betti() == (1, 0, 1)
    assert t2.betti() == (1, 2, 1)
    assert cx.build("pt", [0], [(0,)]).betti() == (1,)


def test_euler_characteristic_matches_betti(spaces):
    for K in spaces.values():
        chi = K.euler_characteristic()
        betti = K.betti()
        assert chi == sum((-1) ** i * b for i, b in enumerate(betti))


def test_cone_examples(t2, s1):
    disk = cx.cone(s1, F(1))
    assert disk.betti() == (1, 0, 0)
    apex = disk.singular_strata()[0]
    assert apex.link_dim == 1
    ct = cx.cone(t2, F(1))
    assert ct.counts()[0] == 8 and ct.counts()[3] == 14
    pt_cone = cx.cone(cx.build("pt", [0], [(0,)]))
    assert pt_cone.counts() == (2, 1)
    assert pt_cone.singular_strata()[0].link_dim == 0


def test_cone_is_contractible(spaces):
    for name in ("s0", "s1_hex", "t2_7", "s2"):
        c = cx.cone(spaces[name], F(1))
        expected = tuple([1] + [0] * c.n)
        assert c.betti() == expected


def test_suspension_examples(t2, s2, s0):
    assert cx.suspension(s2).betti() == (1, 0, 0, 1)
    st = cx.suspension(t2)
    assert st.counts()[0] == 9 and st.counts()[3] == 28
    assert len(st.singular_strata()) == 2
    assert cx.suspension(s0).betti() == (1, 1)


@pytest.mark.parametrize("weights", [(1, 1, 1), (1,), (), 2, "12", {1: 1, 2: 1}, None])
def test_suspension_takes_a_north_south_pair(s1, weights):
    with pytest.raises(ConfigurationError, match=r"weights must be a \(north, south\) pair"):
        cx.suspension(s1, weights)
    assert cx.suspension(s1, [2, "1/3"]).weights == cx.suspension(s1, (2, F(1, 3))).weights


def test_a_wide_simplex_leaves_nothing_behind():
    """A 16-vertex simplex has 65,535 faces; building it once and dropping it
    must not hold anything of that size."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        K = cx.build("wide", range(16), [tuple(range(16))])
        assert sum(K.counts()) == 2 ** 16 - 1
        del K
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


def test_document_bounds_admit_their_own_value(monkeypatch):
    """Each document bound admits a document of exactly its size and refuses
    it one below (with the bound lowered): a full 5-simplex has 63 faces,
    and the subdivision of one whose X_0 is not full 2 a(6) - 1 = 9,365
    simplices, a(m) the ordered partitions of m vertices."""
    full = {"dimension": 5, "vertices": list(range(6)), "maximal_simplices": [list(range(6))]}
    not_full = {**full, "skeleta": {"0": [[0], [1]]}}
    for doc, size, message in ((full, 63, "the maximal simplices have up to 63 faces"),
                               (not_full, 9365, "gives 9365 simplices")):
        monkeypatch.setattr(cx, "MAX_SIMPLICES", size)
        assert sum(cx.load(doc).counts()) == size
        monkeypatch.setattr(cx, "MAX_SIMPLICES", size - 1)
        with pytest.raises(SpaceFormatError,
                           match=f"{message}, above the bound of {size - 1} simplices"):
            cx.load(doc)


def test_the_face_bound_sums_the_maximal_simplices(monkeypatch):
    """A 5-simplex and a triangle ask for 63 + 7 = 70 faces, though the
    quick bound, two 6-vertex simplices, allows 126: at a bound of 70 the
    document passes and is refused as impure, at 69 it is refused for its
    size."""
    doc = {"dimension": 5, "vertices": list(range(9)),
           "maximal_simplices": [list(range(6)), [6, 7, 8]]}
    monkeypatch.setattr(cx, "MAX_SIMPLICES", 70)
    with pytest.raises(SpaceFormatError, match="not pure"):
        cx.load(doc)
    monkeypatch.setattr(cx, "MAX_SIMPLICES", 69)
    with pytest.raises(SpaceFormatError, match="up to 70 faces, above the bound of 69"):
        cx.load(doc)


def test_suspension_shifts_reduced_betti(spaces):
    for name in ("s0", "s1_hex", "t2_7", "s2"):
        K = spaces[name]
        sk = cx.suspension(K)
        base = list(K.betti())
        got = list(sk.betti())
        reduced = base.copy()
        reduced[0] -= 1
        want = [1] + [0] * (len(base) - 1) + [0]
        for i, b in enumerate(reduced):
            want[i + 1] += b
        assert got == want


def test_subdivision_examples(t2, s1):
    sd_edge = cx.barycentric_subdivide(cx.build("d1", [0, 1], [(0, 1)]))
    assert sd_edge.counts() == (3, 2)
    assert cx.barycentric_subdivide(t2).betti() == t2.betti()
    disk = cx.cone(s1, F(1, 2))
    sd = cx.barycentric_subdivide(disk)
    singular = sd.singular_strata()
    assert len(singular) == 1
    assert singular[0].link_dim == 1
    assert sd.weights[singular[0].id] == F(1, 2)


def test_subdivision_leaves_no_cyclic_garbage(susp_t2):
    """The tables of a subdivision (the barycentre index, the index columns
    and the chain shapes) are freed by reference counting: after a first run
    has filled any lazy module state, the cyclic collector finds nothing
    after the second."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cx.barycentric_subdivide(susp_t2)
        gc.collect()
        cx.barycentric_subdivide(susp_t2)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _stirling2(m, k):
    """The partitions of m things into k nonempty blocks, by the recurrence
    S(m, k) = k S(m - 1, k) + S(m - 1, k - 1)."""
    if m == 0 or k == 0:
        return int(m == k)
    return k * _stirling2(m - 1, k) + _stirling2(m - 1, k - 1)


def _ordered_partitions(m, k):
    return math.factorial(k) * _stirling2(m, k)


@pytest.mark.parametrize("d, total", [(0, 1), (1, 3), (2, 13), (3, 75), (4, 541), (5, 4683)])
def test_chain_shapes_are_the_ordered_partitions(d, total):
    """The shapes of length L of a d-simplex are the chains of L nonempty
    position sets ending at {0..d}: the ordered partitions of d + 1 positions
    into L blocks, L! S(d + 1, L) of them, each listed once with its sets in
    lexicographic order."""
    by_length = cx._chain_shapes(d)
    assert [len(shapes) for shapes in by_length] == [
        _ordered_partitions(d + 1, length) for length in range(1, d + 2)]
    assert sum(map(len, by_length)) == total
    for length, shapes in enumerate(by_length, 1):
        assert len(set(shapes)) == len(shapes)
        for shape in shapes:
            assert len(shape) == length and list(shape) == sorted(shape)
            assert all(p == tuple(sorted(set(p))) for p in shape)
            nested = sorted(map(set, shape), key=len)
            assert nested[-1] == set(range(d + 1))
            assert all(a < b for a, b in zip(nested, nested[1:]))


def _sd_counts(counts):
    """The f-vector of a barycentric subdivision: an i-face is a chain of
    i + 1 faces ending at one k-simplex, an ordered partition of its k + 1
    vertices into i + 1 blocks."""
    return tuple(sum(c * _ordered_partitions(k + 1, i + 1) for k, c in enumerate(counts))
                 for i in range(len(counts)))


def test_subdivision_counts_follow_the_ordered_partitions(spaces, ladder):
    pairs = [(K, cx.barycentric_subdivide(K)) for K in spaces.values()]
    pairs += [(ladder[src], ladder[key]) for key, ctor, src in _LADDER
              if ctor == "barycentric_subdivide"]
    assert len(pairs) == len(corpus.SPACE_NAMES) + 3
    for K, S in pairs:
        assert S.counts() == _sd_counts(K.counts()), S.name


def test_subdivision_keeps_no_table_after_the_call():
    """A d-simplex has Fubini(d + 1) chain shapes, as many as the faces of
    its subdivision that contain its barycentre, so no table may outlive the
    call: the subdivision of a 5-simplex, built and freed, leaves no traced
    allocation made under stratal's code. An edge is subdivided first, to
    fill any lazy module state. Only allocations whose traceback passes
    through the package count: a `gc.callbacks` hook of another library
    (Hypothesis installs one) may allocate inside the `gc.collect()`."""
    simplex = cx.build("5-simplex", range(6), [tuple(range(6))])
    cx.barycentric_subdivide(cx.build("edge", range(2), [(0, 1)]))
    under_stratal = tracemalloc.Filter(True, os.path.join(os.path.dirname(cx.__file__), "*"),
                                       all_frames=True)
    gc.collect()
    tracemalloc.start(16)
    try:
        S = cx.barycentric_subdivide(simplex)
        assert S.counts() == _sd_counts(simplex.counts())
        del S
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces([under_stratal])
    finally:
        tracemalloc.stop()
    assert sum(stat.size for stat in held.statistics("filename")) == 0


def test_subdivision_preserves_betti_and_strata(spaces):
    for name in ("s2", "cone_s1_c_half", "susp_s0"):
        K = spaces[name]
        sd = cx.barycentric_subdivide(K)
        assert sd.betti() == K.betti()
        assert len(sd.strata) == len(K.strata)
        assert len(sd.singular_strata()) == len(K.singular_strata())


def test_level_and_label_follow_the_vertices(cone_t2):
    apex = len(cone_t2.vertex_ids) - 1
    for s in cone_t2.all_simplices():
        singular = s == (apex,)
        assert simplex_level(cone_t2, s) == (0 if singular else 3), s
        assert cone_t2.strata[simplex_label(cone_t2, s)].singular is singular, s


def test_level_and_label_reject_a_non_simplex():
    # each read is the first on a fresh complex, so each builds the index
    for read in (simplex_index, simplex_level, simplex_label):
        K = corpus.load_space("cone_t2")
        assert "_index" not in vars(K)
        for s in ((99,), (0, 99), (1, 0), (), tuple(range(5))):
            with pytest.raises(KeyError):
                read(K, s)


def test_index_is_the_position_in_simplices(spaces, ih_ladder):
    for K in [*spaces.values(), *ih_ladder.values()]:
        for i in range(K.n + 1):
            assert [simplex_index(K, s) for s in K.simplices(i)] == list(range(len(K.simplices(i)))), K.name


def test_load_frees_the_parsed_document_before_assembly(monkeypatch):
    class Document(dict):  # a dict that a weak reference can watch
        pass

    loads, assemble, parsed = json.loads, cx._assemble, []

    def watched_loads(text, **kwargs):
        doc = Document(loads(text, **kwargs))
        parsed.append(weakref.ref(doc))
        return doc

    def checked_assemble(*args):
        assert parsed and parsed[-1]() is None
        return assemble(*args)

    monkeypatch.setattr(json, "loads", watched_loads)
    monkeypatch.setattr(cx, "_assemble", checked_assemble)
    text = json.dumps(cx.to_document(corpus.load_space("cone_t2")))
    assert list(cx.load(text).strata) == _STRATUM_ORDER["cone_t2"]


# the huge-dimension document: one vertex in a declared dimension of 10^9
_HUGE_DIMENSION = {"dimension": 10**9, "vertices": [0], "maximal_simplices": [[0]]}
_LOAD_IN_SMALL_MEMORY = """
import json, resource, sys, tracemalloc
cap = 128 * 2**20
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (cap, cap if hard == resource.RLIM_INFINITY else min(cap, hard)))
from stratal import complexes as cx
from stratal.errors import SpaceFormatError
doc = json.loads(sys.argv[1])
tracemalloc.start()
try:
    cx.load(doc)
    message = None
except SpaceFormatError as exc:
    message = str(exc)
print(json.dumps([message, tracemalloc.get_traced_memory()[1]]))
"""


def test_a_huge_declared_dimension_is_refused_in_small_memory():
    """Purity is checked before anything is sized by the dimension, so the
    document is refused as impure with a load that peaks under 1 MB. The
    load runs in a child process with its address space capped, so that a
    list or loop sized by the dimension fails this test (a MemoryError or
    the time-out) instead of exhausting memory."""
    done = subprocess.run(
        [sys.executable, "-c", _LOAD_IN_SMALL_MEMORY, json.dumps(_HUGE_DIMENSION)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
    message, peak = json.loads(done.stdout)
    assert "not pure" in message
    assert peak < 1_000_000


def test_unused_vertex_has_no_stratum():
    # an unused vertex is no 0-simplex, so it joins no stratum and starts none
    K = cx.load({**_CIRCLE, "vertices": [0, 1, 2, 3]})
    assert list(K.strata) == ["s1:0"] and K._vertex_label[3] is None
    with pytest.raises(KeyError):
        simplex_label(K, (3,))
    second = [[4, 5], [5, 6], [4, 6]]
    K = cx.load({**_CIRCLE, "vertices": list(range(7)),
                 "maximal_simplices": _CIRCLE["maximal_simplices"] + second})
    assert list(K.strata) == ["s1:0", "s1:4"] and K._vertex_label[3] is None


def test_orientation(s2, t2, mobius):
    assert cx.check_orientation(s2) is not None
    assert cx.check_orientation(t2) is not None
    assert cx.check_orientation(mobius) is None


def test_orientation_signs_cancel(t2):
    orient = cx.check_orientation(t2)
    incid = {}
    for s, sign in orient.items():
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            parity = -1 if j % 2 else 1
            incid[face] = incid.get(face, 0) + sign * parity
    assert all(v == 0 for v in incid.values())


def test_top_cofaces_built_once_and_orientation_returned_fresh():
    """`is_closed` and `check_orientation` share one coface table per complex,
    while each orientation is a new dict that the caller may change."""
    K = cx.suspension(cx.build("circle", [0, 1, 2], [(0, 1), (1, 2), (0, 2)]))
    assert "top_cofaces" not in vars(K)
    assert K.is_closed()
    table = K.top_cofaces
    first = cx.check_orientation(K)
    assert K.top_cofaces is table and K.is_closed()
    second = cx.check_orientation(K)
    assert first == second and first is not second
    first[next(iter(first))] *= -1
    assert cx.check_orientation(K) == second
    # the six triangles meet along the three equator edges and six apex edges
    assert len(table) == 9 and all(len(incident) == 2 for incident in table.values())


def test_orientation_structure_error():
    # three triangles sharing one edge: not a pseudomanifold face incidence
    K = cx.build("fan", [0, 1, 2, 3, 4], [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    for _ in range(2):
        with pytest.raises(StructureError, match="3 top cofaces"):
            cx.check_orientation(K)


def test_a_branching_regular_face_is_not_a_boundary_face(theta):
    """Every reader of the coface table refuses the theta complex, on every
    read, rather than call its branching edges boundary faces."""
    for read in (theta.is_closed, theta.describe, lambda: cx.check_orientation(theta)) * 2:
        with pytest.raises(StructureError, match=r"^regular face \(0,1\) has 3 top cofaces$"):
            read()


def test_orientation_is_decided_once_per_complex(monkeypatch):
    """Every duality check on one complex reads one orientation, and a
    caller that changes the returned signs changes no later answer."""
    walks = []
    decide = cx.FilteredComplex._orientation.func

    def spy(K):
        walks.append(K.name)
        return decide(K)

    orientation = functools.cached_property(spy)
    orientation.__set_name__(cx.FilteredComplex, "_orientation")
    monkeypatch.setattr(cx.FilteredComplex, "_orientation", orientation)
    for name in ("susp_t2", "mobius"):
        K = corpus.load_space(name)
        want = cx.check_orientation(K)
        if want is not None:
            cx.check_orientation(K).clear()
        for p in (pv.zero_perversity(K.n), *pv.middle_perversities(K.n)):
            r = ix.duality_check(K, p)
            assert r["applicable"] == (want is not None) and r.get("pass", True), (name, p)
        assert cx.check_orientation(K) == want
    assert walks == ["susp_t2", "mobius"]


def test_document_round_trip_stable(spaces):
    for name in ("susp_t2", "cone_cone_s1"):
        K = spaces[name]
        doc = cx.to_document(K)
        K2 = cx.load(doc)
        assert cx.to_document(K2) == doc
        assert K2.weights == K.weights
        assert {s.id for s in K2.singular_strata()} == {s.id for s in K.singular_strata()}


# ------------------------------------------------ construction properties

_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=120,
                     suppress_health_check=[HealthCheck.too_slow])
_BASE_NAMES = corpus.SPACE_NAMES + [f"cone {name}" for name in (
    "s0", "s1_hex", "s2", "t2_7", "mobius", "susp_s0", "cone_s1_c_half")]


@functools.cache
def _base(name):
    if name.startswith("cone "):
        return cx.cone(corpus.load_space(name[len("cone "):]))
    return corpus.load_space(name)


@functools.cache
def _subdivided_counts(name):
    return cx.barycentric_subdivide(_base(name)).counts()


@st.composite
def _filtered_documents(draw):
    """A corpus space or cone, unweighted, under random nested skeleta: each
    level adds up to three simplices of dimension <= j to the ones below and
    is either listed or left to inherit. Most of them are not full."""
    name = draw(st.sampled_from(_BASE_NAMES))
    K = _base(name)
    doc = cx.to_document(K)
    doc.pop("weights", None)
    closure = sorted(K.all_simplices())
    chosen, skeleta = set(), {}
    for j in range(K.n):
        low = [s for s in closure if len(s) <= j + 1]
        chosen.update(draw(st.lists(st.sampled_from(low), max_size=3)))
        if draw(st.booleans()):
            skeleta[str(j)] = [list(s) for s in sorted(chosen)]
    doc["skeleta"] = skeleta
    return name, doc


def _stratum_id(dim, ids):
    """`s{dim}:` and the vertex ids joined by ".", each backslash and "."
    within an id preceded by a backslash."""
    return f"s{dim}:" + ".".join(
        "".join("\\" + c if c in "\\." else c for c in str(v)) for v in ids)


def _facet_strata(K):
    """Strata by definition: components of each X_j - X_{j-1} joined through
    facets at the same level, ordered by their least member, which also
    gives each id."""
    levels = {s: simplex_level(K, s) for s in _reference_closure(list(K.simplices(K.n)))}
    parent = {s: s for s in levels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in levels:
        for i in range(len(s) if len(s) > 1 else 0):
            f = s[:i] + s[i + 1:]
            if levels[f] == levels[s]:
                parent[find(s)] = find(f)
    groups = {}
    for s in levels:
        groups.setdefault(find(s), []).append(s)
    strata = {}
    for members in sorted(map(sorted, groups.values())):
        dim = max(len(s) for s in members) - 1
        sid = _stratum_id(dim, (K.vertex_ids[v] for v in members[0]))
        strata[sid] = (dim, K.n - dim, levels[members[0]], tuple(members))
    return strata


@_PROPERTY
@given(_filtered_documents())
def test_random_filtrations_load_full_with_facet_strata(face_profiles, regular_profiles, case):
    name, doc = case
    K = cx.load(json.dumps(doc))
    assert K.counts() in (_base(name).counts(), _subdivided_counts(name))
    # each simplex's level read from the skeleta: the least j with it in X_j
    skeleta = [K.skeleton(j) for j in range(K.n)]
    levels = {s: next((j for j, X in enumerate(skeleta) if s in X), K.n)
              for s in K.all_simplices()}
    for s in levels:
        assert simplex_level(K, s) == levels[s] == max(levels[(v,)] for v in s)
    for j in range(K.n):
        assert K.skeleton(j) == {s for s in levels if levels[s] <= j}
    want = _facet_strata(K)
    assert list(K.strata) == list(want)
    got_members = _members(K)
    for sid, (dim, codim, level, members) in want.items():
        got = K.strata[sid]
        assert (got.dim, got.codim, got.level, got_members[sid]) == (dim, codim, level, members)
        assert got.singular == (level < K.n)
        assert all(simplex_label(K, s) == sid for s in members)
    assert regular_profiles(K) == face_profiles(K)
    again = cx.to_document(K)
    K2 = cx.load(json.dumps(again))
    assert cx.to_document(K2) == again
    assert sorted(K2.strata) == sorted(K.strata)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**12) | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, list):
        items = enumerate(value)
    elif isinstance(value, dict):
        items = value.items()
    else:
        items = ()
    for key, inner in items:
        yield from _paths(inner, prefix + (key,))


@st.composite
def _mutated_documents(draw):
    """A small corpus document in which one value anywhere is replaced by
    random JSON or one object gains a random key."""
    doc = cx.to_document(corpus.load_space(draw(st.sampled_from(
        ["point", "s0", "s1_hex", "cone_s1_c_half", "susp_s0", "cone_cone_s1"]))))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(_JSON_VALUES)
    if not path:
        return value
    *head, last = path
    target = functools.reduce(lambda d, k: d[k], head, doc)
    if isinstance(target, dict) and draw(st.booleans()):
        target[draw(st.text(max_size=3))] = value
    else:
        target[last] = value
    return doc


@_PROPERTY
@given(_mutated_documents())
def test_load_raises_only_stratal_errors(doc):
    try:
        cx.load(json.dumps(doc))
    except StratalError:
        pass


# ------------------------------------------------------------ stratum order

# The seeded verify suites draw their per-stratum values in stratum order
# (`verify --suite duality` walks singular_strata()), so the golden digests
# depend on it. It is pinned here directly, so that a reorder fails with a
# readable diff. Strata are ordered by their least member simplex; see the
# `complexes` module docstring.
_STRATUM_ORDER = {
    "cone_cone_s1": ["s3:0", "s1:apex", "s0:apex'"],
    "cone_s1_c_half": ["s2:0", "s0:apex"],
    "cone_t2": ["s3:0", "s0:apex"],
    "mobius": ["s2:0"],
    "point": ["s0:0"],
    "s0": ["s0:0", "s0:1"],
    "s1_hex": ["s1:0"],
    "s2": ["s2:0"],
    "susp_s0": ["s1:0", "s1:1", "s0:north", "s0:south"],
    "susp_s2": ["s3:0", "s0:north", "s0:south"],
    "susp_t2": ["s3:0", "s0:north", "s0:south"],
    "t2_7": ["s2:0"],
    "susp(t2)": ["s3:0", "s0:north", "s0:south"],
    "susp(susp t2)": ["s4:0", "s1:north", "s1:south", "s0:north'", "s0:south'"],
    "sd(susp(susp t2))": ["s4:(0)", "s1:(north)", "s1:(south)", "s0:(north')", "s0:(south')"],
    "sd(susp t2)": ["s3:(0)", "s0:(north)", "s0:(south)"],
    "cone(sd(susp t2))": ["s4:(0)", "s1:(north)", "s1:(south)", "s0:apex"],
    "sd2(susp t2)": ["s3:((0))", "s0:((north))", "s0:((south))"],
}

# the constructions of perfbench's build-ladder workload: (key, constructor, input)
_LADDER = (
    ("susp(t2)", "suspension", "t2"),
    ("susp(susp t2)", "suspension", "susp(t2)"),
    ("sd(susp(susp t2))", "barycentric_subdivide", "susp(susp t2)"),
    ("sd(susp t2)", "barycentric_subdivide", "susp(t2)"),
    ("cone(sd(susp t2))", "cone", "sd(susp t2)"),
    ("sd2(susp t2)", "barycentric_subdivide", "sd(susp t2)"),
)


@pytest.fixture(scope="module")
def ladder():
    built = {"t2": corpus.load_space("t2_7")}
    for key, ctor, src in _LADDER:
        built[key] = getattr(cx, ctor)(built[src])
    del built["t2"]
    return built


# stratum order and weights of the constructions on each corpus space; each
# inherited weight follows its stratum into the construction
_CONSTRUCTED = {
    "cone cone_cone_s1": (["s4:0", "s2:apex", "s1:apex'", "s0:apex''"],
                          {"s0:apex''": "2/3", "s1:apex'": "1", "s2:apex": "1"}),
    "susp cone_cone_s1": (["s4:0", "s2:apex", "s1:apex'", "s0:north", "s0:south"],
                          {"s0:north": "1/2", "s0:south": "3", "s1:apex'": "1", "s2:apex": "1"}),
    "sd cone_cone_s1": (["s3:(0)", "s1:(apex)", "s0:(apex')"],
                        {"s0:(apex')": "1", "s1:(apex)": "1"}),
    "cone cone_s1_c_half": (["s3:0", "s1:apex", "s0:apex'"], {"s0:apex'": "2/3", "s1:apex": "1/2"}),
    "susp cone_s1_c_half": (["s3:0", "s1:apex", "s0:north", "s0:south"],
                            {"s0:north": "1/2", "s0:south": "3", "s1:apex": "1/2"}),
    "sd cone_s1_c_half": (["s2:(0)", "s0:(apex)"], {"s0:(apex)": "1/2"}),
    "cone cone_t2": (["s4:0", "s1:apex", "s0:apex'"], {"s0:apex'": "2/3", "s1:apex": "1"}),
    "susp cone_t2": (["s4:0", "s1:apex", "s0:north", "s0:south"],
                     {"s0:north": "1/2", "s0:south": "3", "s1:apex": "1"}),
    "sd cone_t2": (["s3:(0)", "s0:(apex)"], {"s0:(apex)": "1"}),
    "cone mobius": (["s3:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp mobius": (["s3:0", "s0:north", "s0:south"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd mobius": (["s2:(0)"], {}),
    "cone point": (["s1:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp point": (["s1:0", "s0:north", "s0:south"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd point": (["s0:(0)"], {}),
    "cone s0": (["s1:0", "s1:1", "s0:apex"], {"s0:apex": "2/3"}),
    "susp s0": (["s1:0", "s1:1", "s0:north", "s0:south"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd s0": (["s0:(0)", "s0:(1)"], {}),
    "cone s1_hex": (["s2:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp s1_hex": (["s2:0", "s0:north", "s0:south"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd s1_hex": (["s1:(0)"], {}),
    "cone s2": (["s3:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp s2": (["s3:0", "s0:north", "s0:south"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd s2": (["s2:(0)"], {}),
    "cone susp_s0": (["s2:0", "s2:1", "s1:north", "s1:south", "s0:apex"],
                     {"s0:apex": "2/3", "s1:north": "1", "s1:south": "1"}),
    "susp susp_s0": (["s2:0", "s2:1", "s1:north", "s1:south", "s0:north'", "s0:south'"],
                     {"s0:north'": "1/2", "s0:south'": "3", "s1:north": "1", "s1:south": "1"}),
    "sd susp_s0": (["s1:(0)", "s1:(1)", "s0:(north)", "s0:(south)"],
                   {"s0:(north)": "1", "s0:(south)": "1"}),
    "cone susp_s2": (["s4:0", "s1:north", "s1:south", "s0:apex"],
                     {"s0:apex": "2/3", "s1:south": "1", "s1:north": "1"}),
    "susp susp_s2": (["s4:0", "s1:north", "s1:south", "s0:north'", "s0:south'"],
                     {"s0:north'": "1/2", "s0:south'": "3", "s1:south": "1", "s1:north": "1"}),
    "sd susp_s2": (["s3:(0)", "s0:(north)", "s0:(south)"],
                   {"s0:(south)": "1", "s0:(north)": "1"}),
    "cone susp_t2": (["s4:0", "s1:north", "s1:south", "s0:apex"],
                     {"s0:apex": "2/3", "s1:south": "1", "s1:north": "1"}),
    "susp susp_t2": (["s4:0", "s1:north", "s1:south", "s0:north'", "s0:south'"],
                     {"s0:north'": "1/2", "s0:south'": "3", "s1:south": "1", "s1:north": "1"}),
    "sd susp_t2": (["s3:(0)", "s0:(north)", "s0:(south)"],
                   {"s0:(south)": "1", "s0:(north)": "1"}),
    "cone t2_7": (["s3:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp t2_7": (["s3:0", "s0:north", "s0:south"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd t2_7": (["s2:(0)"], {}),
}


def _strata_and_weights(K):
    return list(K.strata), {sid: str(w) for sid, w in K.weights.items()}


def test_corpus_constructions_leave_the_simplex_index_unbuilt(spaces, tmp_path):
    """No constructor, `to_document` or `load` reads the simplex index: each
    result builds it on its first column or rank query."""
    for name in corpus.SPACE_NAMES:
        K = spaces[name]
        doc = cx.to_document(K)
        before = json.dumps(doc)
        path = tmp_path / f"{name}.json"
        path.write_text(before)
        rebuilt = [cx.load(json.dumps(doc)), cx.load(doc), cx.load(path)]
        assert json.dumps(doc) == before  # a document passed in is only read
        for J in rebuilt:
            assert "_index" not in vars(J), name
            assert list(J.strata) == _STRATUM_ORDER[name] and J.weights == K.weights, name
        for ctor, J in (("cone", cx.cone(K, F(2, 3))), ("susp", cx.suspension(K, (F(1, 2), 3))),
                        ("sd", cx.barycentric_subdivide(K))):
            assert "_index" not in vars(J), (ctor, name)
            assert _strata_and_weights(J) == _CONSTRUCTED[f"{ctor} {name}"], (ctor, name)


def test_constructions_carry_the_weight_of_a_stratum_led_by_a_lower_vertex():
    """cone_cone_s1 with its apexes numbered first: the first member of the
    weighted stratum s1:apex'.apex is the edge (0, 1), whose vertex 0 lies in
    X_0, so the weight must follow the edge's top vertex (pinned results)."""
    doc = cx.to_document(corpus.load_space("cone_cone_s1"))
    order = [7, 6, 0, 1, 2, 3, 4, 5]
    renumber = {v: i for i, v in enumerate(order)}.__getitem__
    K = cx.load({**doc, "vertices": [doc["vertices"][v] for v in order],
                 "maximal_simplices": [list(map(renumber, s)) for s in doc["maximal_simplices"]],
                 "skeleta": {"0": [[0]], "1": [[0, 1]]},
                 "weights": {"s1:apex'.apex": "1/2", "s0:apex'": "3"}})
    assert _members(K)["s1:apex'.apex"][0] == (0, 1)
    assert _strata_and_weights(cx.cone(K, F(2, 3))) == (
        ["s1:apex'", "s2:apex'.apex", "s4:apex'.apex.0", "s0:apex''"],
        {"s0:apex''": "2/3", "s2:apex'.apex": "1/2", "s1:apex'": "3"})
    assert _strata_and_weights(cx.suspension(K, (5, 7))) == (
        ["s1:apex'", "s2:apex'.apex", "s4:apex'.apex.0", "s0:north", "s0:south"],
        {"s0:north": "5", "s0:south": "7", "s2:apex'.apex": "1/2", "s1:apex'": "3"})
    assert _strata_and_weights(cx.barycentric_subdivide(K)) == (
        ["s0:(apex')", "s1:(apex').(apex'|apex)", "s3:(apex').(apex'|apex).(apex'|apex|0)"],
        {"s1:(apex').(apex'|apex)": "1/2", "s0:(apex')": "3"})


def test_ladder_constructions_leave_the_simplex_index_unbuilt():
    built = {"t2": corpus.load_space("t2_7")}
    for key, ctor, src in _LADDER:
        K = getattr(cx, ctor)(built[src])
        built[key] = cx.load(json.dumps(cx.to_document(K)))
        for J in (K, built[key]):
            assert "_index" not in vars(J), key
            assert list(J.strata) == _STRATUM_ORDER[key], key
            assert J.weights == {s.id: 1 for s in J.singular_strata()}, key


_MEMBERS = weakref.WeakKeyDictionary()


def _members(K):
    """Each stratum's members, sorted: the simplices `s` with
    `simplex_label(K, s)` equal to its id. Grouped once per complex object;
    callers only read it."""
    if K not in _MEMBERS:
        _MEMBERS[K] = _members_by_label(K)
    return _MEMBERS[K]


def _members_by_label(K):
    members = {sid: [] for sid in K.strata}
    for s in sorted(s for i in range(K.n + 1) for s in K.simplices(i)):
        members[simplex_label(K, s)].append(s)
    return {sid: tuple(group) for sid, group in members.items()}


def _least_member_order(K):
    members = _members(K)
    return sorted(members, key=lambda sid: members[sid][0])


def test_corpus_stratum_order_is_pinned(spaces):
    assert {name: list(K.strata) for name, K in spaces.items()} == {
        name: _STRATUM_ORDER[name] for name in corpus.SPACE_NAMES}
    for name, K in spaces.items():
        assert _STRATUM_ORDER[name] == _least_member_order(K), name


def test_ladder_stratum_order_is_pinned(ladder):
    for key, K in ladder.items():
        assert list(K.strata) == _STRATUM_ORDER[key] == _least_member_order(K), key
        reloaded = cx.load(json.dumps(cx.to_document(K)))
        assert list(reloaded.strata) == _STRATUM_ORDER[key], key


@pytest.mark.parametrize("key", [*corpus.SPACE_NAMES, *(key for key, _, _ in _LADDER)])
def test_stratum_order_does_not_depend_on_listing_order(spaces, ladder, key):
    """Shuffled maximal simplices and skeleton lists give the same strata in
    the same order, and so the same seeded per-stratum draws."""
    K = spaces[key] if key in spaces else ladder[key]
    doc = cx.to_document(K)
    want = list(K.strata), verify._duality_perversities(K, random.Random(0))
    rng = random.Random(0)

    def shuffled(listed):
        return rng.sample(listed, len(listed))

    for _ in range(20 if key in spaces else 2):
        J = cx.load({**doc, "maximal_simplices": shuffled(doc["maximal_simplices"]),
                     "skeleta": {j: shuffled(s) for j, s in doc.get("skeleta", {}).items()}})
        assert (list(J.strata), verify._duality_perversities(J, random.Random(0))) == want, key


def _reference_closure(simplices):
    closed, stack = set(), list(simplices)
    while stack:
        s = stack.pop()
        if s not in closed:
            closed.add(s)
            if len(s) > 1:
                stack.extend(s[:i] + s[i + 1:] for i in range(len(s)))
    return closed


def _reference_maximal(closed):
    facets = {s[:i] + s[i + 1:] for s in closed if len(s) > 1 for i in range(len(s))}
    return sorted(s for s in closed if s not in facets)


_ASSEMBLED = {}


def _reference_assemble(doc):
    """`_assemble_by_definition(doc)`, computed once per document: keyed by
    the document's canonical JSON text, so equal documents share one
    assembly. Callers only read it."""
    key = json.dumps(doc, sort_keys=True)
    if key not in _ASSEMBLED:
        _ASSEMBLED[key] = _assemble_by_definition(doc)
    return _ASSEMBLED[key]


def _assemble_by_definition(doc):
    """A well-formed space document assembled from the definitions, one
    simplex at a time: the stack closure (facets pushed in index order),
    levels as the least j with s in X_j, fullness as "every simplex sits at
    the level of its highest vertex", one subdivision with flags taken from
    vertex permutations when some X_j is not full (a repeated barycentre id
    primed until it is new), and strata grouped by
    the root of the first highest-level vertex of each simplex and ordered
    by their least member. Returns (vertex ids, levels, {sid: (dim, level,
    members)}, the stratum id of each simplex, simplices per dimension)."""
    n, vertex_ids = doc["dimension"], list(doc["vertices"])
    maximal = [tuple(sorted(s)) for s in doc["maximal_simplices"]]
    listed = {int(j): [tuple(sorted(s)) for s in level]
              for j, level in doc.get("skeleta", {}).items()}
    while True:
        closure = _reference_closure(maximal)
        chain, below = {}, frozenset()
        for j in range(n):
            if j in listed:
                below = frozenset(_reference_closure(listed[j]))
            chain[j] = below
        levels = dict.fromkeys(closure, n)
        for j in reversed(range(n)):
            for s in chain[j]:
                levels[s] = j
        if all(levels[s] == max(levels[(v,)] for v in s) for s in closure):
            break
        index = {s: i for i, s in enumerate(sorted(closure))}

        def flags(s):
            return [tuple(sorted(index[tuple(sorted(p[:k + 1]))] for k in range(len(p))))
                    for p in permutations(s)]

        wanted = ["(" + "|".join(str(vertex_ids[v]) for v in s) + ")" for s in index]
        vertex_ids = []
        for vid in wanted:
            if vid in vertex_ids:  # a repeat, primed past every id wanted or given
                while vid in wanted or vid in vertex_ids:
                    vid += "'"
            vertex_ids.append(vid)
        maximal = sorted(f for s in _reference_maximal(closure) for f in flags(s))
        listed = {j: [f for s in _reference_maximal(level) for f in flags(s)]
                  for j, level in chain.items()}
    parent = {s[0]: s[0] for s in closure if len(s) == 1}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for s in closure:
        if len(s) == 2 and levels[(s[0],)] == levels[(s[1],)] == levels[s]:
            ra, rb = find(s[0]), find(s[1])
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for s in closure:
        v = next(v for v in s if levels[(v,)] == levels[s])
        groups.setdefault(find(v), []).append(s)
    strata = {}
    for members in sorted(map(sorted, groups.values())):
        dim = len(max(members, key=len)) - 1
        sid = _stratum_id(dim, (vertex_ids[v] for v in members[0]))
        strata[sid] = (dim, levels[members[0]], tuple(members))
    label_of = {s: sid for sid, (_, _, members) in strata.items() for s in members}
    by_dim = [tuple(sorted(s for s in closure if len(s) == d + 1)) for d in range(n + 1)]
    return vertex_ids, levels, strata, label_of, by_dim


def _assert_matches_reference(doc, K=None):
    """K, by default the loaded `doc`, equals the reference assembly of `doc`."""
    if K is None:
        K = cx.load(json.dumps(doc))
    vertex_ids, levels, strata, label_of, by_dim = _reference_assemble(doc)
    assert list(K.vertex_ids) == vertex_ids
    assert [K.simplices(i) for i in range(K.n + 1)] == by_dim
    assert [simplex_level(K, s) for s in levels] == list(levels.values())
    assert list(K.strata) == list(strata)
    got_members = _members(K)
    for sid, (dim, level, members) in strata.items():
        got = K.strata[sid]
        assert (got.dim, got.codim, got.level, got.singular, got_members[sid]) == (
            dim, K.n - dim, level, level < K.n, members)
    assert {s: simplex_label(K, s) for s in label_of} == label_of


@_PROPERTY
@given(_filtered_documents())
def test_load_matches_reference_assembly(case):
    _assert_matches_reference(case[1])


def test_ladder_loads_match_reference_assembly(ladder):
    for K in ladder.values():
        _assert_matches_reference(cx.to_document(K))


def _assert_faces_match_stack_walk(listed):
    """`_faces_by_dim` of `listed` is its stack-walk closure split by size,
    each list sorted and free of repeats, up to the widest listed simplex."""
    closed = _reference_closure(listed)
    widest = max(map(len, listed), default=0)
    assert cx._faces_by_dim(listed) == [sorted(s for s in closed if len(s) == k)
                                        for k in range(1, widest + 1)]


@pytest.mark.parametrize("key", [*corpus.SPACE_NAMES, *(key for key, _, _ in _LADDER)])
def test_faces_by_dim_match_stack_walk(spaces, ladder, key):
    K = spaces[key] if key in spaces else ladder[key]
    doc = cx.to_document(K)
    _assert_faces_match_stack_walk([tuple(s) for s in doc["maximal_simplices"]])
    # skeleton levels reach it as lists, fullness tests as sets
    for level in doc.get("skeleta", {}).values():
        _assert_faces_match_stack_walk([tuple(s) for s in level])
        _assert_faces_match_stack_walk({tuple(s) for s in level})


_SIMPLEX = st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True).map(
    lambda s: tuple(sorted(s)))


@st.composite
def _simplex_lists(draw):
    """Simplices of mixed lengths, some repeated and some faces of others."""
    listed = draw(st.lists(_SIMPLEX, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 6))):
        s = draw(st.sampled_from(listed))
        face = tuple(v for v in s if draw(st.booleans())) or s
        listed.insert(draw(st.integers(0, len(listed))), face)
    return listed


@_PROPERTY
@given(_simplex_lists())
def test_faces_by_dim_match_stack_walk_on_random_lists(listed):
    _assert_faces_match_stack_walk(listed)


def _two_cones():
    """Two disjoint copies of cone_t2 with both apexes in X_0: two regular and
    two singular components, each pair at one level."""
    doc = cx.to_document(corpus.load_space("cone_t2"))
    m = len(doc["vertices"])
    maximal = doc["maximal_simplices"] + [[v + m for v in s] for s in doc["maximal_simplices"]]
    return {"name": "two cone_t2", "dimension": 3,
            "vertices": doc["vertices"] + [f"{v}'" for v in doc["vertices"]],
            "maximal_simplices": maximal, "skeleta": {"0": [[m - 1], [2 * m - 1]]}}


# stratum ids and member counts, in stratum order
_SEVERAL_COMPONENTS = {
    "two cone_t2": {"s3:0": 84, "s0:apex": 1, "s3:0'": 84, "s0:apex'": 1},
    "cone s0": {"s1:0": 2, "s1:1": 2, "s0:apex": 1},
    "susp_s0": {"s1:0": 3, "s1:1": 3, "s0:north": 1, "s0:south": 1},
}


def test_several_components_per_level_match_reference():
    two = _two_cones()
    built = cx.load(two)
    cases = [("two cone_t2", two, built)] + [
        (key, cx.to_document(_base(key)), _base(key)) for key in ("cone s0", "susp_s0")]
    for key, doc, K in cases:
        _assert_matches_reference(doc, K)
        _assert_matches_reference(doc)
        assert [(sid, len(members)) for sid, members in _members(K).items()] == list(
            _SEVERAL_COMPONENTS[key].items())
        assert list(_SEVERAL_COMPONENTS[key]) == _least_member_order(K)


def _assert_same_complex(K, J):
    """K and J agree in every simplex list, their strata (ids, members and
    order), and each simplex's level and stratum id."""
    assert [J.simplices(i) for i in range(J.n + 1)] == [K.simplices(i) for i in range(K.n + 1)]
    assert list(_members(J).items()) == list(_members(K).items())
    simplices = list(K.all_simplices())
    for read in (simplex_level, simplex_label):
        assert [read(J, s) for s in simplices] == [read(K, s) for s in simplices]


def _listing_variants(doc, rng):
    """The document with its maximal simplices (and skeleton lists) shuffled,
    vertex order within each simplex too, and with a few of their faces
    listed among them, which an n-dimensional complex has only when n > 0."""
    top = doc["maximal_simplices"]

    def shuffled(listed):
        return [rng.sample(s, len(s)) for s in rng.sample(listed, len(listed))]

    yield "shuffled", {**doc, "maximal_simplices": shuffled(top),
                       "skeleta": {j: shuffled(s) for j, s in doc.get("skeleta", {}).items()}}
    faces = [rng.sample(s, rng.randrange(1, len(s))) for s in rng.sample(top, min(4, len(top)))
             if len(s) > 1]
    yield "with faces", {**doc, "maximal_simplices": shuffled(top + faces + top[:2])}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", corpus.SPACE_NAMES)
def test_listing_variants_assemble_the_reference_complex(name, seed):
    """However the maximal simplices are listed, the complex is the one the
    reference assembly gives for the document as written."""
    doc = cx.to_document(corpus.load_space(name))
    K = cx.load(doc)
    _assert_matches_reference(doc, K)
    for variant, listed in _listing_variants(doc, random.Random(f"{name} {seed}")):
        J = cx.load(json.dumps(listed))
        _assert_same_complex(K, J)
        _assert_matches_reference(listed, J)
        assert J.weights == K.weights, variant


@pytest.mark.parametrize("name", corpus.SPACE_NAMES)
def test_tuple_and_list_input_build_one_complex(name):
    doc = cx.to_document(corpus.load_space(name))

    def built(kind):
        skeleta = {j: list(map(kind, level)) for j, level in doc.get("skeleta", {}).items()}
        return cx.load({**doc, "maximal_simplices": list(map(kind, doc["maximal_simplices"])),
                        "skeleta": skeleta})

    K, J = built(list), built(tuple)
    _assert_same_complex(K, J)
    _assert_matches_reference(doc, J)
    assert J.weights == K.weights


_SQUARE = {"dimension": 1, "vertices": list(range(5)),
           "maximal_simplices": [[0, 1], [1, 2], [2, 3], [0, 3]]}


@pytest.mark.parametrize("listed, named", [
    pytest.param([[0, 1, 2]], "(0,1,2)", id="wider-than-every-maximal-simplex"),
    pytest.param([[0], [0, 2]], "(0,2)", id="absent-face-of-an-existing-width"),
    pytest.param([[0], [3, 4]], "(3,4)", id="absent-face-past-the-last"),
    pytest.param([[4]], "(4)", id="unused-vertex"),
])
def test_skeleton_lists_unknown_simplex(listed, named):
    with pytest.raises(SpaceFormatError, match=re.escape(f"skeleton 0 lists unknown simplex {named}")):
        cx.load({**_SQUARE, "skeleta": {"0": listed}})


_COLLIDING = ("x", ["a", "b", "a|b", "c"], [(0, 1, 3), (1, 2, 3), (0, 2, 3)])


def test_subdivision_primes_a_repeated_barycentre_id():
    """The edge (a, b) and the vertex "a|b" both name their barycentre
    "(a|b)", and likewise for two triangles; the later of each pair, and no
    other vertex, is primed, so the document loads back."""
    K = cx.build(*_COLLIDING)
    S = cx.barycentric_subdivide(K)
    assert len(set(S.vertex_ids)) == len(S.vertex_ids) == 13
    assert [v for v in S.vertex_ids if v.endswith("'")] == ["(a|b)'", "(a|b|c)'"]
    L = cx.load(json.dumps(cx.to_document(S)))
    _assert_same_complex(S, L)
    assert L.vertex_ids == S.vertex_ids
    assert S.betti() == L.betti() == K.betti()
    # the fullness remedy takes the same subdivision
    doc = {"name": "x", "dimension": 2, "vertices": _COLLIDING[1],
           "maximal_simplices": [list(s) for s in _COLLIDING[2]], "skeleta": {"0": [[0], [1]]}}
    R = cx.load(doc)
    assert len(set(R.vertex_ids)) == len(R.vertex_ids) == 13
    _assert_matches_reference(doc, R)
    _assert_same_complex(R, cx.load(json.dumps(cx.to_document(R))))


def test_fresh_ids_prime_only_repeats():
    taken = {"apex", "apex'"}
    assert cx._fresh_id(taken, "apex") == "apex''" and "apex''" in taken
    assert cx._fresh_id(taken, "north") == "north" and "north" in taken
    # a repeat is primed and no first occurrence moves
    assert cx._barycentre_ids(["0", "(0)'"], [(0,), (1,), (0,)]) == ["(0)", "((0)')", "(0)'"]
    assert cx._barycentre_ids([0, "0"], [(0,), (1,), (0, 1)]) == ["(0)", "(0)'", "(0|0)"]


def _joined_weights(K, apex_weights, label_of):
    """The weights J must carry: each apex's on the apex stratum, and each
    weighted stratum's of K on the stratum of J holding its first member."""
    want = {label_of[(len(K.vertex_ids) + k,)]: w for k, w in enumerate(apex_weights)}
    members = _members(K)
    for s in K.singular_strata():
        if s.id in K.weights:
            want[label_of[members[s.id][0]]] = K.weights[s.id]
    return want


def _subdivided_weights(K, label_of):
    """The weights a subdivision must carry: each weighted stratum's of K on
    the stratum of the barycentre of its first member."""
    barycentre = {s: i for i, s in enumerate(sorted(K.all_simplices()))}
    members = _members(K)
    return {label_of[(barycentre[members[s.id][0]],)]: K.weights[s.id]
            for s in K.singular_strata() if s.id in K.weights}


def _assert_construction_matches_reference(K, ctor, weights=None):
    """The construction of K as built equals the reference assembly of its
    document field for field, weights included, and its reload."""
    if ctor == "sd":
        J = cx.barycentric_subdivide(K)
    elif ctor == "cone":
        J = cx.cone(K, *weights)
    else:
        J = cx.suspension(K, weights)
    doc = cx.to_document(J)
    _assert_matches_reference(doc, J)
    label_of = _reference_assemble(doc)[3]
    want = (_subdivided_weights(K, label_of) if ctor == "sd"
            else _joined_weights(K, weights, label_of))
    assert J.weights == want, (ctor, K.name)
    L = cx.load(json.dumps(doc))
    _assert_same_complex(J, L)
    assert (L.vertex_ids, L.weights) == (J.vertex_ids, J.weights)
    return J


_JOIN_WEIGHTS = {"cone": (F(2, 3),), "susp": (F(1, 2), F(3))}


@pytest.mark.parametrize("ctor", ["cone", "susp", "sd"])
@pytest.mark.parametrize("name", corpus.SPACE_NAMES)
def test_corpus_constructions_match_reference_assembly(spaces, name, ctor):
    _assert_construction_matches_reference(spaces[name], ctor, _JOIN_WEIGHTS.get(ctor))


@pytest.mark.parametrize("key, ctor, src", _LADDER)
def test_ladder_constructions_match_reference_assembly(ladder, key, ctor, src):
    """Each rung built from its source; a join with non-unit weights too."""
    K = corpus.load_space("t2_7") if src == "t2" else ladder[src]
    if ctor == "barycentric_subdivide":
        _assert_construction_matches_reference(K, "sd")
    else:
        ctor = "cone" if ctor == "cone" else "susp"
        for weights in ((F(1),) * len(_JOIN_WEIGHTS[ctor]), _JOIN_WEIGHTS[ctor]):
            _assert_construction_matches_reference(K, ctor, weights)


@pytest.mark.parametrize("name, ctors", [
    ("cone_cone_s1", ["cone", "cone"]),
    ("susp_s0", ["susp", "susp", "cone"]),
    ("s0", ["susp", "cone", "sd", "susp"]),
    ("cone_s1_c_half", ["cone", "susp", "cone"]),
])
def test_nested_joins_match_reference_assembly(spaces, name, ctors):
    K = spaces[name]
    for k, ctor in enumerate(ctors):
        weights = tuple(F(k + 2, len(ctors) + j) for j in range(len(_JOIN_WEIGHTS.get(ctor, ()))))
        K = _assert_construction_matches_reference(K, ctor, weights)


# the small corpus spaces that tests/test_intersection.py grows at random
_GROWN_BASES = ("point", "s0", "s1_hex", "s2", "susp_s0", "mobius", "cone_s1_c_half", "t2_7",
                "cone_cone_s1", "susp_s2")


@pytest.mark.parametrize("seed", range(12))
def test_generated_constructions_match_reference_assembly(spaces, seed):
    """Iterated cones, suspensions and subdivisions drawn as in
    tests/test_intersection.py's generator, with drawn weights."""
    rng = random.Random(seed)
    K = spaces[rng.choice(_GROWN_BASES)]
    for _ in range(rng.randint(1, 3)):
        size = sum(K.counts())
        if size > 400:
            break
        ctor = rng.choice(["cone", "sd", "susp"] if size <= 100 else ["cone", "susp"])
        weights = tuple(F(rng.randint(1, 9), rng.randint(1, 4))
                        for _ in _JOIN_WEIGHTS.get(ctor, ()))
        K = _assert_construction_matches_reference(K, ctor, weights)


def _assert_full(K):
    """The reference fullness rule, on the strata alone: X_j holds exactly
    the simplices whose vertices all lie in X_j."""
    simplices = list(K.all_simplices())
    for j in range(K.n):
        X = K.skeleton(j)
        vertices = {s[0] for s in X if len(s) == 1}
        assert set(filter(vertices.issuperset, simplices)) == X, (K.name, j)


def test_joins_take_their_faces_from_the_complex(monkeypatch, spaces, ladder):
    """Cones, suspensions and subdivisions never derive faces or skeleta
    again, so they build with the face, level and skeleton helpers raising:
    a join takes K's lists, a subdivision lists the chains of K's simplices
    and takes its levels from K's vertices. Their outputs, which skip the
    fullness test, are full."""
    inputs = [*spaces.values(), corpus.load_space("t2_7"), *ladder.values()]

    def refuse(*args):
        raise AssertionError("a construction derived its faces again")

    monkeypatch.setattr(cx, "_faces_by_dim", refuse)
    monkeypatch.setattr(cx, "_skeleton_levels", refuse)
    monkeypatch.setattr(cx.FilteredComplex, "skeleton", refuse)
    joins = [J for K in inputs for J in (cx.cone(K, F(2, 3)), cx.suspension(K, (F(1, 2), 3)))]
    subdivisions = [cx.barycentric_subdivide(spaces[name]) for name in corpus.SPACE_NAMES]
    subdivisions += [cx.barycentric_subdivide(ladder[key])
                     for key in ("susp(t2)", "susp(susp t2)")]
    monkeypatch.undo()
    for K in [*joins, *subdivisions, *ladder.values()]:
        _assert_full(K)


# -------------------------------------------------- stratum ids and members

@pytest.mark.parametrize("vertices, want", [
    pytest.param(["a", "b", "c", "a.b", "d"], ["s0:a", "s1:a.b", "s1:a\\.b"], id="dot"),
    pytest.param(["a\\", "b", "c", "a.b", "d"], ["s0:a\\\\", "s1:a\\\\.b", "s1:a\\.b"],
                 id="backslash"),
])
def test_stratum_ids_escape_dots_and_backslashes(vertices, want):
    """The edge (v0, b) and the vertex v3 lead two strata of dimension 1,
    and their vertex ids joined by "." read alike; escaping backslash and
    "." within each id tells them apart."""
    doc = {"name": "dotted", "dimension": 1, "vertices": vertices,
           "maximal_simplices": [[0, 1], [1, 2], [3, 4]], "skeleta": {"0": [[0]]}}
    K = cx.load(json.dumps(doc))
    assert list(K.strata) == want
    _assert_matches_reference(doc, K)
    _assert_same_complex(K, cx.load(cx.to_document(K)))


def test_weights_keyed_by_escaped_ids_round_trip():
    doc = {"name": "dotted square", "dimension": 1, "vertices": ["p.q", "a", "b\\", "c"],
           "maximal_simplices": [[0, 1], [1, 2], [2, 3], [0, 3]], "skeleta": {"0": [[0], [2]]},
           "weights": {"s0:p\\.q": "2/3", "s0:b\\\\": "3"}}
    K = cx.load(json.dumps(doc))
    assert K.weights == {"s0:p\\.q": F(2, 3), "s0:b\\\\": F(3)}
    _assert_matches_reference(doc, K)
    saved = cx.to_document(K)
    assert sorted(saved["weights"]) == sorted(doc["weights"])
    L = cx.load(json.dumps(saved))
    assert (list(L.strata), L.weights) == (list(K.strata), K.weights)
    # a weight keyed by the unescaped id names no stratum
    with pytest.raises(SpaceFormatError, match=re.escape("unknown singular stratum 's0:p.q'")):
        cx.load({**doc, "weights": {"s0:p.q": "2/3"}})


def _not_full(doc):
    """The document, unweighted, with both ends of its first edge added to
    X_0 and to every listed level, so that X_0 is not full but the levels
    stay nested. The subdivision renames the strata, so no weight applies."""
    a, b = doc["maximal_simplices"][0][:2]
    skeleta = {j: level + [[a], [b]] for j, level in doc.get("skeleta", {}).items()}
    return {**doc, "skeleta": {"0": [[a], [b]], **skeleta}, "weights": {}}


@pytest.mark.parametrize("name", corpus.SPACE_NAMES)
def test_load_paths_and_remedy_match_reference_assembly(name, tmp_path):
    """A load of the JSON text, of the dict and of the file's Path give the
    reference assembly's strata and members, and so does the fullness remedy
    of the document made not full, which subdivides it once."""
    doc = cx.to_document(corpus.load_space(name))
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    loaded = [cx.load(json.dumps(doc)), cx.load(doc), cx.load(path)]
    _assert_matches_reference(doc, loaded[0])
    for K in loaded[1:]:
        _assert_same_complex(loaded[0], K)
        assert (K.vertex_ids, K.weights) == (loaded[0].vertex_ids, loaded[0].weights), name
    if loaded[0].n:
        remedied = _not_full(doc)
        R = cx.load(remedied)
        assert R.counts() == cx.barycentric_subdivide(loaded[0]).counts()
        _assert_matches_reference(remedied, R)
        _assert_same_complex(R, cx.load(json.dumps(cx.to_document(R))))


def test_a_str_is_json_text_and_never_a_file_name(tmp_path):
    """Only a Path names a file: the text of a path, even one that exists,
    is read as JSON and refused, and so is JSON text that does not start
    with "{", which was once taken for a file name."""
    path = tmp_path / "s2.json"
    path.write_text(json.dumps(cx.to_document(corpus.load_space("s2"))))
    assert cx.load(path).counts() == (4, 6, 4)
    with pytest.raises(SpaceFormatError, match="^Expecting value: line 1 column 1"):
        cx.load(str(path))
    with pytest.raises(SpaceFormatError, match="^space document must be a JSON object$"):
        cx.load("[]")
    with pytest.raises(SpaceFormatError, match="^cannot read space file .*missing.json: "):
        cx.load(tmp_path / "missing.json")


# the ih-ladder workload's spaces that the build-ladder workload does not build
_IH_LADDER = (
    ("cone(susp(susp t2))", "cone", "susp(susp t2)"),
    ("sd(cone_t2)", "barycentric_subdivide", "cone_t2"),
)


def test_ladder_load_paths_match_reference_assembly():
    """Every `build-ladder` and `ih-ladder` rung loads from its document, as
    text and as a dict, to the complex built; the `ih-ladder` rungs, which
    the other ladder tests do not build, are checked against the reference
    assembly too."""
    built = {"t2": corpus.load_space("t2_7"), "cone_t2": corpus.load_space("cone_t2")}
    for key, ctor, src in (*_LADDER, *_IH_LADDER):
        J = built[key] = getattr(cx, ctor)(built[src])
        doc = cx.to_document(J)
        if (key, ctor, src) in _IH_LADDER:
            _assert_matches_reference(doc, J)
        for K in (cx.load(json.dumps(doc)), cx.load(doc)):
            _assert_same_complex(J, K)
            assert (K.vertex_ids, K.weights) == (J.vertex_ids, J.weights), key
