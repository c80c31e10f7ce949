"""Complex loading, validation, constructors, subdivision, orientation."""

import functools
import gc
import json
import weakref
from fractions import Fraction as F
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stratal import complexes as cx
from stratal import corpus, linalg
from stratal.errors import SpaceFormatError, StratalError, StructureError


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
    # purity is checked before the dimension-sized filtration is built
    pytest.param({"dimension": 10**9, "vertices": [0], "maximal_simplices": [[0]]},
                 "not pure", id="huge-dimension"),
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
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [-1, 2]]},
                 r"^bad simplex \[-1, 2\] in maximal_simplices$", id="vertex-negative"),
    pytest.param({**_CIRCLE, "maximal_simplices": [[0, 1], [1, 3]]},
                 r"^bad simplex \[1, 3\] in maximal_simplices$", id="vertex-past-count"),
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
    # an orientation sign is the integer 1 or -1, and its simplex obeys the simplex rules
    pytest.param({**_CIRCLE, "orientation": [[[0, 1], 1], [[1, 2], True]]},
                 r"^orientation must be a list of \[simplex, ±1\] pairs$", id="orientation-true"),
    pytest.param({**_CIRCLE, "orientation": [[[0, 1], 1.0]]},
                 r"^orientation must be a list of \[simplex, ±1\] pairs$", id="orientation-float"),
    pytest.param({**_CIRCLE, "orientation": [[[0, 1], 2]]},
                 r"^orientation must be a list of \[simplex, ±1\] pairs$", id="orientation-two"),
    pytest.param({**_CIRCLE, "orientation": [[[0, 1], 1], ["junk", 1]]},
                 r"^bad simplex 'junk' in orientation$", id="orientation-simplex-string"),
    pytest.param({**_CIRCLE, "orientation": [[[99, 98], -1]]},
                 r"^bad simplex \[99, 98\] in orientation$", id="orientation-vertex-past-count"),
    pytest.param({**_CIRCLE, "orientation": [[[1, True], -1]]},
                 r"^bad simplex \[1, True\] in orientation$", id="orientation-vertex-true"),
    pytest.param({**_CIRCLE, "orientation": [[[2, 2], -1]]},
                 r"^repeated vertex in simplex \[2, 2\]$", id="orientation-vertex-repeated"),
])
def test_load_rejects_malformed_structure(doc, message):
    with pytest.raises(SpaceFormatError, match=message):
        cx.load(doc)


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
    """The flag table of a subdivision is freed by reference counting: with
    the face getters cached by a first run, the cyclic collector finds
    nothing after the second."""
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
        assert cone_t2.level(s) == (0 if singular else 3), s
        assert cone_t2.strata[cone_t2.label(s)].singular is singular, s


def test_level_and_label_reject_a_non_simplex():
    # each read is the first on a fresh complex, so each builds the index
    for read in ("index", "level", "label"):
        K = corpus.load_space("cone_t2")
        assert "_index" not in vars(K)
        for s in ((99,), (0, 99), (1, 0), (), tuple(range(5))):
            with pytest.raises(KeyError):
                getattr(K, read)(s)


def test_index_is_the_position_in_simplices(spaces, ih_ladder):
    for K in [*spaces.values(), *ih_ladder.values()]:
        for i in range(K.n + 1):
            assert list(map(K.index, K.simplices(i))) == list(range(len(K.simplices(i)))), K.name


def test_load_frees_the_parsed_document_before_assembly(monkeypatch):
    class Document(dict):  # a dict that a weak reference can watch
        pass

    loads, assemble, parsed = json.loads, cx._assemble, []

    def watched_loads(text):
        doc = Document(loads(text))
        parsed.append(weakref.ref(doc))
        return doc

    def checked_assemble(*args):
        assert parsed and parsed[-1]() is None
        return assemble(*args)

    monkeypatch.setattr(json, "loads", watched_loads)
    monkeypatch.setattr(cx, "_assemble", checked_assemble)
    text = json.dumps(cx.to_document(corpus.load_space("cone_t2")))
    assert list(cx.load(text).strata) == _STRATUM_ORDER["cone_t2"]


def test_unused_vertex_has_no_stratum():
    # an unused vertex is no 0-simplex, so it joins no stratum and starts none
    K = cx.load({**_CIRCLE, "vertices": [0, 1, 2, 3]})
    assert list(K.strata) == ["s1:0"] and K._vertex_label[3] is None
    with pytest.raises(KeyError):
        K.label((3,))
    second = [[4, 5], [5, 6], [4, 6]]
    K = cx.load({**_CIRCLE, "vertices": list(range(7)),
                 "maximal_simplices": _CIRCLE["maximal_simplices"] + second})
    assert list(K.strata) == ["s1:4", "s1:0"] and K._vertex_label[3] is None


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
    with pytest.raises(StructureError):
        cx.check_orientation(K)


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


def _facet_strata(K):
    """Strata by definition: components of each X_j - X_{j-1} joined through
    facets at the same level, grouped in the order in which their simplices
    come in the construction's closure order, each id taken from the least
    member. That order is the reference closure of K's n-simplices, which
    the construction lists sorted, as `to_document` and subdivision do."""
    levels = {s: K.level(s) for s in _reference_closure(list(K.simplices(K.n)))}
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
    for members in groups.values():
        members.sort()
        dim = max(len(s) for s in members) - 1
        sid = f"s{dim}:" + ".".join(str(K.vertex_ids[v]) for v in members[0])
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
        assert K.level(s) == levels[s] == max(levels[(v,)] for v in s)
    for j in range(K.n):
        assert K.skeleton(j) == {s for s in levels if levels[s] <= j}
    want = _facet_strata(K)
    assert list(K.strata) == list(want)
    for sid, (dim, codim, level, members) in want.items():
        got = K.strata[sid]
        assert (got.dim, got.codim, got.level, got.simplices) == (dim, codim, level, members)
        assert got.singular == (level < K.n)
        assert all(K.label(s) == sid for s in members)
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
    """A small corpus document, with an orientation, in which one value
    anywhere is replaced by random JSON or one object gains a random key."""
    doc = cx.to_document(corpus.load_space(draw(st.sampled_from(
        ["point", "s0", "s1_hex", "cone_s1_c_half", "susp_s0", "cone_cone_s1"]))))
    doc["orientation"] = [[s, 1] for s in doc["maximal_simplices"]]
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
# readable diff. The order follows the iteration order of the face-closure
# set; see the `complexes` module docstring.
_STRATUM_ORDER = {
    "cone_cone_s1": ["s3:0", "s0:apex'", "s1:apex"],
    "cone_s1_c_half": ["s2:0", "s0:apex"],
    "cone_t2": ["s3:0", "s0:apex"],
    "mobius": ["s2:0"],
    "point": ["s0:0"],
    "s0": ["s0:0", "s0:1"],
    "s1_hex": ["s1:0"],
    "s2": ["s2:0"],
    "susp_s0": ["s1:1", "s0:north", "s1:0", "s0:south"],
    "susp_s2": ["s3:0", "s0:south", "s0:north"],
    "susp_t2": ["s3:0", "s0:south", "s0:north"],
    "t2_7": ["s2:0"],
    "susp(t2)": ["s3:0", "s0:south", "s0:north"],
    "susp(susp t2)": ["s4:0", "s1:south", "s1:north", "s0:south'", "s0:north'"],
    "sd(susp(susp t2))": ["s4:(0)", "s1:(south)", "s1:(north)", "s0:(north')", "s0:(south')"],
    "sd(susp t2)": ["s3:(0)", "s0:(south)", "s0:(north)"],
    "cone(sd(susp t2))": ["s4:(0)", "s1:(north)", "s0:apex", "s1:(south)"],
    "sd2(susp t2)": ["s3:((0))", "s0:((south))", "s0:((north))"],
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
    "cone cone_cone_s1": (["s4:0", "s2:apex", "s0:apex''", "s1:apex'"],
                          {"s0:apex''": "2/3", "s1:apex'": "1", "s2:apex": "1"}),
    "susp cone_cone_s1": (["s4:0", "s2:apex", "s0:north", "s1:apex'", "s0:south"],
                          {"s0:north": "1/2", "s0:south": "3", "s1:apex'": "1", "s2:apex": "1"}),
    "sd cone_cone_s1": (["s3:(0)", "s1:(apex)", "s0:(apex')"],
                        {"s0:(apex')": "1", "s1:(apex)": "1"}),
    "cone cone_s1_c_half": (["s3:0", "s0:apex'", "s1:apex"], {"s0:apex'": "2/3", "s1:apex": "1/2"}),
    "susp cone_s1_c_half": (["s3:0", "s1:apex", "s0:south", "s0:north"],
                            {"s0:north": "1/2", "s0:south": "3", "s1:apex": "1/2"}),
    "sd cone_s1_c_half": (["s2:(0)", "s0:(apex)"], {"s0:(apex)": "1/2"}),
    "cone cone_t2": (["s4:0", "s0:apex'", "s1:apex"], {"s0:apex'": "2/3", "s1:apex": "1"}),
    "susp cone_t2": (["s4:0", "s0:north", "s1:apex", "s0:south"],
                     {"s0:north": "1/2", "s0:south": "3", "s1:apex": "1"}),
    "sd cone_t2": (["s3:(0)", "s0:(apex)"], {"s0:(apex)": "1"}),
    "cone mobius": (["s3:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp mobius": (["s3:0", "s0:north", "s0:south"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd mobius": (["s2:(0)"], {}),
    "cone point": (["s1:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp point": (["s1:0", "s0:south", "s0:north"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd point": (["s0:(0)"], {}),
    "cone s0": (["s1:1", "s0:apex", "s1:0"], {"s0:apex": "2/3"}),
    "susp s0": (["s1:1", "s0:north", "s1:0", "s0:south"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd s0": (["s0:(0)", "s0:(1)"], {}),
    "cone s1_hex": (["s2:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp s1_hex": (["s2:0", "s0:south", "s0:north"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd s1_hex": (["s1:(0)"], {}),
    "cone s2": (["s3:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp s2": (["s3:0", "s0:south", "s0:north"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd s2": (["s2:(0)"], {}),
    "cone susp_s0": (["s2:1", "s1:north", "s1:south", "s2:0", "s0:apex"],
                     {"s0:apex": "2/3", "s1:north": "1", "s1:south": "1"}),
    "susp susp_s0": (["s1:north", "s1:south", "s0:south'", "s2:0", "s2:1", "s0:north'"],
                     {"s0:north'": "1/2", "s0:south'": "3", "s1:north": "1", "s1:south": "1"}),
    "sd susp_s0": (["s0:(north)", "s1:(0)", "s1:(1)", "s0:(south)"],
                   {"s0:(north)": "1", "s0:(south)": "1"}),
    "cone susp_s2": (["s4:0", "s0:apex", "s1:south", "s1:north"],
                     {"s0:apex": "2/3", "s1:south": "1", "s1:north": "1"}),
    "susp susp_s2": (["s4:0", "s0:north'", "s1:south", "s1:north", "s0:south'"],
                     {"s0:north'": "1/2", "s0:south'": "3", "s1:south": "1", "s1:north": "1"}),
    "sd susp_s2": (["s3:(0)", "s0:(south)", "s0:(north)"],
                   {"s0:(south)": "1", "s0:(north)": "1"}),
    "cone susp_t2": (["s4:0", "s1:south", "s1:north", "s0:apex"],
                     {"s0:apex": "2/3", "s1:south": "1", "s1:north": "1"}),
    "susp susp_t2": (["s4:0", "s1:south", "s1:north", "s0:south'", "s0:north'"],
                     {"s0:north'": "1/2", "s0:south'": "3", "s1:south": "1", "s1:north": "1"}),
    "sd susp_t2": (["s3:(0)", "s0:(south)", "s0:(north)"],
                   {"s0:(south)": "1", "s0:(north)": "1"}),
    "cone t2_7": (["s3:0", "s0:apex"], {"s0:apex": "2/3"}),
    "susp t2_7": (["s3:0", "s0:south", "s0:north"], {"s0:north": "1/2", "s0:south": "3"}),
    "sd t2_7": (["s2:(0)"], {}),
}


def _strata_and_weights(K):
    return list(K.strata), {sid: str(w) for sid, w in K.weights.items()}


def test_corpus_constructions_leave_the_simplex_index_unbuilt(spaces):
    """No constructor, `to_document` or `load` reads the simplex index: each
    result builds it on its first `index`, `level`, `label` or boundary."""
    for name in corpus.SPACE_NAMES:
        K = spaces[name]
        doc = cx.to_document(K)
        before = json.dumps(doc)
        rebuilt = [cx.load(json.dumps(doc)), cx.load(doc),
                   cx.build(name, doc["vertices"], doc["maximal_simplices"],
                            doc.get("skeleta"), doc.get("weights"), doc["dimension"])]
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
    assert K.strata["s1:apex'.apex"].simplices[0] == (0, 1)
    assert _strata_and_weights(cx.cone(K, F(2, 3))) == (
        ["s4:apex'.apex.0", "s2:apex'.apex", "s0:apex''", "s1:apex'"],
        {"s0:apex''": "2/3", "s2:apex'.apex": "1/2", "s1:apex'": "3"})
    assert _strata_and_weights(cx.suspension(K, (5, 7))) == (
        ["s4:apex'.apex.0", "s2:apex'.apex", "s1:apex'", "s0:north", "s0:south"],
        {"s0:north": "5", "s0:south": "7", "s2:apex'.apex": "1/2", "s1:apex'": "3"})
    assert _strata_and_weights(cx.barycentric_subdivide(K)) == (
        ["s3:(apex').(apex'|apex).(apex'|apex|0)", "s1:(apex').(apex'|apex)", "s0:(apex')"],
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


def test_corpus_stratum_order_is_pinned(spaces):
    assert {name: list(K.strata) for name, K in spaces.items()} == {
        name: _STRATUM_ORDER[name] for name in corpus.SPACE_NAMES}


def test_ladder_stratum_order_is_pinned(ladder):
    for key, K in ladder.items():
        assert list(K.strata) == _STRATUM_ORDER[key], key
        reloaded = cx.load(json.dumps(cx.to_document(K)))
        assert list(reloaded.strata) == _STRATUM_ORDER[key], key


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


def _reference_assemble(doc):
    """A well-formed space document assembled from the definitions, one
    simplex at a time: the stack closure (facets pushed in index order),
    levels as the least j with s in X_j, fullness as "every simplex sits at
    the level of its highest vertex", one subdivision with flags taken from
    vertex permutations when some X_j is not full, and strata grouped in
    closure order by the root of the first highest-level vertex of each
    simplex. Returns (vertex ids, levels, {sid: (dim, level, members)},
    the stratum id of each simplex, simplices per dimension)."""
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

        vertex_ids = ["(" + "|".join(str(vertex_ids[v]) for v in s) + ")" for s in index]
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
    for members in groups.values():
        members.sort()
        dim = len(max(members, key=len)) - 1
        sid = f"s{dim}:" + ".".join(str(vertex_ids[v]) for v in members[0])
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
    assert [K.level(s) for s in levels] == list(levels.values())
    assert list(K.strata) == list(strata)
    for sid, (dim, level, members) in strata.items():
        got = K.strata[sid]
        assert (got.dim, got.codim, got.level, got.singular, got.simplices) == (
            dim, K.n - dim, level, level < K.n, members)
    assert {s: K.label(s) for s in label_of} == label_of


@_PROPERTY
@given(_filtered_documents())
def test_load_matches_reference_assembly(case):
    _assert_matches_reference(case[1])


def test_ladder_loads_match_reference_assembly(ladder):
    for K in ladder.values():
        _assert_matches_reference(cx.to_document(K))


@pytest.mark.parametrize("key", [*corpus.SPACE_NAMES, *(key for key, _, _ in _LADDER)])
def test_face_closure_order_matches_stack_walk(spaces, ladder, key):
    K = spaces[key] if key in spaces else ladder[key]
    doc = cx.to_document(K)
    listed = [tuple(s) for s in doc["maximal_simplices"]]
    assert list(cx._face_closure(listed)) == list(_reference_closure(listed))
    # skeleton levels reach the closure as sets, in their own iteration order
    for level in doc.get("skeleta", {}).values():
        listed = {tuple(s) for s in level}
        assert list(cx._face_closure(listed)) == list(_reference_closure(listed))


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
def test_face_closure_order_matches_stack_walk_on_random_lists(listed):
    assert list(cx._face_closure(listed)) == list(_reference_closure(listed))


def _two_cones():
    """Two disjoint copies of cone_t2 with both apexes in X_0: two regular and
    two singular components, each pair at one level."""
    doc = cx.to_document(corpus.load_space("cone_t2"))
    m = len(doc["vertices"])
    maximal = doc["maximal_simplices"] + [[v + m for v in s] for s in doc["maximal_simplices"]]
    return {"name": "two cone_t2", "dimension": 3,
            "vertices": doc["vertices"] + [f"{v}'" for v in doc["vertices"]],
            "maximal_simplices": maximal, "skeleta": {"0": [[m - 1], [2 * m - 1]]}}


# stratum ids and member counts, in stratum order, as the per-simplex
# grouping gave them before a single regular component was taken whole
_SEVERAL_COMPONENTS = {
    "two cone_t2": {"s3:0": 84, "s3:0'": 84, "s0:apex'": 1, "s0:apex": 1},
    "cone s0": {"s1:1": 2, "s0:apex": 1, "s1:0": 2},
    "susp_s0": {"s1:1": 3, "s0:north": 1, "s1:0": 3, "s0:south": 1},
}


def test_several_components_per_level_match_reference():
    two = _two_cones()
    built = cx.build(two["name"], two["vertices"], two["maximal_simplices"],
                     skeleta=two["skeleta"])
    cases = [("two cone_t2", two, built)] + [
        (key, cx.to_document(_base(key)), _base(key)) for key in ("cone s0", "susp_s0")]
    for key, doc, K in cases:
        _assert_matches_reference(doc, K)
        _assert_matches_reference(doc)
        assert [(sid, len(stratum.simplices)) for sid, stratum in K.strata.items()] == list(
            _SEVERAL_COMPONENTS[key].items())
        assert {s: K.label(s) for s in K.all_simplices()} == {
            s: sid for sid, stratum in K.strata.items() for s in stratum.simplices}
