from fractions import Fraction
from itertools import combinations
from weakref import WeakKeyDictionary

import pytest

from stratal import complexes as cx
from stratal import corpus
from stratal import hilbert as hb
from stratal import linalg


# Reference code, imported by the test modules (`from conftest import ...`):
# no command reads a simplex's index, level or stratum one simplex at a
# time, or a Laplacian, so these check the library from outside it.


def simplex_index(K, simplex):
    """The position of a simplex in `K.simplices(dim)`; a KeyError for a
    non-simplex."""
    return K._index[simplex]


def simplex_level(K, simplex):
    """The least j with the simplex in X_j (n when regular): its top
    vertex's. A KeyError for a non-simplex."""
    simplex_index(K, simplex)
    return max(map(K._vertex_level.__getitem__, simplex))


def simplex_label(K, simplex):
    """The id of the stratum holding the simplex: that of its top vertex.
    A KeyError for a non-simplex."""
    simplex_index(K, simplex)
    return K._vertex_label[max(simplex, key=K._vertex_level.__getitem__)]


def stacked_cols(top_cols, bottom_cols, top_rows):
    """Columns of the vertical stack [A; B]; B's rows are shifted by A's
    height."""
    return [{**a, **{r + top_rows: v for r, v in b.items()}}
            for a, b in zip(top_cols, bottom_cols)]


def plain_table(bnd, drop=None):
    """The rank table that `linalg.chain_ranks` takes for the chain complex
    whose boundary columns are `bnd`: per degree i, every index may be left
    out, there are no pivots to start from, and the chain model leaves out
    the rows `drop[i]` (none when `drop` is None)."""
    return [(list(range(len(cols))), {}, cols, drop[i] if drop else ())
            for i, cols in enumerate(bnd)]


def laplacian_cols(C, i):
    """Columns of Δ_i = D_i^T D_i + D_{i-1} D_{i-1}^T of the finite Hilbert
    complex C: [D_i^T | D_{i-1}] times the stack [D_i ; D_{i-1}^T]."""
    down, up = C.maps[i + 1], C.maps[i]
    return linalg.combine_columns(down.t.cols + up.cols,
                                  stacked_cols(down.cols, up.t.cols, len(down.t.cols)))


def kodaira_parts(C, i, v):
    """The (harmonic, exact, coexact) parts of `hilbert.kodaira_decompose`
    as Fraction dicts: each integer numerator over the one denominator."""
    *parts, d = hb.kodaira_decompose(C, i, v)
    return tuple({r: Fraction(a, d) for r, a in part.items()} for part in parts)


def _face_profiles(K):
    """Singular-face profiles by definition, the reference for
    `FilteredComplex.profile_classes`: every proper face of each regular
    simplex is looked up in the members of the strata, the simplices that
    `simplex_label` maps to their ids, and each singular stratum keeps the
    dimension of its largest face."""
    label_of = {s: simplex_label(K, s) for i in range(K.n + 1) for s in K.simplices(i)}
    out = {}
    for s in K.all_simplices():
        if K.strata[label_of[s]].singular:
            continue
        prof = {}
        for size in range(1, len(s)):
            for face in combinations(s, size):
                sid = label_of[face]
                if K.strata[sid].singular:
                    prof[sid] = max(prof.get(sid, -1), size - 1)
        out[s] = prof
    return out


def _regular_profiles(K):
    """The profile `FilteredComplex.profile_classes` gives each regular
    simplex, keyed by the simplex."""
    out = {}
    for i, (profiles, of, _) in enumerate(K.profile_classes):
        for s, k in zip(K.simplices(i), of):
            if profiles[k] is not None:
                out[s] = profiles[k]
    return out


_DROPPED = WeakKeyDictionary()


def _dropped_boundary(K):
    """The boundary with the faces in X_{n-1} dropped, by definition, the
    reference for the chain model of `intersection`: per degree i, column j
    is the i-simplex j's sum of (-1)^k times its facet without vertex k,
    over the facets not in `K.skeleton(K.n - 1)`. Built once per complex
    object; callers only read it."""
    if K not in _DROPPED:
        in_singular_set = K.skeleton(K.n - 1)
        out = []
        for i in range(K.n + 1):
            cols = []
            for s in K.simplices(i):
                col = {}
                for k in range(len(s) if i else 0):
                    face = s[:k] + s[k + 1:]
                    if face not in in_singular_set:
                        col[simplex_index(K, face)] = (-1) ** k
                cols.append(col)
            out.append(cols)
        _DROPPED[K] = out
    return _DROPPED[K]


def _project_onto_span(v, cols):
    """Orthogonal projection of v onto the column span of `cols`, exact,
    through the steps that `hilbert.kodaira_decompose` takes: `_over`,
    `_basis` and `_solve`, whose zero combination (x, t) gives the
    projection B(-x)/(t·m) of v = w/m."""
    w, m = linalg._over(v)
    basis = linalg._basis(cols)
    x, t = linalg._solve(w, basis)
    (num,) = linalg.combine_columns(basis, [{i: -a for i, a in x.items()}])
    return {r: Fraction(a, t * m) for r, a in num.items()}


@pytest.fixture(scope="session")
def project_onto_span():
    return _project_onto_span


@pytest.fixture(scope="session")
def dropped_boundary():
    return _dropped_boundary


@pytest.fixture(scope="session")
def face_profiles():
    return _face_profiles


@pytest.fixture(scope="session")
def regular_profiles():
    return _regular_profiles


@pytest.fixture(scope="session")
def spaces():
    return corpus.load_corpus()


@pytest.fixture(scope="session")
def t2(spaces):
    return spaces["t2_7"]


@pytest.fixture(scope="session")
def s2(spaces):
    return spaces["s2"]


@pytest.fixture(scope="session")
def s1(spaces):
    return spaces["s1_hex"]


@pytest.fixture(scope="session")
def s0(spaces):
    return spaces["s0"]


@pytest.fixture(scope="session")
def susp_t2(spaces):
    return spaces["susp_t2"]


@pytest.fixture(scope="session")
def cone_t2(spaces):
    return spaces["cone_t2"]


@pytest.fixture(scope="session")
def mobius(spaces):
    return spaces["mobius"]


@pytest.fixture
def theta():
    """Three triangulated disks glued along the regular circle 0-1-2: no
    face is a boundary face, and each edge of the circle has three top
    cofaces."""
    return cx.build("theta", list(range(6)),
                    [f for a in (3, 4, 5) for f in ((0, 1, a), (1, 2, a), (0, 2, a))])


@pytest.fixture(scope="session")
def ih_ladder():
    """The spaces of perfbench's ih-ladder workload (386 to 5,885 simplices)."""
    st2 = cx.suspension(corpus.load_space("t2_7"))
    sst2 = cx.suspension(st2)
    sdst2 = cx.barycentric_subdivide(st2)
    return {
        "susp(susp t2)": sst2,
        "cone(susp(susp t2))": cx.cone(sst2),
        "sd(cone_t2)": cx.barycentric_subdivide(corpus.load_space("cone_t2")),
        "sd(susp t2)": sdst2,
        "cone(sd(susp t2))": cx.cone(sdst2),
    }
