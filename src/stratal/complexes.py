"""Finite simplicial complexes with skeleton filtrations and stratum labels.

A FilteredComplex is the combinatorial stand-in for a compact stratified
pseudomanifold: a pure n-dimensional face-closed simplicial complex together
with a chain of closed, full subcomplexes X_0 <= ... <= X_{n-1}. Purity makes
the regular part dense: X_{n-1} holds no n-simplex, so every simplex is a face
of a regular one. A filtration that is not full is repaired by one barycentric
subdivision, after which every skeleton is full. Strata are the connected
components of each difference X_j - X_{j-1}; with full skeleta a level-j
simplex lies in the stratum of any of its level-j vertices, so the components
are those of the level-j vertices joined by level-j edges. So a simplex's
level, stratum and singular-face profile follow from its vertices, and the
complex stores only each vertex's level and stratum id. Codimension-one
strata are allowed, and X_{n-1} may differ from X_{n-2}.

Stratum order is deterministic and follows the face-closure order: `strata`
is listed in the iteration order of the set that `_face_closure` fills in
one fixed sequence. `singular_strata()` and the seeded verify suites walk
strata in this order, so it is part of the output: `verify --suite duality`
draws its per-stratum values in it.

Construction runs in C-level passes over whole lists: the closure set is
filled by `set.update` from one fixed face order per simplex size, fullness
is tested on the faces of the maximal simplices cut down to their singular
vertices, and a regular part with one component is taken whole from the
sorted list. Python loops remain over the edges whose ends share a level
(they give the components), over the few singular simplices, over the
regular simplices when they form several components, and in the split by
dimension.

Construction holds each table only while something still reads it. `load`
drops the parsed document, and any file text it read, before the assembly;
the assembly keeps the closure set through the fullness test and then only
its iteration order, as a list, for `_stratify`. A complex stores its
simplices by dimension and each vertex's level and stratum id; the simplex
index (read by `index`, `level`, `label` and `boundary_matrix`), the
singular-face profiles, the dropped-face boundaries, the top cofaces and the
interior table are derived on first read. No constructor, no `to_document`
and no `load` reads them. The interior table (`interior`) holds the reduced
boundaries of the simplices with no singular vertex, which every rank query
shares: `betti()` and each perversity's `intersection.homology` reduce only
the simplices near the singular set against a copy of it.

All homology here is ordinary simplicial homology over the rationals with
exact ranks; the allowable-chain machinery lives in `intersection`.
"""

import json
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, combinations, compress, filterfalse, groupby
from operator import itemgetter
from pathlib import Path

from . import linalg
from .errors import ConfigurationError, SpaceFormatError, StructureError
from .perversity import weights_to_json
from .rationals import format_rational, parse_rational


class Stratum:
    """One stratum: its id, dimensions, and member simplices."""

    __slots__ = ("id", "dim", "codim", "link_dim", "singular", "level", "simplices")

    def __init__(self, sid, dim, codim, singular, level, simplices):
        self.id = sid
        self.dim = dim
        self.codim = codim
        self.link_dim = codim - 1
        self.singular = singular
        self.level = level
        self.simplices = simplices

    def __repr__(self):
        kind = "singular" if self.singular else "regular"
        return f"<Stratum {self.id} dim={self.dim} codim={self.codim} {kind}>"


@cache
def _face_getters(length):
    """One getter per face of a simplex of `length` vertices, in the order in
    which a depth-first walk first reaches them: each simplex, then the walks
    of its facets, s[:-1] first. Lengths are at most n + 1 in a complex of
    dimension n, and one length has as many getters as a simplex has faces."""
    order = {}

    def walk(face):
        if face not in order:
            order[face] = None
            if len(face) > 1:
                for i in reversed(range(len(face))):
                    walk(face[:i] + face[i + 1 :])

    walk(tuple(range(length)))
    getters = []
    for face in order:
        start = face[0] if face else 0
        if face == tuple(range(start, start + len(face))):
            # a slice, so that a vertex comes out as a 1-tuple
            getters.append(itemgetter(slice(start, start + len(face))))
        else:
            getters.append(itemgetter(*face))
    return getters


def _face_closure(simplices):
    """Every face of the given simplices (tuples), as a set filled in the
    sequence of a depth-first walk: the listed simplices from the last one
    back, each followed by the walks of its facets, s[:-1] first, and each
    simplex added when the walk first reaches it. The set's iteration order
    follows from that sequence, and the order of a complex's strata follows
    from the set's.

    The walk needs no stack. A face already in the set has all of its own
    faces there too, so each listed simplex adds exactly the faces that are
    new, in the one order `_face_getters` gives for its number of vertices.
    `set.update` fed those faces adds the same simplices in the same
    sequence, and a run of equal-length simplices is one C-level pass."""
    closed = set()
    backwards = list(simplices)
    backwards.reverse()
    for length, run in groupby(backwards, len):
        run = list(run)
        closed.update(chain.from_iterable(zip(*[map(g, run) for g in _face_getters(length)])))
    return closed


def _maximal_of(closed):
    # in a face-closed set every non-maximal simplex is a facet of another
    facets = set()
    for s in closed:
        facets.update(combinations(s, len(s) - 1))
    return sorted(closed.difference(facets))


def _name_simplex(simplex, vertex_ids):
    return "(" + ",".join(str(vertex_ids[v]) for v in simplex) + ")"


class FilteredComplex:
    """Immutable after construction; build via load(), build(), or a constructor.

    Stored: the simplices by dimension, each vertex's level and stratum id,
    the strata and the weights. The simplex index `_index`, `profile_classes`,
    `regular`, `interior` and `top_cofaces` are cached properties, derived on
    first read.
    """

    def __init__(self, name, n, vertex_ids, by_dim, vertex_level, vertex_label, strata, weights):
        """`by_dim[i]`: the i-simplices, sorted; per vertex v, its level and stratum id."""
        self.name = name
        self.n = n
        self.vertex_ids = tuple(vertex_ids)
        self._by_dim = by_dim
        self._vertex_level = vertex_level
        self._vertex_label = vertex_label
        self.strata = strata
        self.weights = dict(weights or {})
        self._boundaries = {}

    # ------------------------------------------------------------------ basics

    def simplices(self, i):
        if i < 0 or i > self.n:
            return ()
        return self._by_dim[i]

    def all_simplices(self):
        for level in self._by_dim:
            yield from level

    def counts(self):
        return tuple(len(level) for level in self._by_dim)

    @cached_property
    def _index(self):
        """Each simplex's position in `simplices(dim)`, built on first read."""
        return {s: i for level in self._by_dim for i, s in enumerate(level)}

    def index(self, simplex):
        """The position of a simplex in `simplices(dim)`; KeyError for a non-simplex."""
        return self._index[simplex]

    def level(self, simplex):
        """The least j with the simplex in X_j (n when regular): its top vertex's."""
        self.index(simplex)
        return max(map(self._vertex_level.__getitem__, simplex))

    def label(self, simplex):
        """The id of the stratum holding the simplex: that of its top vertex."""
        self.index(simplex)
        return self._vertex_label[max(simplex, key=self._vertex_level.__getitem__)]

    def singular_strata(self):
        return [s for s in self.strata.values() if s.singular]

    def skeleton(self, j):
        """X_j: the members of the strata of level <= j."""
        return frozenset(chain.from_iterable(
            s.simplices for s in self.strata.values() if s.level <= j))

    def euler_characteristic(self):
        return sum((-1) ** i * c for i, c in enumerate(self.counts()))

    def is_closed(self):
        """True when every regular (n-1)-simplex has exactly two n-cofaces."""
        return all(len(incident) == 2 for incident in self.top_cofaces.values())

    # ---------------------------------------------------------------- homology

    def boundary_matrix(self, i):
        """Columns of the simplicial boundary in lexicographic bases."""
        if i in self._boundaries:
            return self._boundaries[i]
        if i <= 0 or i > self.n:
            cols = [{} for _ in self.simplices(i)] if i == 0 else []
        else:
            # combinations yields first the facet without vertex i, last the
            # one without vertex 0, whose sign is (-1)^0
            signs = [(-1) ** (i - k) for k in range(i + 1)]
            face = self._index.__getitem__
            cols = [dict(zip(map(face, combinations(s, i)), signs)) for s in self._by_dim[i]]
        self._boundaries[i] = cols
        return cols

    @cached_property
    def profile_classes(self):
        """Per degree i, (profiles, of): the i-simplex j has the singular-face
        profile profiles[of[j]], which maps each singular stratum that the
        simplex meets to the dimension of its largest face in that stratum;
        a singular simplex, one in X_{n-1}, has None.

        The profile comes from the simplex's singular vertices alone: its
        largest face in a stratum of level j is spanned by its vertices of
        level <= j, and its level-j vertices lie in that stratum. Sorted by
        level, the vertex at position d closes a face of dimension d, and the
        last one of each level gives that stratum's entry. So `profiles` has
        one entry per distinct tuple of singular vertices, in the order in
        which the simplices first meet it, and equal tuples share one dict in
        every degree. A simplex with no singular vertex has the empty profile.
        """
        n, level, label = self.n, self._vertex_level, self._vertex_label
        singular_only = partial(filter, {v for v, j in enumerate(level) if j < n}.__contains__)
        built = {}
        out = []
        for i, simplices in enumerate(self._by_dim):
            keys = list(map(tuple, map(singular_only, simplices)))
            position = {t: k for k, t in enumerate(dict.fromkeys(keys))}
            profiles = []
            for t in position:
                if len(t) > i:
                    profiles.append(None)
                    continue
                if t not in built:
                    built[t] = {label[v]: d for d, v in enumerate(sorted(t, key=level.__getitem__))}
                profiles.append(built[t])
            out.append((profiles, list(map(position.__getitem__, keys))))
        return out

    @cached_property
    def top_cofaces(self):
        """Each regular (n-1)-simplex and its n-cofaces, with the face's sign
        in each; read by `is_closed` and `check_orientation`."""
        singular = {v for v, j in enumerate(self._vertex_level) if j < self.n}
        cofaces = {}
        for s in self.simplices(self.n):
            for idx in range(len(s)):
                f = s[:idx] + s[idx + 1:]
                if not singular.issuperset(f):
                    cofaces.setdefault(f, []).append((s, -1 if idx % 2 else 1))
        return cofaces

    @cached_property
    def regular(self):
        """Per degree i, the boundary with its singular faces dropped, indexed
        like `boundary_matrix`: column j is column j of the full boundary
        restricted to the rows of the regular (i-1)-simplices, those not in
        X_{n-1}. Skeleta are full, so a simplex lies in X_{n-1} exactly when
        all of its vertices do; a simplex with at least two non-singular
        vertices therefore has no singular facet, and its column is the
        `boundary_matrix` column itself. Only the others, whose singular
        vertices number at least i, get a filtered copy.
        """
        bnd = []
        rows = set()
        for i, (classes, of) in enumerate(self.profile_classes):
            full = self.boundary_matrix(i)
            cols = list(full)
            # a profile's largest entry is one less than the number of singular vertices
            near = [prof is None or (prof and max(prof.values()) >= i - 1)
                    for prof in classes]
            for j in compress(range(len(of)), map(near.__getitem__, of)):
                cols[j] = {r: v for r, v in full[j].items() if r in rows}
            bnd.append(cols)
            regular = [prof is not None for prof in classes]
            rows = set(compress(range(len(of)), map(regular.__getitem__, of)))
        return bnd

    @cached_property
    def interior(self):
        """Per degree i, (near, pivots): `near` lists, in order, the indices of
        the i-simplices with a singular vertex, and `pivots` is the pivot
        table of the boundary columns of the others, the interior simplices,
        reduced from the top degree down (`linalg.subcomplex_pivots`).

        An interior simplex has the empty profile, the `()` class of
        `profile_classes`. All of its faces are interior, it is allowable in
        every degree for every perversity, and its `regular` column is its
        `boundary_matrix` column. So the table serves `betti()` and every
        perversity's `homology()` alike (`linalg.chain_ranks`), and each of
        them reduces only its allowed near columns against a copy of it.
        """
        split, inner = [], []
        for profiles, of in self.profile_classes:
            k = profiles.index({}) if {} in profiles else None
            split.append([j for j, c in enumerate(of) if c != k])
            inner.append([j for j, c in enumerate(of) if c == k])
        bnd = [self.boundary_matrix(i) for i in range(self.n + 1)]
        return list(zip(split, linalg.subcomplex_pivots(bnd, inner)))

    def betti(self):
        """Rational Betti numbers b_0..b_n, exact."""
        bnd = [self.boundary_matrix(i) for i in range(self.n + 1)]
        table = self.interior
        ranks = [r for r, _ in linalg.chain_ranks(bnd, [near for near, _ in table], table)] + [0]
        return tuple(len(bnd[i]) - ranks[i] - ranks[i + 1] for i in range(self.n + 1))

    # ----------------------------------------------------------------- reports

    def describe(self):
        strata = []
        for sid in sorted(self.strata):
            s = self.strata[sid]
            entry = {
                "id": s.id,
                "dim": s.dim,
                "codim": s.codim,
                "link_dim": s.link_dim,
                "singular": s.singular,
                "simplex_count": len(s.simplices),
            }
            if sid in self.weights:
                entry["weight"] = format_rational(self.weights[sid])
            strata.append(entry)
        return {
            "name": self.name,
            "dimension": self.n,
            "simplex_counts": list(self.counts()),
            "euler_characteristic": self.euler_characteristic(),
            "closed": self.is_closed(),
            "strata": strata,
            "singular_strata": sum(1 for s in self.strata.values() if s.singular),
        }


# ------------------------------------------------------------------- builders


def _complete_skeleta(n, closure, raw_skeleta, vertex_ids):
    """Validate and complete the filtration chain X_0 <= ... <= X_{n-1}."""
    chain = {}
    prev = frozenset()
    given = {}
    for j, v in (raw_skeleta or {}).items():
        try:
            given[int(j)] = v
        except (TypeError, ValueError):
            raise SpaceFormatError(f"skeleton level {j!r} is not an integer") from None
    for j in sorted(given):
        if j < 0 or j > n - 1:
            raise SpaceFormatError(f"skeleton level {j} outside 0..{n - 1}")
    for j in range(n):
        if j in given:
            listed = {tuple(sorted(s)) for s in given[j]}
            for s in listed:
                if s not in closure:
                    raise SpaceFormatError(
                        f"skeleton {j} lists unknown simplex {_name_simplex(s, vertex_ids)}"
                    )
            level = frozenset(_face_closure(listed)) if listed else frozenset()
            for s in level:
                if len(s) - 1 > j:
                    raise SpaceFormatError(
                        f"skeleton {j} contains {_name_simplex(s, vertex_ids)} "
                        f"of dimension {len(s) - 1}"
                    )
            if not prev <= level:
                missing = next(iter(prev - level))
                raise SpaceFormatError(
                    f"skeleta not nested: X_{j} lacks {_name_simplex(missing, vertex_ids)}"
                )
            chain[j] = level
            prev = level
        else:
            chain[j] = prev
    return chain


def _stratify(n, closed, closure, by_dim, singular, vertex_level, vertex_ids):
    """Strata, in the order in which the closure set's iteration, listed in
    `closed`, first reaches them, and each vertex's stratum id (None off the
    complex). `closure` is the complex in sorted order, `by_dim` the same
    split by dimension, `singular` X_{n-1}.

    Skeleta are full, so a level-j simplex shares a stratum with each of its
    level-j vertices, and those vertices are joined by its level-j edges.
    The few singular simplices are placed one at a time. When the regular
    vertices form one component, the regular stratum is every simplex
    outside X_{n-1}, taken from the sorted list with `filterfalse`, and the
    closure order reaches it right after the singular simplices that lead
    that order. Only a regular part with several components is grouped one
    simplex at a time."""
    root = list(range(len(vertex_ids)))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    # edges whose ends share a level: a few singular ones, and the regular
    # ones, which are the edges with no singular vertex
    singular_vertices = {s[0] for s in singular if len(s) == 1}
    same_level = [s for s in singular if len(s) == 2 and vertex_level[s[0]] == vertex_level[s[1]]]
    edges = by_dim[1] if n else ()
    for a, b in chain(same_level, filter(singular_vertices.isdisjoint, edges)):
        ra, rb = find(a), find(b)
        if ra != rb:
            root[ra] = rb
    root = list(map(find, range(len(root))))
    top_of = partial(max, key=vertex_level.__getitem__)

    def stratum_of(s):
        return root[top_of(s)]

    found = list(filter(singular.__contains__, closed))  # X_{n-1}, closure order
    members = {}
    for s in sorted(found):
        members.setdefault(stratum_of(s), []).append(s)
    regular = filterfalse(singular.__contains__, closure)
    roots = {root[v] for (v,) in by_dim[0] if vertex_level[v] == n}
    if len(roots) == 1:
        (r,) = roots
        ahead = next(pos for pos, s in enumerate(closed) if s not in singular)
        order = chain(map(stratum_of, found[:ahead]), [r], map(stratum_of, found[ahead:]))
        members[r] = regular
    else:
        order = map(stratum_of, closed)
        for s in regular:
            members.setdefault(stratum_of(s), []).append(s)
    strata = {}
    sid_of = {}
    for r in dict.fromkeys(order):
        group = tuple(members[r])
        lvl = vertex_level[r]
        # the complex is pure, so every regular stratum holds an n-simplex
        dim = n if lvl == n else max(map(len, group)) - 1
        sid = f"s{dim}:" + ".".join(str(vertex_ids[v]) for v in group[0])
        if sid in strata:
            raise SpaceFormatError(f"stratum id collision at {sid}")
        strata[sid] = Stratum(sid, dim, n - dim, lvl < n, lvl, group)
        sid_of[r] = sid
    return strata, list(map(sid_of.get, root))


def _subdivide_raw(vertex_ids, closure, top, chain):
    """First barycentric subdivision of the raw data: one new vertex per simplex
    of `closure` in sorted order, and the flags of the maximal simplices `top`
    and of each skeleton. Returns the new vertex ids, maximal simplices and
    skeleta, and the new vertex index of each old simplex."""
    new_index = {s: i for i, s in enumerate(sorted(closure))}
    new_ids = ["(" + "|".join(str(vertex_ids[v]) for v in s) + ")" for s in new_index]
    # the flags ending at each simplex, as sorted tuples, built from those of
    # its facets, so by size; no recursive closure keeps the table alive
    flags = {}
    for s in sorted(new_index, key=len):
        i = new_index[s]
        flags[s] = ([(i,)] if len(s) == 1 else
                    [tuple(sorted(f + (i,))) for face in combinations(s, len(s) - 1)
                     for f in flags[face]])
    new_maximal = sorted(f for s in top for f in flags[s])
    new_chain = {j: [f for s in _maximal_of(level) for f in flags[s]]
                 for j, level in chain.items()}
    return new_ids, new_maximal, new_chain, new_index


def _assemble(name, n, vertex_ids, maximal, raw_skeleta, weights_doc=None):
    if not maximal:
        raise SpaceFormatError("a complex needs at least one simplex")
    # checked before the closure, which has 2^k - 1 faces for each k-vertex simplex
    widest = max(map(len, maximal))
    if widest - 1 > n:
        first = min(s for s in maximal if len(s) == widest)
        raise SpaceFormatError(f"simplex {_name_simplex(first, vertex_ids)} exceeds dimension {n}")
    closure = _face_closure(maximal)
    # simplices of equal length are never faces of one another
    if set(map(len, maximal)) != {n + 1}:
        maximal = _maximal_of(closure)
        for s in maximal:
            if len(s) - 1 != n:
                raise SpaceFormatError(
                    f"complex not pure: maximal simplex {_name_simplex(s, vertex_ids)} "
                    f"has dimension {len(s) - 1}, expected {n}"
                )
    chain = _complete_skeleta(n, closure, raw_skeleta, vertex_ids)
    singular = chain.get(n - 1, frozenset())
    vertex_level = [n] * len(vertex_ids)
    for j in reversed(range(n)):
        for s in chain[j]:
            if len(s) == 1:
                vertex_level[s[0]] = j
    # X_j holds only simplices whose vertices all lie in it, and is full when
    # it holds all of them: the faces of the maximal simplices cut down to
    # their vertices of level <= j, a set as small as the singular part
    singular_vertices = {v for v, lvl in enumerate(vertex_level) if lvl < n}
    cut = set(map(tuple, map(partial(filter, singular_vertices.__contains__), maximal)))
    for j in range(n):
        low = {v for v in singular_vertices if vertex_level[v] <= j}
        faces = {t for t in map(tuple, map(partial(filter, low.__contains__), cut)) if t}
        if len(chain[j]) != len(_face_closure(faces)):
            # after one barycentric subdivision every skeleton is full
            new_ids, new_maximal, new_chain, _ = _subdivide_raw(
                vertex_ids, closure, set(maximal), chain)
            return _assemble(name, n, new_ids, new_maximal, new_chain, weights_doc)
    # only the set's iteration order is read from here on, by `_stratify`
    closed = list(closure)
    del closure
    closure = sorted(closed)
    by_dim = [[] for _ in range(n + 1)]
    for s in closure:
        by_dim[len(s) - 1].append(s)
    by_dim = list(map(tuple, by_dim))
    strata, vertex_label = _stratify(n, closed, closure, by_dim, singular, vertex_level, vertex_ids)
    K = FilteredComplex(name, n, vertex_ids, by_dim, vertex_level, vertex_label, strata, {})
    if weights_doc:
        singular_ids = {s.id for s in K.singular_strata()}
        for sid, text in weights_doc.items():
            if sid not in singular_ids:
                raise SpaceFormatError(
                    f"weight references unknown singular stratum {sid!r}; "
                    f"known: {sorted(singular_ids)}"
                )
            c = parse_rational(text)
            if c <= 0:
                raise SpaceFormatError(f"weight for {sid!r} must be positive")
            K.weights[sid] = c
    return K


def build(name, vertex_ids, maximal, skeleta=None, weights=None, dimension=None):
    """Assemble a FilteredComplex from maximal simplices given as index tuples."""
    maximal = [tuple(sorted(s)) for s in maximal]
    n = dimension if dimension is not None else max(map(len, maximal), default=1) - 1
    return _assemble(name, n, list(vertex_ids), maximal, skeleta, weights)


def _simplex_list(value, field, nverts):
    """Simplices of a document field as sorted tuples; each must be a
    non-empty list of distinct vertex indices below nverts."""
    if not isinstance(value, list):
        raise SpaceFormatError(f"{field} must be a list of simplices")
    for s in value:
        if (not isinstance(s, list) or not s
                or any(type(v) is not int or v < 0 or v >= nverts for v in s)):
            raise SpaceFormatError(f"bad simplex {s!r} in {field}")
        if len(set(s)) != len(s):
            raise SpaceFormatError(f"repeated vertex in simplex {s!r}")
    return [tuple(sorted(s)) for s in value]


def load(source):
    """Load a space document (dict, JSON text, or path) into a FilteredComplex."""
    # the parsed document and any file text die with `_read_document`'s frame,
    # before the assembly; a dict passed in is only read
    return _assemble(*_read_document(source))


def _read_document(source):
    """The checked fields of a space document, as `_assemble`'s arguments."""
    if isinstance(source, (str, Path)) and not str(source).lstrip().startswith("{"):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise SpaceFormatError(f"cannot read space file {source}: {exc}") from exc
        doc = json.loads(text)
    elif isinstance(source, str):
        doc = json.loads(source)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SpaceFormatError("space document must be a JSON object")
    for key in ("dimension", "vertices", "maximal_simplices"):
        if key not in doc:
            raise SpaceFormatError(f"space document lacks {key!r}")
    name = doc.get("name", "unnamed")
    n = doc["dimension"]
    vertex_ids = doc["vertices"]
    if not isinstance(name, str):
        raise SpaceFormatError("name must be a string")
    if type(n) is not int or n < 0:
        raise SpaceFormatError("dimension must be a non-negative integer")
    if (not isinstance(vertex_ids, list)
            or any(type(v) not in (int, str) for v in vertex_ids)
            or len(set(map(str, vertex_ids))) != len(vertex_ids)):
        raise SpaceFormatError("vertices must be a list of unique ids")
    maximal = _simplex_list(doc["maximal_simplices"], "maximal_simplices", len(vertex_ids))
    skeleta, weights = doc.get("skeleta", {}), doc.get("weights", {})
    if not isinstance(skeleta, dict) or not isinstance(weights, dict):
        raise SpaceFormatError("skeleta and weights must be JSON objects")
    skeleta = {j: _simplex_list(level, f"skeleton {j}", len(vertex_ids))
               for j, level in skeleta.items()}
    orientation = doc.get("orientation")
    if orientation is not None:
        if not isinstance(orientation, list) or any(
            not isinstance(e, list) or len(e) != 2 or type(e[1]) is not int or e[1] not in (1, -1)
            for e in orientation
        ):
            raise SpaceFormatError("orientation must be a list of [simplex, ±1] pairs")
        _simplex_list([e[0] for e in orientation], "orientation", len(vertex_ids))
    return name, n, list(vertex_ids), maximal, skeleta, weights


def to_document(K):
    """Serialize to the space-file schema; loading it back is stable, including
    stratum ids (which weights are keyed by)."""
    skeleta = {}
    for j in sorted({s.level for s in K.singular_strata()}):
        # X_j differs from X_{j-1} exactly when some stratum has level j
        skeleta[str(j)] = [list(s) for s in _maximal_of(K.skeleton(j))]
    doc = {
        "name": K.name,
        "dimension": K.n,
        "vertices": list(K.vertex_ids),
        "maximal_simplices": [list(s) for s in K.simplices(K.n)],
    }
    if skeleta:
        doc["skeleta"] = skeleta
    if K.weights:
        doc["weights"] = weights_to_json(K.weights)
    return doc


# --------------------------------------------------------------- constructors


def _fresh_vertex_id(existing, wanted):
    vid = wanted
    while vid in set(map(str, existing)):
        vid += "'"
    return vid


def _join(K, label, apex_names, apex_weights):
    """K joined with one new apex per name: a cone over K for each apex, the
    cones glued along K. Each apex becomes a singular stratum with its weight;
    every stratum of K turns into its joined stratum (same codimension,
    weight inherited)."""
    vertex_ids = list(K.vertex_ids)
    apexes = []
    for wanted in apex_names:
        apexes.append(len(vertex_ids))
        vertex_ids.append(_fresh_vertex_id(vertex_ids, wanted))
    points = [(a,) for a in apexes]
    maximal = [s + (a,) for a in apexes for s in K.simplices(K.n)]
    chain = {0: points}
    for j in range(1, K.n + 1):
        below = K.skeleton(j - 1)
        chain[j] = points + list(below) + [s + (a,) for a in apexes for s in below]
    J = _assemble(f"{label}({K.name})", K.n + 1, vertex_ids, maximal, chain)
    # a simplex lies in the stratum of its top vertex
    sid_of = J._vertex_label.__getitem__
    top = partial(max, key=J._vertex_level.__getitem__)
    for a, w in zip(apexes, apex_weights):
        J.weights[sid_of(a)] = w
    for s in K.singular_strata():
        if s.id in K.weights:
            J.weights[sid_of(top(s.simplices[0]))] = K.weights[s.id]
    return J


def cone(K, weight=Fraction(1)):
    """Closed simplicial cone: a new apex joined to every simplex of K.

    The apex becomes a singular stratum with link dimension dim(K) carrying
    `weight`; every stratum of K turns into its coned stratum (same
    codimension, weight inherited); base simplices land in the coned strata.
    """
    weight = Fraction(weight)
    if weight <= 0:
        raise ConfigurationError("cone weight must be positive")
    return _join(K, "cone", ["apex"], [weight])


def suspension(K, weights=(Fraction(1), Fraction(1))):
    """Two cones glued along K; apex strata get the given (north, south) weights.

    Each stratum Y of K yields one suspended stratum holding the base copy and
    both open cone directions; the result is compact without boundary when K is.
    """
    w_north, w_south = (Fraction(w) for w in weights)
    if w_north <= 0 or w_south <= 0:
        raise ConfigurationError("suspension weights must be positive")
    return _join(K, "susp", ["north", "south"], [w_north, w_south])


def barycentric_subdivide(K):
    """First barycentric subdivision, stratum structure carried along.

    A flag simplex inherits the stratum of the largest simplex in its flag;
    with components recomputed this reproduces exactly one stratum per
    original stratum, and all skeleta of the subdivision are full.
    """
    new_ids, new_maximal, new_chain, flag_vertex = _subdivide_raw(
        K.vertex_ids, K.all_simplices(), K.simplices(K.n),
        {j: K.skeleton(j) for j in range(K.n)})
    # one barycentre per weighted stratum is read, so the map dies before the assembly
    weighted = [(flag_vertex[s.simplices[0]], K.weights[s.id])
                for s in K.singular_strata() if s.id in K.weights]
    del flag_vertex
    S = _assemble(f"sd({K.name})", K.n, new_ids, new_maximal, new_chain)
    for v, w in weighted:
        S.weights[S._vertex_label[v]] = w
    return S


# ----------------------------------------------------------------- orientation


def check_orientation(K):
    """Coherent signs on the n-simplices as a dict simplex -> ±1, or None
    when obstructed.

    Signs must cancel across every regular (n-1)-simplex with exactly two
    top-dimensional cofaces; boundary faces (one coface) impose nothing.
    More than two cofaces on a regular face is a structure error.
    """
    tops = K.simplices(K.n)
    adj = {s: [] for s in tops}
    for f, incident in K.top_cofaces.items():
        if len(incident) > 2:
            raise StructureError(
                f"regular face {_name_simplex(f, K.vertex_ids)} has "
                f"{len(incident)} top cofaces"
            )
        if len(incident) == 2:
            (s1, e1), (s2, e2) = incident
            adj[s1].append((s2, e1, e2))
            adj[s2].append((s1, e2, e1))
    signs = {}
    for seed in tops:
        if seed in signs:
            continue
        signs[seed] = 1
        queue = [seed]
        while queue:
            s = queue.pop()
            for t, es, et in adj[s]:
                # cancellation: sign_s * es + sign_t * et = 0
                wanted = -signs[s] * es * et
                if t in signs:
                    if signs[t] != wanted:
                        return None
                else:
                    signs[t] = wanted
                    queue.append(t)
    return signs
