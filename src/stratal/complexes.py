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

A filtered, weighted space comes in one way, as a space document that
`load` reads: the Path of its file, its JSON text (a str, never taken for a
file name) or the parsed dict. `build` makes an unfiltered, unweighted
complex from a name, vertex ids and maximal simplices, read by the same
document reader (`_read_document`), so both obey one set of rules.

Strata are listed in the order of their least member simplex, members
being sorted vertex-index tuples. The order depends only on the complex and
its filtration, not on how a document lists its simplices.
`singular_strata()` and the seeded verify suites walk strata in this order,
so it is part of the output: `verify --suite duality` draws its per-stratum
values in it.

Construction makes each dimension's sorted simplex list on its own, and
every path ends in one step, `FilteredComplex(...)`, which takes X_{n-1} as
one sorted list and the weights as (vertex, weight) pairs, and groups the
strata. Only a document's weights are written after it: they name strata,
so `_assemble` sets them by stratum id once the strata exist. A document (`load`,
`build`) gets its faces from C-level passes over whole lists
(`_faces_by_dim`): the vertices from one flat pass, the faces of each size
from one `zip` per position subset over the position columns of the
simplices of each length, with the repeats dropped by `dict.fromkeys` and
the list sorted in place, and the top dimension from the maximal simplices
themselves. Each listed simplex is checked by C-level passes in one loop
(`_simplex_list`). A document's skeleta become one map, `_skeleton_levels`,
from each simplex of X_{n-1} to the least j with the simplex in X_j: a
listed skeleton simplex is found in its dimension's list by bisection, and
fullness is tested level by level on the faces of the maximal simplices that
meet a singular vertex, cut down to their singular vertices. A cone or
suspension takes its faces from K: each dimension's list merges K's with the
cones on K's list one dimension down, and the levels and X_{n-1} follow from
K's, so nothing is derived again or tested. A subdivision lists its faces as
the chains of K's simplices, each made once from its top simplex by C-level
`map`s and `zip`s over K's lists (`_chains`), sorts each dimension once, and
takes its levels from the same map, made from K's vertex levels; it is pure
and full by construction, so neither is tested, and a document whose
filtration is not full takes the same subdivision. The complex is never held
as one set, nor as one list of mixed lengths sorted and then split. Python
loops remain over the edges whose ends share a level (they give the
components, joined by union-find), over the few singular simplices, and over
each dimension's first regular simplices, until every regular component has
been met.

A stratum is a descriptor: its id, dimensions, kind and level, with no
member list. Its members are the simplices whose vertex of highest level
lies in it, and X_j is the part of X_{n-1} with no vertex above level j. A
cone, suspension or subdivision hands each weight on with one vertex of its
stratum (`_weighted_vertices`), whose image lies in the stratum that
inherits it. A document names strata, not vertices, so `load` checks its
weights against the assembled strata and sets them by stratum id.

Construction holds each table only while something still reads it. `load`
drops the parsed document, and any file text it read, before the assembly,
and each dimension's dedupe table is freed before the next is built. A
complex stores its simplices by dimension, X_{n-1} as one sorted list, and
each vertex's level and stratum id; the simplex index (read by the column
builder), the singular-face profiles, the top cofaces and the rank-query
table are derived on first read. No constructor, no `to_document` and no
`load` reads them.

One builder, `_columns`, makes every boundary column, and a complex keeps
only the columns that a rank query reads, all in the one table that every
rank query reads (`interior`). The simplices with no singular vertex, the
interior ones, form a subcomplex that every rank query allows. Its pivot
table is reduced once, degree by degree from the top, and only the interior
columns that the pivots of the degree above do not clear are built. The
columns of the near simplices, those with a singular vertex, are built once
and kept beside it. One method, `betti_of`, makes every rank query:
`betti()` allows every simplex, and each perversity's
`intersection.StratifiedChainComplex.homology` passes its allowable
pattern. It reduces only the allowed near columns, against a copy of the
interior pivots, and keeps the answer per pattern (`ih_memo`); the chain
bases read the near columns too. A chain model that leaves out some
simplices (stratified coefficients leave out X_{n-1}, whose positions the
table also lists) deletes their rows as it reduces (`linalg.chain_ranks`),
and never stores a second boundary.
`boundary_matrix` builds every column of a degree afresh on each call, for
the tests and the demos; no command calls it.

A document may ask for at most MAX_SIMPLICES simplices, counted by
arithmetic before they are built: first the upper bound Σ(2^|s| - 1) over
its maximal simplices, before `_faces_by_dim`, and, when the filtration is
not full, the exact size Σ_i |faces_i| · Fubini(i + 1) of the subdivision
that repairs it, before `_subdivide`. A constructor (`cone`, `suspension`,
`barycentric_subdivide`) is bounded by the complex it is given.

All homology here is ordinary simplicial homology over the rationals with
exact ranks; the allowable-chain machinery lives in `intersection`.
"""

from bisect import bisect_left
from collections import Counter, deque
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain, combinations, filterfalse, groupby
from math import comb
from pathlib import Path

from . import linalg
from .errors import ConfigurationError, SpaceFormatError, StructureError
from .perversity import weights_to_json
from .rationals import format_rational, parse_int, parse_weight, read_json, read_text

# The most simplices a space document may ask for. At about this size a
# full 19-simplex (1,048,575 faces) loaded in 1.05 s at 160 MB peak RSS, and
# a 7-simplex whose filtration is not full, which a subdivision makes into
# 1,091,669 simplices, in 1.3 s at 204 MB (Python 3.11, x86-64); the largest
# benchmark document, sd²(susp t2), has 70,394 simplices and the upper bound
# 16,128 · 15 = 241,920.
MAX_SIMPLICES = 1_000_000


class Stratum:
    """One stratum, by its id, dimension, codimension, link dimension, kind
    and level. It keeps no member list: a simplex of its complex is a
    member of the stratum that holds the simplex's vertices of highest
    level, and lies in X_j for j that level and for no lower j. Those
    vertices lie in one stratum, since the edges between them have their
    level too."""

    __slots__ = ("id", "dim", "codim", "link_dim", "singular", "level")

    def __init__(self, sid, dim, codim, singular, level):
        self.id = sid
        self.dim = dim
        self.codim = codim
        self.link_dim = codim - 1
        self.singular = singular
        self.level = level

    def __repr__(self):
        kind = "singular" if self.singular else "regular"
        return f"<Stratum {self.id} dim={self.dim} codim={self.codim} {kind}>"


def _faces_by_dim(simplices):
    """Every face of the given sorted tuples, as one sorted list per
    dimension up to the widest of them (none for no simplices).

    The vertices come from one flat pass, and the widest faces are the
    widest simplices themselves, kept rather than copied. The simplices are
    grouped by length, and each group is held as its position columns. The
    faces of each size k in between are one C-level `zip` over the columns
    of each k-subset of a group's positions; `dict.fromkeys` drops the
    repeats and the list is sorted in place. The simplices are sorted
    first, so each zip yields the faces in long ascending runs, which the
    sort merges and which set order would not give. Each dict is freed
    before the next is built."""
    simplices = sorted(simplices)
    if not simplices:
        return []
    by_dim = [list(zip(sorted(set(chain.from_iterable(simplices)))))]
    # the sort by length is stable, so each group stays sorted
    groups = [(length, list(group)) for length, group in groupby(sorted(simplices, key=len), len)]
    del simplices
    widest, top = groups[-1]
    columns = [(length, list(zip(*group)).__getitem__) for length, group in groups]
    for k in range(2, widest):
        faces = list(dict.fromkeys(chain.from_iterable(
            zip(*map(at, p)) for length, at in columns if length >= k
            for p in combinations(range(length), k))))
        faces.sort()
        by_dim.append(faces)
    if widest > 1:
        by_dim.append(list(dict.fromkeys(top)))
    return by_dim


def _maximal_of(closed):
    # in a face-closed collection every non-maximal simplex is a facet of another
    facets = set()
    for s in closed:
        facets.update(combinations(s, len(s) - 1))
    return sorted(filterfalse(facets.__contains__, closed))


def _name_simplex(simplex, vertex_ids):
    return "(" + ",".join(str(vertex_ids[v]) for v in simplex) + ")"


class FilteredComplex:
    """Build via load(), build(), or a constructor.

    Stored: the simplices by dimension, X_{n-1} as one sorted list, each
    vertex's level and stratum id, the strata and the weights. The simplex
    index `_index`, `profile_classes`, `interior`, `top_cofaces` and
    `_orientation` are cached properties, derived on first read. The only
    boundary columns kept are those of the rank-query table (`interior`):
    the near columns and the interior pivot tables; `boundary_matrix` builds
    its columns afresh.
    `ih_memo` maps an allowable pattern to its Betti numbers; `betti_of`
    alone fills and reads it.
    """

    def __init__(self, name, n, vertex_ids, by_dim, vertex_level, singular, weighted):
        """`by_dim[i]`: the i-simplices, sorted; per vertex v, its level;
        `singular`: X_{n-1}, sorted; `weighted`: (vertex, weight) pairs, each
        weighting the stratum of its vertex. The caller has made the complex
        pure and its skeleta full."""
        self.name = name
        self.n = n
        self.vertex_ids = tuple(vertex_ids)
        self._by_dim = by_dim
        self._vertex_level = vertex_level
        self._singular = singular
        self.strata, self._vertex_label = _stratify(n, by_dim, singular, vertex_level,
                                                    self.vertex_ids)
        self.weights = {self._vertex_label[v]: w for v, w in weighted}
        self.ih_memo = {}

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

    def singular_strata(self):
        return [s for s in self.strata.values() if s.singular]

    def _weighted_vertices(self):
        """Each weight paired with a vertex of its stratum, as a constructor
        hands it on: the image of that vertex lies in the stratum that
        inherits the weight."""
        return [(self._vertex_label.index(sid), w) for sid, w in self.weights.items()]

    def skeleton(self, j):
        """X_j: X_{n-1} for j = n - 1, the whole complex above it, and below
        it the simplices of X_{n-1} with no vertex above level j (skeleta
        are full)."""
        if j >= self.n - 1:
            return frozenset(self._singular if j < self.n else self.all_simplices())
        low = {v for v, lvl in enumerate(self._vertex_level) if lvl <= j}
        return frozenset(filter(low.issuperset, self._singular))

    def euler_characteristic(self):
        return sum((-1) ** i * c for i, c in enumerate(self.counts()))

    def is_closed(self):
        """True when every regular (n-1)-simplex has exactly two n-cofaces.

        A regular face with more than two is not a boundary face: it raises
        StructureError (see `top_cofaces`)."""
        return all(len(incident) == 2 for incident in self.top_cofaces.values())

    # ---------------------------------------------------------------- homology

    def boundary_matrix(self, i):
        """Columns of the simplicial boundary in lexicographic bases, built
        afresh on every call (`_columns`): the complex keeps only the
        columns of its rank-query table (`interior`)."""
        return self._columns(i, range(len(self._by_dim[i]))) if 0 <= i <= self.n else []

    def _columns(self, i, indices):
        """The boundary columns of the i-simplices at `indices`, in order,
        each a new dict: every boundary column is built here."""
        simplices = self._by_dim[i]
        # the indices are sorted and distinct: as many as the simplices are all of them
        if len(indices) < len(simplices):
            simplices = map(simplices.__getitem__, indices)
        if not i:
            return [{} for _ in simplices]
        face = self._index.__getitem__
        # combinations yields first the facet without vertex i, last the
        # one without vertex 0, whose sign is (-1)^0
        signs = [(-1) ** (i - k) for k in range(i + 1)]
        return [dict(zip(map(face, combinations(s, i)), signs)) for s in simplices]

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
        in each; read by `is_closed`, `describe` and `check_orientation`. A
        regular face with more than two cofaces is a StructureError, raised
        on every read."""
        singular = {v for v, j in enumerate(self._vertex_level) if j < self.n}
        cofaces = {}
        for s in self.simplices(self.n):
            for idx in range(len(s)):
                f = s[:idx] + s[idx + 1:]
                if not singular.issuperset(f):
                    cofaces.setdefault(f, []).append((s, -1 if idx % 2 else 1))
        for f, incident in cofaces.items():
            if len(incident) > 2:
                raise StructureError(
                    f"regular face {_name_simplex(f, self.vertex_ids)} has "
                    f"{len(incident)} top cofaces"
                )
        return cofaces

    @cached_property
    def _orientation(self):
        """The signs `check_orientation` returns, or None, decided on first
        read: each component of top simplices across two-coface regular
        faces is signed from its least simplex."""
        tops = self.simplices(self.n)
        adj = {s: [] for s in tops}
        for incident in self.top_cofaces.values():
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

    @cached_property
    def interior(self):
        """The one table that a rank query reads: per degree i, (near,
        pivots, columns, singular). `near` lists, in order, the indices of
        the i-simplices with a singular vertex; `pivots` is the pivot table
        of the boundary columns of the others, the interior simplices,
        reduced from the top degree down (`linalg.subcomplex_pivots`), of
        which only the columns that the pivots of the degree above do not
        clear are built; `columns` holds the boundary columns of the near
        simplices, each built once, in a list as long as `simplices(i)` with
        None at each interior simplex and throughout degree 0, whose
        boundary is zero and of which only the length is read; `singular`
        lists, in order, the near simplices that lie in X_{n-1}, those whose
        profile is None in `profile_classes`.

        An interior simplex has the empty profile, the `()` class of
        `profile_classes`. All of its faces are interior, so none of them is
        in X_{n-1}, and it is allowable in every degree for every perversity.
        So the table serves every rank query (`betti_of`) alike, and each
        reduces only its allowed near columns against a copy of the pivots
        (`linalg.chain_ranks`); the chain bases
        (`intersection.StratifiedChainComplex.bases`) read its near columns
        and X_{n-1} positions.
        """
        near, inner, singular, columns = [], [], [], []
        for i, (profiles, of) in enumerate(self.profile_classes):
            k = profiles.index({}) if {} in profiles else None
            near.append([j for j, c in enumerate(of) if c != k])
            inner.append([j for j, c in enumerate(of) if c == k])
            singular.append([j for j in near[-1] if profiles[of[j]] is None])
            columns.append([None] * len(of))
            if i:
                deque(map(columns[i].__setitem__, near[i], self._columns(i, near[i])), maxlen=0)
        return list(zip(near, linalg.subcomplex_pivots(self._columns, inner), columns, singular))

    def betti(self):
        """Rational Betti numbers b_0..b_n, exact: every simplex is allowed
        and none is dropped."""
        return self.betti_of(tuple((True,) * len(profiles) for profiles, _ in self.profile_classes))

    def betti_of(self, ok):
        """Betti numbers of the chains that `ok` allows, exact: `ok[i][c]`
        says whether profile class c of degree i (`profile_classes`) is
        allowed. Either every class is allowed, as `betti()` asks, or no
        class of X_{n-1} simplices (profile None) is, as a perversity's
        stratified coefficients ask, and then their rows are dropped.

        Every rank query of the complex comes here. With ∂_i the boundary
        with the dropped rows deleted, A_i the allowed columns and B_{i-1}
        the other rows, the chain space ker ∂_i[B_{i-1}, A_i] has dimension
        |A_i| - r_bad,i and the boundary on it rank r_all,i - r_bad,i, for
        `linalg.chain_ranks`' (r_all, r_bad) per degree, so
        b_i = |A_i| - r_all,i - (r_all,i+1 - r_bad,i+1). Only the near
        simplices are tested and reduced, against the interior pivots of
        the one table (`interior`). The answer is kept in `ih_memo` under
        `ok` and returned from there for any later query with the same
        pattern."""
        if ok in self.ih_memo:
            return self.ih_memo[ok]
        near, _, columns, singular = zip(*self.interior)
        allow = [[j for j in js if allowed[of[j]]]
                 for allowed, (_, of), js in zip(ok, self.profile_classes, near)]
        ranks = linalg.chain_ranks(columns, allow, self.interior, singular)
        above = [r_all - r_bad for r_all, r_bad in ranks[1:]] + [0]
        self.ih_memo[ok] = tuple(
            len(of) - len(js) + len(a) - r_all - up for (_, of), js, a, (r_all, _), up
            in zip(self.profile_classes, near, allow, ranks, above))
        return self.ih_memo[ok]

    # ----------------------------------------------------------------- reports

    def describe(self):
        # a simplex lies in the stratum of its top vertex
        top = partial(max, key=self._vertex_level.__getitem__)
        members = Counter(map(self._vertex_label.__getitem__, map(top, self.all_simplices())))
        strata = []
        for sid in sorted(self.strata):
            s = self.strata[sid]
            entry = {
                "id": s.id,
                "dim": s.dim,
                "codim": s.codim,
                "link_dim": s.link_dim,
                "singular": s.singular,
                "simplex_count": members[sid],
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


def _skeleton_levels(n, by_dim, raw_skeleta, vertex_ids):
    """Validate the filtration chain X_0 <= ... <= X_{n-1}, whose listed
    simplices are sorted tuples, and map each simplex of X_{n-1} to the
    least j with the simplex in X_j. `by_dim` is the complex, one sorted
    list per dimension, in which each listed simplex is looked up."""
    level = {}
    prev = frozenset()
    given = {parse_int(j, "skeleton level"): v for j, v in raw_skeleta.items()}
    if len(given) < len(raw_skeleta):  # 0 and "0" name one level
        raise SpaceFormatError("skeleta give one level twice")
    for j in sorted(given):
        if j < 0 or j > n - 1:
            raise SpaceFormatError(f"skeleton level {j} outside 0..{n - 1}")
    # a level that is not listed repeats the one below it
    for j in sorted(given):
        listed = given[j]
        for s in listed:
            known = by_dim[len(s) - 1] if len(s) <= len(by_dim) else ()
            i = bisect_left(known, s)
            if i == len(known) or known[i] != s:
                raise SpaceFormatError(
                    f"skeleton {j} lists unknown simplex {_name_simplex(s, vertex_ids)}"
                )
        # a face is never wider than the listed simplex it comes from
        widest = max(listed, key=len, default=())
        if len(widest) - 1 > j:
            raise SpaceFormatError(
                f"skeleton {j} contains {_name_simplex(widest, vertex_ids)} "
                f"of dimension {len(widest) - 1}"
            )
        closed = frozenset(chain.from_iterable(_faces_by_dim(listed)))
        if not prev <= closed:
            missing = next(iter(prev - closed))
            raise SpaceFormatError(
                f"skeleta not nested: X_{j} lacks {_name_simplex(missing, vertex_ids)}"
            )
        level.update(dict.fromkeys(closed - prev, j))
        prev = closed
    return level


def _escaped_id(vid):
    return str(vid).replace("\\", "\\\\").replace(".", "\\.")


def _stratify(n, by_dim, singular, vertex_level, vertex_ids):
    """Strata, ordered by their least member, and each vertex's stratum id
    (None off the complex). `by_dim` holds the complex's sorted simplices
    per dimension, `singular` X_{n-1}, sorted. A stratum's id is `s{dim}:`
    and the ids of its least member's vertices joined by ".", with each
    backslash and "." in an id escaped by a backslash; strata are disjoint,
    so their least members, and so their ids, differ.

    Skeleta are full, so a level-j simplex shares a stratum with each of its
    level-j vertices, and those vertices are joined by its level-j edges.
    One pass over the few singular simplices, in order, gives each singular
    stratum its least member and its dimension. A regular stratum holds an
    n-simplex and its faces through a regular vertex, so it has a simplex in
    every dimension, and its least member is the least of the first one in
    each; each dimension is scanned only until every regular component has
    been met."""
    # union-find with path halving; a vertex's parent is never above it
    root = list(range(len(vertex_ids)))
    # edges whose ends share a level: a few singular ones, and the regular
    # ones, which are the edges with no singular vertex
    singular_vertices = {s[0] for s in singular if len(s) == 1}
    same_level = [s for s in singular if len(s) == 2 and vertex_level[s[0]] == vertex_level[s[1]]]
    edges = by_dim[1] if n else ()
    for a, b in chain(same_level, filter(singular_vertices.isdisjoint, edges)):
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a < b:
            root[b] = a
        elif b < a:
            root[a] = b
    # in increasing order each parent already points at its root
    for v, parent in enumerate(root):
        root[v] = root[parent]
    top_of = partial(max, key=vertex_level.__getitem__)

    least, dim = {}, {}
    for s in singular:
        r = root[top_of(s)]
        least.setdefault(r, s)
        dim[r] = max(dim.get(r, 0), len(s) - 1)
    roots = {root[v] for (v,) in by_dim[0] if vertex_level[v] == n}
    for level in by_dim:
        unseen = set(roots)
        for s in filterfalse(singular_vertices.issuperset, level):
            r = root[top_of(s)]
            if r in unseen:
                least[r] = min(least.get(r, s), s)
                unseen.remove(r)
                if not unseen:
                    break
    strata = {}
    sid_of = {}
    for r in sorted(least, key=least.__getitem__):
        lvl = vertex_level[r]
        # the complex is pure, so every regular stratum holds an n-simplex
        d = dim.get(r, n)
        sid = f"s{d}:" + ".".join(_escaped_id(vertex_ids[v]) for v in least[r])
        strata[sid] = Stratum(sid, d, n - d, lvl < n, lvl)
        sid_of[r] = sid
    return strata, list(map(sid_of.get, root))


def _barycentre_ids(vertex_ids, simplices):
    """One id per simplex: its vertex ids joined by "|" in parentheses. A
    repeated id, and only a repeat, is made fresh by `_fresh_id`, which
    avoids every id given, so no first occurrence moves."""
    ids = ["(" + "|".join(str(vertex_ids[v]) for v in s) + ")" for s in simplices]
    taken = set(ids)
    if len(taken) < len(ids):
        seen = set()
        for k, vid in enumerate(ids):
            if vid in seen:
                ids[k] = _fresh_id(taken, vid)
            seen.add(vid)
    return ids


def _chain_shapes(d):
    """The chains S_0 < ... < S_k = {0..d} of nonempty position sets of a
    d-simplex, each as its sets' sorted position tuples in lexicographic
    order, listed by length k + 1. They are the ordered partitions of d + 1
    positions, as many as the faces of one d-simplex's subdivision that
    contain its barycentre, so they are built once per subdivision and never
    kept."""
    chains = [(tuple(range(d + 1)),)]  # each from its least set up
    by_length = []
    while chains:
        by_length.append([tuple(sorted(c)) for c in chains])
        chains = [(least,) + c for c in chains for r in range(1, len(c[0]))
                  for least in combinations(c[0], r)]
    return by_length


def _chains(by_dim, new_index, shapes):
    """The faces of the subdivision of a face-closed set of simplices, whose
    d-simplices are `by_dim[d]`: per dimension k, unsorted, the chains of
    k + 1 of its simplices as tuples of barycentre indices `new_index`.
    `shapes[d]` is `_chain_shapes(d)`, built once per subdivision.

    A chain ends at one simplex s, so each face is made once, from its top
    simplex. `new_index` numbers simplices in lexicographic order, which a
    restriction to positions keeps, so the sorted index tuples of the chains
    ending at every d-simplex share the shapes `_chain_shapes(d)`: one
    C-level column of indices per nonempty position set, over all the
    d-simplices, and one `zip` over each shape's columns give them."""
    out = [[] for _ in by_dim]
    for d, simplices in enumerate(by_dim):
        if not simplices:
            continue
        at = list(zip(*simplices)).__getitem__  # the vertices at each position
        column = {p: list(map(new_index.__getitem__, zip(*map(at, p))))
                  for r in range(1, d + 2) for p in combinations(range(d + 1), r)}
        for faces, shapes_k in zip(out, shapes[d]):
            for shape in shapes_k:
                faces.extend(zip(*map(column.__getitem__, shape)))
    return out


def _subdivide(name, n, vertex_ids, by_dim, level, weighted):
    """First barycentric subdivision of a pure complex, whose sorted
    simplices per dimension are `by_dim` and whose X_{n-1} is the keys of
    `level`, which maps each of them to the least j with it in X_j: one new
    vertex per simplex in lexicographic order, at the level of its simplex
    (n off X_{n-1}), and as faces the chains of simplices (`_chains`), each
    dimension sorted once. The subdivision is pure, and each X_j, the chains
    within the old X_j, is full, so neither is tested. `weighted` holds
    (old vertex, weight) pairs; a vertex is its own barycentre, so it lies
    in the stratum that inherits its stratum's weight."""
    new_index = {s: i for i, s in enumerate(sorted(chain.from_iterable(by_dim)))}
    new_ids = _barycentre_ids(vertex_ids, new_index)
    vertex_level = [n] * len(new_ids)
    for s, j in level.items():
        vertex_level[new_index[s]] = j
    weighted = [(new_index[(v,)], w) for v, w in weighted]
    # X_{n-1} and the whole complex share the shapes, which die before the assembly
    shapes = list(map(_chain_shapes, range(n + 1)))
    singular = sorted(chain.from_iterable(_chains(
        [[s for s in level if len(s) == d + 1] for d in range(n)], new_index, shapes)))
    faces = _chains(by_dim, new_index, shapes)
    # only the weighted barycentres were read, so the index dies before the assembly
    del new_index, shapes
    # each list is freed once its tuple is made
    for k, faces_k in enumerate(faces):
        faces_k.sort()
        faces[k] = tuple(faces_k)
    return FilteredComplex(name, n, new_ids, faces, vertex_level, singular, weighted)


def _assemble(name, n, vertex_ids, maximal, raw_skeleta, weights_doc):
    if not maximal:
        raise SpaceFormatError("a complex needs at least one simplex")
    # checked before the faces, which number 2^k - 1 for each k-vertex simplex
    widest = max(map(len, maximal))
    if widest - 1 > n:
        first = min(s for s in maximal if len(s) == widest)
        raise SpaceFormatError(f"simplex {_name_simplex(first, vertex_ids)} exceeds dimension {n}")
    # the sum is taken only when its O(1) upper bound is above the limit
    if (len(maximal) * ((1 << widest) - 1) > MAX_SIMPLICES
            and (faces := sum((1 << len(s)) - 1 for s in maximal)) > MAX_SIMPLICES):
        raise SpaceFormatError(f"the maximal simplices have up to {faces} faces, "
                               f"above the bound of {MAX_SIMPLICES} simplices")
    # one sorted list per dimension up to the widest simplex, never up to n,
    # which an impure document may declare as large as it likes
    by_dim = _faces_by_dim(maximal)
    # simplices of equal length are never faces of one another
    if set(map(len, maximal)) != {n + 1}:
        maximal = _maximal_of(list(chain.from_iterable(by_dim)))
        for s in maximal:
            if len(s) - 1 != n:
                raise SpaceFormatError(
                    f"complex not pure: maximal simplex {_name_simplex(s, vertex_ids)} "
                    f"has dimension {len(s) - 1}, expected {n}"
                )
    level = _skeleton_levels(n, by_dim, raw_skeleta, vertex_ids)
    vertex_level = [n] * len(vertex_ids)
    for s, j in level.items():
        if len(s) == 1:
            vertex_level[s[0]] = j
    # X_j holds only simplices whose vertices all lie in it, and is full when
    # it holds all of them: the faces of the maximal simplices that meet a
    # singular vertex, cut down to their singular vertices (a set as small
    # as the singular part), whose highest vertex has level <= j. So every
    # X_j is full when, level by level, as many simplices of X_{n-1} have a
    # given level as faces have that highest vertex level
    singular_vertices = {v for v, lvl in enumerate(vertex_level) if lvl < n}
    cut = set(map(tuple, map(partial(filter, singular_vertices.__contains__),
                             filterfalse(singular_vertices.isdisjoint, maximal))))
    at_level = [0] * n
    for face in chain.from_iterable(_faces_by_dim(cut)):
        at_level[max(map(vertex_level.__getitem__, face))] += 1
    levels = list(level.values())
    if at_level == list(map(levels.count, range(n))):
        K = FilteredComplex(name, n, vertex_ids, list(map(tuple, by_dim)), vertex_level,
                            sorted(level), ())
    else:
        # after one barycentric subdivision every skeleton is full; it has one
        # face per chain of faces ending at each i-simplex, as many as the
        # ordered partitions of i + 1 vertices (the Fubini number a(i + 1))
        fubini = [1]
        for m in range(1, len(by_dim) + 1):
            fubini.append(sum(comb(m, j) * fubini[m - j] for j in range(1, m + 1)))
        size = sum(len(faces) * fubini[i + 1] for i, faces in enumerate(by_dim))
        if size > MAX_SIMPLICES:
            raise SpaceFormatError(f"subdividing the filtration to make it full gives {size} "
                                   f"simplices, above the bound of {MAX_SIMPLICES} simplices")
        K = _subdivide(name, n, vertex_ids, by_dim, level, ())
    if weights_doc:
        singular_ids = {s.id for s in K.singular_strata()}
        for sid, text in weights_doc.items():
            if sid not in singular_ids:
                raise SpaceFormatError(
                    f"weight references unknown singular stratum {sid!r}; "
                    f"known: {sorted(singular_ids)}"
                )
            K.weights[sid] = parse_weight(text, f"weight for {sid!r}", SpaceFormatError)
    return K


def build(name, vertex_ids, maximal):
    """An unfiltered, unweighted FilteredComplex of the dimension of its
    widest maximal simplex, read as the space document of these fields
    (`_read_document`); simplices may be tuples. A filtered or weighted
    space comes in through `load`."""
    maximal = list(maximal)
    return _assemble(*_read_document({
        "name": name, "dimension": max(map(len, maximal), default=1) - 1,
        "vertices": list(vertex_ids), "maximal_simplices": maximal}))


def _simplex_list(value, field, nverts):
    """Simplices of a document field as sorted tuples; each must be a
    non-empty list or tuple of distinct vertex indices below nverts.

    One loop checks each simplex by C-level passes in rule order: its
    vertex types first, so that `sorted` and `set` see only integers, then
    its range from the ends of its sorted tuple, then its repeats. So a
    simplex that breaks the type or range rule is named as bad even when it
    also repeats a vertex, and the first simplex to break any rule is
    named."""
    if not isinstance(value, list):
        raise SpaceFormatError(f"{field} must be a list of simplices")
    all_int = {int}.issuperset
    out = []
    for s in value:
        if (not isinstance(s, (list, tuple)) or not s or not all_int(map(type, s))
                or (t := tuple(sorted(s)))[0] < 0 or t[-1] >= nverts):
            raise SpaceFormatError(f"bad simplex {s!r} in {field}")
        if len(set(t)) != len(t):
            raise SpaceFormatError(f"repeated vertex in simplex {s!r}")
        out.append(t)
    return out


def load(source):
    """Load a space document into a FilteredComplex: `source` is the Path of
    its file, its JSON text (a str) or the parsed dict. Every error in a
    file names the file once: a read error names it already, and any other
    is prefixed with it."""
    # the parsed document dies with `_read_document`'s frame and the file
    # text just after, both before the assembly; a dict passed in is only read
    if not isinstance(source, Path):
        return _assemble(*_read_document(source))
    text = read_text(source, "space file", SpaceFormatError)
    try:
        fields = _read_document(text)
        del text
        return _assemble(*fields)
    except SpaceFormatError as exc:
        raise SpaceFormatError(f"space file {source}: {exc}") from None


# every key a space document may hold, each read by `_read_document`: any
# other key, such as a misspelled "skeleta", would load a different space
_FIELDS = ("name", "dimension", "vertices", "maximal_simplices", "skeleta", "weights")


def _read_document(source):
    """The fields of a space document, each checked by the document rules,
    as `_assemble`'s arguments, simplices as sorted tuples. `source` is
    JSON text or the parsed dict; `load` and `build` both read through it."""
    doc = read_json(source, SpaceFormatError) if isinstance(source, str) else source
    if not isinstance(doc, dict):
        raise SpaceFormatError("space document must be a JSON object")
    for key in doc:
        if key not in _FIELDS:
            raise SpaceFormatError(f"space document key {key!r} is not one of {', '.join(_FIELDS)}")
    for key in ("dimension", "vertices", "maximal_simplices"):
        if key not in doc:
            raise SpaceFormatError(f"space document lacks {key!r}")
    name, n, vertex_ids = doc.get("name", "unnamed"), doc["dimension"], doc["vertices"]
    if not isinstance(name, str):
        raise SpaceFormatError("name must be a string")
    if type(n) is not int or n < 0:
        raise SpaceFormatError("dimension must be a non-negative integer")
    if (not isinstance(vertex_ids, list)
            or not {int, str}.issuperset(map(type, vertex_ids))
            or len(set(map(str, vertex_ids))) != len(vertex_ids)):
        raise SpaceFormatError("vertices must be a list of unique ids")
    maximal = _simplex_list(doc["maximal_simplices"], "maximal_simplices", len(vertex_ids))
    skeleta, weights = doc.get("skeleta", {}), doc.get("weights", {})
    if not isinstance(skeleta, dict) or not isinstance(weights, dict):
        raise SpaceFormatError("skeleta and weights must be JSON objects")
    skeleta = {j: _simplex_list(level, f"skeleton {j}", len(vertex_ids))
               for j, level in skeleta.items()}
    return name, n, vertex_ids, maximal, skeleta, weights


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


def _fresh_id(taken, wanted):
    """`wanted`, primed (') until no id in the set `taken` has it; the id
    returned joins `taken`."""
    while wanted in taken:
        wanted += "'"
    taken.add(wanted)
    return wanted


def _join(K, label, apex_names, apex_weights):
    """K joined with one new apex per name: a cone over K for each apex, the
    cones glued along K. Each apex becomes a singular stratum with its weight;
    every stratum of K turns into its joined stratum (same codimension,
    weight inherited).

    Every list follows from K's, which is pure and full, so none is derived
    again and nothing is tested. The apexes take the largest vertex indices,
    so the vertices are K's followed by the apexes, and the i-simplices merge
    K's with the cones s + (a,) on its (i-1)-simplices, which listed by s
    and then by apex are sorted; the top ones are cones alone. Each vertex
    of K moves up one level and the apexes make X_0, so X_{n-1} is the
    apexes, K's X_{n-2} and the cones on it, and the join is full."""
    taken = set(map(str, K.vertex_ids))
    vertex_ids = [*K.vertex_ids, *(_fresh_id(taken, wanted) for wanted in apex_names)]
    apexes = range(len(K.vertex_ids), len(vertex_ids))
    tips = tuple((a,) for a in apexes)

    def cones(simplices):
        return [s + t for s in simplices for t in tips]

    faces = K._by_dim
    by_dim = [faces[0] + tips]
    by_dim += [tuple(sorted(chain(faces[i], cones(faces[i - 1])))) for i in range(1, K.n + 1)]
    by_dim.append(tuple(cones(faces[K.n])))
    vertex_level = [j + 1 for j in K._vertex_level] + [0] * len(tips)
    # each stratum of K lies in one stratum of J, as do its vertices
    return FilteredComplex(f"{label}({K.name})", K.n + 1, vertex_ids, by_dim, vertex_level,
                           sorted(chain(tips, K._singular, cones(K._singular))),
                           [*zip(apexes, apex_weights), *K._weighted_vertices()])


def cone(K, weight=Fraction(1)):
    """Closed simplicial cone: a new apex joined to every simplex of K.

    The apex becomes a singular stratum with link dimension dim(K) carrying
    `weight`; every stratum of K turns into its coned stratum (same
    codimension, weight inherited); base simplices land in the coned strata.
    """
    return _join(K, "cone", ["apex"], [parse_weight(weight, "cone weight")])


def suspension(K, weights=(Fraction(1), Fraction(1))):
    """Two cones glued along K; apex strata get the given (north, south) weights.

    Each stratum Y of K yields one suspended stratum holding the base copy and
    both open cone directions; the result is compact without boundary when K is.
    """
    if not isinstance(weights, (tuple, list)) or len(weights) != 2:
        raise ConfigurationError(
            f"suspension weights must be a (north, south) pair, got {weights!r}")
    w_north, w_south = (parse_weight(w, "suspension weights") for w in weights)
    return _join(K, "susp", ["north", "south"], [w_north, w_south])


def barycentric_subdivide(K):
    """First barycentric subdivision, stratum structure carried along.

    A flag simplex inherits the stratum of the largest simplex in its flag;
    with components recomputed this reproduces exactly one stratum per
    original stratum, and all skeleta of the subdivision are full.
    """
    level_of = K._vertex_level.__getitem__
    return _subdivide(f"sd({K.name})", K.n, K.vertex_ids, K._by_dim,
                      {s: max(map(level_of, s)) for s in K._singular}, K._weighted_vertices())


# ----------------------------------------------------------------- orientation


def check_orientation(K):
    """Coherent signs on the n-simplices as a dict simplex -> ±1, or None
    when obstructed.

    Signs must cancel across every regular (n-1)-simplex with exactly two
    top-dimensional cofaces; boundary faces (one coface) impose nothing.
    More than two cofaces on a regular face is a structure error. The signs
    are found once per complex; each call returns a new dict.
    """
    signs = K._orientation
    return None if signs is None else dict(signs)

