"""Finite simplicial complexes with skeleton filtrations and stratum labels.

A FilteredComplex is the combinatorial stand-in for a compact stratified
pseudomanifold: a pure n-dimensional face-closed simplicial complex together
with a chain of closed, full subcomplexes X_0 <= ... <= X_{n-1}. Purity makes
the regular part dense: X_{n-1} holds no n-simplex, so every simplex is a face
of a regular one. A filtration that is not full is repaired by one barycentric
subdivision, after which every skeleton is full. Strata are the connected
components of each difference X_j - X_{j-1}; with full skeleta a level-j
simplex lies in the stratum of any of its level-j vertices, so the components
are those of the level-j vertices joined by level-j edges. Every simplex
carries exactly one stratum label. Codimension-one strata are allowed, and the
top filtration step X_{n-1} may differ from X_{n-2}.

Stratum order is deterministic and follows the face-closure order: `levels`
is keyed, and `strata` listed, in the iteration order of the set that
`_face_closure` fills in one fixed sequence. `singular_strata()` and the
seeded verify suites walk strata in this order, so it is part of the output:
`verify --suite duality` draws its per-stratum values in it.

All homology here is ordinary simplicial homology over the rationals with
exact ranks; the allowable-chain machinery lives in `intersection`.
"""

import json
from collections import Counter
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, combinations, repeat
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


def _facets(simplex):
    if len(simplex) == 1:
        return []
    return [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))]


def _face_closure(simplices):
    """Every face of the given simplices, added to the set depth first: each
    simplex is followed by its facets, s[:-1] first. The set's iteration
    order follows from that sequence of additions, and the order of a
    complex's levels and strata follows from the set's."""
    closed = set()
    add = closed.add
    stack = list(map(tuple, simplices))
    pop, push = stack.pop, stack.extend
    while stack:
        s = pop()
        if s in closed:
            continue
        add(s)
        if len(s) > 1:
            facets = list(combinations(s, len(s) - 1))
            facets.reverse()  # pushed in _facets order, so popped s[:-1] first
            push(facets)
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
    """Immutable after construction; build via load(), build(), or a constructor."""

    def __init__(self, name, n, vertex_ids, simplices, skeleta, levels, strata,
                 label_of, weights):
        """`simplices` is the whole complex in sorted order."""
        self.name = name
        self.n = n
        self.vertex_ids = tuple(vertex_ids)
        by_dim = [[] for _ in range(n + 1)]
        for s in simplices:
            by_dim[len(s) - 1].append(s)
        self._by_dim = by_dim = list(map(tuple, by_dim))
        self._index = [{s: i for i, s in enumerate(level)} for level in by_dim]
        self.skeleta = skeleta
        self.levels = levels
        self.strata = strata
        self.label_of = label_of
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

    def index(self, simplex):
        return self._index[len(simplex) - 1][simplex]

    def singular_strata(self):
        return [s for s in self.strata.values() if s.singular]

    def euler_characteristic(self):
        return sum((-1) ** i * c for i, c in enumerate(self.counts()))

    def is_closed(self):
        """True when every regular (n-1)-simplex has exactly two n-cofaces."""
        if self.n == 0:
            return True
        cofaces = {}
        for s in self._by_dim[self.n]:
            for f in _facets(s):
                cofaces[f] = cofaces.get(f, 0) + 1
        for f in self._by_dim[self.n - 1]:
            if self.levels[f] == self.n and cofaces.get(f, 0) != 2:
                return False
        return True

    # ---------------------------------------------------------------- homology

    def boundary_matrix(self, i):
        """Columns of the simplicial boundary in lexicographic bases."""
        if i in self._boundaries:
            return self._boundaries[i]
        if i <= 0 or i > self.n:
            cols = [{} for _ in self.simplices(i)] if i == 0 else []
        else:
            rows = self._index[i - 1]
            cols = []
            for s in self._by_dim[i]:
                col = {}
                for j in range(len(s)):
                    face = s[:j] + s[j + 1 :]
                    col[rows[face]] = -1 if j % 2 else 1
                cols.append(col)
        self._boundaries[i] = cols
        return cols

    @cached_property
    def regular(self):
        """Per degree, the regular simplices (those not in X_{n-1}) and the
        boundary with its singular faces dropped; and per regular simplex its
        singular-face profile, mapping each singular stratum that it meets to
        the dimension of its largest face in that stratum.

        The profile comes from the vertices alone. Skeleta are full, so the
        largest face of a simplex in a stratum of level j is spanned by its
        vertices of level <= j, and its level-j vertices, joined by its own
        level-j edges, lie in one stratum. Sorted by level, the vertex at
        position d closes a face of dimension d, and the last one of each
        level gives that stratum's entry.
        """
        n, levels = self.n, self.levels
        reg = [[s for s in simplices if levels[s] == n] for simplices in self._by_dim]
        bnd = [[{} for _ in reg[0]]]
        for i in range(1, n + 1):
            # the dropped-face boundary is the full boundary restricted to regular rows
            rows = {self.index(s): j for j, s in enumerate(reg[i - 1])}
            full = self.boundary_matrix(i)
            bnd.append([
                {rows[r]: v for r, v in full[self.index(s)].items() if r in rows} for s in reg[i]
            ])
        level = {v: levels[(v,)] for (v,) in self._by_dim[0]}
        label = {v: self.label_of[(v,)] for v in level}
        profiles = {
            s: {label[v]: d for d, v in enumerate(sorted(s, key=level.__getitem__))
                if level[v] < n}
            for simplices in reg for s in simplices
        }
        return reg, bnd, profiles

    def betti(self):
        """Rational Betti numbers b_0..b_n, exact."""
        bnd = [self.boundary_matrix(i) for i in range(self.n + 1)]
        ranks = [r for r, _ in linalg.chain_ranks(bnd, [range(len(b)) for b in bnd])] + [0]
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


def _stratify(n, closure, top_vertex, vertex_level, vertex_ids):
    """Strata, in the order in which the list `closure` first reaches them,
    and the stratum label of each simplex. `top_vertex[i]` is a highest-level
    vertex of closure[i]. Sorts `closure` in place."""
    # Skeleta are full, so a level-j simplex shares a stratum with each of its
    # level-j vertices, and those vertices are joined by its level-j edges.
    root = list(range(len(vertex_ids)))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for s in closure:
        if len(s) == 2 and vertex_level[s[0]] == vertex_level[s[1]]:
            ra, rb = find(s[0]), find(s[1])
            if ra != rb:
                root[ra] = rb
    root = list(map(find, range(len(root))))
    groups = {r: [] for r in dict.fromkeys(map(root.__getitem__, top_vertex))}
    top_of = partial(max, key=vertex_level.__getitem__)
    closure.sort()
    for s in closure:
        groups[root[top_of(s)]].append(s)
    strata = {}
    label_of = {}
    for r, members in groups.items():
        members = tuple(members)
        dim = max(map(len, members)) - 1
        lvl = vertex_level[r]
        sid = f"s{dim}:" + ".".join(str(vertex_ids[v]) for v in members[0])
        if sid in strata:
            raise SpaceFormatError(f"stratum id collision at {sid}")
        strata[sid] = Stratum(sid, dim, n - dim, lvl < n, lvl, members)
        label_of.update(zip(members, repeat(sid)))
    return strata, label_of


def _subdivide_raw(vertex_ids, closure, top, chain):
    """First barycentric subdivision of the raw data: one new vertex per simplex
    of `closure` in sorted order, and the flags of the maximal simplices `top`
    and of each skeleton. Returns the new vertex ids, maximal simplices and
    skeleta, and the new vertex index of each old simplex."""
    new_index = {s: i for i, s in enumerate(sorted(closure))}
    new_ids = ["(" + "|".join(str(vertex_ids[v]) for v in s) + ")" for s in new_index]
    flags = {}

    def full_chains(simplex):
        # the flags ending at simplex, as sorted tuples; each face's are built once
        out = flags.get(simplex)
        if out is None:
            i = new_index[simplex]
            if len(simplex) == 1:
                out = [(i,)]
            else:
                out = [tuple(sorted(f + (i,)))
                       for face in combinations(simplex, len(simplex) - 1)
                       for f in full_chains(face)]
            flags[simplex] = out
        return out

    new_maximal = sorted(f for s in top for f in full_chains(s))
    new_chain = {j: [f for s in _maximal_of(level) for f in full_chains(s)]
                 for j, level in chain.items()}
    return new_ids, new_maximal, new_chain, new_index


def _assemble(name, n, vertex_ids, maximal, raw_skeleta, weights_doc=None):
    if not maximal:
        raise SpaceFormatError("a complex needs at least one simplex")
    closure = _face_closure(maximal)
    if set(map(len, maximal)) == {n + 1}:
        # simplices of equal length are never faces of one another
        top = sorted(set(maximal))
    else:
        top = _maximal_of(closure)
        widest = max(top, key=len)
        if len(widest) - 1 > n:
            raise SpaceFormatError(
                f"simplex {_name_simplex(widest, vertex_ids)} exceeds dimension {n}"
            )
        for s in top:
            if len(s) - 1 != n:
                raise SpaceFormatError(
                    f"complex not pure: maximal simplex {_name_simplex(s, vertex_ids)} "
                    f"has dimension {len(s) - 1}, expected {n}"
                )
    chain = _complete_skeleta(n, closure, raw_skeleta, vertex_ids)
    vertex_level = [n] * len(vertex_ids)
    for j in reversed(range(n)):
        for s in chain[j]:
            if len(s) == 1:
                vertex_level[s[0]] = j
    closure = list(closure)
    top_vertex = list(map(partial(max, key=vertex_level.__getitem__), closure))
    levels = dict(zip(closure, map(vertex_level.__getitem__, top_vertex)))
    # X_j lies inside {s : levels[s] <= j} and is full exactly when it is all of it
    per_level = Counter(levels.values())
    if any(len(chain[j]) != below
           for j, below in enumerate(accumulate(per_level[j] for j in range(n)))):
        # some X_j is not full; after one barycentric subdivision every one is
        new_ids, new_maximal, new_chain, _ = _subdivide_raw(vertex_ids, closure, top, chain)
        return _assemble(name, n, new_ids, new_maximal, new_chain, weights_doc)
    strata, label_of = _stratify(n, closure, top_vertex, vertex_level, vertex_ids)
    del top_vertex  # freed before the index dicts are built
    K = FilteredComplex(name, n, vertex_ids, closure, chain, levels, strata,
                        label_of, {})
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
            not isinstance(e, list) or len(e) != 2 or e[1] not in (1, -1)
            for e in orientation
        ):
            raise SpaceFormatError("orientation must be a list of [simplex, ±1] pairs")
    return _assemble(name, n, list(vertex_ids), maximal, skeleta, weights)


def to_document(K):
    """Serialize to the space-file schema; loading it back is stable, including
    stratum ids (which weights are keyed by)."""
    skeleta = {}
    for j in range(K.n):
        level = K.skeleta[j]
        if j > 0 and level == K.skeleta[j - 1]:
            continue
        if not level:
            continue
        skeleta[str(j)] = [list(s) for s in _maximal_of(level)]
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
        below = K.skeleta.get(j - 1, frozenset())
        chain[j] = points + list(below) + [s + (a,) for a in apexes for s in below]
    J = _assemble(f"{label}({K.name})", K.n + 1, vertex_ids, maximal, chain)
    for a, w in zip(apexes, apex_weights):
        J.weights[J.label_of[(a,)]] = w
    for s in K.singular_strata():
        if s.id in K.weights:
            J.weights[J.label_of[s.simplices[0]]] = K.weights[s.id]
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
        K.vertex_ids, K.all_simplices(), K.simplices(K.n), K.skeleta)
    S = _assemble(f"sd({K.name})", K.n, new_ids, new_maximal, new_chain)
    for s in K.singular_strata():
        if s.id in K.weights:
            rep = (flag_vertex[s.simplices[0]],)
            S.weights[S.label_of[rep]] = K.weights[s.id]
    return S


# ----------------------------------------------------------------- orientation


def check_orientation(K):
    """Coherent signs on the n-simplices as a dict simplex -> ±1, or None
    when obstructed.

    Signs must cancel across every regular (n-1)-simplex with exactly two
    top-dimensional cofaces; boundary faces (one coface) impose nothing.
    More than two cofaces on a regular face is a structure error.
    """
    n = K.n
    tops = K.simplices(n)
    if n == 0:
        return {s: 1 for s in tops}
    cofaces = {}
    for s in tops:
        for idx, f in enumerate(_facets(s)):
            cofaces.setdefault(f, []).append((s, -1 if idx % 2 else 1))
    adj = {s: [] for s in tops}
    for f, incident in cofaces.items():
        if K.levels[f] != n:
            continue
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
