"""Sparse exact linear algebra over the rationals.

Matrices are stored column-wise: a column is a dict {row_index: value} whose
values are ints or Fractions; zeros are never stored.

All elimination goes through one fraction-free integer column reduction,
`_reduce`. It takes integer columns with no stored zero (`col_primitive`
makes them from rational ones, and keeps their entries small) and reduces
each against the earlier pivot columns at the row that `pivot` picks, until
its pivot row is new or the column vanishes. A column whose pivot row is new
at once is stored as given; a column is copied just before its first update,
so the inputs never change, and a stored pivot column is never updated
again. So a pivot table can be shared: `_reduce` may start from a copy of
one (a dict row -> column) whose columns it only reads. A short working
column finds its pivot row by a scan; one that fills in past `_HEAP_AFTER`
entries keeps its rows in a heap (`heapq`, imported only then), pops the
rows that have left it and pushes each row that a step adds, so a step
costs the length of the pivot column it subtracts, not of the working
column (heap-held pivot columns, as in Bauer, Kerber, Reininghaus & Wagner,
*PHAT*, J. Symb. Comput. 2017). The heap changes how the pivot row is
found, never which row, so every caller does the same column operations
either way. Where the pivot entry divides the entry being eliminated, the
pivot column is subtracted in place; otherwise both are scaled to a common
multiple. With `track` it also carries the column's
combination of the inputs, so the columns that vanish give the kernel.
Everything else derives from its pivot table (pivot row -> column), its
combinations and its zero combinations:

- `rank` counts the pivots and `kernel` normalizes the zero combinations,
  taking them from the primitive columns back to its own inputs. Both
  pivot on the lowest row (`max`); on the boundaries of sd(susp(susp t2))
  that makes `rank` about three times faster than the topmost row does.
- `chain_ranks` takes what `_reduce` takes, integer columns with no stored
  zero, so a simplicial boundary enters as it is; a caller with rational
  entries maps `col_primitive` over its columns first. It reduces each
  degree of a chain complex once, from the top degree down, and skips the
  columns that the degree above has already shown to be cycles ("clearing":
  Chen & Kerber, *Persistent Homology Computation with a Twist*, EuroCG
  2011). When some row is not allowed, the non-allowable rows are shifted
  below the allowed rows, which keep their indices, so the pivots that fall
  in them count the rank of that row block too; a column that meets none of
  them enters as it is. Given a table from `subcomplex_pivots`, each degree
  starts from a copy of the pivot table of a subcomplex whose rows every
  caller allows, reduced once per complex, and reduces only the other
  columns.
- `rcef` pivots on the topmost row (`min`), because its canonical form is
  keyed by each column's topmost entry. It divides each pivot column by its
  pivot entry and back-substitutes in Fractions.
- `project_onto_span` solves the normal equations of the pivot columns B
  over the integers: v scaled by the lcm m of its denominators is the
  integer w, and the single zero combination (x, t) of [BᵀB | Bᵀw] gives
  the projection B(-x)/(t·m), with one division per entry.
"""

from fractions import Fraction
from itertools import islice
from math import gcd, lcm

# Entries larger than this trigger a gcd renormalization during elimination.
_GROWTH_LIMIT = 1 << 128
# A working column longer than this finds its pivot row through a heap. A
# boundary column has at most n + 1 entries and most reduce in a few steps,
# where a C-level `max` over the column is cheaper than keeping a heap; a
# column that fills in (a fundamental cycle grows to hundreds of entries)
# would otherwise be scanned whole on every step. On the perfbench ih-ladder
# queries any cutoff from 32 to 512 takes the same time; at 16 columns of
# 17-24 entries pay for heaps they do not need.
_HEAP_AFTER = 128


def col_primitive(col):
    """Primitive integer copy of a column: denominators cleared, gcd divided
    out, zeros dropped.

    The result is always a fresh dict, never `col` itself, so a caller may
    change it. An integer column with gcd 1 and no stored zero is copied at
    C level; Fraction entries make `gcd` raise and have their denominators
    cleared first.
    """
    try:
        g = gcd(*col.values())
    except TypeError:
        mult = lcm(*(v.denominator for v in col.values()))
        col = {r: int(v * mult) for r, v in col.items()}
        g = gcd(*col.values())
    if g == 1 and 0 not in col.values():
        return dict(col)
    return {r: v // g for r, v in col.items() if v}


def _combine(a_col, a, b_col, b):
    """a*a_col - b*b_col as a fresh integer column."""
    out = {r: a * v for r, v in a_col.items()}
    _subtract(out, b, b_col)
    return out


def _subtract(col, q, pcol):
    """col -= q*pcol in place, for a nonzero q."""
    for r, v in pcol.items():
        w = col.get(r, 0) - q * v
        if w:
            col[r] = w
        else:
            del col[r]


def _shrink(col, combo):
    """Divide a working column and its tracked combination (or None) by their
    common gcd once an entry outgrows _GROWTH_LIMIT."""
    if not col:
        return col, combo
    big = max(map(abs, col.values()))
    if combo is not None:
        big = max(big, max(map(abs, combo.values())))
    if big < _GROWTH_LIMIT:
        return col, combo
    g = gcd(*col.values(), *(combo or {}).values())
    if g > 1:
        col = {r: v // g for r, v in col.items()}
        if combo is not None:
            combo = {k: v // g for k, v in combo.items()}
    return col, combo


def _heap_of(col, pivot):
    """(find, add) for a working column that has filled in: find(col) is
    pivot(col), read off a heap that holds every row of col, and add(pcol)
    pushes the rows of a column that a step subtracted. A row that has left
    the column, or is held twice, is popped when it reaches the top."""
    from heapq import heapify, heappop, heappush

    # heap keys put the pivot row first: negated rows for max
    sign = -1 if pivot is max else 1
    heap = [sign * r for r in col]
    heapify(heap)

    def find(col):
        while sign * heap[0] not in col:
            heappop(heap)
        return sign * heap[0]

    def add(pcol):
        for r in pcol:
            heappush(heap, sign * r)

    return find, add


def _reduce(cols, track=False, pivot=max, pivots=None):
    """Fraction-free column reduction of `cols`, a list of integer columns
    with no stored zero.

    Returns (pivots, zeros). `pivots` maps each pivot row to its reduced
    integer column, whose `pivot` row (`max`, the lowest, or `min`, the
    topmost) is that row. A column whose pivot row is new at once is stored
    as the input itself; any other is copied before its first update, so the
    inputs never change, and no stored column is updated afterwards. Given
    `pivots`, a table of columns reduced the same way, the columns are
    reduced against it and their pivots are added to it in place; its
    columns are only read, so a caller passes a copy of a shared table (and
    no `track`, which has no combinations for them). Pivot columns span the
    input columns. With `track`, each pivot column's combination of the
    inputs is kept beside it, and `zeros` lists, in column order, a
    combination of the input columns equal to zero for each column that
    reduced to zero; its largest index is that column. A dict that occurs
    twice in `cols` is stored once, so it counts once toward the pivots but
    leaves no zero combination: `track` callers pass fresh columns.
    """
    if pivots is None:
        pivots = {}
    combos = {}
    zeros = []
    for j, raw in enumerate(cols):
        col = raw
        combo = {j: 1} if track else None
        find, add = pivot, None
        while col:
            row = find(col)
            pcol = pivots.setdefault(row, col)
            if pcol is col:
                if track:
                    combos[row] = combo
                break
            a, b = pcol[row], col[row]
            q, rem = divmod(b, a)
            if rem:
                # scaling by a is what builds up common factors, so only
                # this step renormalizes
                col = _combine(col, a, pcol, b)
                if track:
                    combo = _combine(combo, a, combos[row], b)
                col, combo = _shrink(col, combo)
            else:
                if col is raw:
                    col = dict(raw)
                _subtract(col, q, pcol)
                if track:
                    _subtract(combo, q, combos[row])
            if add is not None:
                add(pcol)
            elif len(col) > _HEAP_AFTER:
                find, add = _heap_of(col, pivot)
        else:
            if track:
                zeros.append(combo)
    return pivots, zeros


def rank(cols):
    """Rank of the matrix whose columns are `cols`, exact over the rationals."""
    return len(_reduce(list(map(col_primitive, cols)))[0])


def chain_ranks(bnd, allow, table=None):
    """Per degree i, (rank ∂_i[:, A_i], rank ∂_i[B_{i-1}, A_i]), exact.

    `bnd[i]` holds the columns of ∂_i (of ∂_0, which is zero, only the
    length is read), integer columns with no stored zero as `_reduce` takes
    them; a caller with rational entries maps `col_primitive` over them
    first: scaling a column changes neither rank, nor the column space of
    ∂_{i+1}, nor the supports of the cycles of ∂_i, so clearing skips the
    same columns. `allow[i]` holds the sorted allowed indices A_i of degree i,
    which are both the columns of ∂_i and the allowed rows of ∂_{i+1};
    B_{i-1} is the rest of the rows. Each degree is reduced once. When
    B_{i-1} is not empty, every B row r is moved to len(bnd[i-1]) + r, below
    all allowed rows, so the pivots in B rows count the second rank; allowed
    rows keep their indices, and only the columns that meet a B row are
    copied. Degrees go from the top down with clearing: a reduced column of
    ∂_{i+1} whose pivot j is an allowed row lies wholly in allowed rows, so
    it is an allowable boundary; putting it in place of column j of ∂_i is
    an invertible change of columns whose image is zero, so column j is
    skipped.

    `table[i]`, when given, is (near, pivots): the sorted columns of ∂_i
    outside a subcomplex, and the subcomplex's pivot table from
    `subcomplex_pivots`. Then A_i and B_i lie in near, `allow[i]` lists A_i,
    and B_i is the rest of near. A subcomplex column meets only subcomplex rows, which
    are always allowed, so each degree starts from a copy of its pivot table
    and reduces only A_i. The ranks do not depend on column order, and
    skipping fewer cleared columns changes no rank, so clearing uses only the
    new pivots.
    """
    out = [(0, 0)] * len(bnd)
    cleared = ()
    for i in range(len(bnd) - 1, 0, -1):
        top = len(bnd[i - 1])
        cols = [bnd[i][j] for j in allow[i] if j not in cleared]
        rows = table[i - 1][0] if table else range(top)
        if len(allow[i - 1]) < len(rows):
            shift = set(rows).difference(allow[i - 1])
            cols = [col if shift.isdisjoint(col)
                    else {r + top if r in shift else r: v for r, v in col.items()}
                    for col in cols]
        pivots = dict(table[i][1]) if table and table[i][1] else {}
        start = len(pivots)
        _reduce(cols, pivots=pivots)
        # a dict keeps insertion order, so the new pivots follow the copied ones
        cleared = {row for row in islice(pivots, start, None) if row < top}
        out[i] = (len(pivots), len(pivots) - start - len(cleared))
    return out


def subcomplex_pivots(bnd, inner):
    """Per degree i, the pivot table of the columns `inner[i]` of ∂_i, as
    `_reduce` gives it, reduced from the top degree down with clearing.

    The columns must form a subcomplex: column j of `inner[i]` meets only
    rows in `inner[i - 1]`. Every pivot row is then a row of the subcomplex,
    so the pivots of ∂_{i+1} clear their rows in ∂_i (see `chain_ranks`).
    """
    out = [{}] * len(bnd)
    cleared = ()
    for i in range(len(bnd) - 1, 0, -1):
        out[i] = cleared = _reduce([bnd[i][j] for j in inner[i] if j not in cleared])[0]
    return out


def kernel(cols):
    """Basis of the kernel of the column matrix, as primitive integer
    combination vectors over the column indices.

    Kernel vectors are emitted in column order; the vector produced while
    processing column j has its largest support index equal to j and a
    positive coefficient there. That vector is unique, which makes the output
    (and hence downstream bases) deterministic.
    """
    prims = list(map(col_primitive, cols))
    scale = {}  # column j times scale[j] is prims[j]
    for j, (raw, col) in enumerate(zip(cols, prims)):
        r = next(iter(col), None)
        if r is not None and col[r] != raw[r]:
            scale[j] = Fraction(col[r]) / raw[r]
    out = []
    for combo in _reduce(prims, track=True)[1]:
        combo = col_primitive({k: v * scale.get(k, 1) for k, v in combo.items()})
        if combo[max(combo)] < 0:
            combo = {r: -v for r, v in combo.items()}
        out.append(combo)
    return out


def rcef(cols):
    """Reduced column echelon form of the span of `cols`.

    Returns the canonical basis: Fraction columns ordered by pivot row
    (topmost nonzero entry), pivot entries 1, pivot rows cleared from every
    other column. Two inputs span the same subspace iff their rcef is equal.
    """
    basis = {
        top: {r: Fraction(v, col[top]) for r, v in col.items()}
        for top, col in _reduce(list(map(col_primitive, cols)), pivot=min)[0].items()
    }
    for top in sorted(basis, reverse=True):
        col = basis[top]
        for other in sorted(r for r in col if r != top and r in basis):
            f = col.get(other)
            if f is not None:
                _subtract(col, f, basis[other])
    return [basis[top] for top in sorted(basis)]


def combine_columns(cols, combos):
    """Columns obtained by applying combination vectors to `cols`.

    Each combo is a dict {column_index: coefficient}; the result is the
    corresponding linear combination, one output column per combo.
    """
    out = []
    for combo in combos:
        acc = {}
        for j, coeff in combo.items():
            if coeff:
                _subtract(acc, -coeff, cols[j])
        out.append(acc)
    return out


def transpose_cols(cols, nrows):
    """Columns of the transpose: entry (r, c) becomes entry (c, r)."""
    out = [{} for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            out[r][c] = v
    return out


def stack_cols(top_cols, bottom_cols, top_rows):
    """Columns of the vertical stack [A; B]; B's rows are shifted by A's height."""
    out = []
    for a, b in zip(top_cols, bottom_cols):
        col = dict(a)
        for r, v in b.items():
            col[r + top_rows] = v
        out.append(col)
    return out


def dot(a, b):
    if len(a) > len(b):
        a, b = b, a
    total = 0
    for r, v in a.items():
        w = b.get(r)
        if w is not None:
            total += v * w
    return total


def _over(v):
    """(w, m): m the lcm of the denominators of v's int or Fraction entries,
    and w = m·v, an integer vector."""
    m = lcm(*(x.denominator for x in v.values()))
    return {r: x.numerator * (m // x.denominator) for r, x in v.items()}, m


def project_onto_span(v, cols):
    """Orthogonal projection of v onto the column span, exact over the rationals.

    The pivot columns B are independent, so their Gram matrix BᵀB is
    invertible and, for w = m·v the integer multiple from `_over`, the
    integer matrix [BᵀB | Bᵀw] has a single zero combination (x, t) with
    t != 0; the projection is B(-x)/(t·m), one Fraction per entry.
    """
    basis = list(_reduce(list(map(col_primitive, cols)))[0].values())
    if not basis:
        return {}
    w, m = _over(v)
    normal = [{i: g for i, b in enumerate(basis) if (g := dot(b, c))} for c in basis]
    normal.append({i: g for i, b in enumerate(basis) if (g := dot(b, w))})
    (combo,) = _reduce(normal, track=True)[1]
    t = combo.pop(len(basis)) * m
    num = combine_columns(basis, [{i: -x for i, x in combo.items()}])[0]
    return {r: Fraction(x, t) for r, x in num.items()}
