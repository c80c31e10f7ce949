"""Sparse exact linear algebra over the rationals.

Matrices are stored column-wise: a column is a dict {row_index: value} whose
values are ints or Fractions; zeros are never stored.

All elimination goes through one fraction-free integer column reduction,
`_reduce`. It takes integer columns with no stored zero (`col_primitive`
makes them from rational ones, and keeps their entries small) and reduces
each against the earlier pivot columns at its lowest row, until that row is
a new pivot row or the column vanishes. A column whose pivot row is new
at once is stored as given; a column is copied just before its first update,
so the inputs never change, and a stored pivot column is never updated
again. So a pivot table can be shared: `_reduce` may start from a copy of
one (a dict row -> column) whose columns it only reads. A short working
column finds its lowest row by a scan; one that fills in past `_HEAP_AFTER`
entries keeps its rows in a heap (`heapq`, imported only then), pops the
rows that have left it and pushes each row that a step adds, so a step
costs the length of the pivot column it subtracts, not of the working
column (heap-held pivot columns, as in Bauer, Kerber, Reininghaus & Wagner,
*PHAT*, J. Symb. Comput. 2017). The heap changes how the pivot row is
found, never which row, so every caller does the same column operations
either way. Where the pivot entry divides the entry being eliminated, the
pivot column is subtracted in place; otherwise both are scaled to a common
multiple. Its one output is its pivot table (pivot row -> column). A
column's combination of the inputs rides along in identity rows numbered
below the matrix's rows (`_zero_combinations`), so the columns that vanish
give the kernel. Everything else derives from the pivot table:

- `rank` counts the pivots and `kernel` normalizes the zero combinations,
  taking them from the primitive columns back to its own inputs. Pivoting
  on the lowest row makes `rank` on the boundaries of sd(susp(susp t2))
  about three times faster than pivoting on the topmost row does.
- `chain_ranks` takes a chain complex as a rank table, one row per degree:
  the indices that a query may leave out, a pivot table to start from, the
  boundary columns and the rows that the chain model drops. Its columns are
  what `_reduce` takes, integer columns with no stored zero, so a
  simplicial boundary enters as it is; a caller with rational entries maps
  `col_primitive` over its columns first. It reduces each degree of the
  complex once, from the top degree down, and skips the columns that the
  degree above has already shown to be cycles ("clearing": Chen & Kerber,
  *Persistent Homology Computation with a Twist*, EuroCG 2011). A chain
  model is a partition of each degree's rows: allowed rows keep their
  indices, the rows that the model drops (X_{n-1} for stratified
  coefficients) are deleted, and the non-allowable rest are shifted below
  the allowed rows, so the pivots that fall in them count the rank of that
  row block too; where every row is allowed, as for
  `FilteredComplex.betti`, no row is dropped. A column that meets a dropped
  or non-allowable row is copied once; any other enters as it is. Each
  degree starts from a copy of its row's pivot table, the pivots of a
  subcomplex whose rows every query allows (the interior simplices, for
  `FilteredComplex.interior`, which reduces them once per complex with the
  same clearing), and reduces only the other columns. A plain chain
  complex is a table with no pivots that may leave out every index. The
  answer is one record per degree, its two ranks and the rows it cleared.
  A caller that asks about one chain complex under many row partitions
  keeps each degree's record (`known`) and hands it back whenever a
  degree's columns and row partition come again; that degree is then not
  reduced, and the degree below still skips the rows it cleared.
- `rcef` needs the topmost row of each column as its pivot, because its
  canonical form is keyed by each column's topmost entry. It reflects the
  rows (row r becomes -r), so the lowest row of a reflected column is the
  topmost row of the column, reduces the reflected columns and reflects the
  pivot table back: the same column operations as a reduction on the
  topmost row. It divides each pivot column by its pivot entry and
  back-substitutes in Fractions.
- `_basis` and `_solve` project onto a span, as
  `hilbert.kodaira_decompose` does. `_basis` reduces the columns to their
  pivot columns B. `_solve` solves the normal equations of B over the
  integers: for an integer vector w, it returns the single zero combination
  (x, t) of [BᵀB | Bᵀw], scaled so that t > 0, and the projection of w is
  the integer vector B(-x) over t. A rational v is first scaled by the lcm
  m of its denominators (`_over`), so its projection is B(-x) over the
  positive denominator t·m. A caller that projects onto the same span again
  keeps B. A caller whose B joins mutually orthogonal blocks, as the exact
  and coexact pivot columns of a Hilbert complex are, reads each block's
  projection off its own indices of x, all over the one t: BᵀB is block
  diagonal. An empty B needs no special case: [BᵀB | Bᵀw] is one empty
  column, whose zero combination is t = 1, so the projection is the zero
  vector over 1.
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
    """Primitive integer form of a column: denominators cleared, gcd
    divided out, zeros dropped. `col` is never changed.

    An integer column with no stored zero and gcd 1, or with no entry, is
    already primitive and comes back as it is, `col` itself, which
    `_reduce` only reads; any other comes back as a new dict. Fraction
    entries make `gcd` raise and have their denominators cleared first.
    """
    try:
        g = gcd(*col.values())
    except TypeError:
        mult = lcm(*(v.denominator for v in col.values()))
        col = {r: int(v * mult) for r, v in col.items()}
        g = gcd(*col.values())
    # no stored zero and a gcd of 1, or none for no entry
    if g < 2 and 0 not in col.values():
        return col
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


def _shrink(col):
    """Divide a working column by the gcd of its entries once an entry
    outgrows _GROWTH_LIMIT."""
    if not col or max(map(abs, col.values())) < _GROWTH_LIMIT:
        return col
    g = gcd(*col.values())
    return {r: v // g for r, v in col.items()} if g > 1 else col


def _heap_of(col):
    """(find, add) for a working column that has filled in: find(col) is
    max(col), read off a heap of the negated rows of col, and add(pcol)
    pushes the rows of a column that a step subtracted. A row that has left
    the column, or is held twice, is popped when it reaches the top."""
    from heapq import heapify, heappop, heappush

    heap = [-r for r in col]
    heapify(heap)

    def find(col):
        while -heap[0] not in col:
            heappop(heap)
        return -heap[0]

    def add(pcol):
        for r in pcol:
            heappush(heap, -r)

    return find, add


def _reduce(cols, pivots=None):
    """Fraction-free column reduction of `cols`, a list of integer columns
    with no stored zero.

    Returns `pivots`, which maps each pivot row to its reduced integer
    column, whose lowest row (largest index) is that row; a caller that
    needs each column's topmost row as its pivot reflects the rows first, as
    `rcef` does. A column whose pivot row is new at once is stored as the
    input itself; any other is copied before its first update, so the
    inputs never change, and no stored column is updated afterwards. Given
    `pivots`, a table of columns reduced the same way, the columns are
    reduced against it and their pivots are added to it in place; its
    columns are only read, so a caller passes a copy of a shared table.
    Pivot columns span the input columns. A dict that occurs twice in
    `cols` is stored once, so it counts once toward the pivots.
    """
    if pivots is None:
        pivots = {}
    for raw in cols:
        col = raw
        find, add = max, None
        while col:
            row = find(col)
            pcol = pivots.setdefault(row, col)
            if pcol is col:
                break
            a, b = pcol[row], col[row]
            q, rem = divmod(b, a)
            if rem:
                # scaling by a is what builds up common factors, so only
                # this step renormalizes
                col = _shrink(_combine(col, a, pcol, b))
            else:
                if col is raw:
                    col = dict(raw)
                _subtract(col, q, pcol)
            if add is not None:
                add(pcol)
            elif len(col) > _HEAP_AFTER:
                find, add = _heap_of(col)
    return pivots


def _zero_combinations(cols):
    """Per column j of `cols` that reduces to zero, in column order, a
    combination {j: c_j, ...} of the columns equal to zero, whose largest
    index is j.

    Column j enters `_reduce` with the extra identity entry {j - n: 1}, for
    n = len(cols): an identity block whose rows are numbered below every
    row of the matrix M, so the reduction, which pivots on the largest row,
    reaches them last (the R = MV form of persistence: Cohen-Steiner,
    Edelsbrunner & Morozov, *Vines and vineyards by updating persistence in
    linear time*, SoCG 2006). While a column meets a row of M its pivot is a
    row of M, and each step applies to its combination what it applies to
    the column. A column left with identity rows only is a zero
    combination; its lowest row j - n is its own, so it is a new pivot at
    once, and the pivots in negative rows come in column order. Each column
    enters as a fresh dict, so a dict listed twice leaves a combination for
    the repeat. An empty column would be such a pivot at once and is met by
    no other column, so it is its own combination {j: 1} without entering
    `_reduce`.
    """
    n = len(cols)
    pivots = _reduce([{**col, j - n: 1} for j, col in enumerate(cols) if col])
    found = {row + n: {k + n: v for k, v in col.items()} for row, col in pivots.items() if row < 0}
    return [found[j] if col else {j: 1} for j, col in enumerate(cols) if not col or j in found]


def rank(cols):
    """Rank of the matrix whose columns are `cols`, exact over the rationals."""
    return len(_reduce(list(map(col_primitive, cols))))


def chain_ranks(table, allow, known=None):
    """Per degree i, the record (r_all, r_bad, cleared): r_all = rank
    ∂_i[:, A_i] and r_bad = rank ∂_i[B_{i-1}, A_i], exact, where ∂_i has the
    dropped rows of degree i - 1 deleted, and `cleared` the rows that degree
    i hands to degree i - 1 to skip. Degree 0, whose boundary is zero, has
    the record (0, 0, ()).

    `table[i]` is (near, pivots, columns, dropped). `columns` holds the
    columns of ∂_i (of ∂_0 only the length is read, and of ∂_i only the
    columns in `allow[i]`), integer columns with no stored zero as
    `_reduce` takes them; a caller with rational entries maps
    `col_primitive` over them first: scaling a column changes neither rank,
    nor the column space of ∂_{i+1}, nor the supports of the cycles of ∂_i,
    so clearing skips the same columns. `pivots` is the pivot table, as
    `_reduce` gives it, of the columns of a subcomplex, which meet only its
    own rows; every call allows those rows, and `pivots` is only read.
    `near` lists, sorted, the indices of degree i outside the subcomplex,
    and `allow[i]` the allowed ones among them, A_i, which are both the
    columns of ∂_i and the allowed rows of ∂_{i+1}. `dropped` lists the
    indices of degree i that the chain model leaves out; they must span a
    subcomplex, so that the boundary with their rows deleted is still a
    chain complex (a relative one). They are read only when some index of
    near is not allowed, and then none of them may be allowed. B_i is the
    rest of near. A plain chain complex has every index in near and no
    pivots.

    Each degree starts from a copy of its pivot table and reduces A_i
    once. When B_{i-1} or the dropped rows are not empty, every column that
    meets one of them is copied once: dropped rows are left out, and every
    B row r is moved to len(columns of degree i - 1) + r, below all allowed
    rows, so the pivots in B rows count the second rank; allowed rows keep
    their indices, and every other column enters as it is. Degrees go from
    the top down with clearing: a reduced column of ∂_{i+1} whose new pivot
    j is an allowed row lies wholly in allowed rows, so it is an allowable
    boundary; putting it in place of column j of ∂_i is an invertible
    change of columns whose image is zero, so column j is skipped. The
    ranks do not depend on column order, and skipping fewer cleared columns
    changes no rank, so clearing uses only the new pivots.

    `known`, when given, holds one slot per degree. A slot i holding a
    record is not reduced: the record comes back as it is, the same object,
    and its `cleared` rows are still skipped in degree i - 1. An empty slot
    (None) is reduced. A record answers any later call whose degree i has
    the same `table`, the same columns A_i and the same row partition
    (A_{i-1}, B_{i-1} and the dropped rows), exactly: with those fixed, so
    are the degree's columns and rows; clearing changes no rank, and even no
    pivot, since a cleared column j is a combination of the columns reduced
    before it (the reduced column that clears it lies in allowed rows up to
    j, and ∂_i maps it to zero); and a new pivot in an allowed row is the
    pivot of an allowable boundary, so it is a valid clearing row for any
    such call. `allow[i]` is read only where degree i or i + 1 is reduced,
    so a caller may hand None for every other degree. No argument is
    changed.
    """
    out = [(0, 0, ())] * len(table)
    cleared = ()
    for i in range(len(table) - 1, 0, -1):
        if known and known[i]:
            out[i] = known[i]
            cleared = out[i][2]
            continue
        rows, _, below, gone = table[i - 1]
        _, pivots, columns, _ = table[i]
        top = len(below)
        cols = [columns[j] for j in allow[i] if j not in cleared]
        if len(allow[i - 1]) < len(rows):
            shift, gone = set(rows).difference(allow[i - 1]), set(gone)
            cols = [col if shift.isdisjoint(col)
                    else {r + top if r in shift else r: v for r, v in col.items() if r not in gone}
                    for col in cols]
        pivots = dict(pivots)
        start = len(pivots)
        _reduce(cols, pivots=pivots)
        # a dict keeps insertion order, so the new pivots follow the copied ones
        cleared = {row for row in islice(pivots, start, None) if row < top}
        out[i] = (len(pivots), len(pivots) - start - len(cleared), cleared)
    return out


def kernel(cols):
    """Basis of the kernel of the column matrix, as primitive integer
    combination vectors over the column indices.

    The vectors are `_zero_combinations` of the primitive columns, scaled
    back to `cols`, in column order: the vector for a column j that depends
    on the earlier columns has its largest support index equal to j and a
    positive coefficient there. That vector is unique, which makes the
    output (and hence downstream bases) deterministic.
    """
    prims = list(map(col_primitive, cols))
    scale = {}  # column j times scale[j] is prims[j]
    for j, (raw, col) in enumerate(zip(cols, prims)):
        r = next(iter(col), None)
        if r is not None and col[r] != raw[r]:
            scale[j] = Fraction(col[r]) / raw[r]
    out = []
    for combo in _zero_combinations(prims):
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
    # the lowest row of a reflected column (row r read as -r) is its topmost
    reflected = [{-r: v for r, v in col.items()} for col in map(col_primitive, cols)]
    basis = {
        -low: {-r: Fraction(v, col[low]) for r, v in col.items()}
        for low, col in _reduce(reflected).items()
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


def _basis(cols):
    """The pivot columns of `cols` as `_reduce` leaves them: primitive
    integer columns spanning the column space, one per unit of rank."""
    return list(_reduce(list(map(col_primitive, cols))).values())


def _solve(w, basis):
    """(x, t): the single zero combination of [BᵀB | Bᵀw], for the integer
    vector w and the independent integer columns B = `basis`, split into
    x, a dict {column index: int}, and t, a positive int. The projection of
    w onto the span of B is B(-x)/t.

    BᵀB is invertible, so the zero combination is single and t != 0; where
    the reduction leaves t < 0, x and t are negated together. BᵀB is
    symmetric, so each dot product is taken once, for i >= j, and stored
    at (i, j) and (j, i); every column still gets its rows in increasing
    order.
    """
    normal = [{} for _ in basis]
    for j, b in enumerate(basis):
        for i in range(j, len(basis)):
            if g := dot(b, basis[i]):
                normal[i][j] = normal[j][i] = g
    normal.append({i: g for i, b in enumerate(basis) if (g := dot(b, w))})
    (x,) = _zero_combinations(normal)
    t = x.pop(len(basis))
    return ({j: -a for j, a in x.items()}, -t) if t < 0 else (x, t)

