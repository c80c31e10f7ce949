"""Sparse exact linear algebra over the rationals.

Matrices are stored column-wise: a column is a dict {row_index: value} whose
values are ints or Fractions; zeros are never stored.

All elimination goes through one fraction-free integer column reduction,
`_reduce`. Each column is made primitive over the integers, then reduced
against the earlier pivot columns at the row that `pivot` picks, until its
pivot row is new or the column vanishes. Where the pivot entry divides the
entry being eliminated, the pivot column is subtracted in place; otherwise
both are scaled to a common multiple. With `track` it also carries the
column's combination of the inputs, so the columns that vanish give the
kernel. Everything else derives from its pivot table and zero combinations:

- `rank` counts the pivots and `kernel` normalizes the zero combinations.
  Both pivot on the lowest row (`max`); on the boundaries of
  sd(susp(susp t2)) that makes `rank` about three times faster than the
  topmost row does.
- `chain_ranks` reduces each degree of a chain complex once, from the top
  degree down, and skips the columns that the degree above has already
  shown to be cycles ("clearing": Chen & Kerber, *Persistent Homology
  Computation with a Twist*, EuroCG 2011). With the allowed rows numbered
  first, the pivots that fall in the other rows count the rank of that row
  block too.
- `rcef` pivots on the topmost row (`min`), because its canonical form is
  keyed by each column's topmost entry. It divides each pivot column by its
  pivot entry and back-substitutes in Fractions.
- `project_onto_span` solves the normal equations of the pivot columns B by
  reading the single kernel vector of [BᵀB | Bᵀv].
"""

from fractions import Fraction
from math import gcd, lcm

# Entries larger than this trigger a gcd renormalization during elimination.
_GROWTH_LIMIT = 1 << 128


def col_primitive(col):
    """Primitive integer copy of a column: denominators cleared, gcd divided out."""
    dens = [v.denominator for v in col.values() if type(v) is not int]
    if dens:
        mult = lcm(*dens)
        col = {r: int(v * mult) for r, v in col.items()}
    g = gcd(*col.values())
    if g > 1:
        return {r: v // g for r, v in col.items() if v}
    return {r: v for r, v in col.items() if v}


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


def _reduce(cols, track=False, pivot=max):
    """Fraction-free column reduction of `cols`.

    Returns (pivots, zeros). `pivots` maps each pivot row to (column, combo):
    the reduced integer column, whose `pivot` row is its pivot, and with
    `track` its combination of the primitive input columns (else None).
    Pivot columns span the input columns. With `track`, `zeros` lists, in
    column order, a combination of the input columns equal to zero for each
    column that reduced to zero; its largest index is that column.
    """
    pivots = {}
    zeros = []
    scale = {}  # input column j times scale[j] is its primitive copy
    for j, raw in enumerate(cols):
        col = col_primitive(raw)
        combo = None
        if track:
            combo = {j: 1}
            r = next(iter(col), None)
            if r is not None and col[r] != raw[r]:
                scale[j] = Fraction(col[r]) / raw[r]
        while col:
            row = pivot(col)
            piv = pivots.get(row)
            if piv is None:
                pivots[row] = (col, combo)
                break
            pcol, pcombo = piv
            a, b = pcol[row], col[row]
            q, rem = divmod(b, a)
            if rem:
                # scaling by a is what builds up common factors, so only
                # this step renormalizes
                col = _combine(col, a, pcol, b)
                if track:
                    combo = _combine(combo, a, pcombo, b)
                col, combo = _shrink(col, combo)
            else:
                _subtract(col, q, pcol)
                if track:
                    _subtract(combo, q, pcombo)
        else:
            if track:
                zeros.append({k: v * scale.get(k, 1) for k, v in combo.items()})
    return pivots, zeros


def rank(cols):
    """Rank of the matrix whose columns are `cols`, exact over the rationals."""
    return len(_reduce(cols)[0])


def chain_ranks(bnd, allow):
    """Per degree i, (rank ∂_i[:, A_i], rank ∂_i[B_{i-1}, A_i]), exact.

    `bnd[i]` holds the columns of ∂_i (∂_0 is zero and is not read) and
    `allow[i]` the sorted allowed indices A_i of degree i, which are both the
    columns of ∂_i and the allowed rows of ∂_{i+1}; B_{i-1} is the rest of
    the rows. Each degree is reduced once with the allowed rows numbered
    first, so the pivots in B rows count the second rank. Degrees go from
    the top down with clearing: a reduced column of ∂_{i+1} whose pivot j is
    an allowed row lies wholly in allowed rows, so it is an allowable
    boundary; putting it in place of column j of ∂_i is an invertible change
    of columns whose image is zero, so column j is skipped.
    """
    out = [(0, 0)] * len(bnd)
    cleared = set()
    for i in range(len(bnd) - 1, 0, -1):
        rows = allow[i - 1]
        m = len(rows)
        cols = [bnd[i][j] for j in allow[i] if j not in cleared]
        if m and rows[-1] != m - 1:
            # allowed rows to 0..m-1 in order, B row r to m + r
            pos = {r: k for k, r in enumerate(rows)}
            cols = [{pos.get(r, m + r): v for r, v in col.items()} for col in cols]
        pivots = _reduce(cols)[0]
        bad = sum(1 for row in pivots if row >= m)
        out[i] = (len(pivots), bad)
        cleared = {rows[row] for row in pivots if row < m}
    return out


def kernel(cols):
    """Basis of the kernel of the column matrix, as primitive integer
    combination vectors over the column indices.

    Kernel vectors are emitted in column order; the vector produced while
    processing column j has its largest support index equal to j and a
    positive coefficient there. That vector is unique, which makes the output
    (and hence downstream bases) deterministic.
    """
    out = []
    for combo in _reduce(cols, track=True)[1]:
        combo = col_primitive(combo)
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
        for top, (col, _) in _reduce(cols, pivot=min)[0].items()
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


def project_onto_span(v, cols):
    """Orthogonal projection of v onto the column span, exact over the rationals.

    The pivot columns B are independent, so their Gram matrix BᵀB is
    invertible and [BᵀB | Bᵀv] has a single kernel vector (x, t) with t != 0;
    the projection is B(-x/t).
    """
    basis = [col for col, _ in _reduce(cols)[0].values()]
    if not basis:
        return {}
    k = len(basis)
    normal = [{i: g for i, b in enumerate(basis) if (g := dot(b, c))} for c in basis]
    normal.append({i: g for i, b in enumerate(basis) if (g := dot(b, v))})
    (combo,) = _reduce(normal, track=True)[1]
    t = combo.pop(k)
    return combine_columns(basis, [{i: Fraction(-x) / t for i, x in combo.items()}])[0]
