"""Finite-dimensional Hilbert complexes over the rationals.

A complex is a sequence of coordinate spaces with differentials satisfying
D_{i+1} D_i = 0 and the identity inner product on each space. In finite
dimensions every range is closed, so harmonic representatives, the weak
Kodaira decomposition, the dual-complex dimension reversal, and the
even-to-odd index are all exact linear algebra.

A complex of n spaces is its dimensions and one list `maps` of n + 1
`_Map`s: `maps[i + 1]` is D_i for i in -1..n-1, where D_{-1} (no columns)
and D_{n-1} (no rows) are the zero maps at the ends, so no degree is a
special case. A `_Map` holds D_i's columns, its transpose and the pivot
columns (`linalg._basis`) of each, all built when `validate` builds the
complex, so each D_i and each D_i^T is reduced exactly once, there.
`cohomology_dims` counts the pivot columns of D_i; `harmonic_dims` reduces
the stored columns of D_i^T and D_{i-1} side by side, a check independent
of those pivots; `kodaira_decompose` projects onto the pivot columns of
D_{i-1} and of D_i^T. The dual complex is built from C's maps reversed,
each read as its transpose, so its cohomology comes from the transposed
columns' pivots while C's comes from the columns', and the dual of the
dual holds C's own maps. A complex is not changed after it is built,
so nothing is reduced again.

The Kodaira projections are solved over the integers, in one normal system
(`linalg._solve`) over the pivot columns of D_{i-1} and of D_i^T joined. The
two images are orthogonal, since D_i D_{i-1} = 0, so the joined Gram matrix
is block diagonal and its one zero combination splits by column index into
the exact and the coexact part. The vector is scaled to integers once, the
two parts come back as integer numerators over one positive denominator,
the harmonic part is formed on those integers, and all three are returned
in that form: a caller that wants rationals divides. A vector's int entries
stay ints, as a matrix's do.
"""

from . import linalg
from .errors import ConfigurationError, ConstructionError
from .rationals import parse_rational

# The largest sum of `dims` that `validate` accepts. Every space gets one
# column per dimension, so a short document declaring a huge dimension would
# otherwise fill memory; `stratal hilbert` on complexes at the bound peaked
# at 42-162 MB RSS (Python 3.11, x86-64), counting the transposes and pivot
# columns that the complex keeps.
MAX_TOTAL_DIMENSION = 100_000


class _Map:
    """A differential's columns, `basis`, the pivot columns, one per unit of
    rank, and `t`, the `_Map` of the transpose, whose own `t` is this map,
    and whose columns number the rows of the target space. All are built
    with the map, which builds its transpose passing itself as `t`, so when
    `validate` builds a complex each D_i and each D_i^T is reduced exactly
    once."""

    __slots__ = ("cols", "basis", "t")

    def __init__(self, cols, nrows, t=None):
        self.cols = cols
        self.basis = linalg._basis(cols)
        self.t = t or _Map(linalg.transpose_cols(cols, nrows), len(cols), self)


class FiniteHilbertComplex:
    """Spaces of the given dimensions and the list of their differentials:
    `maps[i + 1]` is the `_Map` of D_i, for i in -1..n-1. `validate` builds
    one from matrices; `dual_complex` from another complex's maps."""

    def __init__(self, dims, maps):
        self.dims = tuple(dims)
        self.maps = maps


def _entry(value, where, error):
    """A matrix or vector entry as `linalg` stores it: an int stays an int,
    which reduces without Fraction arithmetic; anything else is read by
    `parse_rational`, so a bool or a float raises `error`."""
    if type(value) is int:
        return value
    return parse_rational(value, where, error)


def _to_columns(matrix, nrows, ncols, where):
    if len(matrix) != nrows:
        raise ConstructionError(f"{where}: expected {nrows} rows, got {len(matrix)}")
    # all rows are checked first: a width that no row has allocates no columns
    for r, row in enumerate(matrix):
        if not isinstance(row, list):
            raise ConstructionError(f"{where}: row {r} is not a list")
        if len(row) != ncols:
            raise ConstructionError(f"{where}: row {r} has length {len(row)}, expected {ncols}")
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(matrix):
        for c, entry in enumerate(row):
            if v := _entry(entry, where, ConstructionError):
                cols[c][r] = v
    return cols


def validate(dims, matrices) -> FiniteHilbertComplex:
    """Build a complex from dense row-major matrices, verifying D∘D = 0.

    `matrices[i]` is D_i with dims[i+1] rows and dims[i] columns; entries may
    be ints, Fractions, or "p/q" strings (never bools or floats). D_i may
    also be given as its dims[i] columns, dicts keyed by int row indices.
    Both forms read their entries through `_entry`, so ints stay ints. A
    total dimension above `MAX_TOTAL_DIMENSION` is refused before anything
    is built. D∘D = 0 is checked with one `combine_columns` per degree; once
    it holds, each map is built with its transpose and the pivot columns of
    both.
    """
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise ConstructionError("dims must be a list of integers")
    if any(d < 0 for d in dims):
        raise ConstructionError("space dimensions cannot be negative")
    if sum(dims) > MAX_TOTAL_DIMENSION:
        raise ConstructionError(
            f"total dimension {sum(dims)} exceeds the bound {MAX_TOTAL_DIMENSION}")
    if not isinstance(matrices, list) or not all(isinstance(m, list) for m in matrices):
        raise ConstructionError("differentials must be a list of matrices, each a list")
    if len(matrices) != max(len(dims) - 1, 0):
        raise ConstructionError(
            f"expected {max(len(dims) - 1, 0)} differentials for {len(dims)} spaces, "
            f"got {len(matrices)}"
        )
    cols = []
    for i, mat in enumerate(matrices):
        if isinstance(mat, list) and all(isinstance(e, dict) for e in mat) and (
            mat or dims[i] == 0
        ):
            if len(mat) != dims[i]:
                raise ConstructionError(
                    f"D_{i}: expected {dims[i]} columns, got {len(mat)}"
                )
            if any(type(r) is not int or not 0 <= r < dims[i + 1] for col in mat for r in col):
                raise ConstructionError(f"D_{i}: column rows must be ints below {dims[i + 1]}")
            # linalg stores no zeros
            where = f"D_{i}"
            cols.append([{r: x for r, v in col.items()
                          if (x := _entry(v, where, ConstructionError))} for col in mat])
        else:
            cols.append(_to_columns(mat, dims[i + 1], dims[i], f"D_{i}"))
    for i in range(len(cols) - 1):
        # column j of D_i, read as a combination of the columns of D_{i+1},
        # gives column j of D_{i+1} D_i
        for j, image in enumerate(linalg.combine_columns(cols[i + 1], cols[i])):
            if image:
                raise ConstructionError(
                    f"D_{i + 1} ∘ D_{i} is nonzero on basis vector {j} of degree {i}"
                )
    # D_{-1} has no columns and D_{n-1} no rows; with no space, D_{-1} is the one map
    cols = [[], *cols, *([{} for _ in range(d)] for d in dims[-1:])]
    return FiniteHilbertComplex(dims, [_Map(c, rows) for c, rows in zip(cols, [*dims, 0])])


def cohomology_dims(C: FiniteHilbertComplex):
    """dim ker D_i - rank D_{i-1} in every degree, exact."""
    ranks = [len(m.basis) for m in C.maps]
    return tuple(d - below - r for d, below, r in zip(C.dims, ranks, ranks[1:]))


def harmonic_dims(C: FiniteHilbertComplex):
    """dim (ker D_i ∩ ker D_{i-1}^T); equals cohomology_dims in every degree.
    The kernel is that of the stack [D_i ; D_{i-1}^T], whose rank is that of
    its transpose [D_i^T | D_{i-1}]: the stored columns of the two maps."""
    return tuple(d - linalg.rank(C.maps[i + 1].t.cols + C.maps[i].cols)
                 for i, d in enumerate(C.dims))


def kodaira_decompose(C: FiniteHilbertComplex, i: int, v):
    """Split v into harmonic, exact and coexact parts, pairwise orthogonal,
    returned as (harmonic, exact, coexact, d): three dicts {row: int} of
    numerators over one int d > 0, so the harmonic part is harmonic/d.

    v is a list or tuple of dims[i] entries, read by `_entry` (ints,
    Fractions or "p/q" strings, never bools or floats). The exact part is
    the projection onto the image of D_{i-1}, the coexact part the
    projection onto the image of D_i^T. The two images are orthogonal, so
    both come from one normal system over the complex's pivot columns of
    the two, solved over the integers, as numerators over d; the harmonic
    part is v less the two, formed on those numerators. No entry is stored as zero, and
    reconstruction is exact: harmonic + exact + coexact = d·v.
    """
    if not 0 <= i < len(C.dims):
        raise ConfigurationError(f"degree {i} outside 0..{len(C.dims) - 1}")
    if not isinstance(v, (list, tuple)):
        raise ConfigurationError(f"vector must be a list or tuple, not {type(v).__name__}")
    if len(v) != C.dims[i]:
        raise ConfigurationError(
            f"vector has length {len(v)}, but degree {i} has dimension {C.dims[i]}")
    vec = {r: x for r, val in enumerate(v)
           if (x := _entry(val, "vector entry", ConfigurationError))}
    w, m = linalg._over(vec)
    exact, coexact = C.maps[i].basis, C.maps[i + 1].t.basis
    x, t = linalg._solve(w, exact + coexact)
    k = len(exact)
    (e,) = linalg.combine_columns(exact, [{j: -a for j, a in x.items() if j < k}])
    (c,) = linalg.combine_columns(coexact, [{j - k: -a for j, a in x.items() if j >= k}])
    # v = w/m and its exact and coexact parts are e/(t·m) and c/(t·m), so
    # the harmonic part is (w·t - e - c)/(t·m)
    harmonic = {r: a * t for r, a in w.items()}
    linalg._subtract(harmonic, 1, e)
    linalg._subtract(harmonic, 1, c)
    return harmonic, e, c, t * m


def dual_complex(C: FiniteHilbertComplex):
    """The reversed complex with transposed differentials, plus the
    dimension-reversal report on cohomology. The dual's maps are C's maps
    in reverse order, each read as its transpose, so its cohomology reduces
    C's transposes, C's is read from C's own pivot columns, and the dual of
    the dual holds C's own maps."""
    n = len(C.dims)
    # D_j is the transpose of D_i for i = n-2-j, over j in -1..n-1
    D = FiniteHilbertComplex(reversed(C.dims), [m.t for m in reversed(C.maps)])
    h_primal = cohomology_dims(C)
    h_dual = cohomology_dims(D)
    report = {
        "cohomology": list(h_primal),
        "dual_cohomology": list(h_dual),
        "pass": all(h_primal[i] == h_dual[n - 1 - i] for i in range(n)),
    }
    return D, report


def index_even_odd(C: FiniteHilbertComplex) -> int:
    """Index of the even-to-odd operator (D on even degrees, D^T downward).

    A map between finite-dimensional spaces has index dim domain - dim
    codomain, so this is the alternating sum of the space dimensions; that it
    equals the alternating sum of the cohomology dimensions is Euler-Poincaré.
    """
    return sum((-1) ** i * d for i, d in enumerate(C.dims))


def random_complex(rng) -> FiniteHilbertComplex:
    """Seeded random complex of 2 to 5 spaces and total dimension at most 24:
    pick the top differential freely, then draw each lower one's columns as
    combinations of the kernel of the one above, built in one call."""
    n = rng.randint(2, 5)
    dims = []
    remaining = 24
    for _ in range(n):
        d = rng.randint(0, min(6, remaining))
        dims.append(d)
        remaining -= d
    diffs = [None] * (n - 1)
    for i in range(n - 2, -1, -1):
        # an entry is drawn only where the coin falls under the density, and
        # a zero entry is not stored
        if i == n - 2:
            diffs[i] = [{r: x for r in range(dims[i + 1])
                         if rng.random() < 0.6 and (x := rng.randint(-2, 2))}
                        for _ in range(dims[i])]
        else:
            kern = linalg.kernel(diffs[i + 1])
            combos = [{j: x for j in range(len(kern))
                       if rng.random() < 0.7 and (x := rng.randint(-2, 2))}
                      for _ in range(dims[i])]
            diffs[i] = linalg.combine_columns(kern, combos)
    return validate(dims, diffs)
