"""Finite-dimensional Hilbert complexes over the rationals.

A complex is a sequence of coordinate spaces with differentials satisfying
D_{i+1} D_i = 0 and the identity inner product on each space. In finite
dimensions every range is closed, so harmonic representatives, the weak
Kodaira decomposition, the dual-complex dimension reversal, and the
even-to-odd index are all exact linear algebra. The Kodaira projections are
solved over the integers (`linalg.project_onto_span`), with one division per
entry of each part.
"""

from fractions import Fraction

from . import linalg
from .errors import ConfigurationError, ConstructionError, SpaceFormatError
from .rationals import parse_rational


class FiniteHilbertComplex:
    """Spaces of the given dimensions with column-stored differentials."""

    def __init__(self, dims, diff_cols):
        self.dims = tuple(int(d) for d in dims)
        self.diffs = diff_cols  # diffs[i]: columns of D_i, mapping H_i -> H_{i+1}

    def differential(self, i):
        """Columns of D_i; zero maps outside 0..n-1."""
        if 0 <= i < len(self.dims) - 1:
            return self.diffs[i]
        dim = self.dims[i] if 0 <= i < len(self.dims) else 0
        return [{} for _ in range(dim)]

    def diff_rows(self, i):
        """Height of D_i (the dimension of its target space)."""
        return self.dims[i + 1] if 0 <= i + 1 < len(self.dims) else 0


def _to_columns(matrix, nrows, ncols, where):
    if len(matrix) != nrows:
        raise ConstructionError(f"{where}: expected {nrows} rows, got {len(matrix)}")
    cols = [{} for _ in range(ncols)]
    for r, row in enumerate(matrix):
        if not isinstance(row, list):
            raise ConstructionError(f"{where}: row {r} is not a list")
        if len(row) != ncols:
            raise ConstructionError(f"{where}: row {r} has length {len(row)}, expected {ncols}")
        for c, entry in enumerate(row):
            try:
                v = parse_rational(entry)
            except SpaceFormatError as exc:
                raise ConstructionError(f"{where}: {exc}") from None
            if v:
                cols[c][r] = v
    return cols


def validate(dims, matrices) -> FiniteHilbertComplex:
    """Build a complex from dense row-major matrices, verifying D∘D = 0.

    `matrices[i]` is D_i with dims[i+1] rows and dims[i] columns; entries may
    be ints, Fractions, or "p/q" strings (never bools or floats). D_i may
    also be given as its dims[i] columns, dicts keyed by int row indices
    whose entries are read the same way.
    """
    if not isinstance(dims, list) or any(type(d) is not int for d in dims):
        raise ConstructionError("dims must be a list of integers")
    if any(d < 0 for d in dims):
        raise ConstructionError("space dimensions cannot be negative")
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
            # linalg stores no zeros; an int stays an int, which reduces
            # without Fraction arithmetic
            try:
                cols.append([{r: x for r, v in col.items()
                              if (x := v if type(v) is int else parse_rational(v))}
                             for col in mat])
            except SpaceFormatError as exc:
                raise ConstructionError(f"D_{i}: {exc}") from None
        elif mat == [] and dims[i + 1] == 0:
            cols.append([{} for _ in range(dims[i])])
        else:
            cols.append(_to_columns(mat, dims[i + 1], dims[i], f"D_{i}"))
    for i in range(len(cols) - 1):
        for j, col in enumerate(cols[i]):
            image = linalg.combine_columns(cols[i + 1], [col])[0]
            if image:
                raise ConstructionError(
                    f"D_{i + 1} ∘ D_{i} is nonzero on basis vector {j} of degree {i}"
                )
    return FiniteHilbertComplex(dims, cols)


def cohomology_dims(C: FiniteHilbertComplex):
    """dim ker D_i - rank D_{i-1} in every degree, exact."""
    n = len(C.dims)
    # reversed, the cochain complex is a chain complex: D_i is ∂_{n-1-i}
    bnd = [list(map(linalg.col_primitive, C.differential(n - 1 - k))) for k in range(n)]
    ranks = [r for r, _ in reversed(linalg.chain_ranks(bnd, [range(len(b)) for b in bnd]))]
    out = []
    for i in range(n):
        below = ranks[i - 1] if i > 0 else 0
        out.append(C.dims[i] - ranks[i] - below)
    return tuple(out)


def harmonic_dims(C: FiniteHilbertComplex):
    """dim (ker D_i ∩ ker D_{i-1}^T); equals cohomology_dims in every degree."""
    n = len(C.dims)
    out = []
    for i in range(n):
        down = C.differential(i)
        up_t = (
            linalg.transpose_cols(C.differential(i - 1), C.dims[i]) if i > 0
            else [{} for _ in range(C.dims[i])]
        )
        stacked = linalg.stack_cols(down, up_t, C.dims[i + 1] if i + 1 < n else 0)
        out.append(C.dims[i] - linalg.rank(stacked))
    return tuple(out)


def laplacian_cols(C: FiniteHilbertComplex, i: int):
    """Columns of Δ_i = D_i^T D_i + D_{i-1} D_{i-1}^T."""
    d_i = C.differential(i)
    d_it = linalg.transpose_cols(d_i, C.diff_rows(i))
    term1 = linalg.combine_columns(d_it, d_i)
    if i > 0:
        d_prev = C.differential(i - 1)
        d_prev_t = linalg.transpose_cols(d_prev, C.dims[i])
        term2 = linalg.combine_columns(d_prev, d_prev_t)
    else:
        term2 = [{} for _ in range(C.dims[i])]
    out = []
    for a, b in zip(term1, term2):
        col = dict(a)
        linalg._subtract(col, -1, b)
        out.append(col)
    return out


def kodaira_decompose(C: FiniteHilbertComplex, i: int, v):
    """Split v into (harmonic, exact, coexact) parts, pairwise orthogonal.

    v is a list or tuple of dims[i] entries or a dict keyed by int row
    indices; its entries are read by `parse_rational` (ints, Fractions or
    "p/q" strings, never bools or floats). The exact part is the projection
    onto the image of D_{i-1}, the coexact part the projection onto the
    image of D_i^T, both solved over the integers; the harmonic part is v
    less the two, formed on their integer numerators over one common
    denominator. Every entry of every part is one Fraction, and
    reconstruction is exact.
    """
    if not 0 <= i < len(C.dims):
        raise ConfigurationError(f"degree {i} outside 0..{len(C.dims) - 1}")
    if isinstance(v, dict):
        if any(type(r) is not int for r in v):
            raise ConfigurationError("vector keys must be int row indices")
        items = v.items()
    elif not isinstance(v, (list, tuple)):
        raise ConfigurationError(f"vector must be a list, tuple or dict, not {type(v).__name__}")
    elif len(v) != C.dims[i]:
        raise ConfigurationError(
            f"vector has length {len(v)}, but degree {i} has dimension {C.dims[i]}")
    else:
        items = enumerate(v)
    try:
        vec = {r: x for r, val in items if (x := parse_rational(val))}
    except SpaceFormatError as exc:
        raise ConfigurationError(f"vector entry: {exc}") from None
    if any(r < 0 or r >= C.dims[i] for r in vec):
        raise ConfigurationError(f"vector does not live in degree {i}")
    exact_span = C.differential(i - 1) if i > 0 else []
    coexact_span = linalg.transpose_cols(C.differential(i), C.diff_rows(i))
    exact = linalg.project_onto_span(vec, exact_span) if exact_span else {}
    coexact = linalg.project_onto_span(vec, coexact_span) if coexact_span else {}
    # v - e/de - c/dc over the one denominator m·de·dc
    (w, m), (e, de), (c, dc) = map(linalg._over, (vec, exact, coexact))
    harmonic = {r: x * de * dc for r, x in w.items()}
    linalg._subtract(harmonic, m * dc, e)
    linalg._subtract(harmonic, m * de, c)
    d = m * de * dc
    return {r: Fraction(x, d) for r, x in harmonic.items()}, exact, coexact


def dual_complex(C: FiniteHilbertComplex):
    """The reversed complex with transposed differentials, plus the
    dimension-reversal report on cohomology."""
    n = len(C.dims)
    dims = tuple(reversed(C.dims))
    diffs = []
    for j in range(n - 1):
        i = n - 2 - j
        diffs.append(linalg.transpose_cols(C.differential(i), C.diff_rows(i)))
    D = FiniteHilbertComplex(dims, diffs)
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


def random_complex(rng, max_total=24, max_spaces=5) -> FiniteHilbertComplex:
    """Seeded random complex: pick the top differential freely, then project
    each lower candidate onto the kernel of the one above."""
    n = rng.randint(2, max_spaces)
    dims = []
    remaining = max_total
    for _ in range(n):
        d = rng.randint(0, min(6, remaining))
        dims.append(d)
        remaining -= d
    diffs = [None] * (n - 1)
    for i in range(n - 2, -1, -1):
        rows, colsn = dims[i + 1], dims[i]
        if i == n - 2:
            cols = []
            for _ in range(colsn):
                col = {
                    r: rng.randint(-2, 2)
                    for r in range(rows)
                    if rng.random() < 0.6
                }
                cols.append({r: v for r, v in col.items() if v})
            diffs[i] = cols
        else:
            kern = linalg.kernel(diffs[i + 1])
            cols = []
            for _ in range(colsn):
                combo = {
                    j: rng.randint(-2, 2)
                    for j in range(len(kern))
                    if rng.random() < 0.7
                }
                combo = {j: v for j, v in combo.items() if v}
                cols.append(linalg.combine_columns(kern, [combo])[0] if combo else {})
            diffs[i] = cols
    return validate(dims, diffs)
