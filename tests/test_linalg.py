"""Exact linear algebra against brute-force and independent oracles."""

import copy
import hashlib
import random
from fractions import Fraction

import pytest
from conftest import kodaira_parts
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from stratal import hilbert as hb
from stratal import linalg
from stratal import perversity as pv
from stratal.intersection import StratifiedChainComplex


def _random_cols(rng, nrows, ncols, density=0.5, lo=-3, hi=3):
    cols = []
    for _ in range(ncols):
        col = {r: rng.randint(lo, hi) for r in range(nrows) if rng.random() < density}
        cols.append({r: v for r, v in col.items() if v})
    return cols


def _dense_rank(cols, nrows):
    rows = [[Fraction(col.get(r, 0)) for col in cols] for r in range(nrows)]
    rank = 0
    for c in range(len(cols)):
        piv = next((r for r in range(rank, nrows) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_rank_against_dense_oracle():
    rng = random.Random(11)
    for _ in range(200):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        cols = _random_cols(rng, nr, nc)
        assert linalg.rank(cols) == _dense_rank(cols, nr)


def test_kernel_vectors_annihilate_and_span():
    rng = random.Random(12)
    for _ in range(200):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        cols = _random_cols(rng, nr, nc)
        kern = linalg.kernel(cols)
        for kv in kern:
            assert not linalg.combine_columns(cols, [kv])[0]
        assert len(kern) == nc - linalg.rank(cols)
        # kernel vectors are independent
        assert linalg.rank(kern) == len(kern)


def test_rcef_canonical_for_equal_spans():
    rng = random.Random(13)
    for _ in range(100):
        nr, nc = rng.randint(1, 6), rng.randint(1, 5)
        cols = _random_cols(rng, nr, nc, density=0.7)
        base = linalg.rcef(cols)
        # shuffle and rescale the generators; the span is unchanged
        mixed = []
        for col in cols:
            k = rng.choice([1, 2, -1, 3])
            mixed.append({r: k * v for r, v in col.items()})
        extra = []
        for _ in range(2):
            a, b = rng.randrange(nc), rng.randrange(nc)
            merged = dict(mixed[a])
            for r, v in mixed[b].items():
                merged[r] = merged.get(r, 0) + v
            extra.append({r: v for r, v in merged.items() if v})
        rng.shuffle(mixed)
        assert linalg.rcef(mixed + extra) == base


def test_rcef_pivots_are_one_and_cleared():
    cols = [{0: 2, 1: 4}, {0: 1, 1: 2, 2: 6}]
    ech = linalg.rcef(cols)
    for col in ech:
        top = min(col)
        assert col[top] == 1
        for other in ech:
            if other is not col:
                assert top not in other


def test_in_span_and_residual():
    # a column lies in the span exactly when adding it leaves the rcef unchanged
    cols = [{0: 1, 1: 1}, {1: 1, 2: 1}]
    ech = linalg.rcef(cols)
    assert linalg.rcef([*ech, {0: 1, 1: 2, 2: 1}]) == ech
    assert linalg.rcef([*ech, {0: 1}]) != ech


def test_projection_is_orthogonal_and_idempotent(project_onto_span):
    rng = random.Random(14)
    for _ in range(60):
        nr = rng.randint(1, 6)
        cols = _random_cols(rng, nr, rng.randint(1, 4), density=0.7)
        v = {r: rng.randint(-3, 3) for r in range(nr)}
        v = {r: x for r, x in v.items() if x}
        proj = project_onto_span(v, cols)
        resid = dict(v)
        for r, val in proj.items():
            w = resid.get(r, 0) - val
            if w:
                resid[r] = w
            elif r in resid:
                del resid[r]
        for col in cols:
            assert linalg.dot(resid, col) == 0
        again = project_onto_span(proj, cols)
        assert again == proj


def test_transpose_shapes():
    cols = [{0: 1, 2: -1}, {1: 5}]
    t = linalg.transpose_cols(cols, 3)
    assert t == [{0: 1}, {1: 5}, {0: -1}]


# ------------------------------------------------ sympy oracle (tests only)

_ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=200,
                   suppress_health_check=[HealthCheck.too_slow])
# One byte per entry keeps generation cheap. Bytes index a table of small
# ints, a third of them zero (byte 0 gives 1, not 0), with Fractions added
# for about half of the matrices.
_INTS = [1, 0, -1, 2, 0, -2, 3, 0, -3, 4, 0, -4]
_MIXED = _INTS + [0, 0, 0] + [Fraction(a, q) for q in (2, 3, 5, 6) for a in (-7, -1, 1, 5)]


def _block(draw, nr, nc, values):
    raw = draw(st.binary(min_size=nr * nc, max_size=nr * nc))
    return [[values[b % len(values)] for b in raw[r * nc:(r + 1) * nc]] for r in range(nr)]


@st.composite
def _matrices(draw, max_side=20):
    """Dense rows of int or int-and-Fraction entries, up to 20x20; about half
    are products through an inner dimension of at most 4, so low rank is common."""
    nr = draw(st.integers(0, max_side))
    nc = draw(st.integers(0, max_side))
    values = draw(st.sampled_from([_INTS, _MIXED]))
    if not draw(st.booleans()):
        return _block(draw, nr, nc, values), nc
    k = draw(st.integers(0, 4))
    left, right = _block(draw, nr, k, values), _block(draw, k, nc, values)
    return [[sum(left[r][t] * right[t][c] for t in range(k)) for c in range(nc)]
            for r in range(nr)], nc


def _columns(rows, nc):
    return [{r: v for r, row in enumerate(rows) if (v := row[c])} for c in range(nc)]


def _domain(rows, nr, nc):
    return DomainMatrix([[QQ(Fraction(v).numerator, Fraction(v).denominator) for v in row]
                         for row in rows], (nr, nc), QQ)


def _sympy_rcef(rows, nc):
    """Nonzero rows of the rref of the transpose, as rcef columns."""
    nr = len(rows)
    transposed = [[rows[r][c] for r in range(nr)] for c in range(nc)]
    reduced = _domain(transposed, nc, nr).rref()[0].to_list()
    out = []
    for row in reduced:
        col = {r: Fraction(int(v.numerator), int(v.denominator)) for r, v in enumerate(row) if v}
        if col:
            out.append(col)
    return out


@_ORACLE
@given(_matrices())
def test_rank_matches_sympy(mat):
    rows, nc = mat
    assert linalg.rank(_columns(rows, nc)) == _domain(rows, len(rows), nc).rank()


@_ORACLE
@given(_matrices())
def test_kernel_dimension_and_annihilation(mat):
    rows, nc = mat
    cols = _columns(rows, nc)
    kern = linalg.kernel(cols)
    assert len(kern) == nc - _domain(rows, len(rows), nc).rank()
    for kv in kern:
        assert not linalg.combine_columns(cols, [kv])[0]
        assert all(isinstance(v, int) for v in kv.values())
        assert kv[max(kv)] > 0 and linalg.col_primitive(kv) == kv
    assert linalg.rank(kern) == len(kern)


@_ORACLE
@given(_matrices())
def test_rcef_matches_sympy_rref_of_transpose(mat):
    rows, nc = mat
    assert linalg.rcef(_columns(rows, nc)) == _sympy_rcef(rows, nc)


def _sub_rank(rows, row_idx, col_idx):
    """Rank over QQ of the submatrix on the given rows and columns."""
    sub = [[rows[r][c] for c in col_idx] for r in row_idx]
    return _domain(sub, len(sub), len(col_idx)).rank()


def _subset(draw, n):
    return sorted(draw(st.sets(st.integers(0, n - 1)))) if n else []


def _zero_cols(n):
    return [{} for _ in range(n)]


# the chain-rank oracles draw three matrices' worth of sympy ranks per example
_CHAIN_ORACLE = settings(_ORACLE, max_examples=100)


def _deleted(bnd, drop):
    """The columns of `bnd` with the rows `drop[i - 1]` deleted from degree i."""
    return [[{r: v for r, v in col.items() if r not in drop[i - 1]} for col in cols] if i else cols
            for i, cols in enumerate(bnd)]


@_CHAIN_ORACLE
@given(_matrices(), st.data())
def test_chain_ranks_match_sympy(mat, data):
    """Allowed rows, a dropped block drawn from the others, and the
    non-allowable rest: the ranks are those of the matrix with the dropped
    rows deleted."""
    rows, nc = mat
    nr = len(rows)
    good, cols_idx = _subset(data.draw, nr), _subset(data.draw, nc)
    drop = [r for r in range(nr) if r not in good and data.draw(st.booleans())]
    kept = [r for r in range(nr) if r not in drop]
    bad = [r for r in kept if r not in good]
    bnd = [_zero_cols(nr), list(map(linalg.col_primitive, _columns(rows, nc)))]
    _, (r_all, r_bad) = out = linalg.chain_ranks(bnd, [good, cols_idx], None, [drop, []])
    assert r_all == _sub_rank(rows, kept, cols_idx)
    assert r_bad == _sub_rank(rows, bad, cols_idx)
    assert out == linalg.chain_ranks(_deleted(bnd, [drop, []]), [good, cols_idx])


@st.composite
def _chain_complexes(draw):
    """Dense (∂_1, ∂_2, n0) with ∂_1 ∂_2 = 0: ∂_2 is drawn freely and every
    row of ∂_1 is a combination of the left-kernel vectors of ∂_2."""
    d2, n2 = draw(_matrices(max_side=10))
    n1 = len(d2)
    left = linalg.kernel(linalg.transpose_cols(_columns(d2, n2), n1))
    n0 = draw(st.integers(0, 10))
    coeffs = _block(draw, n0, len(left), _INTS)
    d1 = [[sum(coeffs[r][k] * vec.get(c, 0) for k, vec in enumerate(left))
           for c in range(n1)] for r in range(n0)]
    return d1, d2, n0


@_CHAIN_ORACLE
@given(_chain_complexes(), st.data())
def test_chain_ranks_with_clearing_match_sympy(chain, data):
    """A drawn dropped block spans a subcomplex: its degree-0 rows hold the
    boundaries of its degree-1 columns, so deleting them leaves a chain
    complex. Allowed indices are drawn from the rest, and the ranks, with
    clearing, are those of the chain complex with the dropped rows deleted."""
    d1, d2, n0 = chain
    n1, n2 = len(d2), len(d2[0]) if d2 else 0
    bnd = [_zero_cols(n0), _columns(d1, n1), _columns(d2, n2)]
    assert not any(linalg.combine_columns(bnd[1], bnd[2]))
    drop1 = _subset(data.draw, n1)
    drop0 = sorted({r for j in drop1 for r in bnd[1][j]}.union(_subset(data.draw, n0)))
    drop = [drop0, drop1, []]
    assert not any(linalg.combine_columns(*_deleted(bnd, drop)[1:]))
    allow = [[j for j in _subset(data.draw, n) if j not in gone]
             for n, gone in zip((n0, n1, n2), drop)]
    prim = [list(map(linalg.col_primitive, b)) for b in bnd]
    out = linalg.chain_ranks(prim, allow, None, drop)
    for i, rows in ((1, d1), (2, d2)):
        kept = [r for r in range(len(rows)) if r not in drop[i - 1]]
        bad = [r for r in kept if r not in allow[i - 1]]
        assert out[i] == (_sub_rank(rows, kept, allow[i]), _sub_rank(rows, bad, allow[i]))
    assert out == linalg.chain_ranks(_deleted(prim, drop), allow)


def test_chain_ranks_clearing_skips_cycle_columns(monkeypatch):
    # the filled triangle on vertices 0, 1, 2 with edges 01, 02, 12; vertex 2
    # is not allowed, so the edge 12 that the triangle's boundary pivots on
    # is cleared from ∂_1, which is reduced on edges 01 and 02 alone
    d1 = [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    d2 = [[1], [-1], [1]]
    bnd = [_zero_cols(3), _columns(d1, 3), _columns(d2, 1)]
    reduced = []
    reduce = linalg._reduce

    def spy(cols, *args, **kw):
        reduced.append(len(cols))
        return reduce(cols, *args, **kw)

    monkeypatch.setattr(linalg, "_reduce", spy)
    out = linalg.chain_ranks(bnd, [[0, 1], [0, 1, 2], [0]])
    assert reduced == [1, 2]
    # ∂_1 has rank 2 and its vertex-2 row [0, 1, 1] rank 1
    assert out == [(0, 0), (2, 1), (1, 0)]


def test_chain_ranks_shift_only_columns_that_meet_non_allowable_rows(s2, monkeypatch):
    """The tetrahedron boundary with allowed vertices 0 and 2, allowed edges
    01, 02, 12 and allowed triangles 012, 013: in both degrees a
    non-allowable row sits between allowed rows. Triangle 012 lies in
    allowed edges, enters unshifted and clears edge 12; triangle 013 meets
    edges 03 and 13 and is shifted. In degree 1, edge 02 enters unshifted
    and edge 01 shifted."""
    bnd = [s2.boundary_matrix(i) for i in range(3)]
    allow = [[0, 2], [0, 1, 3], [0, 1]]
    assert [s2.simplices(1)[j] for j in allow[1]] == [(0, 1), (0, 2), (1, 2)]
    reduced = []
    reduce = linalg._reduce

    def spy(cols, *args, **kw):
        reduced.append(cols)
        return reduce(cols, *args, **kw)

    monkeypatch.setattr(linalg, "_reduce", spy)
    out = linalg.chain_ranks(bnd, allow)
    d2, d1 = reduced
    assert d2[0] is bnd[2][0] and d2[1] is not bnd[2][1]
    assert len(d1) == 2  # edge 12 was cleared
    assert d1[0] is not bnd[1][0] and d1[1] is bnd[1][1]
    monkeypatch.undo()
    for i in (1, 2):
        cols = [bnd[i][j] for j in allow[i]]
        bad = [{r: v for r, v in col.items() if r not in allow[i - 1]} for col in cols]
        assert out[i] == (linalg.rank(cols), linalg.rank(bad)), i
    assert out == [(0, 0), (2, 1), (2, 1)]


def test_chain_ranks_copy_a_column_that_meets_dropped_and_non_allowable_rows(s2, monkeypatch):
    """The tetrahedron boundary with vertex 3 dropped, vertex 0 allowed and
    vertices 1, 2 non-allowable, on the allowed edges 01, 02 and 13. Edge 13
    meets dropped vertex 3 and non-allowable vertex 1: it enters as one
    copy, with row 3 deleted and row 1 moved below the 4 vertex rows."""
    bnd = [s2.boundary_matrix(i) for i in range(3)]
    before = copy.deepcopy(bnd)
    allow, drop = [[0], [0, 1, 4], []], [[3], [], []]
    assert [s2.simplices(1)[j] for j in allow[1]] == [(0, 1), (0, 2), (1, 3)]
    reduced = []
    reduce = linalg._reduce

    def spy(cols, *args, **kw):
        reduced.append(cols)
        return reduce(cols, *args, **kw)

    monkeypatch.setattr(linalg, "_reduce", spy)
    out = linalg.chain_ranks(bnd, allow, None, drop)
    monkeypatch.undo()
    (d1,) = [cols for cols in reduced if cols]
    assert d1 == [{0: -1, 5: 1}, {0: -1, 6: 1}, {5: -1}]
    assert all(col is not bnd[1][j] for col, j in zip(d1, allow[1]))
    assert bnd == before
    # rows 1 and 2 hold the edges' non-allowable block: (1), (2), -(1)
    assert out == [(0, 0), (3, 2), (0, 0)]
    assert out == linalg.chain_ranks(_deleted(bnd, drop), allow)
    # kept as a non-allowable row, vertex 3 would add to that block's rank
    assert linalg.chain_ranks(bnd, allow) == [(0, 0), (3, 3), (0, 0)]


def test_reduce_stores_a_new_pivot_column_as_given():
    cols = [{0: 1}, {1: 1, 2: 1}, {1: 1, 2: -1}, {0: -1}]
    before = copy.deepcopy(cols)
    pivots = linalg._reduce(cols)
    # columns 0 and 1 meet a new pivot row at once and are stored as given;
    # column 2 is reduced on a copy to a new pivot in row 1; column 3 vanishes
    assert pivots[0] is cols[0] and pivots[2] is cols[1]
    assert pivots[1] == {1: 2} and pivots[1] is not cols[2]
    assert len(pivots) == 3
    assert cols == before


def test_zero_combinations_follow_the_identity_row_convention():
    """Every combination annihilates the columns and has its own column as
    its largest index, and the columns reported are exactly those that
    depend on the earlier ones (by the dense oracle), in column order."""
    rng = random.Random(17)
    for _ in range(200):
        nr, nc = rng.randint(1, 7), rng.randint(1, 9)
        cols = _random_cols(rng, nr, nc, density=rng.choice((0.2, 0.5, 0.9)))
        if rng.random() < 0.3:
            cols.insert(rng.randint(0, nc), cols[rng.randrange(nc)])
        combos = linalg._zero_combinations(cols)
        for c in combos:
            assert not linalg.combine_columns(cols, [c])[0]
            assert all(c.values())
        dependent = [j for j in range(len(cols))
                     if _dense_rank(cols[:j + 1], nr) == _dense_rank(cols[:j], nr)]
        assert [max(c) for c in combos] == dependent
        assert len(combos) == len(cols) - _dense_rank(cols, nr)


def test_zero_combinations_of_a_dict_listed_twice():
    col = {0: 1, 1: -1}
    assert linalg._zero_combinations([col, col]) == [{0: -1, 1: 1}]
    assert linalg._zero_combinations([col, {2: 3}, col]) == [{0: -1, 2: 1}]
    assert col == {0: 1, 1: -1}


def test_empty_columns_are_their_own_combinations_without_a_reduction(monkeypatch):
    """An empty column j gives {j: 1} in its place in column order, and only
    the columns with entries are reduced: none at all when every column is
    empty, as `kernel` sees in the degrees of a chain model with no
    non-allowable row."""
    seen = []
    reduce = linalg._reduce

    def spy(cols, *rest):
        seen.extend(cols)
        return reduce(cols, *rest)

    monkeypatch.setattr(linalg, "_reduce", spy)
    empty = [{} for _ in range(5)]
    assert linalg._zero_combinations(empty) == [{j: 1} for j in range(5)]
    assert linalg.kernel(empty) == [{j: 1} for j in range(5)]
    assert linalg._zero_combinations([]) == []
    assert seen == []
    col = {0: 2, 1: -2}
    got = linalg._zero_combinations([{}, col, {}, {0: 1, 1: -1}, {}, col])
    assert got == [{0: 1}, {2: 1}, {1: 1, 3: -2}, {4: 1}, {1: -1, 5: 1}]
    assert seen == [{0: 2, 1: -2, -5: 1}, {0: 1, 1: -1, -3: 1}, {0: 2, 1: -2, -1: 1}]


def test_chain_ranks_mixes_unit_and_fraction_degrees(s2, monkeypatch):
    """The tetrahedron boundary with ∂_2 left as ±1 ints, or as ±1 Fractions,
    and the rows of ∂_1 scaled by Fractions and a non-primitive int
    (∂_1 ∂_2 stays zero). `chain_ranks` takes integer columns, so every
    degree is mapped through `col_primitive` first, as `cohomology_dims`
    does; the result must match two independent ranks per degree of the
    rational columns. `_reduce` sees only int entries, and the ±1 int
    columns of ∂_2 that meet no non-allowable row enter as they are."""
    scale = [Fraction(1, 2), -3, Fraction(2, 3), Fraction(5, 7)]
    d1 = [{r: v * scale[r] for r, v in col.items()} for col in s2.boundary_matrix(1)]
    units = s2.boundary_matrix(2)
    for d2 in (units, [{r: Fraction(v) for r, v in col.items()} for col in units]):
        bnd = [_zero_cols(4), d1, d2]
        assert not any(linalg.combine_columns(bnd[1], bnd[2]))
        prim = [bnd[0], list(map(linalg.col_primitive, d1)),
                d2 if d2 is units else list(map(linalg.col_primitive, d2))]
        seen = []
        reduce = linalg._reduce

        def spy(cols, *args, **kw):
            seen.append(cols)
            return reduce(cols, *args, **kw)

        rng = random.Random(5)
        for _ in range(20):
            allow = [sorted(rng.sample(range(len(b)), rng.randint(0, len(b)))) for b in bnd]
            seen.clear()
            monkeypatch.setattr(linalg, "_reduce", spy)
            out = linalg.chain_ranks(prim, allow)
            monkeypatch.undo()
            assert all(type(v) is int for cols in seen for col in cols for v in col.values())
            if d2 is units:
                moved = set(range(len(bnd[1]))).difference(allow[1])
                assert all(col is units[j] for col, j in zip(seen[0], allow[2])
                           if moved.isdisjoint(units[j]))
            for i in (1, 2):
                cols = [bnd[i][j] for j in allow[i]]
                bad = [{r: v for r, v in col.items() if r not in allow[i - 1]} for col in cols]
                assert out[i] == (linalg.rank(cols), linalg.rank(bad)), (i, allow)


def test_chain_ranks_counts_a_repeated_column_once():
    """A dict listed twice is one column of rank one, not two pivots."""
    col = {0: 1, 1: -1}
    for bnd in ([_zero_cols(2), [col, col]], [_zero_cols(2), [col, dict(col)]]):
        assert linalg.chain_ranks(bnd, [[0, 1], [0, 1]]) == [(0, 0), (1, 0)]
        assert linalg.chain_ranks(bnd, [[0], [0, 1]]) == [(0, 0), (1, 1)]


@pytest.mark.parametrize("col, want", [
    ({0: 1, 3: -1}, {0: 1, 3: -1}),
    ({2: -1}, {2: -1}),
    ({0: 4, 1: -6, 5: 10}, {0: 2, 1: -3, 5: 5}),
    ({0: Fraction(1, 2), 2: Fraction(-1, 3)}, {0: 3, 2: -2}),
    ({1: Fraction(2, 3), 4: Fraction(4, 3)}, {1: 1, 4: 2}),
    ({5: Fraction(-3, 1)}, {5: -1}),
    ({1: 2, 2: Fraction(1, 2)}, {1: 4, 2: 1}),
    ({0: 0, 3: 1}, {3: 1}),
    ({0: 0, 1: 2, 2: -4}, {1: 1, 2: -2}),
    ({1: Fraction(0), 2: Fraction(1, 2)}, {2: 1}),
    ({0: 0}, {}),
    ({}, {}),
    ({0: -2, 1: -4}, {0: -1, 1: -2}),
    ({0: -1, 1: -3}, {0: -1, 1: -3}),
], ids=["unit", "minus-one", "common-factor", "fractions", "fractions-common-factor",
        "integral-fraction", "mixed", "zero-unit", "zero-common-factor", "zero-fraction",
        "only-zero", "empty", "negative-common-factor", "negative-primitive"])
def test_col_primitive_contract(col, want):
    before = dict(col)
    got = linalg.col_primitive(col)
    assert got == want
    assert all(type(v) is int for v in got.values())
    # a column that is already primitive comes back as it is, any other anew
    assert (got is col) == (got == col and all(type(v) is int for v in col.values()))
    assert col == before


def test_elimination_leaves_its_arguments_unchanged():
    rng = random.Random(14)
    for _ in range(100):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        cols = _random_cols(rng, nr, nc, lo=-1, hi=1) + _random_cols(rng, nr, nc)
        before = copy.deepcopy(cols)
        # a primitive column comes back as it is, and no column is changed
        for col in cols:
            prim = linalg.col_primitive(col)
            assert (prim is col) == (prim == col)
        assert cols == before
        linalg.rank(cols)
        assert cols == before
        # cols as ∂_1 over nr vertices, with drawn allowed rows and columns
        bnd = [_zero_cols(nr), cols]
        allow = [sorted(rng.sample(range(nr), rng.randint(0, nr))),
                 sorted(rng.sample(range(len(cols)), rng.randint(0, len(cols))))]
        before = copy.deepcopy((bnd, allow))
        linalg.chain_ranks(bnd, allow)
        assert (bnd, allow) == before


def test_large_entries_renormalize_tracked_combinations(monkeypatch):
    rng = random.Random(130)
    big = 1 << 130
    rows = [[rng.choice([0, 1, -1]) * (big + rng.randint(-9, 9)) for _ in range(7)]
            for _ in range(5)]
    cols = _columns(rows, 7)
    renormalized = []
    shrink = linalg._shrink

    def spy(col):
        out = shrink(col)
        # a column of `kernel` carries its combination in negative rows
        if out is not col and min(col) < 0:
            renormalized.append(True)
        return out

    monkeypatch.setattr(linalg, "_shrink", spy)
    kern = linalg.kernel(cols)
    assert renormalized
    assert len(kern) == 7 - _domain(rows, 5, 7).rank()
    for kv in kern:
        assert not linalg.combine_columns(cols, [kv])[0]
    assert linalg.rank(cols) == _domain(rows, 5, 7).rank()
    assert linalg.rcef(cols) == _sympy_rcef(rows, 7)


# ------------------------------------------------------------ pinned outputs

def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _sorted_cols(cols):
    return [sorted((r, str(Fraction(v))) for r, v in col.items()) for col in cols]


def _named_perversities(n):
    if n < 1:
        return [pv.zero_perversity(n)]
    return [pv.zero_perversity(n), pv.top_perversity(n), *pv.middle_perversities(n)]


def _bases_digest(K):
    bases = [_sorted_cols(b) for p in _named_perversities(K.n)
             for b in StratifiedChainComplex(K, p).bases]
    return _digest(bases)


def _kodaira_digest():
    parts = []
    for seed in range(25):
        rng = random.Random(seed)
        C = hb.random_complex(rng)
        for i, dim in enumerate(C.dims):
            if dim:
                v = [rng.randint(-3, 3) for _ in range(dim)]
                parts.append(_sorted_cols(kodaira_parts(C, i, v)))
    return _digest(parts)


def _scan_reduce(cols, pivot=max, pivots=None):
    """`linalg._reduce` with every pivot row found by a scan of the whole
    working column (`max` or `min`): the reference for its heap."""
    pivots = {} if pivots is None else pivots
    for raw in cols:
        col = raw
        while col:
            row = pivot(col)
            pcol = pivots.setdefault(row, col)
            if pcol is col:
                break
            a, b = pcol[row], col[row]
            q, rem = divmod(b, a)
            if rem:
                col = linalg._shrink(linalg._combine(col, a, pcol, b))
            else:
                if col is raw:
                    col = dict(raw)
                linalg._subtract(col, q, pcol)
    return pivots


def _ordered(pivots):
    """A pivot table with every column as its item list, so that equal
    means the same entries in the same order."""
    return [(r, list(c.items())) for r, c in pivots.items()]


def _outputs(cols):
    """rank, zero combinations, kernel and rcef of the integer columns
    `cols`, every dict as its item list."""
    return (linalg.rank(cols), [list(c.items()) for c in linalg._zero_combinations(cols)],
            [list(c.items()) for c in linalg.kernel(cols)],
            [list(c.items()) for c in linalg.rcef(cols)])


def _same_as_scan(cols, monkeypatch):
    """`_reduce`, and rank, the zero combinations, kernel and rcef, give
    exactly what the scan reference gives."""
    assert _ordered(linalg._reduce(cols)) == _ordered(_scan_reduce(cols))
    got = _outputs(cols)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_reduce", _scan_reduce)
        assert got == _outputs(cols)


def _count_heaps(monkeypatch):
    built = []
    heap_of = linalg._heap_of

    def spy(col):
        built.append(len(col))
        return heap_of(col)

    monkeypatch.setattr(linalg, "_heap_of", spy)
    return built


def test_heap_pivots_match_a_scan_on_filled_in_boundaries(ih_ladder, dropped_boundary,
                                                          monkeypatch):
    """The columns that `chain_ranks` reduces for the zero perversity on
    cone(sd(susp t2)): in degree 4 the base's fundamental cycle fills in to
    672 entries, past `_HEAP_AFTER`, and finds its pivots through a heap."""
    K = ih_ladder["cone(sd(susp t2))"]
    allow = StratifiedChainComplex(K, pv.zero_perversity(K.n)).allowable_indices
    seen = []
    with monkeypatch.context() as m:
        reduce = linalg._reduce
        m.setattr(linalg, "_reduce", lambda cols, *a, **kw: seen.append(cols) or reduce(cols, *a, **kw))
        linalg.chain_ranks(dropped_boundary(K), allow)
    assert max(len(c) for c in linalg._reduce(seen[0]).values()) == 672
    built = _count_heaps(monkeypatch)
    for cols in seen:
        _same_as_scan(cols, monkeypatch)
    assert built


@pytest.mark.parametrize("cutoff", [0, 3, linalg._HEAP_AFTER])
def test_heap_pivots_match_a_scan_on_a_dense_matrix(cutoff, monkeypatch):
    """A seeded dense integer matrix, with the cutoff also lowered so that
    nearly every working column goes through the heap, in `rcef` too."""
    rng = random.Random(16)
    cols = _random_cols(rng, 24, 30, density=0.8, lo=-4, hi=4)
    monkeypatch.setattr(linalg, "_HEAP_AFTER", cutoff)
    built = _count_heaps(monkeypatch)
    _same_as_scan(cols, monkeypatch)
    assert bool(built) == (cutoff < 24)


def _rcef_on_topmost_rows(cols):
    """`rcef` as a reduction that pivots on each column's topmost row (the
    scan reference with `min`), then divides by the pivots and
    back-substitutes: the reference for its reflected rows."""
    basis = {
        top: {r: Fraction(v, col[top]) for r, v in col.items()}
        for top, col in _scan_reduce(list(map(linalg.col_primitive, cols)), pivot=min).items()
    }
    for top in sorted(basis, reverse=True):
        col = basis[top]
        for other in sorted(r for r in col if r != top and r in basis):
            f = col.get(other)
            if f is not None:
                linalg._subtract(col, f, basis[other])
    return [list(basis[top].items()) for top in sorted(basis)]


@pytest.mark.parametrize("cutoff", [0, linalg._HEAP_AFTER])
def test_rcef_keeps_topmost_row_pivots_on_a_dense_matrix(cutoff, monkeypatch):
    cols = _random_cols(random.Random(16), 24, 30, density=0.8, lo=-4, hi=4)
    monkeypatch.setattr(linalg, "_HEAP_AFTER", cutoff)
    assert [list(c.items()) for c in linalg.rcef(cols)] == _rcef_on_topmost_rows(cols)


def test_rcef_keeps_topmost_row_pivots_on_zero_perversity_chains(spaces, monkeypatch):
    """The columns that `StratifiedChainComplex.bases` hands to `rcef` for the
    zero perversity on every corpus space."""
    seen = []
    rcef = linalg.rcef
    monkeypatch.setattr(linalg, "rcef", lambda cols: seen.append(cols) or rcef(cols))
    for K in spaces.values():
        StratifiedChainComplex(K, pv.named_perversity("zero", K.n)).bases
    monkeypatch.undo()
    assert sum(map(len, seen)) > 100
    for cols in seen:
        assert [list(c.items()) for c in linalg.rcef(cols)] == _rcef_on_topmost_rows(cols)


def test_chain_ranks_from_a_shared_table_leaves_it_unchanged(s2):
    """The tetrahedron boundary with the triangle 012 and its faces as the
    subcomplex: its pivot table is built from the columns that clearing does
    not skip, copied per call, never updated, and the ranks equal those of
    the plain path for every allowed set."""
    bnd = [s2.boundary_matrix(i) for i in range(3)]
    inner = [[0, 1, 2], [0, 1, 3], [0]]
    asked = []

    def columns(i, js):
        asked.append((i, js))
        return [bnd[i][j] for j in js]

    table = list(zip([[3], [2, 4, 5], [1, 2, 3]], linalg.subcomplex_pivots(columns, inner)))
    # the triangle's pivot row, edge 3, clears that edge; degree 0 is never asked
    assert asked == [(2, [0]), (1, [0, 1])]
    before = copy.deepcopy(table)
    rng = random.Random(3)
    for _ in range(20):
        near = [sorted(rng.sample(rows, rng.randint(0, len(rows)))) for rows, _ in table]
        allow = [sorted(a + b) for a, b in zip(inner, near)]
        assert linalg.chain_ranks(bnd, near, table) == linalg.chain_ranks(bnd, allow), near
    assert table == before


# sha256 of the sorted-items bases of StratifiedChainComplex(K, p) over the
# named perversities of every corpus space, and of the Kodaira parts of 25
# seeded random complexes. Both are canonical (rcef bases, orthogonal
# projections), so no change to the elimination may alter them.
PINNED_BASES = {
    "cone_cone_s1": "63ebb55d8debcad4150713571e1042fd5b59bb4b270c49b05dc26d9065d7204a",
    "cone_s1_c_half": "0c15b751311bee6fa968f5cf77854dc41268f01327d36ed498d9e344a11c2100",
    "cone_t2": "a95aceb473fd8a410ad315647df1ab4b7656a3f5c15b7ab4bd41c527e39e4113",
    "mobius": "b713f44710b892e5c8306102cb261f5b9f8ec6852bfcef5aebfad6f5174274d5",
    "point": "7fc91e51826a888dfe88a077066093c377ca2a8053332aad8b9e691add642534",
    "s0": "c16ae42141dc42d2bac3ebca9975c34557be2e424800988434a786cfb592b10b",
    "s1_hex": "bd8d569191e5d19f79a3e37300105419615d5f92e3462e6f5fc28e6bad89f478",
    "s2": "6200e069e41275493a834fbe74f2fb3f12961830072232242bd4745e42f8d4c2",
    "susp_s0": "75b68fec1a14687a04f77a1b36d10e4a6e929e7fe3c483286be3cfe117d8c4a7",
    "susp_s2": "7f583bb0516763065858936e5461c9fa03f2c7dd5f9dc3078186b26715203f1d",
    "susp_t2": "ba6c897f431414c6677f990fdcb405f807d03e149bec32441cb6f10a5d283eb5",
    "t2_7": "62461993e7266b577679558a9e26e733eea297782935459a7eb0adba566ef0c5",
}

PINNED_KODAIRA = "13b3c10b1cb6ca1ed91da241633a4bcd0215581f1bca4a6d94d1821bb84242a2"


@pytest.mark.parametrize("name", sorted(PINNED_BASES))
def test_chain_bases_pinned(spaces, name):
    assert _bases_digest(spaces[name]) == PINNED_BASES[name]


def test_kodaira_parts_pinned():
    assert _kodaira_digest() == PINNED_KODAIRA
