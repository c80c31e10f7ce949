"""Finite Hilbert complexes: validation, harmonic theory, duality, index."""

import random
import tracemalloc
from fractions import Fraction as F

import pytest
from conftest import kodaira_parts, laplacian_cols, stacked_cols
from sympy import Matrix, Rational

from stratal import hilbert as hb
from stratal import linalg, verify
from stratal.errors import ConfigurationError, ConstructionError
from stratal.rationals import format_rational


def _cochain_complex(K):
    dims = list(K.counts())
    mats = [
        linalg.transpose_cols(K.boundary_matrix(i), dims[i - 1])
        for i in range(1, K.n + 1)
    ]
    return hb.validate(dims, mats)


def test_validate_zero_and_error_cases():
    z = hb.validate([2, 3], [[[0, 0], [0, 0], [0, 0]]])
    assert hb.cohomology_dims(z) == (2, 3)
    with pytest.raises(ConstructionError):
        hb.validate([1, 1, 1], [[[1]], [[1]]])


def test_validate_simplicial_cochain_complexes(spaces):
    for name in ("s2", "t2_7", "s1_hex"):
        C = _cochain_complex(spaces[name])
        assert hb.cohomology_dims(C) == spaces[name].betti()


def test_cohomology_examples(s2):
    C = _cochain_complex(s2)
    assert hb.cohomology_dims(C) == (1, 0, 1)
    exact = hb.validate([1, 1], [[[1]]])
    assert hb.cohomology_dims(exact) == (0, 0)


def test_harmonic_equals_cohomology(s2, spaces):
    for name in ("s2", "t2_7"):
        C = _cochain_complex(spaces[name])
        assert hb.harmonic_dims(C) == hb.cohomology_dims(C)
    z = hb.validate([4, 2], [[[0] * 4, [0] * 4]])
    assert hb.harmonic_dims(z) == (4, 2)


@pytest.mark.parametrize("draw", ["s2", 3, 29])
def test_harmonic_dims_reduce_the_stored_columns_of_both_maps(draw, s2, monkeypatch):
    """`harmonic_dims` ranks [D_i^T | D_{i-1}], once per degree, as the
    very column dicts the complex stores for D_i^T and D_{i-1}: no stacked
    copy is built."""
    C = _cochain_complex(s2) if draw == "s2" else hb.random_complex(random.Random(draw))
    seen = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda cols: seen.append(cols) or rank(cols))
    assert hb.harmonic_dims(C) == hb.cohomology_dims(C)
    assert len(seen) == len(C.dims)
    for i, cols in enumerate(seen):
        want = C.maps[i + 1].t.cols + C.maps[i].cols
        assert len(cols) == len(want) and all(a is b for a, b in zip(cols, want))


def test_kodaira_trivial_cases(s2):
    C = _cochain_complex(s2)
    # constant 0-cochain is harmonic for the sphere complex
    v = {r: F(1) for r in range(C.dims[0])}
    h, e, c, d = hb.kodaira_decompose(C, 0, v)
    assert h == {r: d for r in v} and not e and not c
    # an exact vector comes back entirely in the exact part
    d0 = C.maps[1].cols
    img = linalg.combine_columns(d0, [{0: 1, 2: -2}])[0]
    h, e, c, d = hb.kodaira_decompose(C, 1, img)
    assert not h and not c
    assert e == {r: v * d for r, v in img.items()}


def test_kodaira_random_reconstruction(s2):
    C = _cochain_complex(s2)
    rng = random.Random(8)
    for i in range(len(C.dims)):
        v = {r: rng.randint(-4, 4) for r in range(C.dims[i])}
        h, e, c, d = hb.kodaira_decompose(C, i, v)
        rec = {}
        for part in (h, e, c):
            for r, val in part.items():
                rec[r] = rec.get(r, 0) + val
        assert {r: v for r, v in rec.items() if v} == {
            r: val * d for r, val in v.items() if val
        }
        assert linalg.dot(h, e) == 0
        assert linalg.dot(h, c) == 0
        assert linalg.dot(e, c) == 0


def test_kodaira_parts_are_int_numerators_over_a_positive_denominator(s2):
    """On the sphere cochain complex and 50 seeded random complexes, in every
    degree, `kodaira_decompose` returns three dicts of nonzero ints and one
    int d > 0, whose sum is d·v and whose pairwise dot products are zero."""
    rng = random.Random(44)
    complexes = [_cochain_complex(s2), *(hb.random_complex(random.Random(seed))
                                         for seed in range(50))]
    for C in complexes:
        for i, dim in enumerate(C.dims):
            v = {r: x for r in range(dim) if (x := rng.randint(-3, 3))}
            *parts, d = hb.kodaira_decompose(C, i, v)
            h, e, c = parts
            assert type(d) is int and d > 0
            assert all(type(x) is int and x for part in parts for x in part.values())
            (rec,) = linalg.combine_columns(parts, [{0: 1, 1: 1, 2: 1}])
            assert rec == {r: x * d for r, x in v.items()}
            assert linalg.dot(h, e) == linalg.dot(h, c) == linalg.dot(e, c) == 0


def test_dual_complex_reversal(s2):
    C = _cochain_complex(s2)
    D, rep = hb.dual_complex(C)
    assert rep["pass"]
    assert rep["dual_cohomology"] == [1, 0, 1]
    z = hb.validate([1, 2], [[[0], [0]]])
    D, rep = hb.dual_complex(z)
    assert D.dims == (2, 1)
    assert rep["cohomology"] == [1, 2] and rep["dual_cohomology"] == [2, 1]
    assert rep["pass"]


def _spy_reduce(monkeypatch):
    """The column lists that `linalg._reduce` is called on, as a list that
    fills while the test runs."""
    seen = []
    reduce = linalg._reduce

    def spy(cols, *rest):
        seen.append(cols)
        return reduce(cols, *rest)

    monkeypatch.setattr(linalg, "_reduce", spy)
    return seen


def _prims(cols):
    return [linalg.col_primitive(c) for c in cols]


@pytest.mark.parametrize("draw", ["s2", 1, 7, 11])
def test_validate_reduces_each_map_and_its_transpose_once(draw, s2, monkeypatch):
    """`validate` reduces each D_i and then D_i^T, for i in -1..n-1, once
    each and nothing else. After it, `cohomology_dims`, `dual_complex` and
    the dual's dual reduce nothing, and each `kodaira_decompose` reduces
    only its one normal system, over the pivot columns of D_{i-1} and of
    D_i^T joined, whose columns all carry identity rows (negative row
    indices), which no column of a D_i or D_i^T has."""
    K = _cochain_complex(s2) if draw == "s2" else hb.random_complex(random.Random(draw))
    seen = _spy_reduce(monkeypatch)
    C = hb.validate(list(K.dims), [m.cols for m in K.maps[1:-1]])
    n = len(C.dims)
    assert seen == [_prims(cols) for m in C.maps
                    for cols in (m.cols, linalg.transpose_cols(m.cols, len(m.t.cols)))]
    assert len(seen) == 2 * (n + 1)
    assert all(min(col) >= 0 for cols in seen for col in cols if col)
    seen.clear()
    D, rep = hb.dual_complex(C)
    E, again = hb.dual_complex(D)
    assert rep["pass"] and again["pass"] and E.dims == C.dims
    assert list(hb.cohomology_dims(C)) == rep["cohomology"] == again["dual_cohomology"]
    assert seen == []
    for i, dim in enumerate(C.dims):
        hb.kodaira_decompose(C, i, list(range(1, dim + 1)))
        assert len(seen) == 1 and all(min(col) < 0 for cols in seen for col in cols)
        seen.clear()


@pytest.mark.parametrize("shape", [([], []), ([3], []), ([0, 2, 0], [[[], []], []]), "s2"])
def test_a_complex_holds_one_list_of_maps_and_its_dual_reads_them(shape, s2, monkeypatch):
    """`maps[i + 1]` is D_i for i in -1..n-1, zero end maps included; the
    dual holds C's maps reversed, each as its transpose, and the dual of the
    dual holds C's own maps and reduces nothing to build its report."""
    C = _cochain_complex(s2) if shape == "s2" else hb.validate(*shape)
    n = len(C.dims)
    assert len(C.maps) == n + 1
    assert C.maps[0].cols == [] and len(C.maps[-1].t.cols) == 0
    assert [len(m.t.cols) for m in C.maps] == [*C.dims, 0]
    assert [len(m.cols) for m in C.maps] == [0, *C.dims]
    D, rep = hb.dual_complex(C)
    assert rep["pass"] and D.dims == C.dims[::-1]
    assert all(D.maps[j] is C.maps[n - j].t and D.maps[j].t is C.maps[n - j]
               for j in range(n + 1))
    seen = _spy_reduce(monkeypatch)
    E, again = hb.dual_complex(D)
    assert seen == [] and again["dual_cohomology"] == rep["cohomology"]
    assert E.dims == C.dims and all(e is c for e, c in zip(E.maps, C.maps, strict=True))


def _suite_with(monkeypatch, change):
    """`suite_hilbert` with each Kodaira decomposition passed through
    `change`."""
    decompose = hb.kodaira_decompose

    def patched(C, i, v):
        *parts, d = change(*decompose(C, i, v))
        return (*({r: x for r, x in part.items() if x} for part in parts), d)

    monkeypatch.setattr(hb, "kodaira_decompose", patched)
    return verify.suite_hilbert()


def _move_half(h, e, c, d):
    """Half of the first harmonic entry moved to the exact part, over the
    denominator 2d: the parts still sum to v, but they are no longer
    orthogonal."""
    if not h:
        return h, e, c, d
    r = next(iter(h))
    h, e, c = ({k: 2 * x for k, x in part.items()} for part in (h, e, c))
    return {**h, r: h[r] // 2}, {**e, r: e.get(r, 0) + h[r] // 2}, c, 2 * d


def _perturb(h, e, c, d):
    """One harmonic entry outside the supports of the exact and coexact
    parts off by one, where there is one: v is not their sum, but the parts
    stay orthogonal, so only the reconstruction check can see it."""
    r = next((r for r in h if r not in e and r not in c), None)
    return ({**h, r: h[r] + d} if r is not None else h), e, c, d


def test_the_hilbert_suite_checks_the_kodaira_parts(s2, monkeypatch):
    assert verify.suite_hilbert().passed
    # a vertex of the tetrahedron: a constant harmonic part and a coexact rest
    h, e, c, d = _move_half(*hb.kodaira_decompose(_cochain_complex(s2), 0, [1, 0, 0, 0]))
    rec = {r: h.get(r, 0) + e.get(r, 0) + c.get(r, 0) for r in range(4)}
    assert rec == {0: d, 1: 0, 2: 0, 3: 0} and linalg.dot(h, e)
    for change in (_move_half, _perturb):
        report = _suite_with(monkeypatch, change)
        assert not report.passed, change.__name__
        monkeypatch.undo()
    assert verify.suite_hilbert().passed


def test_index_examples(s2):
    assert hb.index_even_odd(_cochain_complex(s2)) == 2
    exact = hb.validate([1, 1], [[[1]]])
    assert hb.index_even_odd(exact) == 0
    z31 = hb.validate([3, 1], [[[0, 0, 0]]])
    assert hb.index_even_odd(z31) == 2


def test_laplacian_kernel_is_harmonic_space(s2):
    C = _cochain_complex(s2)
    for i in range(len(C.dims)):
        lap_kernel = linalg.rcef(linalg.kernel(laplacian_cols(C, i)))
        down = C.maps[i + 1].cols
        up_t = (
            linalg.transpose_cols(C.maps[i].cols, C.dims[i])
            if i > 0
            else [{} for _ in range(C.dims[i])]
        )
        stacked_kernel = linalg.rcef(
            linalg.kernel(stacked_cols(down, up_t, len(C.maps[i + 1].t.cols)))
        )
        assert lap_kernel == stacked_kernel


def test_random_complexes_properties():
    rng = random.Random(99)
    for _ in range(30):
        C = hb.random_complex(rng)
        ch = hb.cohomology_dims(C)
        assert hb.harmonic_dims(C) == ch
        _, rep = hb.dual_complex(C)
        assert rep["pass"]
        assert hb.index_even_odd(C) == sum((-1) ** i * h for i, h in enumerate(ch))


@pytest.mark.parametrize("entry", [True, False, 0.1, 1.0, None, [1]])
def test_validate_rejects_non_rational_entries(entry):
    # a bool or float is never read as a number: Fraction(0.1) is a binary
    # approximation, not one tenth; the error names the differential, as
    # for column dicts
    with pytest.raises(ConstructionError, match="D_0"):
        hb.validate([1, 1], [[[entry]]])


@pytest.mark.parametrize("entry", [True, False, 0.1, 0.5, None, [1], "1/0"])
def test_validate_rejects_non_rational_column_entries(entry):
    # read like the dense form: {0: 0.5} would fail later in cohomology_dims,
    # and {0: True} would be read as 1
    with pytest.raises(ConstructionError, match="D_1"):
        hb.validate([1, 1, 1], [[{}], [{0: entry}]])


def test_validate_checks_row_lengths_before_allocating_columns():
    """A dense D_0 of one 1-entry row claiming 99,999 columns is rejected
    before one dict per claimed column is built."""
    tracemalloc.start()
    try:
        with pytest.raises(ConstructionError, match="row 0 has length 1, expected 99999"):
            hb.validate([99_999, 1], [[[0]]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_validate_bounds_the_total_dimension():
    bound = hb.MAX_TOTAL_DIMENSION
    assert hb.validate([bound - 1, 1], [[[0] * (bound - 1)]]).dims == (bound - 1, 1)
    row = [0] * bound
    tracemalloc.start()
    try:
        with pytest.raises(ConstructionError,
                           match=f"total dimension {bound + 1} exceeds the bound {bound}"):
            hb.validate([bound, 1], [[row]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_validate_accepts_int_fraction_and_text_entries():
    C = hb.validate([1, 2], [[[2], [F(1, 3)]]])
    D = hb.validate([1, 2], [[["2/1"], ["1/3"]]])
    E = hb.validate([1, 2], [[{0: "2", 1: "1/3"}]])
    Z = hb.validate([1, 2], [[{0: 0, 1: "0/5"}]])
    assert C.maps[1].cols == D.maps[1].cols == E.maps[1].cols == [{0: 2, 1: F(1, 3)}]
    assert Z.maps[1].cols == [{}]


def test_validate_keeps_int_entries_in_both_forms():
    """Dense and column-dict entries go through one reader: an int stays an
    int in both forms, and a Fraction or "p/q" text becomes a Fraction."""
    dense = hb.validate([1, 2], [[[2], ["1/3"]]]).maps[1].cols
    columns = hb.validate([1, 2], [[{0: 2, 1: "1/3"}]]).maps[1].cols
    for col in (dense[0], columns[0]):
        assert (type(col[0]), type(col[1])) == (int, F)


def test_cohomology_dims_of_rational_and_non_primitive_differentials(s2):
    """The tetrahedron boundary as a cochain complex with the rows of ∂_1
    (the vertices) scaled by 1/2, -3, 2/3 and 5/7: D_0 has Fraction entries
    and a column of ±3, and D_1 D_0 stays zero. `cohomology_dims` must agree
    with `harmonic_dims` and with two independent ranks per degree."""
    scale = [F(1, 2), -3, F(2, 3), F(5, 7)]
    d1 = [{r: v * scale[r] for r, v in col.items()} for col in s2.boundary_matrix(1)]
    dims = list(s2.counts())
    C = hb.validate(dims, [linalg.transpose_cols(d1, dims[0]),
                           linalg.transpose_cols(s2.boundary_matrix(2), dims[1])])
    assert {v for col in C.maps[1].cols for v in col.values()} >= {F(-1, 2), 3, -3}
    ranks = [linalg.rank(C.maps[i + 1].cols) for i in range(len(dims))]
    direct = tuple(d - ranks[i] - (ranks[i - 1] if i else 0) for i, d in enumerate(dims))
    assert hb.cohomology_dims(C) == hb.harmonic_dims(C) == direct == (1, 0, 1)


def _oracle_projection(v, cols, nrows):
    """B (BᵀB)⁻¹ Bᵀ v in sympy, for B the pivot columns of the column matrix."""
    A = Matrix(nrows, len(cols), lambda r, c: Rational(str(F(cols[c].get(r, 0)))))
    vec = Matrix(nrows, 1, lambda r, _: Rational(str(F(v.get(r, 0)))))
    B = A[:, list(A.rref()[1])]
    if B.cols == 0:
        return {}
    proj = B * (B.T * B).inv() * B.T * vec
    return {r: F(int(x.p), int(x.q)) for r, x in enumerate(proj) if x}


def _vectors(rng, dim):
    yield {}
    yield {r: F(rng.randint(-9, 9), rng.randint(1, 12)) for r in range(dim)}
    yield {r: rng.randint(-3, 3) for r in range(dim) if rng.random() < 0.5}


def test_projection_and_kodaira_match_sympy_oracle(project_onto_span):
    rng = random.Random(41)
    for _ in range(12):
        C = hb.random_complex(rng)
        for i, dim in enumerate(C.dims):
            if not dim:
                continue
            exact_span = C.maps[i].cols
            coexact_span = linalg.transpose_cols(C.maps[i + 1].cols, len(C.maps[i + 1].t.cols))
            spans = [cols for cols in (exact_span, coexact_span) if cols]
            in_span = [linalg.combine_columns(cols, [{0: F(3, 7), len(cols) - 1: -2}])[0]
                       for cols in spans]
            for v in [*_vectors(rng, dim), *in_span]:
                v = {r: x for r, x in v.items() if x}
                for cols in spans:
                    got = project_onto_span(v, cols)
                    assert got == _oracle_projection(v, cols, dim)
                    assert all(type(x) is F for x in got.values())
                h, e, c = kodaira_parts(C, i, v)
                want_e = _oracle_projection(v, exact_span, dim) if exact_span else {}
                want_c = _oracle_projection(v, coexact_span, dim)
                assert e == want_e and c == want_c
                want_h = {r: F(v.get(r, 0)) - want_e.get(r, 0) - want_c.get(r, 0)
                          for r in range(dim)}
                assert h == {r: x for r, x in want_h.items() if x}
            for v, cols in zip(in_span, spans):
                assert project_onto_span(v, cols) == {r: F(x) for r, x in v.items()}


def test_kodaira_parts_are_the_projections_onto_each_span_alone(project_onto_span):
    """im D_{i-1} ⊥ im D_i^T, so the one normal system over both spans'
    pivot columns gives, in every degree, the exact and coexact parts that
    `project_onto_span` (checked against sympy above) gives onto each span
    taken alone, including degrees where one span is empty and the other
    is not."""
    rng = random.Random(4141)
    one_empty = 0
    for _ in range(40):
        C = hb.random_complex(rng)
        for i, dim in enumerate(C.dims):
            exact_span, coexact_span = C.maps[i].cols, C.maps[i + 1].t.cols
            one_empty += bool(C.maps[i].basis) != bool(C.maps[i + 1].t.basis)
            for v in _vectors(rng, dim):
                h, e, c = kodaira_parts(C, i, v)
                assert e == project_onto_span(v, exact_span)
                assert c == project_onto_span(v, coexact_span)
                want_h = {r: F(v.get(r, 0)) - e.get(r, 0) - c.get(r, 0) for r in range(dim)}
                assert h == {r: x for r, x in want_h.items() if x}
    assert one_empty > 10


def test_solve_takes_each_dot_product_once_and_sees_the_full_normal_system(monkeypatch):
    """`_solve` fills BᵀB from its upper triangle, so it takes n(n+1)/2
    dot products for BᵀB and n for Bᵀw, yet the normal system it reduces is
    the full [BᵀB | Bᵀw], each column's rows in increasing order, and its
    zero combination (x, t) solves it with t > 0."""
    dot, zero_combinations = linalg.dot, linalg._zero_combinations
    dots, systems = [], []
    monkeypatch.setattr(linalg, "dot", lambda a, b: dots.append(1) or dot(a, b))
    monkeypatch.setattr(linalg, "_zero_combinations",
                        lambda cols: systems.append(cols) or zero_combinations(cols))
    rng = random.Random(4242)
    for _ in range(30):
        C = hb.random_complex(rng)
        for i, dim in enumerate(C.dims):
            basis = C.maps[i].basis + C.maps[i + 1].t.basis
            w = {r: x for r in range(dim) if (x := rng.randint(-3, 3))}
            dots.clear()
            systems.clear()
            x, t = linalg._solve(w, basis)
            n = len(basis)
            assert len(dots) == n * (n + 1) // 2 + n
            full = [{j: g for j, b in enumerate(basis) if (g := dot(b, c))} for c in [*basis, w]]
            assert [list(col.items()) for col in systems[0]] == [list(col.items()) for col in full]
            assert t > 0 and not linalg.combine_columns(full, [{**x, n: t}])[0]


def test_solve_returns_a_positive_denominator():
    """Where the reduction's zero combination of [BᵀB | Bᵀw] ends in a
    negative t, `_solve` negates x and t together."""
    basis, w = [{0: 2, 1: 1}, {0: 4}], {0: -2}
    (raw,) = linalg._zero_combinations([{0: 5, 1: 8}, {0: 8, 1: 16}, {0: -4, 1: -8}])
    assert raw == {1: -1, 2: -2}
    assert linalg._solve(w, basis) == ({1: 1}, 2)


@pytest.mark.parametrize("v", [
    [F(1, 10), True],
    [0.5, 1],
    [1, None],
    {0.5: 1},
    {"0": 1},
    {True: 1},
    {0: 0.25},
    {1: False},
    "12",
    b"\x01\x02",
    range(2),
], ids=["float-and-bool", "float", "none", "float-key", "str-key", "bool-key",
        "float-value", "bool-value", "text-vector", "bytes-vector", "range-vector"])
def test_kodaira_rejects_non_rational_entries_and_non_int_keys(v):
    C = hb.validate([2, 1], [[[1, 1]]])
    with pytest.raises(ConfigurationError):
        hb.kodaira_decompose(C, 0, v)


def test_kodaira_reads_text_entries_like_fractions():
    C = hb.validate([2, 1], [[[1, 1]]])
    want = ({0: F(-9, 20), 1: F(9, 20)}, {}, {0: F(11, 20), 1: F(11, 20)})
    assert kodaira_parts(C, 0, ["1/10", 1]) == want
    assert kodaira_parts(C, 0, ("1/10", 1)) == want
    assert kodaira_parts(C, 0, {0: F(1, 10), 1: "1"}) == want


# Complexes with no space, one space, and a zero space first, last or in the
# middle, plus a seeded random complex with zero spaces inside. Each entry is
# (cohomology_dims, harmonic_dims, the rcef basis of ker Δ_i per degree, the
# Kodaira parts of `_edge_vector(i, dims[i])` per degree), entries as "p/q".
# The end degrees are no special case: D_{-1} and D_{n-1} are zero maps.
EDGE_SHAPES = {
    "none": ([], []),
    "one": ([2], []),
    "zero-first": ([0, 2], [[[], []]]),
    "zero-last": ([2, 0], [[]]),
    "zero-middle": ([2, 0, 1], [[], [[]]]),
}
EDGE_RECORDS = {
    "none": [(), (), [], []],
    "one": [(2,), (2,), [[{0: "1/1"}, {1: "1/1"}]], [({0: "1/2", 1: "-1/1"}, {}, {})]],
    "zero-first": [(0, 2), (0, 2), [[], [{0: "1/1"}, {1: "1/1"}]],
                   [({}, {}, {}), ({0: "1/1", 1: "-3/2"}, {}, {})]],
    "zero-last": [(2, 0), (2, 0), [[{0: "1/1"}, {1: "1/1"}], []],
                  [({0: "1/2", 1: "-1/1"}, {}, {}), ({}, {}, {})]],
    "zero-middle": [(2, 0, 1), (2, 0, 1), [[{0: "1/1"}, {1: "1/1"}], [], [{0: "1/1"}]],
                    [({0: "1/2", 1: "-1/1"}, {}, {}), ({}, {}, {}), ({0: "3/2"}, {}, {})]],
    "random seed 0": [
        (3, 0, 0, 0, 2), (3, 0, 0, 0, 2),
        [[{3: "-1/2", 1: "1/1", 5: "1/2"}, {2: "1/1", 3: "1/2", 5: "-3/2"},
          {5: "-1/2", 4: "1/1"}], [], [], [], [{1: "1/1"}, {3: "1/1"}]],
        [({1: "3/148", 2: "127/148", 3: "31/74", 4: "199/74", 5: "-97/37"}, {},
          {0: "1/2", 2: "95/148", 3: "-179/74", 4: "-7/37", 5: "-14/37", 1: "-151/148"}),
         ({}, {0: "1/1", 1: "-3/2", 2: "2/1"}, {}),
         ({}, {}, {}),
         ({}, {}, {0: "2/1", 1: "-5/2"}),
         ({1: "-3/1", 3: "-4/1"}, {0: "5/2", 2: "7/2"}, {})],
    ],
}


def _edge_vector(i, dim):
    return [(-1) ** k * F(k + i + 1, 2) for k in range(dim)]


@pytest.mark.parametrize("name", list(EDGE_RECORDS))
def test_edge_shapes_at_every_degree(name):
    C = (hb.random_complex(random.Random(0)) if name == "random seed 0"
         else hb.validate(*EDGE_SHAPES[name]))
    assert 0 in C.dims or len(C.dims) < 2

    def q(col):
        return {r: format_rational(x) for r, x in col.items()}

    got = [hb.cohomology_dims(C), hb.harmonic_dims(C),
           [[q(c) for c in linalg.rcef(linalg.kernel(laplacian_cols(C, i)))]
            for i in range(len(C.dims))],
           [tuple(map(q, kodaira_parts(C, i, _edge_vector(i, d))))
            for i, d in enumerate(C.dims)]]
    assert got == EDGE_RECORDS[name]
