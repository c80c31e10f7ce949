"""Finite Hilbert complexes: validation, harmonic theory, duality, index."""

import random
from fractions import Fraction as F

import pytest
from sympy import Matrix, Rational

from stratal import hilbert as hb
from stratal import linalg
from stratal.errors import ConfigurationError, ConstructionError


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


def test_kodaira_trivial_cases(s2):
    C = _cochain_complex(s2)
    # constant 0-cochain is harmonic for the sphere complex
    v = {r: F(1) for r in range(C.dims[0])}
    h, e, c = hb.kodaira_decompose(C, 0, v)
    assert h == v and not e and not c
    # an exact vector comes back entirely in the exact part
    d0 = C.differential(0)
    img = linalg.combine_columns(d0, [{0: 1, 2: -2}])[0]
    h, e, c = hb.kodaira_decompose(C, 1, img)
    assert not h and not c
    assert e == {r: F(v) for r, v in img.items()}


def test_kodaira_random_reconstruction(s2):
    C = _cochain_complex(s2)
    rng = random.Random(8)
    for i in range(len(C.dims)):
        v = {r: rng.randint(-4, 4) for r in range(C.dims[i])}
        h, e, c = hb.kodaira_decompose(C, i, v)
        rec = {}
        for part in (h, e, c):
            for r, val in part.items():
                rec[r] = rec.get(r, 0) + val
        assert {r: v for r, v in rec.items() if v} == {
            r: F(val) for r, val in v.items() if val
        }
        assert linalg.dot(h, e) == 0
        assert linalg.dot(h, c) == 0
        assert linalg.dot(e, c) == 0


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


def test_index_examples(s2):
    assert hb.index_even_odd(_cochain_complex(s2)) == 2
    exact = hb.validate([1, 1], [[[1]]])
    assert hb.index_even_odd(exact) == 0
    z31 = hb.validate([3, 1], [[[0, 0, 0]]])
    assert hb.index_even_odd(z31) == 2


def test_laplacian_kernel_is_harmonic_space(s2):
    C = _cochain_complex(s2)
    for i in range(len(C.dims)):
        lap_kernel = linalg.rcef(linalg.kernel(hb.laplacian_cols(C, i)))
        down = C.differential(i)
        up_t = (
            linalg.transpose_cols(C.differential(i - 1), C.dims[i])
            if i > 0
            else [{} for _ in range(C.dims[i])]
        )
        stacked_kernel = linalg.rcef(
            linalg.kernel(linalg.stack_cols(down, up_t, C.diff_rows(i)))
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


def test_validate_accepts_int_fraction_and_text_entries():
    C = hb.validate([1, 2], [[[2], [F(1, 3)]]])
    D = hb.validate([1, 2], [[["2/1"], ["1/3"]]])
    E = hb.validate([1, 2], [[{0: "2", 1: "1/3"}]])
    Z = hb.validate([1, 2], [[{0: 0, 1: "0/5"}]])
    assert C.differential(0) == D.differential(0) == E.differential(0) == [{0: 2, 1: F(1, 3)}]
    assert Z.differential(0) == [{}]


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
    assert {v for col in C.differential(0) for v in col.values()} >= {F(-1, 2), 3, -3}
    ranks = [linalg.rank(C.differential(i)) for i in range(len(dims))]
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


def test_projection_and_kodaira_match_sympy_oracle():
    rng = random.Random(41)
    for _ in range(12):
        C = hb.random_complex(rng)
        for i, dim in enumerate(C.dims):
            if not dim:
                continue
            exact_span = C.differential(i - 1) if i > 0 else []
            coexact_span = linalg.transpose_cols(C.differential(i), C.diff_rows(i))
            spans = [cols for cols in (exact_span, coexact_span) if cols]
            in_span = [linalg.combine_columns(cols, [{0: F(3, 7), len(cols) - 1: -2}])[0]
                       for cols in spans]
            for v in [*_vectors(rng, dim), *in_span]:
                v = {r: x for r, x in v.items() if x}
                for cols in spans:
                    got = linalg.project_onto_span(v, cols)
                    assert got == _oracle_projection(v, cols, dim)
                    assert all(type(x) is F for x in got.values())
                h, e, c = hb.kodaira_decompose(C, i, v)
                want_e = _oracle_projection(v, exact_span, dim) if exact_span else {}
                want_c = _oracle_projection(v, coexact_span, dim)
                assert e == want_e and c == want_c
                want_h = {r: F(v.get(r, 0)) - want_e.get(r, 0) - want_c.get(r, 0)
                          for r in range(dim)}
                assert h == {r: x for r, x in want_h.items() if x}
                assert all(type(x) is F for part in (h, e, c) for x in part.values())
            for v, cols in zip(in_span, spans):
                assert linalg.project_onto_span(v, cols) == {r: F(x) for r, x in v.items()}


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
    assert hb.kodaira_decompose(C, 0, ["1/10", 1]) == want
    assert hb.kodaira_decompose(C, 0, ("1/10", 1)) == want
    assert hb.kodaira_decompose(C, 0, {0: F(1, 10), 1: "1"}) == want
