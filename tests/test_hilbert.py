"""Finite Hilbert complexes: validation, harmonic theory, duality, index."""

import random
from fractions import Fraction as F

import pytest

from stratal import hilbert as hb
from stratal import linalg
from stratal.errors import ConstructionError, SpaceFormatError


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
    # approximation, not one tenth
    with pytest.raises(SpaceFormatError):
        hb.validate([1, 1], [[[entry]]])


def test_validate_accepts_int_fraction_and_text_entries():
    C = hb.validate([1, 2], [[[2], [F(1, 3)]]])
    D = hb.validate([1, 2], [[["2/1"], ["1/3"]]])
    assert C.differential(0) == D.differential(0) == [{0: 2, 1: F(1, 3)}]
