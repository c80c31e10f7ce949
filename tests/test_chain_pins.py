"""Pinned intersection Betti numbers, plain Betti numbers and chain bases.

Each entry of `BETTI_PINS` is the first 16 hex digits of the sha256 of
`repr` of a complex's `intersection_betti` vectors, over the named
perversities and then up to 50 seeded per-stratum perversities with values
-2..codim+1, followed by its `betti()`. The complexes are the corpus spaces,
their subdivisions and cones, and the five ih-ladder spaces.
`BASES_PINS` digests the explicit chain bases of two subdivided spaces under
the named perversities, as `tests/test_linalg.py`'s `PINNED_BASES` does for
the corpus. The digests were recorded while each complex still cached a
second, dropped-face boundary beside `boundary_matrix`; they guard the
answers of the chain model that drops the X_{n-1} rows instead. `BOUNDARY_PINS`
digests every `boundary_matrix(i)`, i from -1 to n + 1, of the corpus
spaces, their subdivisions and the five ih-ladder spaces, each column as its
sorted items; they were recorded while each complex still cached the
boundary of every degree, and guard the columns that it builds afresh. A
mismatch is a regression to fix, not a value to re-record.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from stratal import complexes as cx
from stratal import corpus
from stratal import intersection as ix
from stratal import perversity as pv
from stratal.verify import _named_perversities

_SEEDED = 50


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _perversities(K, rng):
    """The named perversities, then up to `_SEEDED` distinct seeded
    per-stratum ones with values -2..codim+1."""
    out = [p for _, p in _named_perversities(K.n)]
    strata = K.singular_strata()
    drawn = dict.fromkeys(tuple(rng.randint(-2, s.codim + 1) for s in strata)
                          for _ in range(_SEEDED))
    for values in drawn if strata else ():
        out.append(pv.Perversity(pv.PER_STRATUM, {s.id: v for s, v in zip(strata, values)}))
    return out


def _betti_digest(K, seed):
    got = [ix.intersection_betti(K, p) for p in _perversities(K, random.Random(seed))]
    return _digest([*got, K.betti()])


def _complexes(spaces, ih_ladder):
    for name in corpus.SPACE_NAMES:
        K = spaces[name]
        yield name, K
        yield f"sd {name}", cx.barycentric_subdivide(K)
        yield f"cone {name}", cx.cone(K)
    yield from ih_ladder.items()


BETTI_PINS = {
    "cone_cone_s1": "d0fe4556cf9c6789",
    "sd cone_cone_s1": "83b59a61c534d0d1",
    "cone cone_cone_s1": "766cf07b0958d9b8",
    "cone_s1_c_half": "73cefd34e48db01c",
    "sd cone_s1_c_half": "0b6e6faa151e7675",
    "cone cone_s1_c_half": "7fd2fcb1afc49b79",
    "cone_t2": "1f677e47e2dd140e",
    "sd cone_t2": "932f2f00c3780d1a",
    "cone cone_t2": "a9891ffa4fb5e81f",
    "mobius": "8d5769b18942fc79",
    "sd mobius": "8d5769b18942fc79",
    "cone mobius": "38ce302f663ad9b8",
    "point": "030726d4c6d570c3",
    "sd point": "030726d4c6d570c3",
    "cone point": "6800f979729a55a8",
    "s0": "1a63bab70d1bd95b",
    "sd s0": "1a63bab70d1bd95b",
    "cone s0": "58f927dc98591012",
    "s1_hex": "a19943ac2cb92eb5",
    "sd s1_hex": "a19943ac2cb92eb5",
    "cone s1_hex": "da6893acf922b52a",
    "s2": "3f208fa7165ca904",
    "sd s2": "3f208fa7165ca904",
    "cone s2": "6080a8b19ed3db3e",
    "susp_s0": "db10107cf559c5e2",
    "sd susp_s0": "0f26f2f777e8ef42",
    "cone susp_s0": "3dd5500865169eb5",
    "susp_s2": "1484259fbdd33e5f",
    "sd susp_s2": "c813b4930c22b2bd",
    "cone susp_s2": "295bbda843de7d0c",
    "susp_t2": "c4f430b33d21d9ec",
    "sd susp_t2": "8f8273ab6c69dd45",
    "cone susp_t2": "87d98d277e980dc7",
    "t2_7": "a504ce4818fcdd08",
    "sd t2_7": "a504ce4818fcdd08",
    "cone t2_7": "eb61f75ea4463e7a",
    "susp(susp t2)": "52b0a3b33e9f4ffb",
    "cone(susp(susp t2))": "48435c6a8f9b2a4b",
    "sd(cone_t2)": "56ce32c3c9cb0c89",
    "sd(susp t2)": "fc33c0d0e5af58aa",
    "cone(sd(susp t2))": "ce84d786dcecd20f",
}


def test_intersection_and_plain_betti_are_pinned(spaces, ih_ladder):
    got = {key: _betti_digest(K, seed)
           for seed, (key, K) in enumerate(_complexes(spaces, ih_ladder))}
    assert got == BETTI_PINS


BASES_PINS = {
    "sd(cone_t2)": "4c9974ae298f2c93",
    "sd(susp t2)": "16a86d2013e61183",
}


@pytest.mark.parametrize("name", sorted(BASES_PINS))
def test_subdivided_chain_bases_are_pinned(ih_ladder, name):
    K = ih_ladder[name]
    bases = [[sorted((r, str(Fraction(v))) for r, v in col.items()) for col in b]
             for _, p in _named_perversities(K.n)
             for b in ix.StratifiedChainComplex(K, p).bases]
    assert _digest(bases) == BASES_PINS[name]


BOUNDARY_PINS = {
    "cone_cone_s1": "0982143b7f60de8d",
    "sd cone_cone_s1": "d8a74ff0587fb1fd",
    "cone_s1_c_half": "0293a431514d116a",
    "sd cone_s1_c_half": "caf92402a4655021",
    "cone_t2": "bfe983fac183a133",
    "sd cone_t2": "a31adc50f78c73ea",
    "mobius": "06a0b1cb2448cb99",
    "sd mobius": "2cf0c3d037a42810",
    "point": "10a357b0356fed08",
    "sd point": "10a357b0356fed08",
    "s0": "cbb3c428e51fe19e",
    "sd s0": "cbb3c428e51fe19e",
    "s1_hex": "d1473715c207a6ed",
    "sd s1_hex": "f075206701c53985",
    "s2": "51ea99809834233f",
    "sd s2": "2e6d663fee9bc937",
    "susp_s0": "312d583bfb62f3bb",
    "sd susp_s0": "b9522eb5e7ac70d0",
    "susp_s2": "9d39d18f9aaeeac1",
    "sd susp_s2": "73ddc0c06169e514",
    "susp_t2": "449118990e3094de",
    "sd susp_t2": "56b819a8815f5231",
    "t2_7": "80a9a7b79382d367",
    "sd t2_7": "c3d355eed8974092",
    "susp(susp t2)": "a1f61a8d776dd573",
    "cone(susp(susp t2))": "d5c8eda12c1c7f6c",
    "sd(cone_t2)": "a31adc50f78c73ea",
    "sd(susp t2)": "56b819a8815f5231",
    "cone(sd(susp t2))": "8565ae8b735ea98c",
}


def _boundary_complexes(spaces, ih_ladder):
    for name in corpus.SPACE_NAMES:
        yield name, spaces[name]
        yield f"sd {name}", cx.barycentric_subdivide(spaces[name])
    yield from ih_ladder.items()


def test_boundary_matrices_are_pinned(spaces, ih_ladder):
    got = {key: _digest([[sorted(col.items()) for col in K.boundary_matrix(i)]
                         for i in range(-1, K.n + 2)])
           for key, K in _boundary_complexes(spaces, ih_ladder)}
    assert got == BOUNDARY_PINS
