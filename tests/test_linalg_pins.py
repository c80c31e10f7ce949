"""Pinned outputs of the exact elimination on seeded matrices.

Each digest is the sha256 of `repr` of what `rank`, `kernel`, `rcef` or
`project_onto_span` returns over a seeded list of matrices, every dict given
as its item list, so that equal means the same entries in the same order.
The matrices hold small ints, Fractions, or ints past 2**128 (which make
`_shrink` renormalize), and each also holds an empty column and one dict
object passed twice. Each case runs with `_HEAP_AFTER` at 0, at 3 and at its
default, so that the heap and the scan both find the pivots. The digests
were recorded before the elimination core lost its second mode; a mismatch
is a regression to fix, not a value to re-record.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from stratal import linalg

_BIG = 1 << 130
_KINDS = ("int", "fraction", "big")


def _entry(rng, kind):
    v = rng.randint(-4, 4)
    if kind == "fraction":
        return Fraction(v, rng.randint(1, 6))
    if kind == "big":
        return v * (_BIG + rng.randint(-9, 9))
    return v


def _matrix(rng, kind):
    """(vector, columns): a seeded matrix of up to 10 rows and 11 columns,
    with an empty column and one column object listed twice, and a vector
    over its rows."""
    nr, nc = rng.randint(1, 10), rng.randint(1, 11)
    density = rng.choice((0.3, 0.6, 0.9))
    cols = []
    for _ in range(nc):
        col = {r: _entry(rng, kind) for r in range(nr) if rng.random() < density}
        cols.append({r: v for r, v in col.items() if v})
    cols.insert(rng.randint(0, len(cols)), {})
    cols.insert(rng.randint(0, len(cols)), cols[rng.randrange(len(cols))])
    v = {r: _entry(rng, kind) for r in range(nr) if rng.random() < 0.7}
    return {r: x for r, x in v.items() if x}, cols


def _items(cols):
    return [list(c.items()) for c in cols]


def _outputs():
    out = {"rank": [], "kernel": [], "rcef": [], "project_onto_span": []}
    for kind in _KINDS:
        rng = random.Random(f"pins-{kind}")
        for _ in range(60):
            v, cols = _matrix(rng, kind)
            out["rank"].append(linalg.rank(cols))
            out["kernel"].append(_items(linalg.kernel(cols)))
            out["rcef"].append(_items(linalg.rcef(cols)))
            out["project_onto_span"].append(list(linalg.project_onto_span(v, cols).items()))
    return {name: hashlib.sha256(repr(got).encode()).hexdigest() for name, got in out.items()}


# the heap changes how a pivot row is found, never which, so one set of
# digests holds for every cutoff
PINS = {
    "rank": "10e6a2f84887241d45ca0ed9ef54c484e4e92a477b31e89fce863c31c2f92887",
    "kernel": "22604c8b6801e753dfd67b592427d3e746ac53a2023314615eaf8a976c5d474f",
    "rcef": "ca0386da7ffe88c009a959a0496dff50ecb9d2bd0c99cc8fb324debcf7011944",
    "project_onto_span": "0e79e98606cc565719d36faf7254140872157f8ecc43c7b9b2ef93af5cfe126b",
}


@pytest.mark.parametrize("cutoff", [0, 3, "default"])
def test_elimination_outputs_are_pinned(cutoff, monkeypatch):
    if cutoff != "default":
        monkeypatch.setattr(linalg, "_HEAP_AFTER", cutoff)
    fired = []
    shrink = linalg._shrink

    def spy(col, *rest):
        fired.append(max(map(abs, col.values()), default=0) >= linalg._GROWTH_LIMIT)
        return shrink(col, *rest)

    monkeypatch.setattr(linalg, "_shrink", spy)
    assert _outputs() == PINS
    assert any(fired)
