"""Pinned outputs of the finite Hilbert complexes.

Each digest is the sha256 of `repr` of what `cohomology_dims`,
`harmonic_dims`, the reference `conftest.laplacian_cols`, the
`dual_complex` report or `kodaira_decompose` returns over a fixed list of complexes, every dict given
as its item list, so that equal means the same entries in the same order.
The complexes are 100 seeded `random_complex` outputs and hand complexes
whose differentials hold Fractions, "p/q" text and non-primitive integer
columns, with zero spaces first, last and in the middle. Each degree is
decomposed with an int list, a Fraction dict and a "p/q" list. The last
digest is the `suite_hilbert` report JSON for seeds 1-10, the seeds of the
perfbench verify-sweep workload. The digests were recorded before the
complex kept its reduced differentials; a mismatch is a regression to fix,
not a value to re-record.
"""

import hashlib
import json
import random
from fractions import Fraction as F

from conftest import laplacian_cols

from stratal import corpus
from stratal import hilbert as hb
from stratal import linalg
from stratal.verify import suite_hilbert


def _tetrahedron(scale):
    """The cochain complex of the tetrahedron boundary with the rows of ∂_1
    (the vertices) scaled by `scale`."""
    s2 = corpus.load_space("s2")
    d1 = [{r: v * scale[r] for r, v in col.items()} for col in s2.boundary_matrix(1)]
    dims = list(s2.counts())
    return hb.validate(dims, [linalg.transpose_cols(d1, dims[0]),
                              linalg.transpose_cols(s2.boundary_matrix(2), dims[1])])


def _hand_complexes():
    yield _tetrahedron([1, 1, 1, 1])
    yield _tetrahedron([F(1, 2), -3, F(2, 3), F(5, 7)])
    yield _tetrahedron([6, -4, 10, 2])
    # a non-primitive top differential, given as unsorted dict columns
    yield hb.validate([3, 2], [[{1: 4, 0: -6}, {0: 2}, {1: -8, 0: 12}]])
    # D_1 D_0 = 0 with text and Fraction entries
    yield hb.validate([2, 2, 1], [[["1/2", "-1/2"], [F(3, 4), F(-3, 4)]],
                                  [[3, -2]]])
    yield hb.validate([2, 0, 1], [[], [[]]])
    yield hb.validate([0, 2], [[[], []]])
    yield hb.validate([2, 0], [[]])
    yield hb.validate([4], [])


def _complexes():
    yield from _hand_complexes()
    for seed in range(100):
        yield hb.random_complex(random.Random(seed))


def _vectors(i, dim):
    rng = random.Random(f"pins-{i}-{dim}")
    yield [rng.randint(-3, 3) for _ in range(dim)]
    yield {r: F(rng.randint(-9, 9), rng.randint(1, 12)) for r in range(dim)
           if rng.random() < 0.8}
    yield [f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}" for _ in range(dim)]


def _items(cols):
    return [list(c.items()) for c in cols]


def _digest(got):
    return hashlib.sha256(repr(got).encode()).hexdigest()


def _outputs():
    out = {"cohomology": [], "harmonic": [], "laplacian": [], "dual": [], "kodaira": []}
    for C in _complexes():
        out["cohomology"].append(hb.cohomology_dims(C))
        out["harmonic"].append(hb.harmonic_dims(C))
        out["laplacian"].append([_items(laplacian_cols(C, i)) for i in range(len(C.dims))])
        D, report = hb.dual_complex(C)
        dual_cols = _items(c for m in D.maps[1:-1] for c in m.cols)
        out["dual"].append((json.dumps(report), D.dims, dual_cols))
        for i, dim in enumerate(C.dims):
            for v in _vectors(i, dim):
                out["kodaira"].append(_items(hb.kodaira_decompose(C, i, v)))
    return {name: _digest(got) for name, got in out.items()}


# cohomology and harmonic dimensions agree, so their digests do too
PINS = {
    "cohomology": "1b0f3e1adfacca482c343f94d4f73d36119243f82d82699c5354c137ddcdbb34",
    "harmonic": "1b0f3e1adfacca482c343f94d4f73d36119243f82d82699c5354c137ddcdbb34",
    "laplacian": "bed0686e36a32940a2a3cb60d228dba512af159a5d237bbdaae73b1f0babb94f",
    "dual": "b23be1b5fcacd5bd439160a7d8d82771576d074e41c658906b2e8bd9ede29c07",
    "kodaira": "054e4fa1220cc8aa90e5e6f8f8d8e69167aba7539e38623f042029548a719d0d",
}

SUITE_PIN = "0355eed81510f8c0e346a2c73e3632750cce33b20e1dc287221ff1f01ee580b6"


def test_hilbert_outputs_are_pinned():
    assert _outputs() == PINS


def test_hilbert_suite_reports_are_pinned():
    reports = [json.dumps(suite_hilbert(seed=seed).to_json()) for seed in range(1, 11)]
    assert all(json.loads(r)["pass"] for r in reports)
    assert _digest(reports) == SUITE_PIN

