"""Finite-dimensional Hilbert complexes: harmonic theory without analysis.

In finite dimensions every differential has closed range, so cohomology,
harmonic spaces, the weak Kodaira decomposition, the dual complex, and the
even-to-odd index are all plain exact linear algebra over the rationals.
"""

import random

from stratal import (
    cohomology_dims,
    dual_complex,
    harmonic_dims,
    index_even_odd,
    kodaira_decompose,
    random_complex,
    validate,
)
from stratal import linalg
from stratal.corpus import load_space

# The simplicial cochain complex of the 2-sphere boundary-of-a-tetrahedron.
s2 = load_space("s2")
dims = list(s2.counts())
diffs = [
    linalg.transpose_cols(s2.boundary_matrix(i), dims[i - 1])
    for i in range(1, s2.n + 1)
]
C = validate(dims, diffs)
print("sphere cochain complex, dims", dims)
print("cohomology:", cohomology_dims(C))
print("harmonic:  ", harmonic_dims(C))

# Kodaira: any cochain splits into harmonic + exact + coexact, orthogonally.
# The parts come back as integer numerators over one positive denominator d,
# so each check stays in integers: h + e + c = d·v.
rng = random.Random(1)
v = [rng.randint(-3, 3) for _ in range(dims[1])]
h, e, c, d = kodaira_decompose(C, 1, v)
print()
print("random 1-cochain:", v)
for name, part in (("harmonic", h), ("exact", e), ("coexact", c)):
    print(f"{name} part: {part or 0} over {d}")
(rec,) = linalg.combine_columns([h, e, c], [{0: 1, 1: 1, 2: 1}])
print("parts sum to the cochain:", rec == {r: x * d for r, x in enumerate(v) if x})
print("pairwise orthogonal:",
      linalg.dot(h, e) == 0 and linalg.dot(h, c) == 0 and linalg.dot(e, c) == 0)

# The dual complex reverses cohomology dimensions.
_, rep = dual_complex(C)
print()
print("dual reversal:", rep["cohomology"], "<->", rep["dual_cohomology"],
      "->", "pass" if rep["pass"] else "fail")
print("even-to-odd index:", index_even_odd(C), "(the Euler characteristic)")

# Random complexes are built top-down by projecting candidate differentials
# onto the kernel above, so the complex property holds by construction.
print()
rng = random.Random(42)
for _ in range(3):
    R = random_complex(rng)
    print(f"random complex dims {list(R.dims)}: cohomology {list(cohomology_dims(R))},"
          f" index {index_even_odd(R)}")
