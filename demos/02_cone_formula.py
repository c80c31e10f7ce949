"""The weighted-cone truncation formula on symbolic model spaces.

The maximal L2 cohomology of a metric cone over a compact space keeps the
link cohomology strictly below the cutoff f/2 + 1/(2c) and kills everything
at or above it. Model spaces compose, so iterated cones evaluate by
recursion.
"""

from fractions import Fraction as F

from stratal import ClosedManifold, Cone, cone_report, eval_max

torus = ClosedManifold((1, 2, 1), 2)
circle = ClosedManifold((1, 1), 1)

print("cones over the torus, sweeping the weight:")
for c in (F(1, 4), F(1, 2), F(1), F(2), F(10)):
    rep = cone_report(torus.betti, torus.dim, c)
    print(f"  weight {c}: cutoff {rep.cutoff}, kept {list(rep.max_betti)}"
          f"  [{rep.hypothesis_used}]")

# The cutoff is strict: at weight 1/2 the cutoff on a 2-dimensional link is
# exactly 2, so degree 2 dies while degree 1 survives.

# Iterated cones: the inner evaluation feeds the outer truncation.
print()
inner = Cone(F(1), circle)
outer = Cone(F(1), inner)
print("cone over the circle:", eval_max(inner))
print("cone over that cone: ", eval_max(outer))

# Small weights keep more of the link; large weights crush everything
# above degree zero.
print()
for c in (F(1, 100), F(100)):
    print(f"cone over the torus, weight {c}:", eval_max(Cone(c, torus)))
