"""Acceptance criteria for the package: exact equalities, one line each.

Every expected value below was either verified against the governing
formulas directly or computed beforehand with an independent oracle
(Mayer-Vietoris by hand for the suspension vectors, cutoff arithmetic for
the cone truncations, brute-force rank checks for the linear algebra).
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import time
from fractions import Fraction as F

from stratal import complexes as cx
from stratal import intersection as ix
from stratal import l2model as l2
from stratal import perversity as pv
from stratal import verify


def _report(num, title, ok):
    print(f"\nACCEPTANCE {num} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed"


# 20 weights, including the 1/(2k) and 1/(2k+1) boundary values
WEIGHT_GRID = [
    F(1, 2), F(1, 4), F(1, 6), F(1, 8), F(1, 10),
    F(1, 3), F(1, 5), F(1, 7), F(1, 9), F(1, 11),
    F(1), F(3, 2), F(2), F(5, 2), F(3),
    F(4), F(5), F(7, 3), F(10), F(100),
]


def test_acceptance_1_perversity_identities():
    t0 = time.monotonic()
    ok = True
    for l in range(13):
        upper_v = 0 if l == 0 else (l // 2 if l % 2 == 0 else (l - 1) // 2)
        lower_v = (l + 1) - 2 - upper_v
        for c in (F(1), F(3, 2), F(2), F(5), F(100)):
            p = pv.perversity_from_weights([("y", l)], {"y": c}).values["y"]
            q = (l + 1) - 2 - p
            ok = ok and p == upper_v and q == lower_v
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(1, "weights >= 1 give the middle perversities", ok)


def test_acceptance_2_truncation_degree_identity():
    t0 = time.monotonic()
    ok = True
    for l in range(13):
        for c in WEIGHT_GRID:
            cutoff = F(l, 2) + F(1, 2) / c
            p_g = pv.perversity_from_weights([("y", l)], {"y": c}).values["y"]
            if l >= 1:
                for i in range(15):
                    ok = ok and ((i < cutoff) == (i <= p_g))
            else:
                # dimension-zero links: the weight is metrically inert, the
                # value is pinned to 0, and the identity holds against the
                # raw bracket of the cutoff; the truncated vectors agree
                # because a point has no higher cohomology.
                ok = ok and p_g == 0
                b = pv.bracket(cutoff)
                for i in range(15):
                    ok = ok and ((i < cutoff) == (i <= b))
                ok = ok and l2.cone_max_cohomology((1,), 0, c) == (1, 0)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    _report(2, "analytic cutoff matches the perversity threshold", ok)


def test_acceptance_3_edge_reduction():
    ok = True
    for f in range(1, 9):
        for c in (F(1, 8), F(1, 4), F(1, 3), F(1, 2), F(1), F(2), F(4)):
            ok = ok and pv.hunsicker_shift_check(f, c)
    _report(3, "one-stratum edge reduction", ok)


def test_acceptance_4_realizability_round_trip():
    rep = verify.suite_realizability()
    assert len(rep.checks) == 200
    _report(4, "200 random perversities round-trip through weights", rep.passed)


CONE_LOCAL_EXPECTED = {
    ("s0", F(1, 4)): [2, 0],
    ("s0", F(1, 2)): [2, 0],
    ("s0", F(1)): [2, 0],
    ("s0", F(2)): [2, 0],
    ("s1_hex", F(1, 4)): [1, 1, 0],
    ("s1_hex", F(1, 2)): [1, 1, 0],
    ("s1_hex", F(1)): [1, 0, 0],
    ("s1_hex", F(2)): [1, 0, 0],
    ("t2_7", F(1, 4)): [1, 2, 1, 0],
    ("t2_7", F(1, 2)): [1, 2, 0, 0],
    ("t2_7", F(1)): [1, 2, 0, 0],
    ("t2_7", F(2)): [1, 2, 0, 0],
    ("s2", F(1, 4)): [1, 0, 1, 0],
    ("s2", F(1, 2)): [1, 0, 0, 0],
    ("s2", F(1)): [1, 0, 0, 0],
    ("s2", F(2)): [1, 0, 0, 0],
}


def test_acceptance_5_cone_local_model(spaces):
    ok = True
    for (name, c), expected in CONE_LOCAL_EXPECTED.items():
        r = l2.local_model_check(spaces[name], c)
        ok = ok and r["pass"] and r["analytic"] == expected and r["simplicial"] == expected
    _report(5, "cone truncation equals dual-side intersection cohomology", ok)


def test_acceptance_6_global_suspension_benchmark(susp_t2):
    t0 = time.monotonic()
    pred = l2.theorem_predictions(susp_t2)
    ok = pred["max_betti"] == [1, 2, 0, 1]
    ok = ok and pred["min_betti"] == [1, 0, 2, 1]
    lower, upper = pv.middle_perversities(3)
    for p in (lower, upper):
        r = ix.duality_check(susp_t2, p)
        ok = ok and r["applicable"] and r["pass"]
    ok = ok and l2.fredholm_indices(pred["max_betti"], pred["min_betti"]) == (0, 0)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report(6, "suspension of the torus at unit weights", ok)


def test_acceptance_7_saturated_perversity(t2):
    st = cx.suspension(t2, (F(1, 4), F(1, 4)))
    singular = st.singular_strata()
    p_g = l2.theorem_predictions(st)["p_g"]["values"]
    ok = all(p_g[s.id] == s.codim - 1 for s in singular)
    # the dual-side vector is the cohomology of the regular part, a cylinder
    # over the torus, which copies the torus betti vector one degree longer;
    # computed independently from that vector
    regular_part = list(t2.betti()) + [0]
    q_g = pv.dual(pv.Perversity(pv.PER_STRATUM, p_g), st)
    ok = ok and list(ix.intersection_betti(st, q_g)) == regular_part == [1, 2, 1, 0]
    # the weight-perversity side agrees with the unconstrained complex (the
    # allowability condition is vacuous at codim - 1), computed independently
    saturated = pv.Perversity(pv.PER_STRATUM, {s.id: st.n + 1 for s in singular})
    full_r0 = ix.intersection_betti(st, saturated)
    got = ix.intersection_betti(st, pv.Perversity(pv.PER_STRATUM, p_g))
    ok = ok and got == full_r0 == (0, 1, 2, 1)
    _report(7, "perversity at codim-1 gives the regular part's cohomology", ok)


def test_acceptance_8_duality_sweep():
    rep = verify.suite_duality()
    _report(8, "duality across the corpus and perversity grid", rep.passed)


def test_acceptance_9_degeneration_and_stability():
    rep = verify.suite_degeneration()
    _report(9, "manifold degeneration and subdivision stability", rep.passed)


def test_acceptance_10_hilbert_property_suite():
    t0 = time.monotonic()
    rep = verify.suite_hilbert()
    elapsed = time.monotonic() - t0
    assert len(rep.checks) == 100
    _report(10, "100 random finite complexes", rep.passed and elapsed < 10.0)
