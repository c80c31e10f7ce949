"""Cross-checking suites run over the bundled corpus.

Each suite returns a CheckSuiteReport: a deterministic list of named checks
with expected/actual payloads and a single pass flag. The CLI maps a failed
suite to exit code 1.

The suites that check every space of a corpus, `CORPUS_SUITES`, take its
directory (the bundled corpus when None). `mil` and `cone-local` check
named bundled spaces, whose weights and links their checks assume, and
take no directory: a replaced space would change a check's premise, not
test a statement.

Only `perversity` and `rationals` load with this module, and each suite
imports the other layers it runs once per call, so a process pays only for
the suites it runs: `hunsicker` and `realizability` need nothing more,
`hilbert` only `hilbert` and `linalg`, and the suites over spaces load the
corpus, the complexes and the intersection layer.
"""

import random
from fractions import Fraction

from .perversity import (
    NAMED_PERVERSITIES,
    PER_STRATUM,
    Perversity,
    Record,
    hunsicker_shift_check,
    middle_perversities,
    named_perversity,
    perversity_from_weights,
    weight_perversity,
    weights_from_perversity,
    zero_perversity,
)
from .rationals import format_rational

DEFAULT_SEED = 20260808


class CheckSuiteReport(Record):
    __match_args__ = ("suite", "checks")

    def __init__(self, suite):
        self.suite = suite
        self.checks = []

    def add(self, name, passed, detail=None):
        self.checks.append({"name": name, "pass": bool(passed), "detail": detail or {}})

    @property
    def passed(self):
        return all(c["pass"] for c in self.checks)

    def to_json(self):
        return {
            "suite": self.suite,
            "checks": self.checks,
            "check_count": len(self.checks),
            "pass": self.passed,
        }


MIL_WEIGHTS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5), Fraction(100))


def suite_mil():
    """Weights at or above one give exactly the middle perversities."""
    from .corpus import load_space
    from .intersection import intersection_betti
    from .l2model import theorem_predictions

    report = CheckSuiteReport("mil")
    for l in range(13):
        upper_v = l // 2
        lower_v = (l + 1) - 2 - upper_v
        for c in MIL_WEIGHTS:
            p = perversity_from_weights([("y", l)], {"y": c}).values["y"]
            q = (l + 1) - 2 - p
            report.add(
                f"l={l} c={format_rational(c)}",
                p == upper_v and q == lower_v,
                {"p_g": p, "upper_middle": upper_v, "q_g": q, "lower_middle": lower_v},
            )
    st2 = load_space("susp_t2")
    pred = theorem_predictions(st2)
    lower, upper = middle_perversities(st2.n)
    want_max = list(intersection_betti(st2, lower))
    want_min = list(intersection_betti(st2, upper))
    report.add(
        "susp_t2 weights 1: predictions are the middle-perversity vectors",
        pred["max_betti"] == want_max and pred["min_betti"] == want_min,
        {"max": pred["max_betti"], "min": pred["min_betti"]},
    )
    return report


def suite_hunsicker():
    report = CheckSuiteReport("hunsicker")
    grid = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
            Fraction(1), Fraction(2), Fraction(4)]
    for f in range(1, 9):
        for c in grid:
            report.add(
                f"f={f} c={format_rational(c)}",
                hunsicker_shift_check(f, c),
                {},
            )
    return report


def suite_realizability(seed=DEFAULT_SEED):
    """Seeded random perversities at or above the upper middle round-trip."""
    report = CheckSuiteReport("realizability")
    rng = random.Random(seed)
    for trial in range(200):
        strata = []
        values = {}
        for idx in range(rng.randint(1, 6)):
            l = rng.randint(0, 9)
            sid = f"y{idx}"
            strata.append((sid, l))
            if l == 0:
                values[sid] = 0
            else:
                values[sid] = l // 2 + rng.randint(0, 4)
        p = Perversity(PER_STRATUM, values)
        w = weights_from_perversity(p, strata)
        back = perversity_from_weights(strata, w)
        report.add(f"trial {trial}", back == p, {"strata": strata, "values": values})
    return report


def suite_cone_local():
    """Analytic cone truncations against the simplicial dual-side engine."""
    from .corpus import load_space
    from .l2model import local_model_check

    report = CheckSuiteReport("cone-local")
    weights = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
    for name in ("s0", "s1_hex", "t2_7", "s2"):
        link = load_space(name)
        for c in weights:
            r = local_model_check(link, c)
            report.add(f"{name} c={format_rational(c)}", r["pass"], r)
    # a stratified link: the disk with a weighted interior cone point
    inner = load_space("cone_s1_c_half")
    for c in (Fraction(1, 2), Fraction(1)):
        r = local_model_check(inner, c)
        report.add(f"cone_s1_c_half c={format_rational(c)}", r["pass"], r)
    return report


def _named_perversities(n):
    """The named perversities, or just the empty one in dim 0."""
    if n == 0:
        return [("empty", named_perversity("zero", 0))]
    return [(name, named_perversity(name, n)) for name in NAMED_PERVERSITIES]


def _duality_perversities(K, rng):
    named = list(_named_perversities(K.n))
    for t in range(10):
        values = {s.id: rng.randint(-2, s.codim + 1) for s in K.singular_strata()}
        named.append((f"random{t}", Perversity(PER_STRATUM, values)))
    return named


# the check name's word for each reason `duality_check` gives
_NOT_APPLICABLE = {"space has boundary faces": "boundary",
                   "space is unorientable": "unorientable"}


def suite_duality(corpus_dir=None, seed=DEFAULT_SEED):
    """Dimension reversal between complementary perversities, corpus-wide."""
    from .corpus import load_corpus
    from .intersection import duality_check

    report = CheckSuiteReport("duality")
    spaces = load_corpus(corpus_dir)
    rng = random.Random(seed)
    for name in sorted(spaces):
        K = spaces[name]
        r = duality_check(K, zero_perversity(K.n))
        if not r["applicable"]:
            report.add(f"{name}: not applicable ({_NOT_APPLICABLE[r['reason']]})", True, r)
            continue
        for pname, p in _duality_perversities(K, rng):
            r = duality_check(K, p)
            report.add(f"{name} {pname}", r["applicable"] and r["pass"], r)
    return report


def suite_ris_consistency(corpus_dir=None):
    """Predictions, max/min reversal, and index sanity on weighted spaces."""
    from .corpus import load_corpus
    from .intersection import duality_check
    from .l2model import fredholm_indices, theorem_predictions

    report = CheckSuiteReport("ris-consistency")
    spaces = load_corpus(corpus_dir)
    for name in sorted(spaces):
        K = spaces[name]
        singular = K.singular_strata()
        if any(s.id not in K.weights for s in singular):
            continue
        pred = theorem_predictions(K)
        max_b, min_b = pred["max_betti"], pred["min_betti"]
        ind_max, ind_min = fredholm_indices(max_b, min_b)
        detail = {"prediction": pred, "ind_max": ind_max, "ind_min": ind_min}
        if not singular:
            betti = list(K.betti())
            report.add(
                f"{name}: manifold predictions equal betti",
                max_b == betti and min_b == betti,
                detail,
            )
        # duality for p_g is the max/min reversal: its dual side is the max vector
        duality = duality_check(K, weight_perversity(K))
        if duality["applicable"]:
            euler = sum((-1) ** i * b for i, b in enumerate(max_b))
            want = 0 if K.n % 2 == 1 else euler
            report.add(
                f"{name}: max/min reversal and index sanity",
                duality["pass"] and ind_max == want and ind_min == want,
                detail,
            )
        else:
            report.add(f"{name}: predictions computed", True, detail)
    return report


def _hilbert_trial(hb, linalg, C, rng):
    """(passed, detail) for one random complex, checked with the modules
    `hilbert` and `linalg` that `suite_hilbert` imported. The complex and
    its dual, whose maps are C's transposes, are freed when this returns,
    before the next complex is drawn."""
    ch = hb.cohomology_dims(C)
    ha = hb.harmonic_dims(C)
    _, dual_rep = hb.dual_complex(C)
    # Euler-Poincaré: the index equals the alternating cohomology sum
    idx = hb.index_even_odd(C)
    alt = sum((-1) ** i * h for i, h in enumerate(ch))
    ok = ch == ha and dual_rep["pass"] and idx == alt
    for i in range(len(C.dims)):
        if C.dims[i] == 0:
            continue
        v = {r: rng.randint(-3, 3) for r in range(C.dims[i])}
        # integer numerators over d: the sums and zero inner products of
        # the parts times d
        h, e, c, d = hb.kodaira_decompose(C, i, v)
        (rec,) = linalg.combine_columns([h, e, c], [{0: 1, 1: 1, 2: 1}])
        want = {r: val * d for r, val in v.items() if val}
        if rec != want or linalg.dot(h, e) or linalg.dot(h, c) or linalg.dot(e, c):
            ok = False
    return ok, {"dims": list(C.dims), "cohomology": list(ch), "index": idx}


def suite_hilbert(seed=DEFAULT_SEED):
    """Property run over seeded random finite complexes."""
    from . import hilbert as hb
    from . import linalg

    report = CheckSuiteReport("hilbert")
    rng = random.Random(seed)
    for trial in range(100):
        report.add(f"trial {trial}", *_hilbert_trial(hb, linalg, hb.random_complex(rng), rng))
    return report


def suite_degeneration(corpus_dir=None):
    """Manifolds give ordinary homology; subdivision preserves every vector."""
    from .complexes import barycentric_subdivide
    from .corpus import load_corpus
    from .intersection import intersection_betti

    report = CheckSuiteReport("degeneration")
    spaces = load_corpus(corpus_dir)
    for name in sorted(spaces):
        K = spaces[name]
        perversities = _named_perversities(K.n)
        if not K.singular_strata():
            betti = K.betti()
            for pname, p in perversities:
                report.add(
                    f"{name} {pname}: manifold degeneration",
                    intersection_betti(K, p) == betti,
                    {"betti": list(betti)},
                )
        sd = barycentric_subdivide(K)
        for pname, p in perversities:
            a = intersection_betti(K, p)
            b = intersection_betti(sd, p)
            report.add(
                f"{name} {pname}: subdivision stability",
                a == b,
                {"betti": list(a), "subdivided": list(b)},
            )
    return report


# the suites that check every space of `corpus_dir` (the bundled corpus
# when None); the others take no directory
CORPUS_SUITES = ("degeneration", "duality", "ris-consistency")

SUITES = {
    "duality": suite_duality,
    "cone-local": suite_cone_local,
    "mil": suite_mil,
    "hunsicker": suite_hunsicker,
    "realizability": suite_realizability,
    "ris-consistency": suite_ris_consistency,
    "hilbert": suite_hilbert,
    "degeneration": suite_degeneration,
}
