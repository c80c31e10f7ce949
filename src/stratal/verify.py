"""Cross-checking suites run over the bundled corpus.

Each suite returns a CheckSuiteReport: a deterministic list of named checks
with expected/actual payloads and a single pass flag. The CLI maps a failed
suite to exit code 1.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import hilbert as hb
from . import linalg
from .complexes import barycentric_subdivide, check_orientation
from .corpus import load_corpus, load_space
from .intersection import duality_check, intersection_betti
from .l2model import fredholm_indices, local_model_check, theorem_predictions
from .perversity import (
    NAMED_PERVERSITIES,
    PER_STRATUM,
    Perversity,
    hunsicker_shift_check,
    middle_perversities,
    named_perversity,
    perversity_from_weights,
    weights_from_perversity,
    zero_perversity,
)
from .rationals import format_rational

DEFAULT_SEED = 20260808


@dataclass
class CheckSuiteReport:
    suite: str
    checks: list = field(default_factory=list)

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


def suite_mil(corpus_dir=None):
    """Weights at or above one give exactly the middle perversities."""
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
    st2 = load_space("susp_t2", corpus_dir)
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


def suite_hunsicker(corpus_dir=None):
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


def suite_realizability(corpus_dir=None, seed=DEFAULT_SEED, trials=200):
    """Seeded random perversities at or above the upper middle round-trip."""
    report = CheckSuiteReport("realizability")
    rng = random.Random(seed)
    for trial in range(trials):
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


def suite_cone_local(corpus_dir=None):
    """Analytic cone truncations against the simplicial dual-side engine."""
    report = CheckSuiteReport("cone-local")
    weights = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2)]
    for name in ("s0", "s1_hex", "t2_7", "s2"):
        link = load_space(name, corpus_dir)
        for c in weights:
            r = local_model_check(link, c)
            report.add(f"{name} c={format_rational(c)}", r["pass"], r)
    # a stratified link: the disk with a weighted interior cone point
    inner = load_space("cone_s1_c_half", corpus_dir)
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


def suite_duality(corpus_dir=None, seed=DEFAULT_SEED):
    """Dimension reversal between complementary perversities, corpus-wide."""
    report = CheckSuiteReport("duality")
    spaces = load_corpus(corpus_dir)
    rng = random.Random(seed)
    for name in sorted(spaces):
        K = spaces[name]
        if not K.is_closed():
            r = duality_check(K, zero_perversity(K.n))
            report.add(f"{name}: not applicable (boundary)", not r["applicable"], r)
            continue
        if check_orientation(K) is None:
            r = duality_check(K, zero_perversity(K.n))
            report.add(f"{name}: not applicable (unorientable)", not r["applicable"], r)
            continue
        for pname, p in _duality_perversities(K, rng):
            r = duality_check(K, p)
            report.add(f"{name} {pname}", r["applicable"] and r["pass"], r)
    return report


def suite_ris_consistency(corpus_dir=None):
    """Predictions, max/min reversal, and index sanity on weighted spaces."""
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
        if K.is_closed() and check_orientation(K) is not None:
            n = K.n
            reversal = all(max_b[i] == min_b[n - i] for i in range(n + 1))
            euler = sum((-1) ** i * b for i, b in enumerate(max_b))
            want = 0 if n % 2 == 1 else euler
            report.add(
                f"{name}: max/min reversal and index sanity",
                reversal and ind_max == want and ind_min == want,
                detail,
            )
        else:
            report.add(f"{name}: predictions computed", True, detail)
    return report


def suite_hilbert(corpus_dir=None, seed=DEFAULT_SEED, trials=100):
    """Property run over seeded random finite complexes."""
    report = CheckSuiteReport("hilbert")
    rng = random.Random(seed)
    for trial in range(trials):
        C = hb.random_complex(rng)
        ch = hb.cohomology_dims(C)
        ha = hb.harmonic_dims(C)
        _, dual_rep = hb.dual_complex(C)
        # Euler-Poincaré: the index equals the alternating cohomology sum
        idx = hb.index_even_odd(C)
        alt = sum((-1) ** i * h for i, h in enumerate(ch))
        ok = ch == ha and dual_rep["pass"] and idx == alt
        kodaira_ok = True
        for i in range(len(C.dims)):
            if C.dims[i] == 0:
                continue
            v = {r: rng.randint(-3, 3) for r in range(C.dims[i])}
            h, e, c = hb.kodaira_decompose(C, i, v)
            rec = {}
            for part in (h, e, c):
                for r, val in part.items():
                    rec[r] = rec.get(r, 0) + val
            rec = {r: val for r, val in rec.items() if val}
            want = {r: Fraction(val) for r, val in v.items() if val}
            if rec != want or linalg.dot(h, e) or linalg.dot(h, c) or linalg.dot(e, c):
                kodaira_ok = False
        report.add(
            f"trial {trial}",
            ok and kodaira_ok,
            {"dims": list(C.dims), "cohomology": list(ch), "index": idx},
        )
    return report


def suite_degeneration(corpus_dir=None):
    """Manifolds give ordinary homology; subdivision preserves every vector."""
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
