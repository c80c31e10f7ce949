"""The four benchmark workloads and their independent output checks.

A workload builds fresh inputs in `setup()`, lists its operations in `ops()`
and judges answers in `check()`. Every operation runs on objects built in the
same round, so no (complex object, perversity) query repeats within a run.
Reference values come from a different computation than the one measured:
subdivision invariance, duality, the cone and suspension formulas, f-vector
formulas and the Euler characteristic.
"""

import inspect
import json
import math
import random
from fractions import Fraction

from stratal import corpus, intersection, verify
from stratal import complexes as cx
from stratal.perversity import (
    BY_CODIM,
    Perversity,
    dual,
    middle_perversities,
    top_perversity,
    zero_perversity,
)


def named_perversities(n):
    lower, upper = middle_perversities(n)
    return [("zero", zero_perversity(n)), ("lower-middle", lower),
            ("upper-middle", upper), ("top", top_perversity(n))]


def restrict(p, n):
    """A by-codim perversity cut down to codimensions 1..n."""
    return Perversity(BY_CODIM, {k: v for k, v in p.values.items() if k <= n})


def cone_formula(link_ih, p, n):
    """IH of the closed cone of dimension n: the link's IH below n-1-p(n), else 0."""
    cut = n - 1 - p.values[n]
    return tuple(link_ih[i] if i < cut else 0 for i in range(n + 1))


def suspension_formula(link_ih, p, n):
    """IH of the suspension of dimension n, by Mayer-Vietoris over two cones."""
    cut = n - 1 - p.values[n]
    out = []
    for i in range(n + 1):
        if i < cut:
            out.append(link_ih[i] if i < len(link_ih) else 0)
        elif i > cut:
            out.append(link_ih[i - 1])
        else:
            out.append(0)
    return tuple(out)


def euler(vector):
    return sum((-1) ** i * b for i, b in enumerate(vector))


def bracket(x):
    """Greatest integer strictly below a positive rational."""
    return math.ceil(x) - 1


class Workload:
    name = ""
    nominal_round_s = 1.0

    def __init__(self, seed, ctx):
        self.seed = seed
        self.ctx = ctx

    def seeded_ops(self, state, tracer=None):
        """Operations whose cost depends on the seed: run once per measured
        run (every traced round), timed and checked after `ops()`, but kept
        out of the end-to-end metrics."""
        return []

    def summarize(self, key, result):
        return result

    def check(self, answers):
        """Map op key -> reason for every wrong answer of one round."""
        raise NotImplementedError


# ---------------------------------------------------------------- ih-ladder


class IhLadder(Workload):
    """IH betti queries on five ladder spaces, built fresh every round."""

    name = "ih-ladder"
    nominal_round_s = 5.8
    # space -> dimension
    SPACES = {"susp(susp t2)": 4, "cone(susp(susp t2))": 5, "sd(cone_t2)": 3,
              "sd(susp t2)": 3, "cone(sd(susp t2))": 4}

    def __init__(self, seed, ctx):
        super().__init__(seed, ctx)
        rng = random.Random(seed)
        self.fixed, self.seeded = [], []
        for space, n in self.SPACES.items():
            for pname, p in named_perversities(n):
                self.fixed.append((space, pname, p))
            self.fixed.append((space, "betti", None))
            for r in range(2):
                values = {k: rng.randint(-1, k - 1) for k in range(1, n + 1)}
                self.seeded.append((space, f"random{r}", Perversity(BY_CODIM, values)))
        self._refs = None

    def setup(self):
        t2 = corpus.load_space("t2_7")
        st2 = cx.suspension(t2)
        sst2 = cx.suspension(st2)
        sdst2 = cx.barycentric_subdivide(st2)
        return {
            "susp(susp t2)": sst2,
            "cone(susp(susp t2))": cx.cone(sst2),
            "sd(cone_t2)": cx.barycentric_subdivide(corpus.load_space("cone_t2")),
            "sd(susp t2)": sdst2,
            "cone(sd(susp t2))": cx.cone(sdst2),
        }

    @staticmethod
    def _queries(spaces, queries):
        out = []
        for space, pname, p in queries:
            K = spaces[space]
            if p is None:
                out.append((f"{space} {pname}", K.betti))
            else:
                out.append((f"{space} {pname}",
                            lambda K=K, p=p: intersection.intersection_betti(K, p)))
        return out

    def ops(self, spaces, tracer=None):
        return self._queries(spaces, self.fixed)

    def seeded_ops(self, spaces, tracer=None):
        # Their cost swings tenfold with the drawn values (0.09-1.7 s on
        # cone(sd(susp t2))), so they are checked and timed but kept out of
        # the end-to-end metrics, which measure the seed-independent queries.
        return self._queries(spaces, self.seeded)

    def _references(self):
        """Expected vectors from smaller, unsubdivided spaces, once per run."""
        st2 = cx.suspension(corpus.load_space("t2_7"))
        sst2 = cx.suspension(st2)
        bases = {"sd(cone_t2)": corpus.load_space("cone_t2"), "sd(susp t2)": st2,
                 "cone(sd(susp t2))": cx.cone(st2)}
        refs = {}
        for space, pname, p in self.fixed + self.seeded:
            key = f"{space} {pname}"
            if space in bases:
                base = bases[space]
                if p is None:
                    want = base.betti()
                    refs[key] = [("subdivision invariance", want)]
                    continue
                refs[key] = [("subdivision invariance", intersection.intersection_betti(base, p))]
                if space == "sd(susp t2)":
                    dual_ih = intersection.intersection_betti(base, dual(p))
                    refs[key].append(("duality", tuple(reversed(dual_ih))))
            elif p is None:
                refs[key] = [("euler characteristic", sst2.euler_characteristic()
                              if space == "susp(susp t2)" else 1)]
            elif space == "susp(susp t2)":
                dual_ih = intersection.intersection_betti(sst2, dual(p))
                refs[key] = [("duality", tuple(reversed(dual_ih)))]
            else:
                link_ih = intersection.intersection_betti(sst2, restrict(p, 4))
                refs[key] = [("cone formula", cone_formula(link_ih, p, 5))]
        return refs

    def check(self, answers):
        if self._refs is None:
            self._refs = self._references()
        bad = {}
        # the seed-dependent queries are absent from some rounds; an operation
        # that raised is already counted by the harness
        for key, got in answers.items():
            for rule, want in self._refs[key]:
                value = euler(got) if rule == "euler characteristic" else got
                if value != want:
                    bad[key] = f"{rule}: got {got}, expected {want}"
                    break
            else:
                if key.startswith("cone(") and key.endswith("betti"):
                    if tuple(got) != (1,) + (0,) * (len(got) - 1):
                        bad[key] = f"a cone is contractible: got {got}"
        return bad


# ------------------------------------------------------------- verify-sweep


class VerifySweep(Workload):
    """All eight verify suites in-process, seeded ones with the run's seed."""

    name = "verify-sweep"
    nominal_round_s = 2.7
    SUITES = ("duality", "cone-local", "mil", "hunsicker", "realizability",
              "ris-consistency", "hilbert", "degeneration")

    def setup(self):
        return corpus.load_corpus()

    def ops(self, corpus, tracer=None):
        out = []
        for name in self.SUITES:
            def run(name=name):
                suite = verify.SUITES[name]
                if "seed" in inspect.signature(suite).parameters:
                    return suite(seed=self.seed)
                return suite()
            out.append((name, run))
        return out

    def summarize(self, key, report):
        return (report.passed, len(report.checks))

    def check(self, answers):
        bad = {}
        for name in self.SUITES:
            got = answers.get(name)
            if not got or not got[0] or got[1] == 0:
                bad[name] = f"suite did not pass: {got}"
        return bad


# ------------------------------------------------------------- build-ladder


def sd_counts(counts):
    """f-vector of the barycentric subdivision: flags of faces of each simplex."""
    n = len(counts) - 1
    out = []
    for i in range(n + 1):
        total = 0
        for k in range(i, n + 1):
            # chains of i+1 nested nonempty vertex sets ending at a k-simplex
            # are the ordered partitions of its k+1 vertices into i+1 blocks
            surj = sum((-1) ** j * math.comb(i + 1, j) * (i + 1 - j) ** (k + 1)
                       for j in range(i + 2))
            total += counts[k] * surj
        out.append(total)
    return tuple(out)


def cone_counts(counts, apexes):
    """f-vector of the cone (one apex) or suspension (two) of a complex."""
    out = [counts[0] + apexes]
    for i in range(1, len(counts)):
        out.append(counts[i] + apexes * counts[i - 1])
    out.append(apexes * counts[-1])
    return tuple(out)


class BuildLadder(Workload):
    """Construction only: suspensions, a cone and subdivisions up to ~70k
    simplices, each result round-tripped through its JSON document."""

    name = "build-ladder"
    nominal_round_s = 7.5
    # (key, constructor, input key); the seed draws the apex weights
    STEPS = (
        ("susp(t2)", "suspension", "t2"),
        ("susp(susp t2)", "suspension", "susp(t2)"),
        ("sd(susp(susp t2))", "barycentric_subdivide", "susp(susp t2)"),
        ("sd(susp t2)", "barycentric_subdivide", "susp(t2)"),
        ("cone(sd(susp t2))", "cone", "sd(susp t2)"),
        ("sd2(susp t2)", "barycentric_subdivide", "sd(susp t2)"),
    )
    APEXES = {"suspension": 2, "cone": 1, "barycentric_subdivide": 0}

    def __init__(self, seed, ctx):
        super().__init__(seed, ctx)
        rng = random.Random(seed)
        self.weights = {key: [Fraction(rng.randint(1, 9), rng.randint(1, 9))
                              for _ in range(self.APEXES[ctor])]
                        for key, ctor, _ in self.STEPS}

    def setup(self):
        return {"t2": corpus.load_space("t2_7")}

    def ops(self, state, tracer=None):
        # each complex is released after its last reader: its round trip and
        # every construction that takes it as input
        readers = {"t2": 0}
        for key, _, src in self.STEPS:
            readers[key] = 1
            readers[src] += 1

        def take(key):
            readers[key] -= 1
            return state[key] if readers[key] else state.pop(key)

        out = []
        for key, ctor, src in self.STEPS:
            def construct(key=key, ctor=ctor, src=src):
                args = {"suspension": (tuple(self.weights[key]),),
                        "cone": tuple(self.weights[key])}.get(ctor, ())
                state[key] = getattr(cx, ctor)(take(src), *args)
                return state[key]

            def round_trip(key=key):
                return cx.load(json.dumps(cx.to_document(take(key))))

            out += [(key, construct), (f"round-trip {key}", round_trip)]
        return out

    def summarize(self, key, result):
        return {
            "counts": result.counts(),
            "strata": sorted(result.strata),
            "weights": sorted((sid, str(c)) for sid, c in result.weights.items()),
        }

    def check(self, answers):
        summaries = {"t2": self.summarize("t2", corpus.load_space("t2_7"))}
        bad = {}
        for key, ctor, src in self.STEPS:
            got = answers.get(key)
            before = answers.get(src, summaries.get(src))
            if got is None or before is None:
                bad[key] = "missing answer"
                continue
            apexes = self.APEXES[ctor]
            if apexes:
                want_counts = cone_counts(before["counts"], apexes)
            else:
                want_counts = sd_counts(before["counts"])
            want_strata = len(before["strata"]) + apexes
            want_weights = sorted([w for _, w in before["weights"]]
                                  + [str(w) for w in self.weights[key]])
            if tuple(got["counts"]) != want_counts:
                bad[key] = f"f-vector {got['counts']}, expected {want_counts}"
            elif len(got["strata"]) != want_strata:
                bad[key] = f"{len(got['strata'])} strata, expected {want_strata}"
            elif sorted(w for _, w in got["weights"]) != want_weights:
                bad[key] = f"weights {got['weights']}, expected values {want_weights}"
            if answers.get(f"round-trip {key}") != got:
                bad[f"round-trip {key}"] = "counts, stratum ids or weights changed on reload"
        return bad


# ----------------------------------------------------------------- cli-cold


CORPUS_NAMES = ["cone_cone_s1", "cone_s1_c_half", "cone_t2", "mobius", "point", "s0",
                "s1_hex", "s2", "susp_s0", "susp_s2", "susp_t2", "t2_7"]


class CliCold(Workload):
    """`stratal` commands as fresh subprocesses, one at a time."""

    name = "cli-cold"
    nominal_round_s = 3.5
    FILE = "ladder_susp_susp_t2.json"

    def __init__(self, seed, ctx):
        super().__init__(seed, ctx)
        rng = random.Random(seed)
        steps = [rng.randint(0, 1) for _ in range(2)]
        self.gm_file = [0, steps[0], steps[0] + steps[1]]
        dim = rng.randint(4, 6)
        gm = [0]
        for _ in range(dim - 2):
            gm.append(gm[-1] + rng.randint(0, 1))
        self.dual_dim, self.dual_gm = dim, gm
        self.link_betti = [1, rng.randint(0, 4), 1]
        self.weight = rng.choice(["1/4", "1/3", "1/2", "1", "2", "3"])
        self._refs = None

    def commands(self, path):
        gm = ",".join(map(str, self.gm_file))
        cmds = [
            ("ih", ["--space", "susp_t2", "--perversity", "lower-middle"]),
            ("ih", ["--space", "susp_t2", "--perversity", "upper-middle", "--cobetti"]),
            ("ih", ["--space", "cone_t2", "--perversity", "top", "--emit-generators"]),
            ("ih", ["--space", "mobius", "--perversity", "zero"]),
            ("ih", ["--space", path, "--perversity", "lower-middle"]),
            ("ih", ["--space", path, "--perversity", "upper-middle", "--cobetti"]),
            ("ih", ["--space", path, "--perversity", f"gm:{gm}"]),
            ("ih", ["--space", path, "--perversity", "from-weights"]),
            ("predict", ["--space", "susp_t2"]),
            ("predict", ["--space", path]),
            ("perversity", ["--space", "susp_t2"]),
            ("perversity", ["--dim", str(self.dual_dim), "--spec",
                            "gm:" + ",".join(map(str, self.dual_gm)), "--dual"]),
            ("cone", ["--link-betti", ",".join(map(str, self.link_betti)),
                      "--link-dim", "2", "--weight", self.weight]),
            ("corpus-list", []),
        ]
        for suite in ("mil", "hunsicker", "realizability", "ris-consistency",
                      "cone-local", "hilbert"):
            cmds.append(("verify", ["--suite", suite]))
        return cmds

    def setup(self):
        K = cx.suspension(corpus.load_space("susp_t2"))
        K.name = "susp_susp_t2"
        path = self.ctx.workdir / self.FILE
        path.write_text(json.dumps(cx.to_document(K), indent=2, sort_keys=True) + "\n")
        return str(path)

    def ops(self, path, tracer=None):
        out = []
        for idx, (cmd, argv) in enumerate(self.commands(path)):
            argv = [cmd] + argv
            out.append((f"{idx:02d} stratal {' '.join(argv)}".replace(path, self.FILE),
                        lambda argv=argv: self.ctx.run_cli(argv, tracer)))
        return out

    def summarize(self, key, result):
        code, stdout = result
        try:
            doc = json.loads(stdout)
        except ValueError:
            doc = None
        return {"exit": code, "report": doc}

    def _references(self):
        lower3, upper3 = middle_perversities(3)
        lower4, upper4 = middle_perversities(4)
        refs = {}
        for name in ("susp_t2", "cone_t2", "mobius"):
            K = cx.barycentric_subdivide(corpus.load_space(name))
            for pname, p in named_perversities(K.n):
                refs[(name, pname)] = list(intersection.intersection_betti(K, p))
        link = corpus.load_space("susp_t2")
        gm = Perversity(BY_CODIM, {1: 0, 2: self.gm_file[0], 3: self.gm_file[1],
                                   4: self.gm_file[2]})
        for pname, p in (("lower-middle", lower4), ("upper-middle", upper4),
                         ("gm", gm), ("from-weights", upper4)):
            link_ih = intersection.intersection_betti(link, restrict(p, 3))
            refs[("file", pname)] = list(suspension_formula(link_ih, p, 4))
        p_g = {s.id: bracket(Fraction(s.link_dim, 2) + Fraction(1, 2) / link.weights[s.id])
               for s in link.singular_strata()}
        q_g = {s.id: s.codim - 2 - p_g[s.id] for s in link.singular_strata()}
        refs["weights"] = (p_g, q_g)
        return refs

    def _expected(self, cmd, argv, refs):
        """Check function for one command's report, or a fixed expectation."""
        opts = dict(zip(argv[::2], argv[1::2]))
        space = opts.get("--space")
        where = "file" if space and space.endswith(".json") else space
        if cmd == "ih":
            spec = opts["--perversity"]
            pname = "gm" if spec.startswith("gm:") else spec
            want = refs[(where, pname)]
            def ok(doc):
                good = doc["betti"] == want
                if "--cobetti" in argv:
                    good = good and doc["cobetti"] == want
                if "--emit-generators" in argv:
                    good = good and len(doc["chain_basis"]) == len(want)
                return good
            return ok, want
        if cmd == "predict":
            lo, up = refs[(where, "lower-middle")], refs[(where, "upper-middle")]
            return (lambda doc: doc["max_betti"] == lo and doc["min_betti"] == up), (lo, up)
        if cmd == "perversity" and space:
            want = refs["weights"]
            return (lambda doc: doc["p_g"]["values"] == want[0]
                    and doc["q_g"]["values"] == want[1]), want
        if cmd == "perversity":
            want = {str(k + 2): k - v for k, v in enumerate(self.dual_gm)}
            return (lambda doc: doc["perversity"]["values"] == want), want
        if cmd == "cone":
            cut = Fraction(2, 2) + Fraction(1, 2) / Fraction(self.weight)
            want = [b if i < cut else 0 for i, b in enumerate(self.link_betti + [0])]
            return (lambda doc: doc["max_betti"] == want), want
        if cmd == "corpus-list":
            return (lambda doc: [s["name"] for s in doc["spaces"]] == CORPUS_NAMES
                    and all(s["euler_characteristic"] == euler(s["simplex_counts"])
                            for s in doc["spaces"])), CORPUS_NAMES
        return (lambda doc: doc["pass"] is True and doc["check_count"] > 0), "pass"

    def check(self, answers):
        if self._refs is None:
            self._refs = self._references()
        bad = {}
        for idx, (cmd, argv) in enumerate(self.commands(self.FILE)):
            key = f"{idx:02d} stratal {' '.join([cmd] + argv)}"
            got = answers.get(key)
            ok, want = self._expected(cmd, argv, self._refs)
            if got is None or got["exit"] != 0 or got["report"] is None:
                bad[key] = f"exit {got and got['exit']}, no report"
                continue
            try:
                good = ok(got["report"])
            except (KeyError, TypeError) as exc:
                good, want = False, f"{want} (report lacks {exc})"
            if not good:
                bad[key] = f"expected {want}"
        return bad


WORKLOADS = {w.name: w for w in (IhLadder, VerifySweep, BuildLadder, CliCold)}
