"""Per-layer metrics: their names, units and how spans are folded into them.

One layer per `stratal` module. A metric is `(name, unit, better, kind)`;
`kind` is "count" for values that must repeat exactly across traced runs and
"time" for the rest.
"""

import statistics

LINALG_OUT = {
    "rank": "rank_out",
    "kernel": "dim_out",
    "rcef": "dim_out",
    "combine_columns": "nnz_out",
    "project_onto_span": "nnz_out",
    "solve_square": "nnz_out",
}
COMPLEXES = {
    "load": "complexes.load",
    "build": "complexes.build",
    "cone": "complexes.cone",
    "suspension": "complexes.suspension",
    "barycentric_subdivide": "complexes.barycentric_subdivide",
    "to_document": "complexes.to_document",
    "check_orientation": "complexes.check_orientation",
    "betti": "complexes.FilteredComplex.betti",
}
SUITES = ("duality", "cone-local", "mil", "hunsicker", "realizability",
          "ris-consistency", "hilbert", "degeneration")
CLI_COMMANDS = ("ih", "predict", "perversity", "cone", "corpus-list", "verify")
MODULE_TOTALS = ("perversity", "l2model", "hilbert")
FUNCTIONS = ("hilbert.kodaira_decompose", "hilbert.cohomology_dims",
             "l2model.theorem_predictions", "perversity.perversity_from_weights")

CHAIN_BUILD = "intersection.StratifiedChainComplex.__init__"
HOMOLOGY = "intersection.StratifiedChainComplex.homology"


def _timed(prefix):
    return [(f"{prefix}.calls", "count", "lower", "count"),
            (f"{prefix}.s", "s", "lower", "time"),
            (f"{prefix}.self_s", "s", "lower", "time")]


def metric_defs():
    defs = []
    for fn, out in LINALG_OUT.items():
        defs += _timed(f"linalg.{fn}")
        defs += [(f"linalg.{fn}.cols_in", "count", "lower", "count"),
                 (f"linalg.{fn}.nnz_in", "count", "lower", "count"),
                 (f"linalg.{fn}.{out}", "count", "lower", "count")]
    defs += [("linalg.rank.pivot_ratio", "ratio", "higher", "count"),
             ("linalg.kernel.yield_ratio", "ratio", "higher", "count")]
    defs += _timed("intersection.chain_build")
    defs += [("intersection.chain_build.cold_s", "s", "lower", "time"),
             ("intersection.chain_build.warm_s", "s", "lower", "time"),
             ("intersection.chain_build.degree_builds", "count", "lower", "count")]
    defs += _timed("intersection.homology")
    defs += [("intersection.allowable_ratio", "ratio", "higher", "count"),
             ("intersection.pattern_distinct_ratio", "ratio", "lower", "count")]
    for short in COMPLEXES:
        defs += _timed(f"complexes.{short}")
    defs.append(("complexes.simplices_built", "count", "lower", "count"))
    for suite in SUITES:
        defs += [(f"verify.{suite}.s", "s", "lower", "time"),
                 (f"verify.{suite}.checks", "count", "higher", "count")]
    for fn in ("load_corpus", "load_space"):
        defs += _timed(f"corpus.{fn}")
    defs += [("cli.import_s", "s", "lower", "time"),
             ("cli.interpreter_s", "s", "lower", "time"),
             ("cli.process_s", "s", "lower", "time"),
             ("cli.commands", "count", "lower", "count")]
    defs += [(f"cli.{cmd}.main_s", "s", "lower", "time") for cmd in CLI_COMMANDS]
    for module in MODULE_TOTALS:
        defs += [(f"{module}.calls", "count", "lower", "count"),
                 (f"{module}.self_s", "s", "lower", "time")]
    for fn in FUNCTIONS:
        defs += _timed(fn)
    defs += [("trace.overhead_ratio", "ratio", "lower", "time"),
             ("trace.spans", "count", "lower", "count")]
    return defs


def fold(spans):
    """Per span name: calls, outermost inclusive s, self_s, summed counts."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    stats = {}
    for i, (name, start, end, _, _, counts, nested) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        if not nested:
            st["s"] += end - start
        st["self_s"] += end - start - child[i]
        for key, val in (counts or {}).items():
            if isinstance(val, (int, float)):
                st[key] = st.get(key, 0) + val
    return stats


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, cli_runs, overhead):
    """Every per-layer metric for one traced round.

    `cli_runs` holds one (command, process_s, import_s, main_s) per child
    process; `overhead` is traced over untraced wall time.
    """
    stats = fold(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}

    def timed(prefix, name):
        st = stats.get(name, empty)
        out[f"{prefix}.calls"] = st["calls"]
        out[f"{prefix}.s"] = st["s"]
        out[f"{prefix}.self_s"] = st["self_s"]
        return st

    for fn, stat in LINALG_OUT.items():
        st = timed(f"linalg.{fn}", f"linalg.{fn}")
        for key in ("cols_in", "nnz_in", stat):
            out[f"linalg.{fn}.{key}"] = st.get(key, 0)
    out["linalg.rank.pivot_ratio"] = _ratio(out["linalg.rank.rank_out"],
                                            out["linalg.rank.cols_in"])
    out["linalg.kernel.yield_ratio"] = _ratio(out["linalg.kernel.dim_out"],
                                              out["linalg.kernel.cols_in"])

    builds = [rec for rec in spans if rec[0] == CHAIN_BUILD]
    st = timed("intersection.chain_build", CHAIN_BUILD)
    cold = [r[2] - r[1] for r in builds if r[5]["cold"]]
    warm = [r[2] - r[1] for r in builds if not r[5]["cold"]]
    out["intersection.chain_build.cold_s"] = statistics.fmean(cold) if cold else 0.0
    out["intersection.chain_build.warm_s"] = statistics.fmean(warm) if warm else 0.0
    degree_builds = st.get("degrees", 0)
    out["intersection.chain_build.degree_builds"] = degree_builds
    timed("intersection.homology", HOMOLOGY)
    out["intersection.allowable_ratio"] = _ratio(st.get("allowable", 0), st.get("regular", 0))
    distinct = {tuple(key) for r in builds for key in r[5]["patterns"]}
    out["intersection.pattern_distinct_ratio"] = _ratio(len(distinct), degree_builds)

    for short, name in COMPLEXES.items():
        timed(f"complexes.{short}", name)
    out["complexes.simplices_built"] = sum(
        stats.get(f"complexes.{c}", {}).get("simplices", 0)
        for c in ("load", "build", "cone", "suspension", "barycentric_subdivide"))

    for suite in SUITES:
        st = stats.get(f"verify.suite_{suite.replace('-', '_')}", empty)
        out[f"verify.{suite}.s"] = st["s"]
        out[f"verify.{suite}.checks"] = st.get("checks", 0)
    for fn in ("load_corpus", "load_space"):
        timed(f"corpus.{fn}", f"corpus.{fn}")

    def median(values):
        return statistics.median(values) if values else 0.0

    out["cli.import_s"] = median([r[2] for r in cli_runs])
    out["cli.interpreter_s"] = median([r[1] - r[2] - r[3] for r in cli_runs])
    out["cli.process_s"] = median([r[1] for r in cli_runs])
    out["cli.commands"] = len(cli_runs)
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.main_s"] = sum(r[3] for r in cli_runs if r[0] == cmd)

    for module in MODULE_TOTALS:
        mine = [st for name, st in stats.items() if name.startswith(module + ".")]
        out[f"{module}.calls"] = sum(st["calls"] for st in mine)
        out[f"{module}.self_s"] = sum(st["self_s"] for st in mine)
    for fn in FUNCTIONS:
        timed(fn, fn)
    out["trace.overhead_ratio"] = overhead
    out["trace.spans"] = len(spans)
    return out
