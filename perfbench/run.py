"""stratal benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload ih-ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With --trace 0 the run repeats the workload's fixed round of work (set-up,
then its operations) as many times as --seconds allows at the typical round
time and reports the end-to-end metrics. With --trace 1 it runs one
untraced round, then two rounds with every public `stratal` function wrapped,
and reports the per-layer metrics. Every answer is checked against an
independent value. The last line of standard output is the JSON result; the
exit code is 0 only when every answer was right.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from pace import PROBE_S, at_reference, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
# set-up is sampled at least this many times and for at least this long
SETUP_SAMPLES = 5
SETUP_MIN_S = 0.5
MIN_ROUNDS = 2
TRACED_ROUNDS = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_stratal():
    """Import the checkout's own stratal, never an installed copy."""
    if not (SRC / "stratal" / "__init__.py").is_file():
        fail(f"no stratal sources under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("STRATAL_CORPUS_DIR", None)
    import stratal

    if Path(stratal.__file__).resolve().parent != (SRC / "stratal").resolve():
        fail(f"imported stratal from {stratal.__file__}, not from {SRC}")
    import stratal.cli  # noqa: F401  (compiles its bytecode before cli-cold runs)


def environment(args):
    head = ROOT / ".git" / "HEAD"
    sha = head.read_text().strip() if head.is_file() else None
    if sha and sha.startswith("ref: "):
        ref = ROOT / ".git" / sha[5:]
        sha = ref.read_text().strip() if ref.is_file() else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stratal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Context:
    """What workloads need from the harness: a working directory in the
    checkout and a way to start `stratal` as a child process."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("STRATAL_CORPUS_DIR", None)

    def run_cli(self, argv, tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "stratal.cli", *argv]
        else:
            spans_file = self.workdir / f"child-{len(tracer.cli_runs)}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_file), *argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=120)
        process_s = time.perf_counter() - start
        if tracer is not None:
            doc = json.loads(spans_file.read_text())
            spans_file.unlink()
            if doc["leftover"]:
                raise RuntimeError(f"child left wrappers installed: {doc['leftover']}")
            tracer.merge_child(argv[0], process_s, doc)
        return proc.returncode, proc.stdout


def run_round(wl, tracer=None, seeded=True):
    """One round: fresh set-up, then every operation once, timed one by one;
    the seed-dependent operations too when `seeded`. The host pace is probed
    before the set-up and after every timed step, outside the timing, and
    each step's time is also given at the reference pace (`pace.py`)."""
    gc.collect()
    if tracer is not None:
        tracer.reset()
        tracer.op = "setup"
    before = probe()
    start = time.perf_counter()
    state = wl.setup()
    setup_s = time.perf_counter() - start
    after = probe()
    setup_ref_s, before = at_reference(setup_s, before, after), after
    answers, errors = {}, {}
    ops = wl.ops(state, tracer)
    seeded = wl.seeded_ops(state, tracer) if seeded else []
    n_fixed, latencies, scaled = len(ops), [], []
    for idx, (key, op) in enumerate(ops + seeded):
        if tracer is not None:
            tracer.op = idx
        start = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors[key] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            result = None
        latencies.append(time.perf_counter() - start)
        after = probe()
        scaled.append(at_reference(latencies[-1], before, after))
        before = after
        if key not in errors:
            answers[key] = wl.summarize(key, result)
        del result
    del state, ops, seeded
    errors.update({k: v for k, v in wl.check(answers).items() if k not in errors})
    return {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "answers": answers,
            "errors": errors, "latencies": latencies[:n_fixed], "scaled": scaled[:n_fixed],
            "seeded_s": sum(latencies[n_fixed:]), "attempted": len(latencies)}


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples above it."""
    return math.floor(100 * (1 - 10 / n)) if n > 20 else 50


def percentile(samples, q):
    """Nearest-rank percentile: the value at rank ceil(q% of n)."""
    ordered = sorted(samples)
    return ordered[-(-q * len(ordered) // 100) - 1]


def measure(wl, seconds):
    # the number of rounds depends on --seconds alone, so the same arguments
    # do the same work and count the same samples; a slow host may run fewer
    rounds = max(MIN_ROUNDS, int(seconds // wl.nominal_round_s))
    began, results, last = time.perf_counter(), [], 0.0
    for _ in range(rounds):
        elapsed = time.perf_counter() - began
        if len(results) >= MIN_ROUNDS and elapsed + last > seconds:
            print(f"perfbench: stopped after {len(results)} rounds", file=sys.stderr)
            break
        # the seed-dependent operations add coverage, not samples: once a run
        results.append(run_round(wl, seeded=not results))
        last = time.perf_counter() - began - elapsed
    setups = [r["setup_ref_s"] for r in results]
    measured = sum(r["setup_s"] for r in results)
    while len(setups) < SETUP_SAMPLES or measured < SETUP_MIN_S:
        # set-ups shorter than a probe share one pair of probes
        before, batch = probe(), []
        while not batch or sum(batch) < PROBE_S:
            gc.collect()
            start = time.perf_counter()
            state = wl.setup()
            batch.append(time.perf_counter() - start)
            del state
        after = probe()
        setups += [at_reference(t, before, after) for t in batch]
        measured += sum(batch)
    # each operation's latency is its median over the rounds at the reference
    # pace, counted once per round, so one disturbed round moves no percentile
    typical = [statistics.median(op) * 1000 for op in zip(*(r["scaled"] for r in results))]
    latencies = sorted(ms for ms in typical for _ in range(rounds))
    q = tail_percentile(len(latencies))
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-cold" else resource.RUSAGE_SELF
    values = {
        "wall_s": sum(typical) / 1000,
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median_low(latencies),
        "op_tail_ms": percentile(latencies, q),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    raw = sum(statistics.median(op) for op in zip(*(r["latencies"] for r in results)))
    print(f"[{wl.name}] measured wall_s = {raw:.6g} s  (sum of per-operation medians "
          f"before scaling; the host ran at {raw / values['wall_s']:.3g}x the reference time)")
    if results[0]["seeded_s"]:
        print(f"[{wl.name}] seeded_s = {results[0]['seeded_s']:.6g} s  (seed-dependent "
              "queries of the first round; checked, not an end-to-end metric)")
    notes = {
        "wall_s": f"sum of per-operation medians over {len(results)} rounds, "
                  "at the reference pace",
        "setup_s": f"median of {len(setups)} set-ups at the reference pace",
        "op_p50_ms": f"p50 of {len(latencies)} operations, {len(typical)} per round",
        "op_tail_ms": f"p{q} of {len(latencies)} operations, {len(typical)} per round",
        "peak_rss_mb": "largest child process" if wl.name == "cli-cold" else "this process",
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return results, metrics, notes


def traced(wl):
    from layers import layer_metrics, metric_defs
    from tracer import Tracer

    results = [run_round(wl)]
    tracer = Tracer()
    problems = []
    traced_rounds = []
    try:
        tracer.install()
        for _ in range(TRACED_ROUNDS):
            res = run_round(wl, tracer)
            res["spans"], res["cli_runs"] = tracer.spans, tracer.cli_runs
            traced_rounds.append(res)
    finally:
        tracer.uninstall()
    leftover = Tracer.leftover_wrappers()
    if leftover:
        problems.append(f"wrappers left after uninstall: {leftover}")
    results += traced_rounds
    for res in traced_rounds:
        if res["answers"] != results[0]["answers"]:
            problems.append("traced answers differ from untraced answers")
    overhead = (statistics.median(sum(r["scaled"]) for r in traced_rounds)
                / sum(results[0]["scaled"]))
    per_round = [layer_metrics(r["spans"], r["cli_runs"], overhead) for r in traced_rounds]
    defs = metric_defs()
    for name, _, _, kind in defs:
        if kind == "count" and len({m[name] for m in per_round}) != 1:
            problems.append(f"count {name} differs across traced rounds: "
                            f"{[m[name] for m in per_round]}")
    metrics = {}
    for name, unit, _, kind in defs:
        vals = [m[name] for m in per_round]
        value = vals[0] if kind == "count" else statistics.median(vals)
        metrics[name] = {"value": value, "unit": unit}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    with spans_path.open("w") as fh:
        for number, res in enumerate(traced_rounds, 1):
            for name, start, end, parent, op, _, _ in res["spans"]:
                fh.write(json.dumps({"round": number, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
    notes = {"trace.overhead_ratio": "traced over untraced wall_s",
             "trace.spans": f"per round; all spans in {spans_path.relative_to(ROOT)}"}
    return results, metrics, notes, problems


def check_declared(trace, metrics):
    """The metrics printed must be the ones BENCHMARK.json declares."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")


def run_one(args):
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, Context(workdir))
        if args.trace:
            results, metrics, notes, problems = traced(wl)
        else:
            (results, metrics, notes), problems = measure(wl, args.seconds), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    check_declared(args.trace, metrics)
    attempted = sum(r["attempted"] for r in results) + (1 if args.trace else 0)
    failed = sum(len(r["errors"]) for r in results) + (1 if problems else 0)
    for number, res in enumerate(results, 1):
        for key, why in sorted(res["errors"].items()):
            print(f"perfbench: round {number}: {key}: {why}", file=sys.stderr)
    for why in problems:
        print(f"perfbench: self-test: {why}", file=sys.stderr)
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"[{wl.name}] {name} = {metric['value']:.6g} {metric['unit']}{note}")
    print(f"[{wl.name}] error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines() or [""]
            print("\n".join(lines[1:-1]))
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ih-ladder", "verify-sweep", "build-ladder", "cli-cold", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_stratal()
    print(json.dumps({"env": environment(args)}))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
