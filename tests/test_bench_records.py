"""The benchmark records at the root of the repository: each `BENCH_pr*.json`
and its `BENCH_pr*_parent.json` partner hold alternating runs of
`perfbench/run.py` on a change and on its parent commit. Only
`BENCHMARK.json` is read for the metric and workload names."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
RECORDS = sorted(p.name for p in ROOT.glob("BENCH_pr*.json") if not p.stem.endswith("_parent"))


def _runs(name):
    return json.loads((ROOT / name).read_text())["runs"]


def _untraced(runs):
    return [run for run in runs if run["env"]["trace"] == 0]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("name", RECORDS)
def test_record_pairs_with_its_parent_runs(name):
    partner = name.replace(".json", "_parent.json")
    assert (ROOT / partner).is_file(), f"{name} has no {partner}"
    change, parent = _runs(name), _runs(partner)
    for label, runs in ((name, change), (partner, parent)):
        for run in runs:
            env, result = run["env"], run["result"]
            where = f"{label} {env['workload']} seed {env['seed']} trace {env['trace']}"
            assert result["correct"] and result["failed"] == 0, where
        for run in _untraced(runs):
            env = run["env"]
            assert env["workload"] in WORKLOADS, (label, env["workload"])
            assert set(run["result"]["metrics"]) == END_TO_END, (label, env["workload"])
    pairs = [{(r["env"]["workload"], r["env"]["seed"]) for r in _untraced(runs)}
             for runs in (change, parent)]
    assert pairs[0] == pairs[1]
    sources = [{r["env"]["source_sha256"] for r in runs} for runs in (change, parent)]
    assert [len(s) for s in sources] == [1, 1], sources
    assert sources[0] != sources[1]
