"""Every committed benchmark record, `BENCH_<label>.json` at the root of the
repository, names itself, says what it measured and how, and claims only
what `BENCHMARK.json` declares: a workload and an end-to-end metric, with a
claim marked met only where the change's median beats the parent's. A
record that lists its runs claims what those runs give."""
from __future__ import annotations

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
HEADER = ("change", "parent_commit", "command", "benchmark", "host", "design")


def test_the_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.stem)
def test_a_record_names_itself_and_its_claim(path):
    record = json.loads(path.read_text())
    assert record["label"] == path.stem.removeprefix("BENCH_")
    assert [key for key in HEADER if key not in record] == []
    claim = record.get("claim")
    if claim is None:
        return
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert claim["workload"] in {w["name"] for w in benchmark["workloads"]}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    assert claim["metric"] in better
    if "runs" in record:
        assert_claim_is_what_the_runs_give(
            claim, record["runs"], better[claim["metric"]] == "lower")
    if claim["met"]:
        parent, change = claim["parent_median"], claim["change_median"]
        assert (change < parent if better[claim["metric"]] == "lower"
                else change > parent)


def assert_claim_is_what_the_runs_give(claim, runs, lower_is_better):
    """The claim's medians (to the 6 decimals records keep), its number of
    pairs and the pairs the change wins, from the runs of its workload,
    paired by seed."""
    sides: dict = {"parent": {}, "change": {}}
    for run in runs:
        if run["workload"] == claim["workload"]:
            sides[run["side"]][run["seed"]] = run["metrics"][claim["metric"]]
    parent, change = sides["parent"], sides["change"]
    assert parent.keys() == change.keys()
    for key, side in (("parent_median", parent), ("change_median", change)):
        assert claim[key] == round(statistics.median(side.values()), 6)
    assert claim["pairs"] == len(parent)
    assert claim["change_better"] == sum(
        (change[seed] < parent[seed]) if lower_is_better
        else (change[seed] > parent[seed]) for seed in parent)
