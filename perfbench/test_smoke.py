"""Smoke test of the benchmark: shrunken workloads emit every named metric."""

import json

import pytest

import run
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_shrunken_workload_emits_every_metric(name, trace):
    record = run.measure(name, seed=1, seconds=0, trace=trace, small=True)
    assert record["correct"], record
    assert record["attempted"] > 0 and record["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = record["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0, m["name"]


def test_benchmark_names_each_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
