"""``BENCHMARK.json`` and the result line stay inside the driver's contract."""

import json
import re

import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_shape():
    spec = run.SPEC
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert spec["paths"] == ["benchmarks/ledger"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} for w in spec["workloads"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = run.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def result(trace):
    return {
        "trace": trace, "correct": True, "attempted": 10, "failed": 0,
        "end_to_end": {name: 1.5 for name in run.END_TO_END},
        "per_layer": {"locks.wait_ms_mean": 2.5, "client.read_p99_ms": None},
    }


def test_untraced_line_carries_every_end_to_end_metric():
    line = json.loads(run.contract_line(result(trace=0)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


def test_traced_line_carries_every_per_layer_metric_as_a_number():
    line = json.loads(run.contract_line(result(trace=1)))
    assert set(line["metrics"]) == set(run.PER_LAYER)
    assert line["metrics"]["locks.wait_ms_mean"]["value"] == 2.5
    # Not measured on this workload, or too few samples: reads 0.
    assert line["metrics"]["client.read_p99_ms"]["value"] == 0
    assert line["metrics"]["engine.events_per_op"]["value"] == 0


def test_spread_is_the_interquartile_range_over_the_median():
    assert run.spread([1.0, 2.0, 3.0]) is None
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert run.spread(values) == (17.25 - 11.75) / 14.5
