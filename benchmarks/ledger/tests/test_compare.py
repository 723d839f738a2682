"""``compare.py`` applies each metric's direction and bound."""

import copy

import compare

OPS = {"name": "ops_per_s", "better": "higher", "bound": 0.10}
LATENCY = {"name": "read_p50_ms", "better": "lower", "bound": 0.15}


def entry(name, runs, spread):
    runs = sorted(runs)
    return {
        "end_to_end": {name: runs[len(runs) // 2]},
        "samples": {name: runs},
        "spread": {name: spread},
    }


def test_within_bound_is_ok():
    a = entry("ops_per_s", [1000, 1010, 1020], 0.01)
    b = entry("ops_per_s", [950, 960, 970], 0.01)
    assert compare.judge(a, b, OPS)[0] == "ok"


def test_direction_decides_what_worse_means():
    a = entry("ops_per_s", [1000, 1010, 1020], 0.01)
    b = entry("ops_per_s", [850, 860, 870], 0.01)
    assert compare.judge(a, b, OPS)[0] == "regression"
    assert compare.judge(b, a, OPS)[0] == "ok"
    slow = entry("read_p50_ms", [1.3, 1.3, 1.3], 0.0)
    fast = entry("read_p50_ms", [1.0, 1.0, 1.0], 0.0)
    assert compare.judge(fast, slow, LATENCY)[0] == "regression"
    assert compare.judge(slow, fast, LATENCY)[0] == "ok"


def test_wide_spread_is_unresolved_unless_the_runs_separate():
    a = entry("ops_per_s", [900, 1000, 1100], 0.2)
    overlapping = entry("ops_per_s", [800, 870, 1000], 0.2)
    assert compare.judge(a, overlapping, OPS)[0] == "unresolved"
    all_better = entry("ops_per_s", [1200, 1300, 1400], 0.2)
    assert compare.judge(a, all_better, OPS)[0] == "ok"
    all_worse = entry("ops_per_s", [500, 600, 700], 0.2)
    assert compare.judge(a, all_worse, OPS)[0] == "regression"


def document(failed_frac=0.0):
    workload = {"failed_frac": failed_frac, "end_to_end": {}, "samples": {},
                "spread": {}}
    for metric in compare.SPEC["end_to_end"]:
        workload["end_to_end"][metric["name"]] = 10.0
        workload["samples"][metric["name"]] = [10.0]
        workload["spread"][metric["name"]] = None
    return {"tier": "full", "constants": {"seconds": 20},
            "workloads": {"tcp-read-heavy": workload}}


def test_compare_exit_codes(capsys):
    base = document()
    assert compare.compare(base, copy.deepcopy(base)) == 0
    assert compare.compare(base, document(failed_frac=0.01)) == 1
    quick = copy.deepcopy(base)
    quick["tier"] = "quick"
    assert compare.compare(base, quick) == 2
    slower = copy.deepcopy(base)
    slower["workloads"]["tcp-read-heavy"]["end_to_end"]["ops_per_s"] = 5.0
    assert compare.compare(base, slower) == 1
    assert "regression" in capsys.readouterr().out
