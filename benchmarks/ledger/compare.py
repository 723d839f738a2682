"""Compare two ledger result files: ``compare.py A.json B.json``.

A is the baseline, B the candidate.  One row per (workload, end-to-end
metric), judged by the direction and bound ``BENCHMARK.json`` fixes:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (interquartile
  range ÷ median) is wider than the bound, so the pair can show neither
  a change nor its absence — unless every run of one side beats every
  run of the other;
* ``ok`` — otherwise.

Exits 1 on any regression or if B failed a larger share of its
operations (more than 0.001 above A's), 2 if the files are not comparable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
FAILED_FRAC_BOUND = 0.001


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def judge(a: dict, b: dict, metric: dict) -> tuple[str, float]:
    """Status and relative change of one metric on one workload."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    change = worse_by(a["end_to_end"][name], b["end_to_end"][name], better)
    a_runs, b_runs = a["samples"][name], b["samples"][name]
    spreads = [s for s in (a["spread"][name], b["spread"][name]) if s is not None]
    if spreads and max(spreads) > bound:
        if better == "lower":
            a_runs, b_runs = [-v for v in a_runs], [-v for v in b_runs]
        if min(b_runs) > max(a_runs):
            return "ok", change
        if max(b_runs) < min(a_runs) and change > bound:
            return "regression", change
        return "unresolved", change
    return ("regression" if change > bound else "ok"), change


def compare(a: dict, b: dict) -> int:
    if a["tier"] != b["tier"]:
        print(f"not comparable: tier {a['tier']} against {b['tier']}")
        return 2
    if a["constants"] != b["constants"]:
        print("not comparable: the two runs offered different load")
        return 2
    regressions = 0
    print(
        f"{'workload':<16} {'metric':<16} {'A':>12} {'B':>12} "
        f"{'worse by':>9} {'bound':>6}  status"
    )
    for workload, a_entry in a["workloads"].items():
        b_entry = b["workloads"][workload]
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            status, change = judge(a_entry, b_entry, metric)
            regressions += status == "regression"
            print(
                f"{workload:<16} {name:<16} "
                f"{a_entry['end_to_end'][name]:>12.6g} "
                f"{b_entry['end_to_end'][name]:>12.6g} "
                f"{change:>+9.1%} {metric['bound']:>6.0%}  {status}"
            )
        a_failed, b_failed = a_entry["failed_frac"], b_entry["failed_frac"]
        status = "ok"
        if b_failed > a_failed + FAILED_FRAC_BOUND:
            status = "regression"
            regressions += 1
        print(
            f"{workload:<16} {'failed_frac':<16} {a_failed:>12.6g} "
            f"{b_failed:>12.6g} {'':>9} {'+0.001':>6}  {status}"
        )
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
