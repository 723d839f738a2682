"""The performance ledger: one command, four workloads, every metric.

One workload, as the benchmark driver runs it (the last line of standard
output is the result object)::

    python3 benchmarks/ledger/run.py --workload tcp-read-heavy --seed 1 \\
        --seconds 20 --trace 0

Every workload, each in a fresh subprocess, into one result file::

    python3 benchmarks/ledger/run.py [--quick] [--runs N] [--seed N] [--out F]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics (a traced run of the
workload plus the layer microbenchmarks).  See README.md beside this file
for every definition.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
# The program under test is built from this checkout's sources.
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402

if REPO_ROOT / "src" not in Path(repro.__file__).resolve().parents:
    raise SystemExit(
        f"repro was imported from {repro.__file__}, not from this checkout"
    )

import layers  # noqa: E402
import simbench  # noqa: E402
import tcpbench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric for metric in SPEC["per_layer"]}

#: ``--quick``: 1 s open-loop segments, 10 000 simulated operations.
QUICK_SECONDS = 10

#: Reconciliation ranges; see README.md, "Reconciliation".  Beating the
#: load ceiling is impossible, so that alone makes a run incorrect; the
#: other edges only warn.
CAPACITY_RATIO_RANGE = (0.70, 1.05)
UNATTRIBUTED_RANGE = (-0.15, 0.15)


def constants(seconds: float, quick: bool) -> dict[str, Any]:
    """Every constant that shapes the offered load, for the result file."""
    return {
        "tree": workloads.TREE_SPEC,
        "tcp_keys": workloads.TCP_KEYS,
        "value_bytes": workloads.VALUE_BYTES,
        "closed_clients": workloads.CLOSED_CLIENTS,
        "segments": workloads.SEGMENTS,
        "seconds": seconds,
        "setup_repeats": workloads.SETUP_REPEATS,
        "p99_min_samples": workloads.P99_MIN_SAMPLES,
        "site_bound_ceiling_ops": workloads.SITE_BOUND_CEILING_OPS,
        "sim_operations": sim_operations(quick),
        "tcp": {
            name: {
                "read_fraction": w.read_fraction,
                "open_rate": w.open_rate,
                "service_time": w.service_time,
                "timeout": w.timeout,
            }
            for name, w in workloads.TCP_WORKLOADS.items()
        },
    }


def sim_operations(quick: bool) -> int:
    return workloads.SIM_QUICK_OPERATIONS if quick else workloads.SIM_OPERATIONS


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint() -> dict[str, Any]:
    """What two result files need in common to be comparable."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        # The host's speed as the simulator sees it.
        "scheduler_events_per_sec": round(layers.ring_events_per_s(50_000)),
    }


# ---------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, trace: int, quick: bool,
    with_layers: bool,
) -> dict[str, Any]:
    """Run one workload and return its detailed result."""
    if name == workloads.SIM_WORKLOAD:
        run = simbench.run_traced if trace else simbench.run_untraced
        result = run(seed, seconds, sim_operations(quick))
    else:
        run = tcpbench.run_traced if trace else tcpbench.run_untraced
        result = asyncio.run(run(workloads.TCP_WORKLOADS[name], seed, seconds))
    if trace and with_layers:
        result["per_layer"].update(layers.measure(0.2 if quick else 1.0, seed))

    violations = result["violations"]
    warnings = []
    per_layer = result.get("per_layer", {})
    ratio = per_layer.get("model.capacity_ratio")
    low, high = CAPACITY_RATIO_RANGE
    if ratio is not None and ratio > high:
        violations.append(f"model.capacity_ratio {ratio:.3f} above {high}")
    if ratio is not None and ratio < low:
        warnings.append(f"model.capacity_ratio {ratio:.3f} below {low}")
    gap = per_layer.get("coordinator.unattributed_frac")
    low, high = UNATTRIBUTED_RANGE
    if gap is not None and not low <= gap <= high:
        warnings.append(
            f"coordinator.unattributed_frac {gap:.3f} outside [{low}, {high}]"
        )
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, quick=quick,
        correct=not violations, warnings=warnings,
        failed_frac=result["failed"] / result["attempted"],
    )
    return result


def contract_line(result: dict[str, Any]) -> str:
    """The result object the benchmark driver reads."""
    if result["trace"]:
        # A layer that is not on this workload's path reads 0.
        values = {
            name: result["per_layer"].get(name) or 0 for name in PER_LAYER
        }
        units = PER_LAYER
    else:
        values, units = result["end_to_end"], END_TO_END
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": values[name], "unit": units[name]["unit"]}
                for name in units
            },
        }
    )


def print_metrics(workload: str, values: dict[str, Any], spec: dict) -> None:
    for name, value in values.items():
        metric = spec[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(
            f"{workload:<16} {name:<36} {shown:>12} {metric['unit']:<10} "
            f"({metric['better']} is better)"
        )


def print_result(result: dict[str, Any]) -> None:
    name = result["workload"]
    if not result["trace"] or result["quick"]:
        print_metrics(name, result["end_to_end"], END_TO_END)
    if result["trace"]:
        print_metrics(name, result["per_layer"], PER_LAYER)
    print(
        f"{name:<16} {'failed_frac':<36} {result['failed_frac']:>12.6g} "
        f"{'ratio':<10} ({result['failed']} of {result['attempted']} failed)"
    )
    for problem in result["violations"]:
        print(f"{name}: INCORRECT: {problem}")
    for warning in result["warnings"]:
        print(f"{name}: warning: {warning}")


# ---------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ---------------------------------------------------------------------


def run_child(
    name: str, seed: int, seconds: float, trace: int, quick: bool,
    with_layers: bool, scratch: Path,
) -> dict[str, Any]:
    out = scratch / f"{name}-{seed}-{trace}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--layers", str(int(with_layers)),
        "--out", str(out),
    ]
    if quick:
        command.append("--quick")
    print(f"... {name} seed {seed} trace {trace}", file=sys.stderr, flush=True)
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0 and not out.exists():
        raise SystemExit(f"{name} (trace {trace}) exited {done.returncode}")
    return json.loads(out.read_text())


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median, from four runs up."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_all(seed: int, runs: int, quick: bool, out: Path) -> bool:
    seconds = QUICK_SECONDS if quick else SPEC["run_seconds"]
    document: dict[str, Any] = {
        "ledger": 1,
        "tier": "quick" if quick else "full",
        "host": fingerprint(),
        "seed": seed,
        "runs": runs,
        "constants": constants(seconds, quick),
        "workloads": {},
    }
    correct = True
    out.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out.parent) as scratch:
        for index, name in enumerate(workloads.WORKLOAD_NAMES):
            # The layer microbenchmarks do not depend on the workload:
            # one traced run per ledger run carries them.
            traced = run_child(
                name, seed, seconds, 1, quick, index == 0, Path(scratch)
            )
            # A quick traced run measures the end-to-end metrics on its
            # way; a full run measures them in runs of their own.
            untraced = [traced] if quick else [
                run_child(name, seed + i, seconds, 0, quick, False, Path(scratch))
                for i in range(runs)
            ]
            results = [traced] + ([] if quick else untraced)
            document["workloads"][name] = {
                "end_to_end": {
                    metric: statistics.median(
                        run["end_to_end"][metric] for run in untraced
                    )
                    for metric in END_TO_END
                },
                "samples": {
                    metric: [run["end_to_end"][metric] for run in untraced]
                    for metric in END_TO_END
                },
                "per_layer": traced["per_layer"],
                "attempted": sum(run["attempted"] for run in results),
                "failed": sum(run["failed"] for run in results),
                "correct": all(run["correct"] for run in results),
                "runs": results,
            }
            entry = document["workloads"][name]
            entry["spread"] = {
                metric: spread(values)
                for metric, values in entry["samples"].items()
            }
            entry["failed_frac"] = entry["failed"] / entry["attempted"]
            correct = correct and entry["correct"]
            for run in results:
                print_result(run)
    out.write_text(json.dumps(document, indent=1) + "\n")
    label = "QUICK (not comparable with full runs)" if quick else "full"
    print(f"tier: {label}; wrote {out}; correct: {correct}")
    return correct


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--layers", type=int, choices=(0, 1), default=1,
        help="with --trace 1: also run the layer microbenchmarks",
    )
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--runs", type=int, default=1,
        help="without --workload: untraced runs per workload, seeds "
        "--seed, --seed+1, ...",
    )
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    # A terminated run must still unwind through the ``finally`` blocks
    # that stop the site processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload is None:
        out = args.out or Path("ledger-result.json")
        return 0 if run_all(args.seed, args.runs, args.quick, out) else 1

    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else SPEC["run_seconds"]
    result = run_workload(
        args.workload, args.seed, seconds, args.trace, args.quick,
        bool(args.layers),
    )
    if args.out is not None:
        args.out.write_text(json.dumps(result) + "\n")
    print_result(result)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
