"""Parallel == serial, bit for bit, under a fixed master seed.

The runner's whole correctness claim: task layout, per-task seeds and the
merge fold never depend on ``--jobs``, so sharded runs reproduce the serial
(and the unsharded library) results exactly — including the merged obs
counters of traced runs.  A repeat is the run the command would make
alone at its child seed, so repeats never share a failure schedule.
"""

from collections import Counter
from functools import partial

import pytest

from repro.analysis.sweeps import sweep_configurations
from repro.cli import build_parser
from repro.commands.options import simulated_monitor, simulation_config
from repro.runner import (
    derive_seeds,
    merge_monitors,
    parallel_availability,
    parallel_runs,
    parallel_sweep,
)
from repro.sim import simulate

JOBS = [2, 4]

QUANTITIES = ("read_cost", "write_cost", "read_load")
SIZES = (7, 15, 31)


@pytest.mark.parametrize("jobs", JOBS)
def test_parallel_sweep_matches_serial_library_sweep(jobs):
    serial = sweep_configurations(QUANTITIES, sizes=SIZES, p=0.7)
    sharded = parallel_sweep(
        QUANTITIES, sizes=SIZES, p=0.7, jobs=jobs, size_chunk=1
    )
    assert sharded == serial


def test_parallel_sweep_is_chunking_invariant():
    runs = [
        parallel_sweep(QUANTITIES, sizes=SIZES, p=0.7, jobs=jobs, size_chunk=chunk)
        for jobs in (1, 2)
        for chunk in (1, 2, 4)
    ]
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("jobs", JOBS)
@pytest.mark.parametrize("op", ["read", "write"])
def test_parallel_availability_bit_identical(jobs, op):
    ref = ("tree", "1-3-5")
    serial = parallel_availability(
        ref, 0.85, op, samples=30_000, seed=13, jobs=1, chunk=4_000
    )
    sharded = parallel_availability(
        ref, 0.85, op, samples=30_000, seed=13, jobs=jobs, chunk=4_000
    )
    assert sharded == serial


def test_parallel_availability_protocol_ref_bit_identical():
    ref = ("protocol", "majority", 9)
    serial = parallel_availability(ref, 0.8, samples=12_000, seed=3, jobs=1, chunk=2_500)
    sharded = parallel_availability(ref, 0.8, samples=12_000, seed=3, jobs=2, chunk=2_500)
    assert sharded == serial


def _monitor_key(monitor):
    return (monitor.reads, monitor.writes, monitor.outcomes, monitor.summary())


def _args(*argv):
    return build_parser(argv[0]).parse_args(list(argv))


def _repeats(args, repeats, jobs=1, master_seed=None):
    master = args.seed if master_seed is None else master_seed
    return parallel_runs(
        partial(simulated_monitor, args), repeats, master, jobs=jobs
    )


@pytest.mark.parametrize("jobs", JOBS)
def test_parallel_runs_bit_identical(jobs):
    args = _args("simulate", "1-3-5", "--operations", "120", "--p", "0.9",
                 "--seed", "21")
    serial = _repeats(args, 5)
    sharded = _repeats(args, 5, jobs=jobs)
    assert len(serial) == len(sharded) == 5
    for a, b in zip(serial, sharded):
        assert _monitor_key(a) == _monitor_key(b)
    # The merged monitors agree too (counters, latencies, loads).
    merged_serial = merge_monitors(serial)
    merged_sharded = merge_monitors(sharded)
    assert _monitor_key(merged_serial) == _monitor_key(merged_sharded)
    assert merged_serial.per_replica_read_load() == merged_sharded.per_replica_read_load()


@pytest.mark.parametrize("jobs", JOBS)
def test_parallel_traced_simulations_merge_identical_obs_counters(jobs):
    args = _args("trace", "1-3", "--operations", "60", "--p", "0.85",
                 "--seed", "5")
    serial = merge_monitors(_repeats(args, 3))
    sharded = merge_monitors(_repeats(args, 3, jobs=jobs))
    assert serial.recorder.enabled and sharded.recorder.enabled
    assert serial.recorder.counters.keys() == sharded.recorder.counters.keys()
    for group, counts in serial.recorder.counters.items():
        assert Counter(counts) == Counter(sharded.recorder.counters[group])
    assert serial.recorder.metrics == sharded.recorder.metrics
    assert len(serial.recorder.spans) == len(sharded.recorder.spans)


def test_master_seed_changes_every_repeat():
    args = _args("simulate", "1-3-5", "--operations", "80", "--p", "0.9",
                 "--seed", "21")
    base = _repeats(args, 3)
    other = _repeats(args, 3, master_seed=99)
    assert all(
        a.outcomes != b.outcomes for a, b in zip(base, other)
    )


@pytest.mark.parametrize("argv", [
    ("simulate", "1-3-5", "--operations", "150", "--p", "0.9"),
    ("chaos", "1-3-5", "--scenario", "all", "--operations", "150",
     "--p", "0.9"),
], ids=["bernoulli", "chaos-all"])
def test_repeat_k_is_the_single_run_at_the_kth_child_seed(argv):
    """The failure injector and the chaos scenario are rebuilt from each
    repeat's own seed: a repeat that reused one schedule would differ
    from the single run at its seed, and match its siblings' schedule."""
    args = _args(*argv, "--seed", "7", "--repeats", "3")
    repeats = _repeats(args, 3)
    for seed, repeat in zip(derive_seeds(7, 3), repeats):
        alone, _label = simulation_config(_args(*argv, "--seed", str(seed)))
        assert _monitor_key(simulate(alone).monitor) == _monitor_key(repeat)
    first, second, third = (repeat.outcomes for repeat in repeats)
    assert first != second != third != first
