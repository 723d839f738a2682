"""Golden-fingerprint guard for the legacy (unleased) hot path.

The throughput work — read leases, the slotted event
ring, multicast scheduling, dispatch-table receive, masked quorum
selection, and the bisect key picker — is all required to be *invisible*
when ``leases=False`` (the default): every RNG
stream, event ordering and monitor fold must replay exactly as before.

These tests pin ``result.summary()`` of seven configurations spanning the
protocol zoo and the fault layer to the values the pre-optimisation
simulator produced (captured on `main` before the hot-path changes).  Any
float in any summary moving by one ULP means a default-path behaviour
change and must fail loudly here.  ``events_processed`` is deliberately
NOT pinned: scheduler-internal event *counts* may shrink (the multicast
fast path delivers a broadcast as one event), but everything observable —
message counters, outcome streams, latencies, durations — is exact.

The goldens were captured by running exactly the configs below; regenerate
only when a PR deliberately changes default-path semantics, and say so in
its description.

Re-pinned once, for ISSUE 16 (all eight summaries and the duplicate
counter — every config contains writes).  The default write path itself
changed: once the coordinator's version floor knows a key, the version
round overlaps the prepare (DESIGN §2.4), so such a write takes two round
trips instead of three and sends |R ∩ W| fewer requests.  Quorums, the
order they are drawn in, the lock and the commit rule are what they were;
durations, write latencies and message counts moved as they must
(``tree_1-3-5_closed``: duration 492 -> 398, messages 1460 -> 1366, all 63
writes still succeed), and on the faulty configs the different timing
re-draws which operations meet which failure (``tree_quorum_7_lossy``
loses some: a lost version message now costs an abort, and a lost abort
orphans its prepare as it always did).  Before/after of every summary:
EXPERIMENTS.md, "Overlapped writes".

Re-pinned a second time, for 2PC termination driven by the participant:
while anything is prepared a site runs a doubt tick once per timeout,
and asks the coordinator for the decision of every write still
undecided at two consecutive ticks (and a site no longer acknowledges
an abort).  Exactly three configs move, the ones where a decision is
lost or a member is down when it is sent:
``tree_1-2-4_poisson_zipf_bernoulli`` sends 11 fewer messages and
nothing else changes; ``tree_quorum_7_lossy`` stops orphaning prepares
(read / write availability 0.906 / 0.857 -> 1.0 / 0.964, duration
1048 -> 824); ``chaos_flapping_invariants`` 0.817 / 0.779 -> 0.854 /
0.824.  The other five are byte-identical.  Before/after: EXPERIMENTS.md,
"A prepared site ends its own doubt".
"""

import math

import pytest

from repro.core.builder import from_spec
from repro.fault.retry import RetryPolicySpec
from repro.fault.scenarios import chaos_injector
from repro.protocols.zoo import quorum_system
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.failures import BernoulliFailures
from repro.sim.workload import WorkloadSpec

NAN = float("nan")


def _configs():
    yield "tree_1-3-5_closed", SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(operations=120, read_fraction=0.5),
        seed=7,
    )
    yield "tree_1-2-4_poisson_zipf_bernoulli", SimulationConfig(
        tree=from_spec("1-2-4"),
        workload=WorkloadSpec(
            operations=150, read_fraction=0.5, keys=16,
            arrival="poisson", rate=0.3, zipf_s=1.2,
        ),
        failures=BernoulliFailures(p=0.8, seed=11, resample_every=25.0),
        timeout=6.0,
        seed=11,
    )
    yield "majority_7_two_clients_service_time", SimulationConfig(
        system=quorum_system("majority", 7),
        workload=WorkloadSpec(operations=100, read_fraction=0.7, keys=8),
        clients=2,
        service_time=0.5,
        seed=3,
    )
    yield "grid_9_structural_poisson", SimulationConfig(
        system=quorum_system("grid", 9),
        workload=WorkloadSpec(
            operations=100, read_fraction=0.5, keys=8,
            arrival="poisson", rate=0.4,
        ),
        seed=5,
    )
    yield "tree_quorum_7_lossy", SimulationConfig(
        system=quorum_system("tree-quorum", 7),
        workload=WorkloadSpec(operations=120, read_fraction=0.5, keys=8),
        drop_probability=0.05,
        duplicate_probability=0.02,
        timeout=6.0,
        max_attempts=5,
        seed=13,
    )
    yield "chaos_mass_crash_detector_retry", SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(
            operations=150, read_fraction=0.5, keys=16,
            arrival="poisson", rate=0.3,
        ),
        failures=chaos_injector("mass-crash", 8, seed=21, horizon=500.0),
        timeout=8.0,
        max_attempts=3,
        detector=True,
        retry_policy=RetryPolicySpec(kind="exponential", base=0.5, jitter=0.2),
        check_invariants=True,
        seed=21,
    )
    yield "tree_1-3-5_duplicating", SimulationConfig(
        # Duplicate delivery exercises the second RNG draw + second
        # scheduled delivery per message in Network.send — the closure-free
        # rewrite must replay both draws and both deliveries exactly.
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(operations=150, read_fraction=0.5, keys=8),
        duplicate_probability=0.25,
        timeout=6.0,
        max_attempts=4,
        seed=17,
    )
    yield "chaos_flapping_invariants", SimulationConfig(
        tree=from_spec("1-3-5"),
        workload=WorkloadSpec(
            operations=150, read_fraction=0.5, keys=16,
            arrival="poisson", rate=0.3,
        ),
        failures=chaos_injector("flapping", 8, seed=9, horizon=500.0),
        timeout=8.0,
        max_attempts=3,
        check_invariants=True,
        seed=9,
    )


CONFIGS = dict(_configs())

GOLDEN_SUMMARIES = {
    "tree_1-3-5_closed": {
        "duration": 398.0,
        "failure_latency_mean": NAN,
        "messages_delivered": 1366.0,
        "messages_dropped": 0.0,
        "messages_sent": 1366.0,
        "read_availability": 1.0,
        "read_cost": 2.0,
        "read_failure_latency_mean": NAN,
        "read_latency_mean": 2.0,
        "read_load": 0.43859649122807015,
        "reads": 57,
        "write_availability": 1.0,
        "write_cost": 3.888888888888889,
        "write_cost_total": 5.888888888888889,
        "write_failure_latency_mean": NAN,
        "write_latency_mean": 4.507936507936508,
        "write_load": 0.5555555555555556,
        "write_version_cost": 2.0,
        "writes": 63,
    },
    "tree_1-2-4_poisson_zipf_bernoulli": {
        "duration": 543.3622303023353,
        "failure_latency_mean": 22.31446177135919,
        "messages_delivered": 991.0,
        "messages_dropped": 13.0,
        "messages_sent": 1004.0,
        "read_availability": 0.8717948717948718,
        "read_cost": 2.0,
        "read_failure_latency_mean": 19.020456141523265,
        "read_latency_mean": 5.715675625147219,
        "read_load": 0.5147058823529411,
        "reads": 78,
        "write_availability": 0.6944444444444444,
        "write_cost": 2.72,
        "write_cost_total": 4.72,
        "write_failure_latency_mean": 23.811737057648237,
        "write_latency_mean": 6.697602667372029,
        "write_load": 0.64,
        "write_version_cost": 2.0,
        "writes": 72,
    },
    "majority_7_two_clients_service_time": {
        "duration": 330.0,
        "failure_latency_mean": NAN,
        "messages_delivered": 1120.0,
        "messages_dropped": 0.0,
        "messages_sent": 1120.0,
        "read_availability": 1.0,
        "read_cost": 4.0,
        "read_failure_latency_mean": NAN,
        "read_latency_mean": 2.5,
        "read_load": 0.6578947368421053,
        "reads": 76,
        "write_availability": 1.0,
        "write_cost": 4.0,
        "write_cost_total": 8.0,
        "write_failure_latency_mean": NAN,
        "write_latency_mean": 5.833333333333333,
        "write_load": 0.875,
        "write_version_cost": 4.0,
        "writes": 24,
    },
    "grid_9_structural_poisson": {
        "duration": 279.78840735009436,
        "failure_latency_mean": NAN,
        "messages_delivered": 1366.0,
        "messages_dropped": 0.0,
        "messages_sent": 1366.0,
        "read_availability": 1.0,
        "read_cost": 3.0,
        "read_failure_latency_mean": NAN,
        "read_latency_mean": 2.2577605056895833,
        "read_load": 0.41818181818181815,
        "reads": 55,
        "write_availability": 1.0,
        "write_cost": 5.0,
        "write_cost_total": 8.0,
        "write_failure_latency_mean": NAN,
        "write_latency_mean": 4.654259760773009,
        "write_load": 0.6444444444444445,
        "write_version_cost": 3.0,
        "writes": 45,
    },
    "tree_quorum_7_lossy": {
        "duration": 824.0,
        "failure_latency_mean": 27.0,
        "messages_delivered": 1749.0,
        "messages_dropped": 89.0,
        "messages_sent": 1801.0,
        "read_availability": 1.0,
        "read_cost": 3.0,
        "read_failure_latency_mean": NAN,
        "read_latency_mean": 3.96875,
        "read_load": 1.0,
        "reads": 64,
        "write_availability": 0.9642857142857143,
        "write_cost": 3.0,
        "write_cost_total": 6.0,
        "write_failure_latency_mean": 27.0,
        "write_latency_mean": 9.555555555555555,
        "write_load": 1.0,
        "write_version_cost": 3.0,
        "writes": 56,
    },
    "chaos_mass_crash_detector_retry": {
        "duration": 527.8633887386293,
        "failure_latency_mean": 6.342871241319983,
        "messages_delivered": 1642.0,
        "messages_dropped": 0.0,
        "messages_sent": 1642.0,
        "read_availability": 1.0,
        "read_cost": 2.0,
        "read_failure_latency_mean": NAN,
        "read_latency_mean": 2.1573742358766306,
        "read_load": 0.38461538461538464,
        "reads": 65,
        "write_availability": 0.8352941176470589,
        "write_cost": 3.9295774647887325,
        "write_cost_total": 5.929577464788732,
        "write_failure_latency_mean": 6.342871241319983,
        "write_latency_mean": 4.633495455699594,
        "write_load": 0.5352112676056338,
        "write_version_cost": 2.0,
        "writes": 85,
    },
    "tree_1-3-5_duplicating": {
        "duration": 466.0,
        "failure_latency_mean": NAN,
        "messages_delivered": 2345.0,
        "messages_dropped": 0.0,
        "messages_sent": 1865.0,
        "read_availability": 1.0,
        "read_cost": 2.0,
        "read_failure_latency_mean": NAN,
        "read_latency_mean": 2.0,
        "read_load": 0.3466666666666667,
        "reads": 75,
        "write_availability": 1.0,
        "write_cost": 3.96,
        "write_cost_total": 5.96,
        "write_failure_latency_mean": NAN,
        "write_latency_mean": 4.213333333333333,
        "write_load": 0.52,
        "write_version_cost": 2.0,
        "writes": 75,
    },
    "chaos_flapping_invariants": {
        "duration": 522.9804330542281,
        "failure_latency_mean": 24.083333333333332,
        "messages_delivered": 1378.0,
        "messages_dropped": 16.0,
        "messages_sent": 1394.0,
        "read_availability": 0.8536585365853658,
        "read_cost": 2.0,
        "read_failure_latency_mean": 24.0,
        "read_latency_mean": 4.919720029262993,
        "read_load": 0.37142857142857144,
        "reads": 82,
        "write_availability": 0.8235294117647058,
        "write_cost": 4.107142857142857,
        "write_cost_total": 6.107142857142857,
        "write_failure_latency_mean": 24.166666666666668,
        "write_latency_mean": 7.333500161302737,
        "write_load": 0.5535714285714286,
        "write_version_cost": 2.0,
        "writes": 68,
    },
}


def assert_summary_exact(actual: dict, golden: dict, name: str) -> None:
    """Exact equality (NaN matches NaN) with a readable per-key diff."""
    assert actual.keys() == golden.keys(), (
        f"{name}: summary keys changed: "
        f"+{sorted(actual.keys() - golden.keys())} "
        f"-{sorted(golden.keys() - actual.keys())}"
    )
    for key, expected in golden.items():
        value = actual[key]
        if isinstance(expected, float) and math.isnan(expected):
            assert isinstance(value, float) and math.isnan(value), (
                f"{name}.{key}: expected NaN, got {value!r}"
            )
        else:
            assert value == expected, (
                f"{name}.{key}: expected {expected!r}, got {value!r}"
            )


@pytest.mark.parametrize("name", list(CONFIGS))
def test_default_path_reproduces_golden_stream(name):
    config = CONFIGS[name]
    assert config.leases is False
    # reconfiguration must be fully disarmed on the legacy path: no
    # reshape is ever scheduled, so the streams cannot have moved
    assert config.reshape_at == 0.0 and config.reshape_spec is None
    result = simulate(config)
    assert result.reconfiguration is None
    assert_summary_exact(result.summary(), GOLDEN_SUMMARIES[name], name)
    if config.check_invariants:
        assert result.invariants is not None and result.invariants.ok


def test_goldens_cover_chaos_and_structural_paths():
    """The fixture zoo spans every legacy code path the hot path rewrote."""
    names = set(CONFIGS)
    assert any("chaos" in name for name in names)
    assert any("lossy" in name for name in names)
    assert any("structural" in name for name in names)
    assert any("service_time" in name for name in names)
    assert any("duplicating" in name for name in names)


def test_duplicate_delivery_stream_pinned():
    """The duplicating config actually exercises duplication, exactly.

    Pinning the network's ``duplicated`` counter pins the second RNG draw
    and the second scheduled delivery of every duplicated message.  The
    delivered total stays slightly below ``sent + duplicated`` because the
    run stops the instant the last operation completes, with a tail of
    duplicates still in flight — exactly as the pre-optimisation
    simulator behaved.
    """
    result = simulate(CONFIGS["tree_1-3-5_duplicating"])
    stats = result.network_stats
    assert stats.duplicated == 481  # 510 before ISSUE 16: fewer messages sent
    assert stats.sent < stats.delivered <= stats.sent + stats.duplicated
