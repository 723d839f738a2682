"""Backend conformance: one scripted scenario, two transports.

The same scripted scenario — seeded writes, reads, a site crash, more
traffic, a recovery — runs against (a) the discrete-event simulator
backend and (b) the asyncio/TCP backend with real in-process socket
servers, driven by the *same* :class:`QuorumCoordinator` class.  Both
backends must produce identical outcome semantics: per-operation
success, returned values, version numbers, and a clean
:class:`InvariantChecker` audit (read/write quorum intersection +
version monotonicity).

Quorum *membership* may differ between backends (selection RNG state
diverges once wall-clock retries enter the picture) — that is transport
detail; the observable semantics may not.
"""

import asyncio
import random

import pytest

from repro.core.builder import from_spec
from repro.core.protocol import ArbitraryProtocol
from repro.fault.invariants import InvariantChecker
from repro.fault.retry import RetryPolicySpec
from repro.runtime.cluster import LocalCluster
from repro.runtime.siteserver import SiteServer
from repro.runtime.transport import TcpTransport
from repro.sim.coordinator import QuorumCoordinator
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.events import Scheduler
from repro.sim.locks import LockManager
from repro.sim.messages import AbortMessage, CommitMessage, PrepareMessage
from repro.sim.network import Network
from repro.sim.site import Site
from repro.sim.workload import WorkloadSpec

SPEC = "1-3-5"  # 8 replicas: level-1 SIDs 0-2, level-2 SIDs 3-7

#: The scripted scenario.  ``crash``/``recover`` name the deepest-level
#: leaf (SID 7): never read-critical, and the 1-3-5 write quorums built
#: from level 1 survive it, so post-crash writes stay available too.
SCRIPT = [
    ("put", "k1", "alpha"),
    ("put", "k2", "beta"),
    ("get", "k1", None),
    ("get", "k2", None),
    ("crash", 7, None),
    ("get", "k1", None),
    ("get", "k2", None),
    ("put", "k1", "gamma"),
    ("get", "k1", None),
    ("recover", 7, None),
    ("get", "k1", None),
    ("put", "k2", "delta"),
    ("get", "k2", None),
]


def _observe(op, key, outcome):
    """The semantics both backends must agree on, as a comparable tuple."""
    return (
        op,
        key,
        outcome.success,
        outcome.value,
        outcome.timestamp.version if outcome.timestamp is not None else None,
    )


def run_script_on_simulator():
    """The scenario on the discrete-event backend (virtual time)."""
    scheduler = Scheduler()
    network = Network(scheduler, random.Random(11), latency=0.05)
    system = ArbitraryProtocol(from_spec(SPEC))
    n = len(system.universe)
    sites = [Site(sid, network) for sid in range(n)]
    locks = LockManager(scheduler)
    coordinator = QuorumCoordinator(
        sid=-1,
        network=network,
        system=system,
        locks=locks,
        detector=lambda sid: sites[sid].up,
        rng=random.Random(3),
        timeout=5.0,
        max_attempts=4,
        writer_id=n,
        liveness_epoch=network.current_liveness_epoch,
    )
    checker = InvariantChecker(strict=False)
    observed = []
    for op, key, value in SCRIPT:
        if op == "crash":
            sites[key].crash()
            continue
        if op == "recover":
            sites[key].recover()
            scheduler.run()  # drain the 2PC termination protocol
            continue
        outcomes = []
        if op == "get":
            coordinator.read(key, outcomes.append)
        else:
            coordinator.write(key, value, outcomes.append)
        scheduler.run()
        assert len(outcomes) == 1, f"{op} {key} did not complete"
        checker.check(outcomes[0])
        observed.append(_observe(op, key, outcomes[0]))
    return observed, checker


def run_script_on_asyncio():
    """The same scenario over real TCP sockets (wall time), in-process."""

    async def main():
        servers = []
        transport = TcpTransport(local_sid=-1)
        system = ArbitraryProtocol(from_spec(SPEC))
        n = len(system.universe)
        try:
            for sid in range(n):
                server = SiteServer(sid)
                await server.start()
                servers.append(server)
            for server in servers:
                await transport.connect(server.sid, "127.0.0.1", server.port)
            locks = LockManager(transport.clock)
            coordinator = QuorumCoordinator(
                sid=-1,
                network=transport,
                system=system,
                locks=locks,
                detector=transport.is_live,
                rng=random.Random(3),
                timeout=0.5,
                max_attempts=4,
                writer_id=n,
                liveness_epoch=transport.current_liveness_epoch,
            )
            checker = InvariantChecker(strict=False)
            observed = []
            for op, key, value in SCRIPT:
                if op == "crash":
                    servers[key].crash()
                    # The severed connection surfaces as EOF on the
                    # transport's pump; yield until liveness notices.
                    while transport.is_live(key):
                        await asyncio.sleep(0.01)
                    continue
                if op == "recover":
                    servers[key].recover()
                    await transport.connect(
                        key, "127.0.0.1", servers[key].port
                    )
                    continue
                future = asyncio.get_running_loop().create_future()
                if op == "get":
                    coordinator.read(key, future.set_result)
                else:
                    coordinator.write(key, value, future.set_result)
                outcome = await asyncio.wait_for(future, 10.0)
                checker.check(outcome)
                observed.append(_observe(op, key, outcome))
            return observed, checker
        finally:
            await transport.close()
            for server in servers:
                await server.stop()

    return asyncio.run(main())


@pytest.fixture(scope="module")
def sim_run():
    return run_script_on_simulator()


@pytest.fixture(scope="module")
def tcp_run():
    return run_script_on_asyncio()


def test_every_scripted_operation_succeeds_on_both(sim_run, tcp_run):
    for observed, _ in (sim_run, tcp_run):
        assert all(entry[2] for entry in observed), observed


def test_outcome_semantics_identical_across_backends(sim_run, tcp_run):
    assert sim_run[0] == tcp_run[0]


def test_values_and_versions_follow_the_script(sim_run):
    observed, _ = sim_run
    gets = [entry for entry in observed if entry[0] == "get"]
    # In script order: k1=alpha, k2=beta, then post-crash k1=alpha,
    # k2=beta, then k1=gamma twice (pre/post recovery), then k2=delta.
    assert [(key, value) for _, key, _, value, _ in gets] == [
        ("k1", "alpha"), ("k2", "beta"),
        ("k1", "alpha"), ("k2", "beta"),
        ("k1", "gamma"), ("k1", "gamma"), ("k2", "delta"),
    ]
    # Versions are monotone per key: each key written twice -> version 2.
    assert gets[-2][4] == 2 and gets[-1][4] == 2


def test_quorum_intersection_invariants_hold_on_both(sim_run, tcp_run):
    for _, checker in (sim_run, tcp_run):
        assert checker.checked > 0
        assert checker.violations == []


class _DropsOneAbort(TcpTransport):
    """Drops the first ``AbortMessage`` addressed to a site outside
    ``spare`` (a member that voted yes) and remembers which site."""

    def __init__(self, spare) -> None:
        super().__init__(local_sid=-1)
        self._spare = spare
        self.dropped_to = None

    def send(self, message) -> None:
        if (
            self.dropped_to is None
            and type(message) is AbortMessage
            and message.dst not in self._spare
        ):
            self.dropped_to = message.dst
            return
        super().send(message)


def test_a_site_whose_abort_frame_was_dropped_asks_and_lets_go():
    """ROADMAP item 1 over TCP: after a refused vote the abort to one
    yes-voter is lost.  That site asks for the decision one timeout
    later, is told abort (presumed), and holds no prepare once the run
    quiesces."""
    foreign_txid = 10**9
    held = (0, 3)  # one site of each physical level refuses the prepare

    async def main():
        servers = []
        transport = _DropsOneAbort(spare=held)
        system = ArbitraryProtocol(from_spec(SPEC))
        n = len(system.universe)
        loop = asyncio.get_running_loop()
        try:
            for sid in range(n):
                server = SiteServer(sid)
                await server.start()
                servers.append(server)
            for server in servers:
                await transport.connect(server.sid, "127.0.0.1", server.port)
            coordinator = QuorumCoordinator(
                sid=-1, network=transport, system=system,
                locks=LockManager(transport.clock),
                detector=transport.is_live, rng=random.Random(3),
                timeout=0.5, max_attempts=1, writer_id=n,
                liveness_epoch=transport.current_liveness_epoch,
            )

            async def put(value):
                future = loop.create_future()
                coordinator.write("k", value, future.set_result)
                return await asyncio.wait_for(future, 10.0)

            # The first write teaches the coordinator the key's version,
            # so the second sends its prepares at once.
            assert (await put("v1")).success
            for sid in held:
                servers[sid].site._on_prepare(
                    PrepareMessage(-1, sid, foreign_txid, "k", "foreign")
                )
            refused = await put("v2")
            assert not refused.success
            assert refused.failed_stage == "prepare"
            victim = transport.dropped_to
            assert victim is not None and victim in refused.quorum
            assert servers[victim].site._prepared
            for sid in held:
                servers[sid].site._on_abort(
                    AbortMessage(-1, sid, foreign_txid)
                )
            deadline = loop.time() + 5.0
            while any(server.site._prepared for server in servers):
                assert loop.time() < deadline, "a site stayed in doubt"
                await asyncio.sleep(0.05)
            assert not coordinator._decisions
            return victim, servers[victim].site.stats.aborts
        finally:
            await transport.close()
            for server in servers:
                await server.stop()

    victim, aborts = asyncio.run(main())
    assert victim not in held and aborts == 1


def test_a_fresh_coordinator_over_newer_versions_commits_above_them():
    """A second ``LocalCluster.dial`` onto running sites: the fresh
    coordinator has no version floor, guesses version 1, and the read
    quorum reports the sites' version 3.  The guess is aborted on its
    write quorum and the write commits at version 4 in one attempt.  A
    third dial loses one frame of the re-prepare: the aborted guess's
    yes-votes do not stand in for it, so nothing commits."""

    async def main():
        servers = []
        try:
            for sid in range(from_spec(SPEC).n):
                server = SiteServer(sid)
                await server.start()
                servers.append(server)
            addresses = [
                (server.sid, "127.0.0.1", server.port) for server in servers
            ]

            async def dial(lose_reprepare=False):
                """A fresh cluster front end; it logs what it sends, the
                prepares grouped by txid in order."""
                cluster = LocalCluster(spec=SPEC, timeout=0.5, max_attempts=1)
                await cluster.dial(addresses)
                sent, prepares = [], {}
                send = cluster.transport.send

                def tapped(message):
                    sent.append(message)
                    if type(message) is PrepareMessage:
                        round_ = prepares.setdefault(message.txid, [])
                        round_.append(message)
                        if (
                            lose_reprepare
                            and len(prepares) == 2
                            and len(round_) == 1
                        ):
                            return  # the re-prepare's first frame is lost
                    send(message)

                cluster.transport.send = tapped
                return cluster, sent, prepares

            first, _, _ = await dial()
            for value in ("a1", "a2", "a3"):
                assert (await first.put("k", value)).success
            await first.stop()

            def aborts():
                return sum(server.site.stats.aborts for server in servers)

            before = aborts()
            fresh, _, prepares = await dial()
            mine = await fresh.put("k", "b1")
            await fresh.stop()
            assert mine.success and mine.attempts == 1
            assert mine.timestamp.version == 4
            guess, final = prepares.values()
            assert {m.timestamp.version for m in guess} == {1}
            assert {m.timestamp.version for m in final} == {4}
            assert {m.dst for m in final} == mine.quorum
            assert aborts() - before == len(guess)

            unlucky, sent, _ = await dial(lose_reprepare=True)
            lost = await unlucky.put("k", "c1")
            await unlucky.stop()
            assert not lost.success and lost.failed_stage == "prepare"
            assert not any(type(m) is CommitMessage for m in sent)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            while any(server.site._prepared for server in servers):
                assert loop.time() < deadline, "a site stayed in doubt"
                await asyncio.sleep(0.05)
            return [server.site.store.version_of("k") for server in servers]
        finally:
            for server in servers:
                await server.stop()

    versions = asyncio.run(main())
    assert max(timestamp.version for timestamp in versions) == 4


def test_one_config_runs_on_the_simulator_and_on_real_site_processes():
    """ROADMAP item 9: one ``SimulationConfig`` — leases, an exponential
    retry policy, the failure detector and the invariant audit on — runs
    through ``simulate`` and through a ``LocalCluster`` of ``repro
    serve`` processes, one time unit read as one wall second.  Fault
    free, neither fails an operation or breaks an invariant, both
    summarise with the same keys, and the same seed issues the same
    operations on both, as each backend's ``on_outcome`` observer sees
    them."""
    config = SimulationConfig(
        tree=from_spec(SPEC),
        workload=WorkloadSpec(operations=120, read_fraction=0.7, keys=8),
        timeout=8.0,
        seed=3,
        retry_policy=RetryPolicySpec(
            kind="exponential", base=0.05, cap=1.0, jitter=0.1
        ),
        detector=True,
        leases=True,
        check_invariants=True,
    )
    simulated_outcomes, real_outcomes = [], []
    simulated = simulate(config, on_outcome=simulated_outcomes.append)

    async def main():
        cluster = LocalCluster(config=config)
        await cluster.start()
        try:
            result = await cluster.run(on_outcome=real_outcomes.append)
            lease_hits.append(cluster.coordinator.leases.hits)
            return result
        finally:
            await cluster.stop()
            orphans.extend(cluster.orphans())

    orphans, lease_hits = [], []
    real = asyncio.run(asyncio.wait_for(main(), 90.0))
    assert orphans == []
    assert simulated.leases.hits > 0 and lease_hits[0] > 0
    assert real.summary().keys() == simulated.summary().keys()
    for result in (simulated, real):
        monitor = result.monitor
        assert monitor.reads.failed == monitor.writes.failed == 0
        assert monitor.total_operations == 120
        assert result.invariants.violations == []
        assert result.invariants.checked == 120
    assert len(real_outcomes) == 120
    assert [(o.op_type, o.key) for o in real_outcomes] == [
        (o.op_type, o.key) for o in simulated_outcomes
    ]
