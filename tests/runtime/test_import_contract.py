"""The import contract: a process loads what it runs (DESIGN §2.16).

Every check runs in a fresh interpreter.  In this test process the whole
package is long since imported, so a regression — a package ``__init__``
importing a submodule again, a lazy import landing on the serving path, an
export that only resolves because something else loaded it first — would
be invisible here.
"""

import asyncio
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import _COMMANDS, build_parser, main
from repro.runtime.codec import (
    decode_message,
    encode_message,
    read_frame,
    write_frame,
)
from repro.sim.messages import (
    AbortMessage,
    AckMessage,
    CommitMessage,
    PrepareMessage,
    ReadReply,
    ReadRequest,
    VersionReply,
    VersionRequest,
    VoteMessage,
)
from repro.sim.replica import Timestamp

SRC = str(Path(repro.__file__).resolve().parents[1])

#: What a ``repro serve`` child must never load.
FORBIDDEN = (
    "asyncio",
    "ssl",
    "numpy",
    "scipy",
    "repro.analysis",
    "repro.core",
    "repro.quorums",
    "repro.protocols",
    "repro.sim.coordinator",
    "repro.sim.engine",
    "repro.sim.network",
    "repro.obs",
    "repro.fault",
    "repro.runner",
    # ... nor any command's module but its own (the table imports one)
    "repro.commands.options",
    *sorted(
        f"repro.commands.{module}"
        for module in set(_COMMANDS.values()) - {"serve"}
    ),
)


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _forbidden_among(modules) -> list[str]:
    return sorted(
        name for name in modules
        if any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)
    )


def _imports_in(log) -> list[str]:
    """Module names in ``-X importtime`` output, in import order."""
    return [
        line.rsplit("|", 1)[1].strip()
        for line in log.splitlines()
        if line.startswith("import time:")
    ]


def _imported_by_help(command: str) -> list[str]:
    done = _python("-X", "importtime", "-m", "repro", command, "--help")
    assert done.returncode == 0, done.stderr
    return _imports_in(done.stderr)


def test_serve_entry_point_imports_nothing_a_site_does_not_run():
    imported = _imported_by_help("serve")
    assert "repro.cli" in imported  # the parse worked
    assert "repro.commands.serve" in imported
    assert _forbidden_among(imported) == []


@pytest.mark.parametrize("command", ["serve", "simulate", "fig2"])
def test_a_process_loads_the_one_command_it_runs(command):
    own = f"repro.commands.{_COMMANDS[command]}"
    loaded = {
        name for name in _imported_by_help(command)
        if name.startswith("repro.commands.")
    }
    assert own in loaded
    assert loaded <= {own, "repro.commands.options"}


async def _serve_every_request_kind(port: int) -> None:
    """Drive one site through every message it handles, as a coordinator."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)

    async def ask(message, answered=True):
        write_frame(writer, encode_message(message))
        await writer.drain()
        if answered:
            return decode_message(await read_frame(reader))

    write_frame(writer, {"kind": "hello", "sid": -1})
    assert (await read_frame(reader)) == {"kind": "hello", "sid": 0}
    reply = await ask(ReadRequest(-1, 0, "k", 1))
    assert type(reply) is ReadReply and reply.value is None
    reply = await ask(VersionRequest(-1, 0, "k", 2))
    assert type(reply) is VersionReply
    reply = await ask(PrepareMessage(-1, 0, 1, "k", "v", Timestamp(1, 0)))
    assert type(reply) is VoteMessage and reply.vote_commit
    reply = await ask(CommitMessage(-1, 0, 1))
    assert type(reply) is AckMessage and reply.committed
    reply = await ask(PrepareMessage(-1, 0, 2, "k", "w", Timestamp(2, 0)))
    assert type(reply) is VoteMessage and reply.vote_commit
    # An abort is not acknowledged; the read after it is served only
    # because the abort freed the key.
    await ask(AbortMessage(-1, 0, 2), answered=False)
    reply = await ask(ReadRequest(-1, 0, "k", 3))
    assert reply.value == "v" and reply.timestamp == Timestamp(1, 0)
    writer.close()


def test_serving_every_request_kind_imports_nothing_more(tmp_path):
    """A real ``repro serve`` child, asked every request kind over TCP:
    nothing it loads is forbidden (asyncio and ssl included), and nothing
    loads after its announce line."""
    log = tmp_path / "importtime.txt"
    with open(log, "w") as stderr:
        child = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", "serve",
             "--sid", "0", "--port", "0"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE, stderr=stderr, text=True,
        )
    try:
        announce = child.stdout.readline()
        assert announce.startswith("REPRO-SITE sid=0 "), log.read_text()
        at_announce = _imports_in(log.read_text())
        port = int(announce.rsplit("port=", 1)[1])
        asyncio.run(asyncio.wait_for(_serve_every_request_kind(port), 30))
        assert child.poll() is None  # still serving
    finally:
        child.terminate()
        child.wait(30)
        child.stdout.close()
    loaded = _imports_in(log.read_text())
    assert "repro.runtime.loop" in loaded and "repro.sim.site" in loaded
    assert loaded == at_announce  # nothing lazy on the serving path
    assert _forbidden_among(loaded) == []


#: Runs in the child: the five lazy ``__init__`` tables behave like the
#: eager imports they replaced.
_EXPORTS_CHILD = """
import pickle
import sys
import repro
import repro.sim

assert "core" not in vars(repro)  # nothing resolved yet: a real test
import repro.core, repro.protocols, repro.quorums

assert "numpy" not in sys.modules  # the three tables import nothing
for package in (repro.core, repro.protocols, repro.quorums):
    assert not set(package.__all__) & set(vars(package)), package.__name__
for package in (repro, repro.sim, repro.core, repro.protocols, repro.quorums):
    listed = dir(package)
    for name in package.__all__:
        assert name in listed, (package.__name__, name)
        namespace = {}
        exec(f"from {package.__name__} import {name}", namespace)
        assert namespace[name] is getattr(package, name)
    assert sorted(package.__all__) == sorted(set(package.__all__))
    try:
        package.no_such_export
    except AttributeError as error:
        assert "no_such_export" in str(error)
    else:
        raise AssertionError(f"{package.__name__}.no_such_export resolved")

# what the --jobs pool path pickles: the parsed options, bound to the
# module-level function that builds and runs one repeat from a seed
from functools import partial
from repro.cli import build_parser
from repro.commands.options import simulated_monitor
from repro.sim import SimulationConfig

args = build_parser("chaos").parse_args(["chaos", "1-3", "--operations", "7"])
run = partial(simulated_monitor, args)
clone = pickle.loads(pickle.dumps(run))
assert clone.func is simulated_monitor and clone.args == (args,)
cloned, direct = clone(5), run(5)
assert (cloned.reads, cloned.writes) == (direct.reads, direct.writes)
config = SimulationConfig(tree=repro.core.from_spec("1-3-5"), seed=11)
clone = pickle.loads(pickle.dumps(config))
assert type(clone) is SimulationConfig
assert clone.seed == 11 and clone.tree.spec() == config.tree.spec()
"""


def test_lazy_package_exports_resolve_like_eager_ones():
    done = _python("-c", _EXPORTS_CHILD)
    assert done.returncode == 0, done.stderr


#: Runs in the child: what a coordinator, a simulator, the auditor and
#: the report load, and a 200-operation simulation through them.
_NO_NUMPY_CHILD = """
import sys
import repro.fault.invariants
import repro.obs.report
import repro.runtime.cluster
from repro.core.builder import from_spec
from repro.sim.engine import SimulationConfig, simulate
from repro.sim.workload import WorkloadSpec

outcomes = []
result = simulate(SimulationConfig(
    tree=from_spec("1-3-5"), workload=WorkloadSpec(operations=200), seed=1,
    check_invariants=True,
), on_outcome=outcomes.append)
assert len(outcomes) == result.monitor.total_operations == 200
print(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy")))
"""


def test_the_coordinator_and_the_simulator_load_no_numpy():
    """Selecting quorums takes ints, not a numpy matrix, and the package
    tables import no analysis module (DESIGN §2.16)."""
    done = _python("-c", _NO_NUMPY_CHILD)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


#: One full argv per command: ``build_parser()`` accepts it, the
#: per-command parser ``main`` builds accepts it, ``--help`` exits 0.
_ARGV = {
    "example": [],
    "fig2": ["--p", "0.8"],
    "fig3": ["--p", "0.8"],
    "fig4": ["--p", "0.8"],
    "survey": ["--n", "40"],
    "analyse": ["1-3-5", "--p", "0.8"],
    "sweep": ["--quantities", "read_cost", "--sizes", "8", "16", "--p",
              "0.8", "--jobs", "2"],
    "availability": ["1-3", "--p", "0.5", "0.9", "--samples", "100",
                     "--seed", "3", "--protocol", "majority", "--n", "5",
                     "--jobs", "2"],
    "tune": ["--n", "16", "--p", "0.8", "--read-fraction", "0.9"],
    "simulate": ["1-3", "--operations", "10", "--read-fraction", "0.5",
                 "--p", "0.9", "--seed", "1", "--protocol", "grid", "--n",
                 "9", "--repeats", "2", "--jobs", "2", "--retry-policy",
                 "exponential", "--backoff", "base=1", "--detector",
                 "--leases", "--reshape-at", "5", "--reshape-spec", "1-2"],
    "chaos": ["1-3", "--scenario", "all", "--operations", "10",
              "--read-fraction", "0.5", "--p", "0.9", "--seed", "1",
              "--max-attempts", "2", "--horizon", "50", "--protocol",
              "hqc", "--n", "9", "--repeats", "2", "--jobs", "2",
              "--leases"],
    "reconfigure": ["1-3", "--target", "1-2", "--at", "5",
                    "--operations", "10", "--read-fraction", "0.5", "--p",
                    "0.9", "--seed", "1", "--max-attempts", "2",
                    "--scenario", "all", "--horizon", "50", "--detector"],
    "trace": ["1-3", "--operations", "10", "--read-fraction", "0.5",
              "--p", "0.9", "--drop", "0.1", "--max-attempts", "2",
              "--seed", "1", "--protocol", "majority", "--n", "5", "--out",
              "t.jsonl"],
    "profile": ["1-3", "--operations", "10", "--read-fraction", "0.5",
                "--keys", "8", "--rate", "2", "--zipf", "1.0", "--clients",
                "2", "--service-time", "1", "--timeout", "50", "--seed",
                "1", "--leases", "--sort", "cumtime",
                "--limit", "5", "--no-phases"],
    "report": ["1-3", "--operations", "10", "--seed", "1", "--trace-file",
               "t.jsonl"],
    "serve": ["--sid", "3", "--host", "127.0.0.1", "--port", "0",
              "--service-time", "0.004"],
    "cluster": ["1-3", "--operations", "10", "--read-fraction", "0.5",
                "--keys", "4", "--seed", "1", "--timeout", "2",
                "--max-attempts", "2", "--kill-after-ops", "5",
                "--kill-site", "1", "--serve", "--serve-port", "0",
                "--deadline", "30"],
    "all": ["--p", "0.8"],
}


def test_every_command_has_an_argv_row():
    assert list(_ARGV) == list(_COMMANDS)


@pytest.mark.parametrize("command", list(_ARGV))
def test_command_parses_alone_and_among_all(command, capsys):
    argv = [command, *_ARGV[command]]
    among_all = build_parser().parse_args(argv)
    alone = build_parser(command).parse_args(argv)
    # Same registrar either way, so the same namespace (``run`` included:
    # a registrar's lambda is a new object per call, compare the rest).
    assert among_all.command == command
    assert {k: v for k, v in vars(alone).items() if k != "run"} == {
        k: v for k, v in vars(among_all).items() if k != "run"
    }
    assert callable(alone.run)
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    assert f"usage: repro {command}" in capsys.readouterr().out


def _described():
    """What each simulation command's ``_ARGV`` row must describe, written
    down from the output of the commit before options reached their
    fields by ``dest``: a mistyped ``dest=`` would otherwise fall back to
    a default without a sound."""
    from repro.core import from_spec
    from repro.fault.retry import RetryPolicySpec
    from repro.fault.scenarios import chaos_injector
    from repro.protocols.zoo import quorum_system
    from repro.sim.engine import SimulationConfig
    from repro.sim.failures import (
        BernoulliFailures,
        CompositeFailures,
        NoFailures,
    )
    from repro.sim.workload import WorkloadSpec

    # What the simulation commands fix rather than parse.
    workload = WorkloadSpec(
        operations=10, read_fraction=0.5, keys=32, arrival="poisson",
        rate=0.25,
    )
    # --p 0.9 --seed 1: Bernoulli failures, resampled every 40.
    bernoulli = BernoulliFailures(0.9, seed=1, resample_every=40.0)
    return {
        "simulate": SimulationConfig(
            system=quorum_system("grid", 9), workload=workload,
            failures=bernoulli, timeout=8.0, max_attempts=1, seed=1,
            retry_policy=RetryPolicySpec(
                kind="exponential", base=1.0, factor=2.0, cap=60.0,
                jitter=0.0,
            ),
            detector=True, leases=True, reshape_at=5.0, reshape_spec="1-2",
        ),
        # --scenario all --horizon 50 on the 9 and the 3 replicas.
        "chaos": SimulationConfig(
            system=quorum_system("hqc", 9), workload=workload,
            failures=CompositeFailures([
                bernoulli, chaos_injector("all", 9, seed=1, horizon=50.0),
            ]),
            timeout=8.0, max_attempts=2, seed=1, check_invariants=True,
            leases=True,
        ),
        "reconfigure": SimulationConfig(
            tree=from_spec("1-3"), workload=workload,
            failures=CompositeFailures([
                bernoulli, chaos_injector("all", 3, seed=1, horizon=50.0),
            ]),
            timeout=8.0, max_attempts=2, seed=1, detector=True,
            check_invariants=True, reshape_at=5.0, reshape_spec="1-2",
        ),
        "trace": SimulationConfig(
            system=quorum_system("majority", 5), workload=workload,
            failures=bernoulli, drop_probability=0.1, timeout=8.0,
            max_attempts=2, seed=1, trace=True,
        ),
        "report": SimulationConfig(
            tree=from_spec("1-3"), workload=workload, failures=NoFailures(),
            timeout=8.0, max_attempts=3, seed=1, trace=True,
        ),
        "profile": SimulationConfig(
            tree=from_spec("1-3"),
            workload=WorkloadSpec(
                operations=10, read_fraction=0.5, keys=8,
                arrival="poisson", rate=2.0, zipf_s=1.0,
            ),
            timeout=50.0, clients=2, service_time=1.0, seed=1, leases=True,
        ),
    }


@pytest.mark.parametrize(
    "command",
    ["simulate", "chaos", "reconfigure", "trace", "report", "profile"],
)
def test_parsed_options_describe_the_same_run_as_before(command):
    from dataclasses import replace

    from repro.commands.options import simulation_config
    from repro.commands.profile import _profile_config

    args = build_parser(command).parse_args([command, *_ARGV[command]])
    build = {"profile": _profile_config}.get(
        command, lambda args: simulation_config(args)[0]
    )
    built, described = build(args), _described()[command]

    # A tree, a quorum system and a failure injector compare by
    # identity: compare what they describe, then everything else.
    def injector(failures):
        # Its type and what it was built from, children included.
        state = vars(failures)
        if "_injectors" in state:
            state = {"_injectors": [injector(child) for child in (
                state["_injectors"]
            )]}
        return type(failures), state

    def shape(config):
        tree, system = config.tree, config.system
        return (
            None if tree is None else tree.spec(),
            None if system is None else (system.name, system.n),
            injector(config.failures),
        )

    assert shape(built) == shape(described)
    built, described = (
        replace(config, tree=None, system=None, failures=None)
        for config in (built, described)
    )
    assert built == described


#: What each command parses from its required arguments alone, written
#: down from the commit before the commands moved out of ``cli.py``
#: (``profile``'s ``--zipf`` was stored as ``zipf`` there; it is stored
#: as ``zipf_s``, the field it sets).
_REQUIRED = {"analyse": ["1-3-5"], "serve": ["--sid", "0"]}
_FAULT_DEFAULTS = {
    "retry_policy": None, "backoff": None, "detector": False,
    "leases": False,
}
_DEFAULTS = {
    "example": {},
    "fig2": {"p": 0.7},
    "fig3": {"p": 0.7},
    "fig4": {"p": 0.7},
    "survey": {"n": 121},
    "analyse": {"spec": "1-3-5", "p": 0.9},
    "sweep": {
        "quantities": ["read_cost", "write_cost"], "sizes": None, "p": 0.7,
        "jobs": 1,
    },
    "availability": {
        "spec": "1-3-5", "p": [0.5, 0.7, 0.9, 0.95, 0.99],
        "samples": 100000, "seed": 0, "protocol": None, "n": 0, "jobs": 1,
    },
    "tune": {"n": 48, "p": 0.9, "read_fraction": 0.5},
    "simulate": {
        "spec": "1-3-5", "operations": 2000, "read_fraction": 0.5,
        "p": 1.0, "seed": 0, "protocol": None, "n": 0, "repeats": 1,
        "jobs": 1, **_FAULT_DEFAULTS, "reshape_at": 0.0,
        "reshape_spec": None, "max_attempts": 1,
    },
    "chaos": {
        "spec": "1-3-5", "chaos": "all", "operations": 1000,
        "read_fraction": 0.5, "p": 1.0, "seed": 0, "max_attempts": 4,
        "chaos_horizon": 1000.0, "protocol": None, "n": 0, "repeats": 1,
        "jobs": 1, **_FAULT_DEFAULTS, "check_invariants": True,
    },
    "reconfigure": {
        "spec": "1-3-5", "reshape_spec": None, "reshape_at": 200.0,
        "operations": 1000, "read_fraction": 0.5, "p": 1.0, "seed": 0,
        "max_attempts": 4, "chaos": None, "chaos_horizon": 1000.0,
        **_FAULT_DEFAULTS, "check_invariants": True,
    },
    "trace": {
        "spec": "1-3-5", "operations": 500, "read_fraction": 0.5, "p": 1.0,
        "drop_probability": 0.0, "max_attempts": 3, "seed": 0,
        "protocol": None, "n": 0, "out": "trace.jsonl", "trace": True,
    },
    "profile": {
        "spec": "1-3-5", "operations": 5000, "read_fraction": 0.9,
        "keys": 128, "rate": 4.0, "zipf_s": 1.1, "clients": 4,
        "service_time": 1.0, "timeout": 800.0, "seed": 2026,
        "leases": False, "sort": "tottime",
        "limit": 25, "no_phases": False,
    },
    "report": {
        "spec": "1-3-5", "operations": 500, "read_fraction": 0.5, "p": 1.0,
        "drop_probability": 0.0, "max_attempts": 3, "seed": 0,
        "protocol": None, "n": 0, "trace_file": None, "trace": True,
    },
    "serve": {
        "sid": 0, "host": "127.0.0.1", "port": 0, "service_time": 0.0,
    },
    "cluster": {
        "spec": "1-3", "operations": 200, "read_fraction": 0.8, "keys": 8,
        "seed": 0, "timeout": 1.0, "max_attempts": 4,
        "kill_after_ops": None, "kill_site": None, "serve": False,
        "serve_port": 0, "deadline": 120.0,
    },
    "all": {"p": 0.7},
}


def test_every_command_parses_the_defaults_it_always_had():
    assert list(_DEFAULTS) == list(_COMMANDS)
    for command, defaults in _DEFAULTS.items():
        argv = [command, *_REQUIRED.get(command, [])]
        parsed = vars(build_parser(command).parse_args(argv))
        assert callable(parsed.pop("run"))
        assert parsed == {"command": command, **defaults}, command


#: What a simulation command reads itself instead of passing it on to
#: the records it builds: the tree or zoo system and the failure model
#: (``p``, the chaos scenario) become objects, ``--backoff`` folds into
#: ``retry_policy``, and the rest drive the command, not the run.
_CLI_ONLY = {
    "command", "run", "spec", "protocol", "n", "p", "chaos",
    "chaos_horizon", "backoff", "repeats", "jobs", "out", "trace_file",
    "sort", "limit", "no_phases",
}


def test_every_option_a_simulation_command_parses_reaches_a_record():
    """``from_options`` drops a name no record has without a sound, so
    each parsed ``dest`` must be a field of what the command builds or a
    name the command reads itself."""
    from dataclasses import fields

    from repro.sim.engine import SimulationConfig
    from repro.sim.workload import WorkloadSpec

    names = {field.name for record in (SimulationConfig, WorkloadSpec)
             for field in fields(record)}
    for command in ("simulate", "chaos", "reconfigure", "trace", "report",
                    "profile"):
        parsed = vars(build_parser(command).parse_args(
            [command, *_ARGV[command]]
        ))
        assert set(parsed) - names - _CLI_ONLY == set(), command
