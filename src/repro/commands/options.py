"""What commands share: the options two or more of them take, each
declared once, and the helpers that turn parsed options into a run.

A registrar names the shared options it takes and passes only the
defaults that differ (``add_options(parser, "run", operations=1000)``);
an option only one command takes is declared in that command's module.
A table of declarations, not a generator from the config dataclasses
(DESIGN §2.6).
"""

from __future__ import annotations

import argparse


def probability(text: str) -> float:
    """``type=`` of an option that is a probability: a float in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is not in [0, 1]")
    return value


def positive_int(text: str) -> int:
    """``type=`` of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is below 1")
    return value


def non_negative_int(text: str) -> int:
    """``type=`` of a count that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is below 0")
    return value


def positive_float(text: str) -> float:
    """``type=`` of a duration that must be above 0."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"{text} is not above 0")
    return value


def _protocol_names() -> tuple:
    from repro.protocols.zoo import PROTOCOL_NAMES

    return PROTOCOL_NAMES


def _scenario_names() -> tuple:
    from repro.fault.scenarios import CHAOS_SCENARIOS

    return CHAOS_SCENARIOS + ("all",)


def _option(*flags, **keywords) -> tuple:
    return flags, keywords


#: name -> (flags, ``add_argument`` keywords).  A callable ``choices`` is
#: called when the option is added, so only a subparser that takes the
#: option imports what its choices come from.
OPTIONS = {
    "spec": _option("spec", nargs="?", default="1-3-5",
                    help="tree spec of the replica group, e.g. 1-3-5"),
    "operations": _option("--operations", type=non_negative_int,
                          default=2000),
    "read_fraction": _option("--read-fraction", type=probability,
                             default=0.5),
    "p": _option("--p", type=probability, default=1.0,
                 help="per-replica availability (1.0 = no failures)"),
    "seed": _option("--seed", type=int, default=0, help="random seed"),
    "max_attempts": _option("--max-attempts", type=positive_int, default=4),
    "protocol": _option(
        "--protocol", choices=_protocol_names, default=None,
        help="run on a zoo protocol instead of the tree spec (sized via "
             "--n)",
    ),
    "n": _option(
        "--n", type=int, default=0,
        help="replica count (--protocol snaps it to an admissible size)",
    ),
    "repeats": _option(
        "--repeats", type=positive_int, default=1,
        help="independently seeded repeats, merged into one report",
    ),
    "jobs": _option("--jobs", type=positive_int, default=1,
                    help="worker processes to spread the work across"),
    "retry_policy": _option(
        "--retry-policy", choices=("fixed", "exponential"), default=None,
        help="coordinator retry-delay schedule (default: legacy immediate "
             "retry)",
    ),
    "backoff": _option(
        "--backoff", default=None, metavar="KEY=VALUE[,...]",
        help="backoff parameters (base/factor/cap/jitter), e.g. "
             "'base=1,factor=2,cap=30,jitter=0.2'; implies "
             "--retry-policy exponential",
    ),
    "detector": _option(
        "--detector", action="store_true",
        help="attach the suspicion-based failure detector so quorum "
             "selection avoids suspected sites",
    ),
    "leases": _option(
        "--leases", action="store_true",
        help="cache read results per key as leases: repeat reads of a "
             "hot key are served without quorum traffic until a "
             "conflicting write or a liveness-epoch change revokes "
             "the lease",
    ),
    "scenario": _option(
        "--scenario", dest="chaos", choices=_scenario_names, default=None,
        help="failure scenario to inject under the run",
    ),
    "horizon": _option(
        "--horizon", dest="chaos_horizon", type=float, default=1000.0,
        help="simulated time the scenario keeps injecting failures for",
    ),
    "drop": _option("--drop", dest="drop_probability", type=probability,
                    default=0.0, help="message drop probability in [0, 1]"),
    "keys": _option("--keys", type=positive_int, help="keyspace size"),
    "timeout": _option(
        "--timeout", type=positive_float,
        help="coordinator quorum-phase timeout (simulated time units; "
             "wall seconds on a real cluster)",
    ),
}

#: Options usually taken together, under one name.
GROUPS = {
    "run": ("spec", "operations", "read_fraction", "p", "seed"),
    "zoo": ("protocol", "n"),
    "fan-out": ("repeats", "jobs"),
    "fault": ("retry_policy", "backoff", "detector", "leases"),
    "chaos": ("scenario", "horizon"),
}


def add_option(parser, name: str, **overrides) -> None:
    """Add the shared option ``name``; ``overrides`` replace keywords of
    its declaration (a command's own default, ``dest`` or ``nargs``)."""
    flags, keywords = OPTIONS[name]
    keywords = {**keywords, **overrides}
    if callable(keywords.get("choices")):
        keywords["choices"] = keywords["choices"]()
    parser.add_argument(*flags, **keywords)


def add_options(parser, *names: str, **defaults) -> None:
    """Add the shared options (or groups of them) ``names`` in order;
    ``defaults`` maps an option to the default this command gives it
    where that differs."""
    for name in names:
        for option in GROUPS.get(name, (name,)):
            if option in defaults:
                add_option(parser, option, default=defaults[option])
            else:
                add_option(parser, option)


def retry_policy_spec(kind: str | None, backoff: str | None):
    """Build a :class:`RetryPolicySpec` from --retry-policy / --backoff.

    ``--backoff`` takes ``key=value`` pairs (``base``, ``factor``, ``cap``,
    ``jitter``), comma-separated; giving it without ``--retry-policy``
    implies the exponential policy.
    """
    if kind is None and backoff is None:
        return None
    from repro.fault.retry import RetryPolicySpec

    if kind is None:
        kind = "exponential"
    fields = {"base": 1.0} if kind == "exponential" else {}
    if backoff:
        for part in backoff.split(","):
            name, sep, value = part.partition("=")
            name = name.strip()
            if not sep or name not in ("base", "factor", "cap", "jitter"):
                raise SystemExit(
                    f"invalid --backoff component {part!r}: expected "
                    "key=value with key in base/factor/cap/jitter"
                )
            fields[name] = float(value)
    return RetryPolicySpec(kind=kind, **fields)


def from_options(cls, args, **forced):
    """Dataclass ``cls`` from the parsed options stored under its field names.

    An option reaches a field through its ``dest`` (``--scenario`` is
    stored as ``chaos``, ``--at`` as ``reshape_at``, ``--zipf`` as
    ``zipf_s``, ...; values a command forces, such as ``trace``, are its
    parser defaults), after ``--retry-policy`` / ``--backoff`` are folded
    into the one ``retry_policy`` spec.  Fields the command has no option
    for keep ``cls``'s default unless ``forced``.
    """
    from dataclasses import fields

    retry_policy = retry_policy_spec(
        getattr(args, "retry_policy", None), getattr(args, "backoff", None)
    )
    given = vars(args) | {"retry_policy": retry_policy} | forced
    return cls(**{
        field.name: given[field.name]
        for field in fields(cls) if field.name in given
    })


def simulation_config(args, seed: int | None = None) -> tuple:
    """The ``(SimulationConfig, label)`` a parsed simulation command
    describes, at ``seed`` (default ``--seed``).

    The one place the simulation commands' run is built, failure
    injector and chaos scenario included, so a repeat at seed k and a
    serial run at seed k are the same run.  What no command has a flag
    for is fixed here: Poisson arrivals at rate 0.25 over 32 keys,
    timeout 8, and Bernoulli failures resampled every 40 time units when
    ``--p`` is below 1.
    """
    from repro.core import from_spec
    from repro.sim.engine import SimulationConfig
    from repro.sim.failures import (
        BernoulliFailures,
        CompositeFailures,
        NoFailures,
    )
    from repro.sim.workload import WorkloadSpec

    seed = args.seed if seed is None else seed
    failures = (
        NoFailures() if args.p >= 1.0
        else BernoulliFailures(p=args.p, seed=seed, resample_every=40.0)
    )
    # Not every simulation command takes --protocol or --scenario.
    if getattr(args, "protocol", None) is None:
        tree, system = from_spec(args.spec), None
        n, label = tree.n, f"simulation of {args.spec}"
    else:
        from repro.protocols.zoo import quorum_system

        tree = None
        system = quorum_system(args.protocol, args.n or from_spec(args.spec).n)
        n, label = system.n, f"simulation of {system.name} (n = {system.n})"
    chaos = getattr(args, "chaos", None)
    if chaos is not None:
        from repro.fault.scenarios import chaos_injector

        scenario = chaos_injector(
            chaos, n, seed=seed, horizon=args.chaos_horizon
        )
        failures = (
            scenario if isinstance(failures, NoFailures)
            else CompositeFailures([failures, scenario])
        )
        label = f"{label} under {chaos} chaos"
    config = from_options(
        SimulationConfig, args, tree=tree, system=system, failures=failures,
        timeout=8.0, seed=seed,
        workload=from_options(
            WorkloadSpec, args, keys=32, arrival="poisson", rate=0.25
        ),
    )
    return config, label


def simulated_monitor(args, seed: int):
    """One ``--repeats`` copy: the run ``args`` describe, built at
    ``seed`` and simulated; its monitor."""
    from repro.sim import simulate

    return simulate(simulation_config(args, seed)[0]).monitor


def run_repeats(args, run, merge):
    """The ``--repeats R --jobs N`` fan-out on N worker processes: repeat
    k is ``run(args, seed)`` at the k-th child seed of ``--seed`` (``run``
    module-level, so it pickles), and ``merge`` folds their monitors."""
    from functools import partial

    from repro.runner import ProgressPrinter, parallel_runs

    progress = ProgressPrinter(args.command) if args.jobs > 1 else None
    return merge(parallel_runs(
        partial(run, args), args.repeats, args.seed, jobs=args.jobs,
        progress=progress,
    ))
