"""``repro availability``: exact / Monte-Carlo availability of a system."""

from __future__ import annotations

from repro.commands import options


def _print_availability(args) -> None:
    """Read/write availability of a tree spec or zoo protocol.

    Systems small enough for the exact computation report it; larger ones
    fall back to the Monte-Carlo estimator, parameterised by ``samples`` and
    ``seed`` (both plumbed through the QuorumSystem layer to the packed
    bitset kernel).  With ``jobs > 1`` the estimate always runs the chunked
    Monte-Carlo path, sharded across a process pool — bit-identical to the
    same chunked estimate at ``jobs = 1``.
    """
    from functools import partial

    from repro.analysis.tables import format_table
    from repro.quorums.availability import system_availability
    from repro.quorums.bitset import PackedQuorums
    from repro.runner import parallel_availability, resolve_system

    samples, jobs = args.samples, args.jobs
    seed = None if args.seed < 0 else args.seed
    ref = options.system_ref(args)
    system = resolve_system(ref)
    if ref[0] == "tree":
        label = f"availability of {args.spec}"
    else:
        label = f"availability of {system.name} (n = {system.n})"
    if jobs > 1:
        import random as _random

        master = _random.randrange(2**63) if seed is None else seed
        estimate = partial(
            parallel_availability, ref, samples=samples, seed=master, jobs=jobs
        )
        title = (f"{label} (Monte-Carlo, samples = {samples}, "
                 f"seed = {master}, jobs = {jobs})")
    else:
        # Each collection is enumerated and packed once for every p.  Not
        # the system's own ``availability``: that is the closed form for
        # the tree and zoo protocols, and this command reports the
        # enumerated (exact or Monte-Carlo) value.
        packed = {
            op: PackedQuorums.from_quorums(
                system.materialise(op), universe=system.universe
            )
            for op in ("read", "write")
        }

        def estimate(p: float, op: str) -> float:
            return system_availability(
                packed[op], p, universe=system.universe,
                samples=samples, seed=seed,
            )

        title = f"{label} (samples = {samples}, seed = {seed})"
    rows = [
        [p, round(estimate(p, "read"), 6), round(estimate(p, "write"), 6)]
        for p in args.p
    ]
    print(format_table(
        ["p", "read availability", "write availability"], rows, title=title,
    ))


def register(sub, name: str) -> None:
    parser = sub.add_parser(
        name, help="read/write availability of a spec or zoo protocol",
    )
    parser.add_argument(
        "--p", type=options.probability, nargs="+",
        default=[0.5, 0.7, 0.9, 0.95, 0.99],
        help="per-replica availabilities to evaluate",
    )
    parser.add_argument(
        "--samples", type=int, default=100_000,
        help="Monte-Carlo samples (used when the system is too large "
             "for the exact computation)",
    )
    options.add_options(parser, "spec", "zoo", "jobs")
    options.add_option(
        parser, "seed",
        help="Monte-Carlo seed (pass -1 for fresh randomness)",
    )
    parser.set_defaults(run=_print_availability)
