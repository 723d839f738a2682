"""``repro serve``: one replica site as a real TCP server.

A cluster starts one of these per physical node, so this module imports
nothing else of the CLI — not even the shared options: its
``--service-time`` is wall seconds, theirs simulated time — and nothing
of the package a site does not run (DESIGN §2.16), asyncio included:
the site serves on the runtime's own small selector loop.  On Linux the
site runs as ``SCHED_BATCH`` (``serve_site``), so the frames a
coordinator writes wake it without preempting the coordinator.
"""

from __future__ import annotations


def _run_serve(args) -> int:
    from repro.runtime.siteserver import serve_site

    try:
        serve_site(
            args.sid,
            host=args.host,
            port=args.port,
            service_time=args.service_time,
        )
    except KeyboardInterrupt:
        pass
    return 0


def register(sub, name: str) -> None:
    parser = sub.add_parser(
        name,
        help="run ONE replica site as a real TCP server (the runtime "
             "backend's per-process entry point)",
    )
    parser.add_argument("--sid", type=int, required=True,
                        help="this site's replica SID (>= 0)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = ephemeral; the bound port is announced on "
             "stdout as 'REPRO-SITE sid=... port=...')",
    )
    parser.add_argument(
        "--service-time", type=float, default=0.0,
        help="artificial per-message processing delay in seconds",
    )
    parser.set_defaults(run=_run_serve)
