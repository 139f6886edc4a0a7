"""``repro serve`` and ``repro client`` entry points.

``repro serve`` boots the always-on daemon over a cache directory;
``repro client`` is the matching command-line client for scripting and
smoke checks (the typed interface is :class:`repro.serve.client
.ServeClient`).  Both are thin argparse shells — the behaviour lives in
:mod:`repro.serve.server` / :mod:`repro.serve.client`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

__all__ = ["serve_main", "client_main"]

#: Default service port (unassigned range; override with --port).
DEFAULT_PORT = 8177


def _parse_budget(text: str) -> int:
    """'64MiB' / '2GiB' / plain bytes → byte count (0 disables)."""
    units = {"kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30}
    lowered = text.strip().lower()
    for suffix, factor in units.items():
        if lowered.endswith(suffix):
            return int(float(lowered[: -len(suffix)]) * factor)
    return int(lowered)


def _serve_parser() -> argparse.ArgumentParser:
    from repro.exec.backends import usable_cpus

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the always-on artifact service over a cache "
        "directory (stdlib HTTP; POST /v1/cells, GET /v1/cells/{digest}, "
        "GET /v1/cells/{digest}/events, GET /v1/status).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"bind port (default {DEFAULT_PORT}; 0 picks one)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="store root shared with the batch CLI (default .repro-cache)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=usable_cpus(),
        metavar="N",
        help="cell executions run concurrently (default: the usable CPU count)",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=200.0,
        metavar="R",
        help="per-client sustained requests/second (<= 0 disables; "
        "default 200)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=400.0,
        metavar="B",
        help="per-client burst capacity (default 400)",
    )
    parser.add_argument(
        "--budget",
        default="0",
        metavar="BYTES",
        help="store size budget for LRU eviction, e.g. '64MiB' "
        "(0 disables eviction; open-reader containers are never evicted)",
    )
    parser.add_argument(
        "--evict-interval",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="seconds between eviction passes (default 30)",
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="grace for in-flight cells on SIGTERM (default 10)",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """Boot the daemon and block until SIGTERM/SIGINT drains it."""
    from repro.serve.server import ReproServer

    args = _serve_parser().parse_args(argv)
    try:
        budget = _parse_budget(args.budget)
    except ValueError:
        print(f"error: unparseable --budget {args.budget!r}", file=sys.stderr)
        return 2

    async def _run() -> None:
        server = ReproServer(
            host=args.host,
            port=args.port,
            cache_dir=args.cache_dir,
            jobs=args.jobs,
            rate=args.rate,
            burst=args.burst,
            budget_bytes=budget,
            evict_interval=args.evict_interval,
            drain_seconds=args.drain_seconds,
        )
        await server.start()
        print(
            f"repro serve: listening on http://{server.host}:{server.port} "
            f"(cache {args.cache_dir!r}, {args.jobs} jobs"
            + (f", budget {budget} bytes" if budget else "")
            + ")",
            file=sys.stderr,
            flush=True,
        )
        await server.serve_forever()
        print("repro serve: drained, exiting", file=sys.stderr)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - interactive abort
        pass
    return 0


def _client_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="Talk to a running repro serve daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="daemon address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="daemon port"
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        metavar="N",
        help="retries on connection errors / 429 / 503, honouring "
        "Retry-After (default 3; 0 disables)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request socket timeout (default 60)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="POST one study cell")
    submit.add_argument("kind", help="crossarch | scaling | ranks | trace")
    submit.add_argument("app", help="workload name (see 'repro workloads')")
    submit.add_argument("--threads", type=int, default=8)
    submit.add_argument("--machine", default=None)
    submit.add_argument("--ranks", type=int, default=None)
    submit.add_argument("--accesses", type=int, default=None)
    submit.add_argument("--scale", default="quick")
    submit.add_argument("--max-k", type=int, default=None)
    submit.add_argument(
        "--wait", action="store_true", help="block until the cell is terminal"
    )
    submit.add_argument(
        "--result",
        action="store_true",
        help="print the full result payload (implies --wait)",
    )

    get = sub.add_parser("get", help="GET one cell by digest")
    get.add_argument("digest")

    events = sub.add_parser("events", help="stream a cell's progress events")
    events.add_argument("digest")

    sub.add_parser("status", help="GET /v1/status")
    return parser


def client_main(argv: list[str] | None = None) -> int:
    """One-shot client command; prints JSON to stdout."""
    from repro.api.service import CellSubmission, SubmissionError
    from repro.serve.client import ServeClient, ServeError

    args = _client_parser().parse_args(argv)
    client = ServeClient(
        args.host,
        args.port,
        timeout=args.timeout,
        max_retries=args.max_retries,
    )
    try:
        if args.command == "submit":
            try:
                submission = CellSubmission(
                    kind=args.kind,
                    app=args.app,
                    threads=args.threads,
                    machine=args.machine,
                    ranks=args.ranks,
                    accesses=args.accesses,
                    scale=args.scale,
                    max_k=args.max_k,
                )
                submission.validate()
            except SubmissionError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            wait = args.wait or args.result
            body = client.submit_raw(submission, wait=wait)
            if not args.result:
                body.pop("result", None)
            print(json.dumps(body, indent=2, sort_keys=True))
        elif args.command == "get":
            print(json.dumps(client.cell(args.digest), indent=2, sort_keys=True))
        elif args.command == "events":
            for event in client.events(args.digest):
                print(json.dumps(event, sort_keys=True), flush=True)
        else:
            print(json.dumps(client.status().to_json(), indent=2, sort_keys=True))
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(
            f"error: cannot reach repro serve at "
            f"{args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1
    finally:
        client.close()
    return 0
