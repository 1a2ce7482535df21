"""Command-line entry point: run the concurrent query server.

Usage::

    python -m repro.serve --data-dir ./tpdata --port 7070
    python -m repro.serve --load a=examples/a.csv --port 0   # ephemeral port

The server speaks newline-delimited JSON (:mod:`repro.serve.protocol`)
and prints one parseable ready line — ``serving on HOST:PORT`` — once
the socket is listening, so scripts (and the smoke harness) can start it
with ``--port 0`` and discover the bound port.  SIGTERM or Ctrl-C shuts
it down gracefully: sessions close and the WAL is released — a killed
server always leaves a recoverable ``--data-dir``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from ..db.__main__ import _load_spec
from ..db.database import TPDatabase
from ..store import DURABILITY_LEVELS
from .server import DEFAULT_REQUEST_TIMEOUT, serve


def build_parser() -> argparse.ArgumentParser:
    """The server CLI's argument parser.

    Exposed as a function so the doc-consistency tests can verify that
    every flag the README documents actually exists (and vice versa).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve temporal-probabilistic set queries over a socket.",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7070,
        help="TCP port to listen on; 0 picks an ephemeral port, announced "
        "in the 'serving on HOST:PORT' ready line (default 7070)",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable database directory: stores under DIR are "
        "crash-recovered at startup and commits are persisted to its "
        "write-ahead log",
    )
    parser.add_argument(
        "--durability",
        default=None,
        metavar="LEVEL",
        help="WAL sync policy with --data-dir: commit (default; fsync "
        "every transaction), batch (append without fsync) or off "
        "(no persistence)",
    )
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a relation from a .csv or .json file at startup "
        "(repeatable)",
    )
    parser.add_argument(
        "--request-timeout",
        type=float,
        default=DEFAULT_REQUEST_TIMEOUT,
        metavar="SECONDS",
        help=f"per-request wall-clock budget; a request past it gets a "
        f"TimeoutError response (default {DEFAULT_REQUEST_TIMEOUT:g})",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        metavar="N",
        help="capacity of the plan and result caches, in entries; "
        "0 disables caching (default 256)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse arguments, open the database, serve until signalled."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.durability is not None and args.durability not in DURABILITY_LEVELS:
        parser.error(
            f"--durability must be one of {', '.join(DURABILITY_LEVELS)}, "
            f"got {args.durability!r}"
        )
    if args.durability is not None and args.data_dir is None:
        parser.error("--durability requires --data-dir")
    if args.request_timeout <= 0:
        parser.error("--request-timeout must be positive")
    if args.cache_size < 0:
        parser.error("--cache-size must be >= 0")

    db = TPDatabase(data_dir=args.data_dir, durability=args.durability)
    # The context manager guarantees TPDatabase.close() — releasing the
    # WAL/persistence handles — even when serve() dies mid-request.
    with db:
        for _name, report in sorted(db.recovery_reports.items()):
            print(report, file=sys.stderr)
        for spec in args.load:
            _load_spec(db, spec)
        asyncio.run(
            serve(
                db,
                host=args.host,
                port=args.port,
                request_timeout=args.request_timeout,
                cache_size=args.cache_size,
                ready=lambda host, port: print(
                    f"serving on {host}:{port}", flush=True
                ),
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
