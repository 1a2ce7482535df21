"""End-to-end serve smoke: launch, exercise, SIGTERM, verify cleanup.

Run as ``python -m repro.serve.smoke``; CI's serve-smoke job does.  The
script is the serving layer's acceptance walk in one process tree:

1. launch ``python -m repro.serve --port 0 --data-dir D`` and parse the
   ready line for the bound port;
2. create relations, run a query twice — the second must be served from
   cache — commit, and see the re-run miss (epoch invalidation) with
   the new row visible, while ``(a | b)[product='milk']`` stays cached
   across that commit of a ``beer`` row (keyed on milk's fact groups);
3. SIGTERM the server mid-conversation, and assert: exit code 0, and
   the data directory recovers to exactly the committed state.
"""

from __future__ import annotations

import argparse
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ..db.database import TPDatabase
from .client import ServeClient

READY_PREFIX = "serving on "
STARTUP_DEADLINE_S = 60.0


def _launch(data_dir: Path) -> tuple[subprocess.Popen, int]:
    """Start a server subprocess; returns (process, bound port)."""
    argv = [
        sys.executable,
        "-m",
        "repro.serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--data-dir",
        str(data_dir),
    ]
    process = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    assert process.stdout is not None
    deadline = time.monotonic() + STARTUP_DEADLINE_S
    while True:
        if time.monotonic() > deadline:
            process.kill()
            raise AssertionError("server never printed its ready line")
        line = process.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited before ready (rc={process.poll()})"
            )
        if line.startswith(READY_PREFIX):
            return process, int(line.strip().rsplit(":", 1)[1])


def _exercise(port: int) -> None:
    """The scripted conversation."""
    with ServeClient("127.0.0.1", port) as client:
        assert client.ping()["pong"] is True
        client.create(
            "a",
            ["product"],
            [["milk", 2, 10, 0.3], ["chips", 4, 7, 0.8]],
        )
        client.create("b", ["product"], [["milk", 5, 12, 0.5]])

        first = client.query("a | b", optimize="safe")
        assert first["cached"] is False
        again = client.query("a | b", optimize="safe")
        assert again["cached"] is True, "hot query must be served from cache"
        assert again["relation"] == first["relation"], "cache must be bit-identical"

        explain = client.query("EXPLAIN a | b", optimize="safe")
        assert "plan" in explain["explain"].lower()

        # The first commit makes ``a`` a store; a selection on its leading
        # attribute is then keyed on the fact groups it reads.
        client.commit("a", inserts=[["chips", 20, 22, 0.4]])
        milk = client.query("(a | b)[product='milk']", optimize="safe")
        assert milk["cached"] is False

        committed = client.commit("a", inserts=[["beer", 3, 8, 0.5]])
        assert committed["inserted"] == 1
        after = client.query("a | b", optimize="safe")
        assert after["cached"] is False, "commit must invalidate the cache"
        facts = {row[0][0] for row in after["relation"]["rows"]}
        assert "beer" in facts, "the committing session reads its own write"
        milk_again = client.query("(a | b)[product='milk']", optimize="safe")
        assert milk_again["cached"] is True, (
            "a commit to another key must keep a selected entry cached"
        )
        assert milk_again["relation"] == milk["relation"]

        stats = client.stats()["stats"]
        assert stats["results"]["hits"] >= 1


def _assert_recoverable(data_dir: Path) -> None:
    """Reopen the data dir cold and check the committed state survived."""
    with TPDatabase(data_dir=data_dir) as db:
        facts = {t.fact[0] for t in db.relation("a")}
        assert facts == {"milk", "chips", "beer"}, f"recovered {facts!r}"


def main(argv: list[str] | None = None) -> int:
    """Run the smoke sequence; 0 on success (assertions fail loudly)."""
    argparse.ArgumentParser(prog="python -m repro.serve.smoke").parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as tmp:
        data_dir = Path(tmp) / "data"
        process, port = _launch(data_dir)
        try:
            _exercise(port)
            process.send_signal(signal.SIGTERM)
            rc = process.wait(timeout=STARTUP_DEADLINE_S)
            assert rc == 0, f"server exited {rc} on SIGTERM"
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        _assert_recoverable(data_dir)
    print("serve smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
