"""A small synchronous client for the serve protocol.

Used by the tests, the smoke harness and tpbench's ``serve_mixed``
workload; applications are equally welcome to it::

    with ServeClient("127.0.0.1", 7070) as client:
        client.create("a", ["product"], [["milk", 2, 10, 0.3]])
        rows = client.query("a | a")["relation"]["rows"]

Each method sends one request line and blocks for its response line.
Failures come back as :class:`ServeError` carrying the server-side
exception type and message; the connection (and its session) survives.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Optional, Sequence

__all__ = ["ServeClient", "ServeError"]


class ServeError(RuntimeError):
    """The server answered a request with an error payload."""

    def __init__(self, error: dict[str, Any]) -> None:
        super().__init__(f"{error.get('type')}: {error.get('message')}")
        self.type = error.get("type")
        self.message = error.get("message")


class ServeClient:
    """One connection (and therefore one snapshot session) to a server."""

    def __init__(
        self, host: str, port: int, *, timeout: Optional[float] = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self.hello = self._read()
        #: The server-assigned session id (from the hello line).
        self.session = self.hello.get("session")

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _read(self) -> dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def request(self, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one request object; return (or raise) its response."""
        self._file.write(json.dumps(payload).encode("utf-8") + b"\n")
        self._file.flush()
        response = self._read()
        if not response.get("ok"):
            raise ServeError(response.get("error", {}))
        return response

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        """Liveness check."""
        return self.request({"op": "ping"})

    def query(self, q: str, *, optimize: str = "off") -> dict[str, Any]:
        """Run a query (or EXPLAIN-prefixed text) in this session."""
        return self.request({"op": "query", "q": q, "optimize": optimize})

    def commit(
        self,
        relation: str,
        inserts: Sequence[Sequence[object]] = (),
        deletes: Sequence[Sequence[object]] = (),
    ) -> dict[str, Any]:
        """One transaction; this session re-pins to read its own write."""
        return self.request(
            {
                "op": "commit",
                "relation": relation,
                "inserts": list(inserts),
                "deletes": list(deletes),
            }
        )

    def create(
        self,
        relation: str,
        attributes: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> dict[str, Any]:
        """Create and register a base relation."""
        return self.request(
            {
                "op": "create",
                "relation": relation,
                "attributes": list(attributes),
                "rows": list(rows),
            }
        )

    def begin(self) -> dict[str, Any]:
        """Re-pin this session to the current database state."""
        return self.request({"op": "begin"})

    def epochs(self) -> dict[str, Any]:
        """This session's epoch signature."""
        return self.request({"op": "epochs"})

    def stats(self) -> dict[str, Any]:
        """Server introspection: sessions, cache counters, store epochs, memory."""
        return self.request({"op": "stats"})

    def close(self) -> None:
        """Say goodbye and drop the connection (idempotent)."""
        if self._sock is None:
            return
        try:
            self.request({"op": "close"})
        except (OSError, ConnectionError, ServeError):
            pass
        finally:
            self._file.close()
            self._sock.close()
            self._sock = None  # type: ignore[assignment]

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
