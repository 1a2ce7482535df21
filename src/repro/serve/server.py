"""The asyncio front-end: connections, timeouts, graceful shutdown.

Concurrency model (DESIGN.md §12.2): the event loop handles sockets,
request framing, per-request timeouts and shutdown; **every**
state-touching call — session open/close, query, commit — is funneled
through one dedicated single-thread executor.  Lineage interning is
process-global and unlocked, so one service thread is the whole write
*and* read path; concurrency across clients
comes from MVCC sessions (readers pin snapshots, the writer never waits
for them), not from threading the engine.

Shutdown is a first-class path: SIGTERM/SIGINT (or
:meth:`ServeServer.request_shutdown`) stops accepting, cancels the
connection handlers, drains the service thread, closes every session,
and finally closes the database — the WAL/persistence handles are
released even when a request was mid-flight, so a killed server always
leaves a recoverable data directory.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
from typing import Any, Callable, Optional

from ..db.database import TPDatabase
from .protocol import (
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    decode_line,
    encode_line,
    error_payload,
)
from .service import QueryService

__all__ = ["ServeServer", "serve"]

#: Default per-request wall-clock budget (seconds).
DEFAULT_REQUEST_TIMEOUT = 30.0


class ServeServer:
    """One listening socket over one :class:`QueryService`."""

    def __init__(
        self,
        db: TPDatabase,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        cache_size: int = 256,
    ) -> None:
        self.db = db
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.service = QueryService(db, cache_size=cache_size)
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._stopped = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound (host, port) — port 0 resolves."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    def request_shutdown(self) -> None:
        """Flag the server to stop (signal-handler safe)."""
        self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until shutdown is requested."""
        await self._stopped.wait()

    async def aclose(self) -> None:
        """Graceful shutdown: stop, cancel, drain, release — idempotent.

        Ordering matters: stop accepting first, then cancel the handlers
        (their ``finally`` blocks close sockets), then drain the service
        thread so no call races the teardown, then close sessions and
        the database.  :meth:`TPDatabase.close` releases the
        WAL/persistence handles even when a request was cancelled
        mid-commit — the WAL protocol makes that prefix recoverable.
        """
        self._stopped.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._conn_tasks:
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._executor.shutdown(wait=True, cancel_futures=True)
        self.service.close()
        self.db.close()

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _call(self, fn: Callable, *args: Any) -> Any:
        """Run a service call on the service thread, under the timeout."""
        loop = asyncio.get_running_loop()
        return await asyncio.wait_for(
            loop.run_in_executor(self._executor, fn, *args),
            self.request_timeout,
        )

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: open a session, answer lines until EOF."""
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        session_id: Optional[int] = None
        try:
            session_id = await self._call(self.service.open_session)
            writer.write(
                encode_line({"ok": True, "hello": True, "session": session_id})
            )
            await writer.drain()
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # line longer than MAX_LINE_BYTES
                    writer.write(
                        encode_line(
                            error_payload(
                                ProtocolError("request line too long"), None
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                payload, closing = await self._respond(session_id, line)
                writer.write(encode_line(payload))
                await writer.drain()
                if closing:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            if session_id is not None:
                # During shutdown the executor may already be drained;
                # service.close() releases every session then anyway.
                with contextlib.suppress(Exception):
                    await asyncio.shield(
                        self._call(self.service.close_session, session_id)
                    )

    async def _respond(
        self, session_id: int, line: bytes
    ) -> tuple[dict[str, Any], bool]:
        """One request line → (response payload, close-after-reply?)."""
        request_id: Any = None
        try:
            request = decode_line(line)
            request_id = request.get("id")
            op = request.get("op")
            if op == "ping":
                payload: dict[str, Any] = {"ok": True, "pong": True}
            elif op == "close":
                payload = {"ok": True, "closing": True}
            elif op == "query":
                payload = await self._call(self._do_query, session_id, request)
            elif op == "commit":
                payload = await self._call(self._do_commit, session_id, request)
            elif op == "create":
                payload = await self._call(self._do_create, session_id, request)
            elif op == "begin":
                signature = await self._call(self.service.begin, session_id)
                payload = {"ok": True, "epochs": signature}
            elif op == "epochs":
                signature = await self._call(
                    lambda sid: self.service.session(sid).signature(), session_id
                )
                payload = {"ok": True, "epochs": signature}
            elif op == "stats":
                payload = {"ok": True, "stats": await self._call(self.service.stats)}
            else:
                raise ProtocolError(
                    f"unknown op {op!r}; expected one of {', '.join(OPS)}"
                )
        except asyncio.TimeoutError:
            payload = error_payload(
                TimeoutError(
                    f"request exceeded the {self.request_timeout:g}s budget"
                ),
                request_id,
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            payload = error_payload(exc, request_id)
        if request_id is not None and "id" not in payload:
            payload["id"] = request_id
        return payload, bool(payload.get("closing"))

    # ------------------------------------------------------------------
    # ops (these bodies run on the service thread)
    # ------------------------------------------------------------------
    def _do_query(self, session_id: int, request: dict) -> dict[str, Any]:
        q = request.get("q")
        if not isinstance(q, str):
            raise ProtocolError("query op needs a string under 'q'")
        response = self.service.execute(
            session_id, q, optimize=request.get("optimize", "off")
        )
        if response.explain is not None:
            return {"ok": True, "explain": response.explain}
        assert response.result is not None
        # The entry's encoded fragment, rendered by the first reply that
        # needs it; encode_line splices the bytes into the envelope.
        return {
            "ok": True,
            "cached": response.cached,
            "epochs": response.epoch_key,
            "relation": response.result.fragment(),
        }

    def _do_commit(self, session_id: int, request: dict) -> dict[str, Any]:
        name = request.get("relation")
        if not isinstance(name, str):
            raise ProtocolError("commit op needs a relation name under 'relation'")
        changeset = self.service.commit(
            session_id,
            name,
            inserts=request.get("inserts", ()),
            deletes=request.get("deletes", ()),
        )
        return {
            "ok": True,
            "epoch": changeset.epoch,
            "inserted": len(changeset.inserted),
            "deleted": len(changeset.deleted),
            "epochs": self.service.session(session_id).signature(),
        }

    def _do_create(self, session_id: int, request: dict) -> dict[str, Any]:
        name = request.get("relation")
        attributes = request.get("attributes")
        if not isinstance(name, str) or not isinstance(attributes, list):
            raise ProtocolError(
                "create op needs 'relation' (name) and 'attributes' (list)"
            )
        relation = self.service.create_relation(
            session_id, name, attributes, request.get("rows", ())
        )
        return {"ok": True, "relation": name, "rows": len(relation)}


async def serve(
    db: TPDatabase,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
    cache_size: int = 256,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Run a server until SIGTERM/SIGINT, then shut down gracefully.

    ``ready`` is called with the bound (host, port) once the socket is
    listening — the CLI prints its parseable ready line from it.
    """
    server = ServeServer(
        db,
        host=host,
        port=port,
        request_timeout=request_timeout,
        cache_size=cache_size,
    )
    bound_host, bound_port = await server.start()
    loop = asyncio.get_running_loop()
    registered: list[int] = []
    import signal

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):
            continue
        registered.append(signum)
    try:
        if ready is not None:
            ready(bound_host, bound_port)
        await server.wait_stopped()
    finally:
        await server.aclose()
        for signum in registered:
            loop.remove_signal_handler(signum)
