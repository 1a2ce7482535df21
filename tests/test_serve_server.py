"""Wire-level stress: many concurrent clients vs. a serial oracle.

The serving tentpole's acceptance bar (DESIGN.md §14): with reader
connections opening at staggered points of a ``delta_storm`` commit
stream, every wire response — the full relation payload, lineage text
and probabilities included — must be bit-identical to a serial oracle
that replays exactly that reader's pinned prefix into a fresh database.
The remaining tests pin the protocol edges (errors keep the connection
alive, ids echo, oversized lines are refused, the request timeout
budget fires) and the SIGTERM path end-to-end via the smoke harness.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace

import pytest

from repro.bench.workloads import build_scenario, scenario_catalog
from repro.db import TPDatabase
from repro.serve.protocol import MAX_LINE_BYTES, relation_payload
from repro.serve.server import ServeServer

#: delta_storm, shrunk to test size: enough batches for a real epoch
#: history, small enough that the serial oracle replays stay cheap.
_SPEC = replace(
    scenario_catalog()["delta_storm"],
    n_tuples=120,
    n_facts=8,
    n_batches=5,
    batch_fraction=0.05,
)


class _Client:
    """A minimal NDJSON client over an asyncio stream pair."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.hello: dict = {}

    @classmethod
    async def connect(cls, port: int) -> "_Client":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        client = cls(reader, writer)
        client.hello = json.loads(await reader.readline())
        assert client.hello["ok"] and client.hello["hello"]
        return client

    async def request(self, **payload) -> dict:
        self.writer.write(json.dumps(payload).encode() + b"\n")
        await self.writer.drain()
        line = await self.reader.readline()
        assert line, "server closed the connection mid-request"
        return json.loads(line)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def _build_db(scenario) -> TPDatabase:
    db = TPDatabase()
    for relation in scenario.relations.values():
        db.register(relation)
    for name in scenario.relations:
        db.store(name)
    return db


def _oracle_payload(scenario, upto: int, query: str) -> dict:
    """Serial replay → the exact wire payload the server must produce."""
    db = _build_db(scenario)
    for target, delta in scenario.deltas[:upto]:
        db.apply(target, inserts=delta.inserts, deletes=delta.deletes)
    payload = relation_payload(db.query(query, optimize="safe"))
    return json.loads(json.dumps(payload))  # same float/list shapes as the wire


@pytest.mark.parametrize("seed", [7, 345])
def test_many_clients_bit_identical_to_serial_oracle(seed):
    scenario = build_scenario(_SPEC, scale=1.0, seed=seed)
    queries = scenario.queries + ("r1 | r2",)
    oracle: dict[tuple[int, str], dict] = {}

    def expected(upto: int, query: str) -> dict:
        key = (upto, query)
        if key not in oracle:
            oracle[key] = _oracle_payload(scenario, upto, query)
        return oracle[key]

    async def main() -> None:
        server = ServeServer(_build_db(scenario))
        _, port = await server.start()
        try:
            writer = await _Client.connect(port)
            readers = [(await _Client.connect(port), 0) for _ in range(2)]

            async def check(client: _Client, upto: int, query: str) -> None:
                response = await client.request(op="query", q=query, optimize="safe")
                assert response["ok"], response
                assert response["relation"] == expected(upto, query), (
                    f"reader pinned after batch {upto} diverged on {query!r}"
                )

            for index, (target, delta) in enumerate(scenario.deltas):
                response = await writer.request(
                    op="commit",
                    relation=target,
                    inserts=[list(row) for row in delta.inserts],
                    deletes=[list(row) for row in delta.deletes],
                )
                assert response["ok"], response
                # A fresh reader pins the post-commit epoch...
                readers.append((await _Client.connect(port), index + 1))
                # ...and every open reader answers from its own, concurrently.
                await asyncio.gather(
                    *(check(client, upto, queries[0]) for client, upto in readers)
                )

            # End-to-end: all readers x all queries, plus the writer's own
            # view.  Concurrency is across clients; each connection is one
            # conversation, so its own requests stay sequential.
            async def sweep(client: _Client, upto: int) -> None:
                for query in queries:
                    await check(client, upto, query)

            await asyncio.gather(*(sweep(client, upto) for client, upto in readers))
            await check(writer, len(scenario.deltas), queries[0])

            # The hot-query path is observable: repeated reads hit the cache.
            stats = await writer.request(op="stats")
            assert stats["stats"]["results"]["hits"] > 0
            # ... and so is the collector, without a profiler attached.
            assert len(stats["stats"]["memory"]["gc_collections"]) == 3
            for client, _ in readers:
                await client.close()
            await writer.close()
        finally:
            await server.aclose()

    asyncio.run(main())


def test_protocol_errors_keep_the_connection_alive():
    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3)])

    async def main() -> None:
        server = ServeServer(db)
        _, port = await server.start()
        try:
            client = await _Client.connect(port)
            # Malformed JSON line.
            client.writer.write(b"this is not json\n")
            await client.writer.drain()
            response = json.loads(await client.reader.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            # Unknown op.
            response = await client.request(op="launch")
            assert response["ok"] is False
            # An unknown or missing op still echoes the request's id.
            for payload in ({"op": "nope", "id": 5}, {"id": 6}):
                response = await client.request(**payload)
                assert response["ok"] is False
                assert response["error"]["type"] == "ProtocolError"
                assert response["id"] == payload["id"]
            # Unknown relation: a clean engine error, not a hang or close.
            response = await client.request(op="query", q="nope | nope")
            assert response["ok"] is False
            assert "nope" in response["error"]["message"]
            # The connection survived all of them.
            response = await client.request(op="ping", id=42)
            assert response["ok"] and response["pong"] and response["id"] == 42
            # An explicit close op ends the conversation.
            response = await client.request(op="close")
            assert response["ok"] and response["closing"]
            assert await client.reader.readline() == b""
            await client.close()
        finally:
            await server.aclose()

    asyncio.run(main())


def test_request_timeout_budget_fires_and_recovers():
    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3)])

    async def main() -> None:
        server = ServeServer(db)
        _, port = await server.start()
        try:
            client = await _Client.connect(port)
            original = server.service.execute

            def slow_execute(*args, **kwargs):
                time.sleep(0.3)
                return original(*args, **kwargs)

            server.service.execute = slow_execute  # type: ignore[method-assign]
            server.request_timeout = 0.05
            response = await client.request(op="query", q="a | a")
            assert response["ok"] is False
            assert response["error"]["type"] == "TimeoutError"
            # Restore the budget: the same connection serves again.
            server.service.execute = original  # type: ignore[method-assign]
            server.request_timeout = 30.0
            response = await client.request(op="query", q="a | a")
            assert response["ok"] is True
            await client.close()
        finally:
            await server.aclose()

    asyncio.run(main())


def test_oversized_request_line_is_refused():
    db = TPDatabase()

    async def main() -> None:
        server = ServeServer(db)
        _, port = await server.start()
        try:
            client = await _Client.connect(port)
            client.writer.write(b"x" * (MAX_LINE_BYTES + 1024) + b"\n")
            await client.writer.drain()
            response = json.loads(await client.reader.readline())
            assert response["ok"] is False
            assert "too long" in response["error"]["message"]
            assert await client.reader.readline() == b""  # connection closed
            await client.close()
        finally:
            await server.aclose()

    asyncio.run(main())


def test_sigterm_smoke_leaves_a_recoverable_data_dir():
    """Full subprocess round trip: serve, exercise, SIGTERM, recover."""
    from repro.serve import smoke

    assert smoke.main([]) == 0
