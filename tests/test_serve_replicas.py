"""Replica-tier stress: forked readers vs. the serial oracle (DESIGN.md §16).

The tentpole's acceptance bar is PR 8's, now with processes dying: with
reader connections routed round-robin across 2 forked replicas while a
``delta_storm`` commit stream runs on the writer, every wire response —
relation payload, lineage text and probabilities included — must be
bit-identical to a serial oracle that replays exactly that reader's
pinned prefix.  And it must stay that way while a replica is SIGKILL'd
mid-stream: the in-flight request falls back to the writer, a fresh
replica is forked, and no client ever sees the failure.

The in-process tests pin the pieces individually: the shipping codec
round-trips change sets losslessly (canonical lineage text preserved),
``route_read`` keeps written sessions / EXPLAIN / unroutable reads on
the writer, and a killed :class:`ReplicaSet` member raises
:class:`ReplicaUnavailable` promptly and respawns cleanly.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import build_scenario, scenario_catalog
from repro.db import TPDatabase
from repro.serve import QueryService
from repro.serve.protocol import relation_payload
from repro.serve.replica import (
    ReplicaSet,
    ReplicaUnavailable,
    decode_changeset,
    encode_changeset,
)
from repro.serve.server import ServeServer

#: delta_storm, shrunk to test size (mirrors test_serve_server._SPEC).
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


# ----------------------------------------------------------------------
# the shipping codec
# ----------------------------------------------------------------------
def test_changeset_codec_round_trips_losslessly():
    scenario = build_scenario(_SPEC, scale=1.0, seed=11)
    db = _build_db(scenario)
    for target, delta in scenario.deltas:
        committed = db.apply(target, inserts=delta.inserts, deletes=delta.deletes)
        if not committed:
            continue
        decoded = decode_changeset(encode_changeset(committed))
        assert decoded.epoch == committed.epoch
        assert decoded.counter == committed.counter
        assert decoded.events == committed.events
        assert decoded.removed_events == tuple(committed.removed_events)
        for mine, theirs in zip(
            decoded.inserted + decoded.deleted,
            committed.inserted + committed.deleted,
        ):
            assert mine.fact == theirs.fact
            assert (mine.start, mine.end, mine.p) == (
                theirs.start,
                theirs.end,
                theirs.p,
            )
            assert str(mine.lineage) == str(theirs.lineage)


# ----------------------------------------------------------------------
# routing decisions
# ----------------------------------------------------------------------
def test_route_read_keeps_ineligible_reads_on_the_writer():
    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3)])
    db.create_relation("b", ("product",), [("milk", 5, 12, 0.5)])
    service = QueryService(db)
    reader = service.open_session()

    ticket = service.route_read(reader, "a | b", optimize="safe")
    assert ticket is not None
    text, level, parts = ticket
    assert text == "a | b" and level == "safe"
    assert [name for name, _ in parts] == ["a", "b"]

    # EXPLAIN runs the writer's full report path.
    assert service.route_read(reader, "EXPLAIN a | b", optimize="safe") is None
    # A broken query surfaces the writer's canonical parse error.
    assert service.route_read(reader, "a |", optimize="safe") is None
    # Unknown names surface the writer's canonical UnknownRelationError.
    assert service.route_read(reader, "nope | nope") is None
    # A written session must read its own writes: pinned to the writer.
    service.commit(reader, "a", inserts=[("beer", 3, 8, 0.5)])
    assert service.route_read(reader, "a | b", optimize="safe") is None
    # A fresh (unwritten) session routes again.
    fresh = service.open_session()
    assert service.route_read(fresh, "a | b", optimize="safe") is not None


# ----------------------------------------------------------------------
# in-process replica set: answers, caching, death, respawn
# ----------------------------------------------------------------------
def test_replica_answers_bit_identical_and_caches():
    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3)])
    db.create_relation("b", ("product",), [("milk", 5, 12, 0.5)])
    db.store("a")
    db.store("b")
    service = QueryService(db)
    replicas = ReplicaSet(db, 2)
    replicas.start()
    try:
        reader = service.open_session()
        ticket = service.route_read(reader, "a | b", optimize="safe")
        assert ticket is not None
        expected = relation_payload(
            service.execute(reader, "a | b", optimize="safe").relation
        )
        for index in range(2):
            cold = replicas.query(index, ticket)
            assert cold["cached"] is False
            assert cold["relation"] == expected
            hot = replicas.query(index, ticket)
            assert hot["cached"] is True
            assert hot["relation"] == expected

        # A commit fans out; a session pinned after it reads the new epoch
        # from the replica, bit-identically to the writer.
        changeset = service.commit(reader, "a", inserts=[("beer", 3, 8, 0.5)])
        replicas.fan_out_commit("a", changeset, tuple(service.live_parts()))
        fresh = service.open_session()
        ticket2 = service.route_read(fresh, "a | b", optimize="safe")
        assert ticket2 is not None and ticket2 != ticket
        expected2 = relation_payload(
            service.execute(fresh, "a | b", optimize="safe").relation
        )
        assert replicas.query(0, ticket2)["relation"] == expected2
        # The old session's pinned (historical) epoch still answers — the
        # replica reconstructs it from its ingested log.
        old = replicas.query(1, ticket)
        assert old["relation"] == expected
    finally:
        replicas.stop()


def test_sigkilled_replica_is_detected_and_respawned():
    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3)])
    db.store("a")
    service = QueryService(db)
    replicas = ReplicaSet(db, 1)
    replicas.start()
    try:
        reader = service.open_session()
        ticket = service.route_read(reader, "a | a", optimize="safe")
        assert ticket is not None
        assert replicas.query(0, ticket)["ok"] is True

        victim = replicas.pids()[0]
        os.kill(victim, signal.SIGKILL)
        start = time.monotonic()
        with pytest.raises(ReplicaUnavailable):
            replicas.query(0, ticket)
        assert time.monotonic() - start < 10.0  # watchdog, not timeout

        replicas.respawn(0)
        assert replicas.stats()["respawns"] == 1
        replacement = replicas.pids()[0]
        assert replacement != victim
        expected = relation_payload(
            service.execute(reader, "a | a", optimize="safe").relation
        )
        assert replicas.query(0, ticket)["relation"] == expected
        # Respawn is idempotent on a live slot: no double fork.
        replicas.respawn(0)
        assert replicas.stats()["respawns"] == 1
    finally:
        replicas.stop()


# ----------------------------------------------------------------------
# wire-level stress: many clients, 2 replicas, vs. the serial oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [7, 345])
def test_replicated_responses_bit_identical_to_serial_oracle(seed):
    scenario = build_scenario(_SPEC, scale=1.0, seed=seed)
    queries = scenario.queries + ("r1 | r2",)
    oracle: dict[tuple[int, str], dict] = {}

    def expected(upto: int, query: str) -> dict:
        key = (upto, query)
        if key not in oracle:
            oracle[key] = _oracle_payload(scenario, upto, query)
        return oracle[key]

    async def main() -> None:
        server = ServeServer(_build_db(scenario), replicas=2)
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
                readers.append((await _Client.connect(port), index + 1))
                await asyncio.gather(
                    *(check(client, upto, queries[0]) for client, upto in readers)
                )

            async def sweep(client: _Client, upto: int) -> None:
                for query in queries:
                    await check(client, upto, query)

            await asyncio.gather(*(sweep(client, upto) for client, upto in readers))
            await check(writer, len(scenario.deltas), queries[0])

            stats = await writer.request(op="stats")
            replica_stats = stats["stats"]["replicas"]
            assert replica_stats["count"] == 2
            assert len(replica_stats["pids"]) == 2
            assert replica_stats["respawns"] == 0, (
                "no replica should have died in the clean run"
            )
            for client, _ in readers:
                await client.close()
            await writer.close()
        finally:
            await server.aclose()

    asyncio.run(main())


def test_replica_sigkill_mid_stream_never_surfaces_to_clients():
    """SIGKILL a replica between (and during) reads: every response stays
    bit-identical to the oracle, and a fresh replica appears."""
    scenario = build_scenario(_SPEC, scale=1.0, seed=99)
    query = scenario.queries[0]
    oracle: dict[int, dict] = {}

    def expected(upto: int) -> dict:
        if upto not in oracle:
            oracle[upto] = _oracle_payload(scenario, upto, query)
        return oracle[upto]

    async def main() -> None:
        server = ServeServer(_build_db(scenario), replicas=2)
        _, port = await server.start()
        try:
            writer = await _Client.connect(port)
            readers = [(await _Client.connect(port), 0) for _ in range(3)]

            async def check(client: _Client, upto: int) -> None:
                response = await client.request(op="query", q=query, optimize="safe")
                assert response["ok"], response
                assert response["relation"] == expected(upto), (
                    f"reader pinned after batch {upto} diverged after the kill"
                )

            stats = await writer.request(op="stats")
            victims = stats["stats"]["replicas"]["pids"]
            assert len(victims) == 2

            loop = asyncio.get_running_loop()
            for index, (target, delta) in enumerate(scenario.deltas):
                response = await writer.request(
                    op="commit",
                    relation=target,
                    inserts=[list(row) for row in delta.inserts],
                    deletes=[list(row) for row in delta.deletes],
                )
                assert response["ok"], response
                readers.append((await _Client.connect(port), index + 1))
                if index == 1:
                    # Land the SIGKILL while the reader requests below are
                    # in flight: the victim's in-flight request must be
                    # retried on the writer, invisibly.
                    loop.call_later(0.005, os.kill, victims[0], signal.SIGKILL)
                await asyncio.gather(
                    *(check(client, upto) for client, upto in readers)
                )

            # The failure healed: two live replicas again, at least one
            # respawn, and every reader (old pins included) still answers
            # bit-identically.  The respawn is asynchronous — poll briefly.
            deadline = time.monotonic() + 30.0
            while True:
                stats = await writer.request(op="stats")
                replica_stats = stats["stats"]["replicas"]
                if (
                    replica_stats["respawns"] >= 1
                    and len(replica_stats["pids"]) == 2
                ):
                    break
                assert time.monotonic() < deadline, (
                    f"replica never respawned: {replica_stats}"
                )
                await asyncio.sleep(0.05)
            assert victims[0] not in replica_stats["pids"]
            await asyncio.gather(
                *(check(client, upto) for client, upto in readers)
            )
            for client, _ in readers:
                await client.close()
            await writer.close()
        finally:
            await server.aclose()

    asyncio.run(main())


# ----------------------------------------------------------------------
# hypothesis: staggered readers across replicas vs. the writer
# ----------------------------------------------------------------------
@settings(max_examples=5, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    open_after=st.lists(st.integers(0, 5), min_size=2, max_size=3),
)
def test_staggered_readers_across_replicas_match_the_writer(seed, open_after):
    """Property: for every staggered reader schedule, a replica's answer
    to a routed ticket equals the writer's own execution, byte for byte,
    at every point of the commit stream."""
    scenario = build_scenario(_SPEC, scale=1.0, seed=seed)
    query = scenario.queries[0]
    db = _build_db(scenario)
    service = QueryService(db)
    replicas = ReplicaSet(db, 2)
    replicas.start()
    try:
        writer = service.open_session()
        n_batches = len(scenario.deltas)
        schedule = sorted(min(point, n_batches) for point in open_after)
        readers: list[int] = []

        def check_all() -> None:
            for i, session_id in enumerate(readers):
                ticket = service.route_read(session_id, query, optimize="safe")
                assert ticket is not None, "read-only session must route"
                via_replica = replicas.query(i, ticket)
                via_writer = relation_payload(
                    service.execute(session_id, query, optimize="safe").relation
                )
                assert via_replica["relation"] == via_writer, (
                    f"reader {i} diverged from the writer"
                )

        pending = list(schedule)
        while pending and pending[0] == 0:
            pending.pop(0)
            readers.append(service.open_session())
        check_all()
        for applied, (target, delta) in enumerate(scenario.deltas, start=1):
            changeset = service.commit(
                writer, target, inserts=delta.inserts, deletes=delta.deletes
            )
            if changeset:
                replicas.fan_out_commit(
                    target, changeset, tuple(service.live_parts())
                )
            while pending and pending[0] == applied:
                pending.pop(0)
                readers.append(service.open_session())
            check_all()
    finally:
        replicas.stop()
