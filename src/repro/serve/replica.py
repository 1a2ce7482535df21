"""Read replicas: forked processes answering pinned-snapshot queries.

The serving layer's single service thread is the whole read *and* write
path because lineage interning is process-global and unlocked
(DESIGN.md §14.2).  This module scales reads past that
thread the only way the constraint allows: **more processes**
(DESIGN.md §16).  A :class:`ReplicaSet` forks N long-lived read-only
replicas; each holds its own copy of every store and constant relation,
shipped through the lineage batch codec
(:mod:`repro.lineage.serialize`, via the WAL's tuple codec) so lineage
is re-interned on arrival and the replica's canonical strings — and
therefore its encoded result fragments, which it caches and ships as
bytes exactly as the writer does (:class:`~repro.serve.cache
.CachedResult`) — are bit-identical to the writer's.

The writer process stays authoritative.  On every commit the server fans
the encoded :class:`~repro.store.ChangeSet` out to each replica, stamped
with the post-commit epoch and the set of epoch parts still pinned by
live sessions; the replica ingests it (:meth:`SegmentStore.
ingest_changeset` — replay plus log, so pinned historical epochs stay
reconstructible) and sweeps its own epoch-keyed result cache against the
live-part set.  The pipe is FIFO and every message is acknowledged, so
by the time a commit's response reaches any client, every replica can
already serve the new epoch.

Failure semantics: each parent-side :class:`ReplicaHandle` watches the
child process while it waits for a reply — a vanished process, a dead
pipe or a silent replica raises
:class:`ReplicaUnavailable`, the server re-runs the request on the
writer (bit-identical by construction), and a fresh replica is forked
from the writer's current state.  No client ever sees the failure.  A
replica that *answers* with an error (:class:`ReplicaQueryError`, e.g. a
pinned epoch older than its seed) is healthy; the writer simply
reproduces the canonical result or error.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import threading
import time
from typing import Any, Optional

from ..core.relation import TPRelation
from ..core.schema import TPSchema
from ..db.database import TPDatabase
from ..query.ast import QueryNode, relation_references
from ..query.cost import choose_plan
from ..query.executor import execute_plan
from ..query.fingerprint import canonical_key
from ..query.parser import parse_query
from ..query.planner import plan_query
from ..query.stats import RelationStats, relation_stats
from ..store import ChangeSet
from ..store.segment import SegmentStore
from ..store.wal import decode_tuples, encode_tuples
from .cache import CachedResult, LRUCache

__all__ = [
    "ReplicaQueryError",
    "ReplicaSet",
    "ReplicaUnavailable",
    "decode_changeset",
    "encode_changeset",
]

#: Poll interval while waiting on a replica's reply (seconds).
_POLL_INTERVAL = 0.05


class ReplicaUnavailable(RuntimeError):
    """A replica died, hung or lost its pipe; retry on the writer."""


class ReplicaQueryError(RuntimeError):
    """A replica answered with an error; the writer reproduces it."""


def _context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


# ----------------------------------------------------------------------
# the shipping codec (plain data over the pipe, lineage re-interned)
# ----------------------------------------------------------------------
def encode_changeset(changeset: ChangeSet) -> tuple:
    """Flatten a committed change set for fan-out (lineage via the batch codec)."""
    rows, nodes, roots = encode_tuples(changeset.inserted + changeset.deleted)
    return (
        changeset.epoch,
        changeset.counter,
        len(changeset.inserted),
        rows,
        nodes,
        roots,
        tuple(sorted(changeset.events.items())),
        tuple(changeset.removed_events),
    )


def decode_changeset(data: tuple) -> ChangeSet:
    """Rebuild a shipped change set, replaying lineage through interning."""
    epoch, counter, n_inserted, rows, nodes, roots, events, removed = data
    tuples = decode_tuples(rows, nodes, roots)
    return ChangeSet(
        epoch,
        tuple(tuples[:n_inserted]),
        tuple(tuples[n_inserted:]),
        dict(events),
        tuple(removed),
        counter,
    )


def _encode_store(store: SegmentStore) -> tuple:
    rows, nodes, roots = encode_tuples(list(store.iter_sorted()))
    return (
        store.name,
        store.schema.attributes,
        rows,
        nodes,
        roots,
        tuple(sorted(store.events.items())),
        store.epoch,
        store._counter,
        store.segment_capacity,
    )


def _decode_store(data: tuple) -> SegmentStore:
    name, attributes, rows, nodes, roots, events, epoch, counter, capacity = data
    return SegmentStore.restore(
        name,
        attributes,
        decode_tuples(rows, nodes, roots),
        dict(events),
        epoch=epoch,
        counter=counter,
        segment_capacity=capacity,
    )


def _encode_relation(relation: TPRelation) -> tuple:
    rows, nodes, roots = encode_tuples(relation.sorted_tuples())
    return (
        relation.name,
        relation.schema.attributes,
        rows,
        nodes,
        roots,
        tuple(sorted(relation.events.items())),
    )


def _decode_relation(data: tuple) -> TPRelation:
    name, attributes, rows, nodes, roots, events = data
    return TPRelation(
        name,
        TPSchema(tuple(attributes)),
        decode_tuples(rows, nodes, roots),
        dict(events),
        validate=False,
        assume_sorted=True,
    )


def seed_payload(db: TPDatabase) -> tuple:
    """The writer's shippable state: every store and constant relation.

    Views are deliberately absent — queries touching a view are routed
    to the writer (a view's content is not a pure function of shipped
    store state once ``manual`` policies enter the picture, and the
    routing rule keeps the replica model simple).  Must run on the
    service thread: it reads live store state.
    """
    store_names = set(db.store_names())
    view_names = set(db.view_names())
    stores = tuple(_encode_store(db.store(name)) for name in sorted(store_names))
    consts = tuple(
        _encode_relation(db.relation(name))
        for name in db.relation_names()
        if name not in store_names and name not in view_names
    )
    return (stores, consts)


# ----------------------------------------------------------------------
# the replica process (everything below the fork line)
# ----------------------------------------------------------------------
class _ReplicaState:
    """One replica's database-shaped state plus its epoch-keyed caches."""

    def __init__(self, seed: tuple, cache_size: int) -> None:
        stores_data, consts_data = seed
        self.stores = {
            store.name: store
            for store in (_decode_store(data) for data in stores_data)
        }
        self.consts = {
            relation.name: relation
            for relation in (_decode_relation(data) for data in consts_data)
        }
        self.results = LRUCache(cache_size)
        self.plans = LRUCache(cache_size)

    def ingest(self, name: str, data: tuple, live_parts: tuple) -> tuple:
        store = self.stores.get(name)
        if store is None:
            const = self.consts.get(name)
            if const is None:
                raise KeyError(f"replica has no relation named {name!r}")
            # Mirror the writer's catalog→store conversion; identifiers
            # arrive pre-minted in the change set, so nothing diverges.
            store = SegmentStore.from_relation(const)
            self.stores[name] = store
        store.ingest_changeset(decode_changeset(data))
        # Epoch-stamped invalidation: keep exactly the results whose
        # every epoch part is still pinned by some live session (or is
        # current) on the writer — the same sweep rule the writer runs.
        live = set(live_parts)
        self.results.sweep(lambda key: all(part in live for part in key[2]))
        return ("ok", store.epoch)

    def create(self, data: tuple) -> tuple:
        relation = _decode_relation(data)
        self.consts[relation.name] = relation
        return ("ok", relation.name)

    def query(self, text: str, level: str, parts: tuple) -> tuple:
        catalog: dict[str, TPRelation] = {}
        for name, part in parts:
            if part[0] == "store":
                store = self.stores.get(name)
                if store is None:
                    raise KeyError(f"replica has no store named {name!r}")
                # Raises SnapshotUnavailableError when the pinned epoch
                # predates this replica's seed — the writer answers then.
                catalog[name] = store.snapshot(part[2])
            else:  # ("const", name, incarnation)
                relation = self.consts.get(name)
                if relation is None:
                    raise KeyError(f"replica has no relation named {name!r}")
                catalog[name] = relation
        ast = parse_query(text)
        key_base = canonical_key(ast)
        epoch_key = tuple(part for _, part in parts)
        result_key = (key_base, level, epoch_key)
        # Replies show each part without its incarnation token, as the
        # writer's do (serve/session.py).
        wire_key = tuple(part[:-1] for part in epoch_key)
        # The writer's entry type: the reply ships the encoded fragment,
        # which the parent splices into the wire line untouched.
        cached = self.results.get(result_key)
        if cached is not None:
            return ("ok", True, wire_key, cached.fragment())
        plan = self._plan(ast, level, key_base, epoch_key, catalog)
        result = CachedResult(execute_plan(plan, catalog, materialize=True))
        self.results.put(result_key, result)
        return ("ok", False, wire_key, result.fragment())

    def _plan(
        self,
        ast: QueryNode,
        level: str,
        key_base: tuple,
        epoch_key: tuple,
        catalog: dict[str, TPRelation],
    ):
        """The service's plan-cache key discipline, replica-local (§14.2)."""
        plan_key: tuple
        if level == "off":
            plan_key = ("off", ast)
        elif level == "aggressive":
            plan_key = (level, key_base, epoch_key)
        else:
            plan_key = (level, key_base)
        plan = self.plans.get(plan_key)
        if plan is not None:
            return plan
        lowered: QueryNode = ast
        if level != "off":
            stats: dict[str, RelationStats] = {
                name: relation_stats(catalog[name])
                for name in relation_references(ast)
                if name in catalog
            }
            lowered = choose_plan(ast, stats, aggressive=level == "aggressive").chosen
        plan = plan_query(lowered)
        self.plans.put(plan_key, plan)
        return plan


def _replica_main(conn: Any, seed: tuple, cache_size: int) -> None:
    """The child's request loop: decode the seed, answer until ``stop``.

    Every message gets exactly one reply (the parent pairs send+recv
    under a lock), and per-message exceptions become ``("error", …)``
    replies — the replica survives a bad query; only process death or a
    torn pipe is unrecoverable, and the parent's watchdog owns that.
    """
    state = _ReplicaState(seed, cache_size)
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "stop":
                with contextlib.suppress(OSError, BrokenPipeError):
                    conn.send(("ok",))
                break
            try:
                if op == "ping":
                    reply: tuple = ("ok",)
                elif op == "commit":
                    reply = state.ingest(message[1], message[2], message[3])
                elif op == "create":
                    reply = state.create(message[1])
                elif op == "query":
                    reply = state.query(message[1], message[2], message[3])
                else:
                    raise ValueError(f"unknown replica op {op!r}")
            except Exception as exc:
                reply = ("error", type(exc).__name__, str(exc))
            try:
                conn.send(reply)
            except (OSError, BrokenPipeError):
                break
    finally:
        conn.close()


# ----------------------------------------------------------------------
# the parent side: handles, watchdog, routing surface
# ----------------------------------------------------------------------
class ReplicaHandle:
    """One live replica: its process, its pipe, and a pairing lock.

    ``request`` is the only conversation primitive: send one message,
    watch the process while waiting, receive one reply.  The lock makes
    send+recv atomic per request, so concurrent reader threads and the
    commit fan-out
    interleave whole conversations, never halves — and the pipe's FIFO
    then guarantees a replica ingests a commit before any query sent
    after it.
    """

    def __init__(self, index: int, process: Any, conn: Any) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.lock = threading.Lock()
        self.failed = False

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return not self.failed and self.process.is_alive()

    def request(self, message: tuple, timeout: float) -> tuple:
        with self.lock:
            if self.failed:
                raise ReplicaUnavailable(
                    f"replica #{self.index} already failed"
                )
            try:
                self.conn.send(message)
                deadline = time.monotonic() + timeout
                while not self.conn.poll(_POLL_INTERVAL):
                    if self.process.exitcode is not None:
                        raise ReplicaUnavailable(
                            f"replica #{self.index} (pid {self.process.pid}) "
                            f"died mid-request"
                        )
                    if time.monotonic() > deadline:
                        raise ReplicaUnavailable(
                            f"replica #{self.index} gave no answer within "
                            f"{timeout:g}s"
                        )
                reply = self.conn.recv()
            except ReplicaUnavailable:
                self.failed = True
                raise
            except (EOFError, OSError, BrokenPipeError, ValueError) as exc:
                self.failed = True
                raise ReplicaUnavailable(
                    f"replica #{self.index} transport failed: {exc}"
                ) from exc
        if reply[0] == "error":
            raise ReplicaQueryError(f"{reply[1]}: {reply[2]}")
        return reply

    def stop(self, timeout: float = 5.0) -> None:
        """Best-effort graceful stop, escalating to terminate; idempotent."""
        locked = self.lock.acquire(timeout=1.0)
        try:
            if not self.failed and self.process.is_alive():
                with contextlib.suppress(Exception):
                    self.conn.send(("stop",))
                    if self.conn.poll(timeout):
                        self.conn.recv()
        finally:
            if locked:
                self.lock.release()
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        with contextlib.suppress(OSError):
            self.conn.close()


class ReplicaSet:
    """N read replicas of one database, with watchdog respawn.

    Thread contract: ``read`` may be called from any number of
    dispatcher threads concurrently; ``start``, ``respawn`` and the
    fan-out methods must run on the service thread (they read live
    store/session state to build seeds and live-part stamps).
    """

    def __init__(
        self,
        db: TPDatabase,
        count: int,
        *,
        cache_size: int = 256,
        request_timeout: float = 30.0,
    ) -> None:
        if count < 1:
            raise ValueError(f"a ReplicaSet needs >= 1 replicas, got {count}")
        self.db = db
        self.count = count
        self.cache_size = cache_size
        self.request_timeout = request_timeout
        self._handles: list[Optional[ReplicaHandle]] = [None] * count
        self._respawns = 0
        self._ctx = _context()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        """Fork every replica from the database's current state."""
        for index in range(self.count):
            self._handles[index] = self._spawn(index)

    def _spawn(self, index: int) -> ReplicaHandle:
        seed = seed_payload(self.db)
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_replica_main,
            args=(child_conn, seed, self.cache_size),
            daemon=True,
            name=f"repro-replica-{index}",
        )
        process.start()
        child_conn.close()
        return ReplicaHandle(index, process, parent_conn)

    def respawn(self, index: int) -> None:
        """Replace a dead replica with a fresh fork of the current state.

        Idempotent and race-tolerant: if another caller already respawned
        this slot (the handle is alive again), nothing happens — so both
        a failed reader dispatch and a failed commit fan-out may request
        a respawn without double-forking.
        """
        index %= self.count
        handle = self._handles[index]
        if handle is not None and handle.alive():
            return
        if handle is not None:
            with contextlib.suppress(Exception):
                handle.stop(timeout=1.0)
        self._handles[index] = self._spawn(index)
        self._respawns += 1

    def stop(self) -> None:
        """Stop every replica (graceful, then terminate); idempotent."""
        for index, handle in enumerate(self._handles):
            if handle is not None:
                handle.stop()
                self._handles[index] = None

    # -- the request surface -------------------------------------------
    def read(self, index: int, ticket: tuple) -> dict[str, Any]:
        """One routed read on replica ``index % count``, in wire form:
        the reply envelope with the relation as the replica's encoded
        fragment (bytes), ready for :func:`~repro.serve.protocol
        .encode_line` — exactly what the writer's own reply holds.

        Raises :class:`ReplicaUnavailable` (dead/hung — retry on the
        writer, then respawn) or :class:`ReplicaQueryError` (the replica
        answered with an error — the writer reproduces it).
        """
        handle = self._handles[index % self.count]
        if handle is None or handle.failed:
            raise ReplicaUnavailable(f"replica #{index % self.count} is down")
        _tag, cached, epoch_key, fragment = handle.request(
            ("query",) + tuple(ticket), self.request_timeout
        )
        return {
            "ok": True,
            "cached": cached,
            "epochs": epoch_key,
            "relation": fragment,
        }

    def query(self, index: int, ticket: tuple) -> dict[str, Any]:
        """:meth:`read` with the fragment parsed — the payload a client
        sees, for in-process callers (tests, benchmarks)."""
        payload = self.read(index, ticket)
        payload["relation"] = json.loads(payload["relation"])
        return payload

    def fan_out_commit(
        self, name: str, changeset: ChangeSet, live_parts: tuple
    ) -> None:
        """Ship one committed change set to every replica (service thread).

        Runs after :meth:`QueryService.commit` and before the commit's
        response is written, so the acknowledged FIFO pipe guarantees no
        replica is ever asked about an epoch it has not ingested.  A
        replica that fails here is respawned immediately — the fresh
        fork seeds from post-commit state, so no change set is lost.
        """
        message = ("commit", name, encode_changeset(changeset), tuple(live_parts))
        for index in range(self.count):
            handle = self._handles[index]
            if handle is None:
                self.respawn(index)
                continue
            try:
                handle.request(message, self.request_timeout)
            except ReplicaUnavailable:
                self.respawn(index)
            except ReplicaQueryError:
                # A replica that cannot ingest a commit is out of sync —
                # its state is unusable; replace it outright.
                handle.failed = True
                self.respawn(index)

    def fan_out_create(self, relation: TPRelation) -> None:
        """Ship a newly created constant relation to every replica."""
        message = ("create", _encode_relation(relation))
        for index in range(self.count):
            handle = self._handles[index]
            if handle is None:
                self.respawn(index)
                continue
            try:
                handle.request(message, self.request_timeout)
            except ReplicaUnavailable:
                self.respawn(index)
            except ReplicaQueryError:
                handle.failed = True
                self.respawn(index)

    # -- introspection -------------------------------------------------
    def pids(self) -> list[int]:
        """PIDs of the currently live replica processes."""
        return [
            handle.pid
            for handle in self._handles
            if handle is not None
            and handle.pid is not None
            and handle.process.is_alive()
        ]

    def stats(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "pids": self.pids(),
            "respawns": self._respawns,
        }

    def __repr__(self) -> str:
        return (
            f"ReplicaSet({self.count} replicas, {len(self.pids())} live, "
            f"{self._respawns} respawns)"
        )
