"""Workload ``delta_views``: thousands of small durable transactions
against two stores under two eagerly maintained views (a set difference
and a join), with a selective view read every tenth operation; then
close and reopen.

``store`` does the work — segment apply, WAL append and fsync, periodic
checkpoints, incremental view maintenance, recovery.  It uses the sweep
and join kernels differently from ``setops_scan``: thousands of small
region re-sweeps instead of six full scans, so a kernel change tuned for
big scans that adds per-call overhead shows here first.
"""

from __future__ import annotations

import gc
import shutil
import time
from pathlib import Path

from repro.db import TPDatabase

from . import gen
from .common import (
    Context,
    Outcome,
    break_oracle,
    canonical_rows,
    disk_bytes,
    end_to_end,
    iqm,
    median,
    ms,
    peak_rss_mb,
    ratio,
    reopen,
    require_equal,
    timed_setups,
    ungated,
)

#: Script operations applied before the clock starts.
WARMUP_OPS = 50
#: The clock is checked (and the traced run takes its turn) this often.
CHUNK_OPS = 100
REOPENS = 3


class Instance:
    """A durable database with the workload's stores and views."""

    def __init__(self, directory: Path, relations: dict, views: dict) -> None:
        self.directory = directory
        self.db = TPDatabase(data_dir=directory, durability="commit")
        for name, rows in relations.items():
            self.db.create_relation(name, gen.ATTRIBUTES, rows)
        for name, text in views.items():
            self.db.create_view(name, text, policy="eager")

    def dispose(self) -> None:
        self.db.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def builder(ctx: Context):
    return lambda relations: Instance(ctx.scratch("db"), relations, ctx.inputs["views"])


def replay(ctx: Context, db: TPDatabase, seconds: float, traced_chunk=None):
    """The script in order, in chunks, until ``seconds`` have passed.

    The traced run passes ``traced_chunk``: it is handed every chunk
    (the warm-up too) right after the database ran it, and applies it to
    its own copy of the stores — traced and untraced chunks alternate, so
    a drift in machine speed hits both alike.

    Returns ``(read (start, end), write (start, end), rows out, failed,
    ops done)`` — ``ops done`` counts the warm-up too: it is the script
    prefix the row model must replay."""
    script = ctx.inputs["script"]
    done = min(WARMUP_OPS, len(script) // 4)
    for op in script[:done]:
        execute(db, op)
    if traced_chunk is not None:
        traced_chunk(script[:done])
    gc.collect()
    reads, writes, out_rows, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while done < len(script) and time.perf_counter() < deadline:
        if ctx.inject == "crash":
            raise RuntimeError("injected failure in the measured phase")
        chunk = script[done: done + CHUNK_OPS]
        for op in chunk:
            start = time.perf_counter()
            try:
                rows = execute(db, op)
            except Exception:
                failed += 1
                rows = 0
            span = (start, time.perf_counter())
            if op["op"] == "read":
                reads.append(span)
                out_rows += rows
            else:
                writes.append(span)
        done += len(chunk)
        if traced_chunk is not None:
            traced_chunk(chunk)
    return reads, writes, out_rows, failed, done


def execute(db: TPDatabase, op: dict) -> int:
    if op["op"] == "read":
        return len(db.query(op["q"]))
    db.apply(op["relation"], inserts=op["inserts"], deletes=op["deletes"])
    return 0


def row_model(ctx: Context, done: int) -> dict[str, dict]:
    """The benchmark's own account of each store after ``done`` script
    operations: ``{(key, ts, te): p}`` per relation."""
    model = {
        name: {tuple(row[:3]): row[3] for row in rows}
        for name, rows in ctx.inputs["relations"].items()
    }
    for op in ctx.inputs["script"][:done]:
        if op["op"] == "apply":
            rows = model[op["relation"]]
            for row in op["deletes"]:
                del rows[tuple(row)]
            for row in op["inserts"]:
                rows[tuple(row[:3])] = row[3]
    return model


def stored_rows(db: TPDatabase, name: str) -> dict:
    return {(t.fact[0], t.start, t.end): t.p for t in db.relation(name)}


def finish(ctx: Context, instance: Instance, done: int) -> dict:
    """The gates, then close and reopen: each view equals its definition
    recomputed from the stores, and the recovered stores equal the row
    model.  Returns the recovery time and the space used."""
    db = instance.db
    try:
        for i, (name, text) in enumerate(sorted(ctx.inputs["views"].items())):
            expected = canonical_rows(db.query(text, use_views=False))
            if ctx.inject == "oracle" and i == 0:
                expected = break_oracle(expected)
            require_equal(f"delta_views view {name}", canonical_rows(db.relation(name)), expected)
    finally:
        db.close()
    model = row_model(ctx, done)
    reopen_s = []
    for _ in range(REOPENS):
        recovered, seconds = reopen(instance.directory)
        try:
            reopen_s.append(seconds)
            for name, rows in model.items():
                require_equal(f"delta_views recovered {name}", stored_rows(recovered, name), rows)
        finally:
            recovered.close()
    live = sum(len(rows) for rows in model.values())
    return {
        "recover_s": median(reopen_s),
        "disk_bytes_per_row": ratio(disk_bytes(instance.directory), live),
    }


def untraced(ctx: Context) -> Outcome:
    instance, setups = timed_setups(ctx, builder(ctx), Instance.dispose)
    try:
        reads, writes, out_rows, failed, done = replay(ctx, instance.db, ctx.seconds)
        rss = peak_rss_mb()
        finish(ctx, instance, done)
    finally:
        instance.dispose()
    read_s, write_s = ctx.seconds_of(reads), ctx.seconds_of(writes)
    ops = len(read_s) + len(write_s)
    busy_s = sum(read_s) + sum(write_s)
    metrics = end_to_end(
        setup_times=ctx.seconds_of(setups),
        ops_per_s=ratio(ops, busy_s),
        read_ms_iqm=ms(iqm(read_s)),
        out_rows_per_s=ratio(out_rows, busy_s),
        rss_mb=rss,
    )
    return Outcome(ops, failed, metrics, {"reads": len(read_s), "writes": len(write_s)})


#: Transactions timed under both maintenance strategies (a full
#: recompute sweeps both stores, so the sample stays small).
RECOMPUTE_SAMPLE = 8
CHECKPOINTS = 3


def retained_changes(store) -> int:
    """How many change sets the store's log still holds (binary search
    over ``changes_since``, which raises once the log was pruned past
    the asked epoch) — the unbounded-growth indicator."""
    low, high = 0, store.epoch  # the oldest reachable epoch lies in [low, high]
    while low < high:
        middle = (low + high) // 2
        try:
            store.changes_since(middle)
        except ValueError:
            low = middle + 1
        else:
            high = middle
    return store.epoch - low


def traced(ctx: Context) -> Outcome:
    import os

    from repro.core.relation import TPRelation
    from repro.query.executor import execute_plan
    from repro.query.parser import parse_query
    from repro.query.planner import plan_query
    from repro.store import MaterializedView, SegmentStore, StorePersistence, recover_store

    from .spans import Recorder
    from .stages import layer_shares

    # The same script against benchmark-constructed objects, so that each
    # step of TPDatabase.apply / query is a public call timed from here.
    directory = ctx.scratch("traced")
    stores = {
        name: SegmentStore.from_relation(TPRelation.from_rows(name, gen.ATTRIBUTES, rows))
        for name, rows in ctx.inputs["relations"].items()
    }
    persistence = {
        name: StorePersistence.attach(store, directory / name, durability="commit")
        for name, store in stores.items()
    }
    views = {
        name: MaterializedView(name, parse_query(text), stores, policy="eager")
        for name, text in ctx.inputs["views"].items()
    }
    refresh_span = {"v1": "store.view_refresh_setop", "v2": "store.view_refresh_join"}
    rec = Recorder()
    fsyncs = [0]
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsyncs[0] += 1
        real_fsync(fd)

    def write(op):
        rec.next_op()
        name = op["relation"]
        wal = persistence[name].directory / "wal.log"
        with rec.span("write"):
            with rec.span("store.apply"):
                stores[name].apply(inserts=op["inserts"], deletes=op["deletes"])
            before = wal.stat().st_size
            with rec.span("store.wal_commit"):
                persistence[name].on_commit()
            grown = wal.stat().st_size - before
            if grown > 0:  # not across a checkpoint's log rotation
                rec.counts["store.wal_bytes"] += grown
                rec.counts["store.wal_rows"] += len(op["inserts"]) + len(op["deletes"])
            for view, span in refresh_span.items():
                with rec.span(span):
                    views[view].refresh()

    def read(op):
        rec.next_op()
        with rec.span("read"):
            with rec.span("query.parse"):
                ast = parse_query(op["q"])
            with rec.span("query.plan"):
                plan = plan_query(ast)
            view = op["q"].split("[")[0]
            with rec.span("store.view_relation"):
                catalog = {view: views[view].relation()}
            with rec.span("core.select"):
                selected = execute_plan(plan, catalog, materialize=False)
            with rec.span("core.materialize"):
                selected.materialize_probabilities()

    def traced_chunk(ops: list) -> None:
        os.fsync = counting_fsync
        try:
            for op in ops:
                (read if op["op"] == "read" else write)(op)
        finally:
            os.fsync = real_fsync

    script = ctx.inputs["script"]
    instance = builder(ctx)(ctx.inputs["relations"])
    try:
        reads, writes, _rows, failed, position = replay(
            ctx, instance.db, ctx.seconds, traced_chunk
        )
        read_s, write_s = ctx.seconds_of(reads), ctx.seconds_of(writes)
        closing = finish(ctx, instance, position)
    finally:
        instance.dispose()
    spans = rec.durations()
    commits = len(spans["write"])

    # Incremental maintenance against a full recompute, snapshot cost
    # right after a mutation, explicit checkpoints, per-store recovery.
    recompute = MaterializedView(
        "v1r", parse_query(ctx.inputs["views"]["v1"]), stores,
        policy="eager", strategy="RECOMPUTE",
    )
    incremental_s = recompute_s = 0.0
    snapshot_s = []
    for op in [o for o in script[position:] if o["op"] == "apply"][:RECOMPUTE_SAMPLE]:
        store = stores[op["relation"]]
        store.apply(inserts=op["inserts"], deletes=op["deletes"])
        persistence[op["relation"]].on_commit()
        start = time.perf_counter()
        store.snapshot()
        snapshot_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        views["v1"].refresh()
        incremental_s += time.perf_counter() - start
        start = time.perf_counter()
        recompute.refresh()
        recompute_s += time.perf_counter() - start
        views["v2"].refresh()
    checkpoint_s, checkpoint_bytes = [], []
    for _ in range(CHECKPOINTS):
        for manager in persistence.values():
            start = time.perf_counter()
            path = manager.checkpoint()
            checkpoint_s.append(time.perf_counter() - start)
            checkpoint_bytes.append(path.stat().st_size)
    retained = sum(retained_changes(store) for store in stores.values())
    for manager in persistence.values():
        manager.close()
    recover_s = []
    for name in stores:
        start = time.perf_counter()
        recover_store(directory / name)
        recover_s.append(time.perf_counter() - start)
    if ctx.trace_out:
        rec.dump(ctx.trace_out)

    p50 = rec.median_ms
    untraced_write = ratio(sum(write_s), len(write_s))
    stage_sum = sum(
        sum(spans.get(name, ()))
        for name in ("store.apply", "store.wal_commit", *refresh_span.values())
    )
    metrics = {
        **ungated(
            read_s=read_s, write_s=write_s, attempted=len(read_s) + len(write_s),
            failed=failed, **closing,
        ),
        "core.select_ms": (p50("core.select"), "ms"),
        "core.materialize_ms": (p50("core.materialize"), "ms"),
        "query.parse_us": (p50("query.parse") * 1000.0, "us"),
        "query.plan_ms": (p50("query.plan"), "ms"),
        "store.apply_ms": (p50("store.apply"), "ms"),
        "store.wal_commit_ms": (p50("store.wal_commit"), "ms"),
        "store.fsyncs_per_commit": (ratio(fsyncs[0], commits), "count"),
        "store.wal_bytes_per_row": (
            ratio(rec.counts["store.wal_bytes"], rec.counts["store.wal_rows"]), "B/row",
        ),
        "store.view_refresh_setop_ms": (p50("store.view_refresh_setop"), "ms"),
        "store.view_refresh_join_ms": (p50("store.view_refresh_join"), "ms"),
        "store.refresh_over_recompute": (ratio(incremental_s, recompute_s), "ratio"),
        "store.snapshot_ms": (ms(median(snapshot_s)), "ms"),
        "store.checkpoint_ms": (ms(median(checkpoint_s)), "ms"),
        "store.checkpoint_bytes": (float(median(checkpoint_bytes)), "B"),
        "store.recover_ms": (ms(median(recover_s)), "ms"),
        "store.changes_retained": (float(retained), "count"),
        "trace.stage_sum_over_e2e": (ratio(ratio(stage_sum, commits), untraced_write), "ratio"),
        "trace.overhead_share": (
            ratio(ratio(sum(spans["write"]), commits) - untraced_write, untraced_write), "ratio",
        ),
    }
    metrics.update(layer_shares(rec))
    return Outcome(
        len(read_s) + len(write_s), failed, metrics,
        {"reads": len(read_s), "writes": len(write_s), "traced_writes": commits},
    )
