"""Workload ``setops_scan``: six full set-operation reads per round over
two pairs of large relations — the paper's own regime, where ``core``
(sort, sweep, tuple materialization), ``lineage`` and ``prob`` do nearly
all the work and ``query`` / ``store`` / ``serve`` almost none.

Every round builds fresh relations from the generated rows (outside the
clock) and clears the valuation memo, so the first read on each pair
pays the ``(F, Ts)`` sort as a user's first query does.
"""

from __future__ import annotations

import gc
import time

from repro.core.relation import TPRelation
from repro.core.setops import tp_set_operation
from repro.db import TPDatabase
from repro.prob.valuation import clear_valuation_cache

from . import gen
from .common import (
    Context,
    Outcome,
    break_oracle,
    canonical_rows,
    end_to_end,
    iqm,
    median,
    ms,
    peak_rss_mb,
    require_equal,
    timed_setups,
    ungated,
)

WARMUP_ROUNDS = 1
OPS = {"|": "union", "&": "intersect", "-": "except"}


def build(relations: dict, **db_options) -> TPDatabase:
    db = TPDatabase(**db_options)
    for name, rows in relations.items():
        db.create_relation(name, gen.ATTRIBUTES, rows)
    return db


def fresh_round(relations: dict, **db_options) -> TPDatabase:
    db = build(relations, **db_options)
    clear_valuation_cache()
    gc.collect()
    return db


def replay(
    ctx: Context, seconds: float, warmups: int = WARMUP_ROUNDS, traced_round=None, **db_options
):
    """Whole rounds while another one fits into ``seconds``, going by
    the last one (at least one).

    The traced run passes ``traced_round``: it is handed a fresh database
    after every timed round, so traced and untraced rounds alternate and
    a drift in machine speed hits both alike.

    Returns ``(per-read (start, end), rows out, failed)``."""
    relations, reads = ctx.inputs["relations"], ctx.inputs["reads"]
    for _ in range(warmups):
        db = fresh_round(relations, **db_options)
        for text in reads:
            db.query(text)
    spans, out_rows, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not spans or time.perf_counter() + last < deadline:
        began = time.perf_counter()
        db = fresh_round(relations, **db_options)
        for i, text in enumerate(reads):
            if ctx.inject == "crash" and i == 1:
                raise RuntimeError("injected failure in the measured phase")
            start = time.perf_counter()
            try:
                out_rows += len(db.query(text))
            except Exception:
                failed += 1
            spans.append((start, time.perf_counter()))
        if traced_round is not None:
            traced_round(fresh_round(relations, **db_options))
        last = time.perf_counter() - began
    return spans, out_rows, failed


def gate(ctx: Context) -> None:
    """Each read equals the paper-shaped reference path (unfused LAWA)."""
    relations = {
        name: TPRelation.from_rows(name, gen.ATTRIBUTES, rows)
        for name, rows in ctx.inputs["relations"].items()
    }
    db = build(ctx.inputs["relations"])
    for i, text in enumerate(ctx.inputs["reads"]):
        left, symbol, right = text.split()
        expected = canonical_rows(
            tp_set_operation(OPS[symbol], relations[left], relations[right], fused=False)
        )
        if ctx.inject == "oracle" and i == 0:
            expected = break_oracle(expected)
        require_equal(f"setops_scan {text!r}", canonical_rows(db.query(text)), expected)


def untraced(ctx: Context) -> Outcome:
    _db, setups = timed_setups(ctx, build)
    del _db
    spans, out_rows, failed = replay(ctx, ctx.seconds)
    rss = peak_rss_mb()
    gate(ctx)
    # Rounds are identical, so a typical round is the run's steady state
    # (a run holds about seven: the interquartile mean uses five of them).
    kinds = len(ctx.inputs["reads"])
    read_s = ctx.seconds_of(spans)
    round_s = iqm([sum(read_s[i: i + kinds]) for i in range(0, len(read_s), kinds)])
    metrics = end_to_end(
        setup_times=ctx.seconds_of(setups),
        ops_per_s=kinds / round_s,
        read_ms_iqm=ms(iqm(read_s)),
        out_rows_per_s=out_rows / (len(read_s) // kinds) / round_s,
        rss_mb=rss,
    )
    return Outcome(len(read_s), failed, metrics, {"reads": len(read_s)})


def mode_speedup(ctx: Context, **db_options) -> float:
    """A default round's time over the next round's time under an
    optional engine mode; 0.0 when the constructor no longer accepts it."""
    default, _rows, _failed = replay(ctx, 0.0, warmups=0)
    try:
        mode, _rows, _failed = replay(ctx, 0.0, warmups=1, **db_options)
    except TypeError:
        return 0.0
    return sum(ctx.seconds_of(default)) / sum(ctx.seconds_of(mode))


def traced(ctx: Context) -> Outcome:
    from .stages import lineage_metrics, read_metrics, traced_read
    from .spans import Recorder

    reads = ctx.inputs["reads"]
    rec = Recorder()
    widest = []

    def traced_round(db: TPDatabase) -> None:
        seen: set = set()
        for text in reads:
            left, _symbol, right = text.split()
            result, _choice = traced_read(rec, db, text, cold=left not in seen)
            seen.update((left, right))
            if text == reads[0]:
                widest[:] = [result]

    spans, _rows, failed = replay(ctx, ctx.seconds, traced_round=traced_round)
    read_s = ctx.seconds_of(spans)
    gate(ctx)
    metrics = read_metrics(rec, read_s)
    metrics.update(ungated(read_s=read_s, attempted=len(read_s), failed=failed))
    metrics.update(lineage_metrics(widest[0]))

    load_s = []
    db = TPDatabase()
    for name, rows in ctx.inputs["relations"].items():
        start = time.perf_counter()
        db.create_relation(name, gen.ATTRIBUTES, rows)
        load_s.append(time.perf_counter() - start)
    metrics["core.load_ms"] = (ms(median(load_s)), "ms")

    metrics["core.columnar_speedup"] = (mode_speedup(ctx, columnar=True), "ratio")
    try:
        from repro.exec.pool import get_pool, shutdown_pools
    except ImportError:
        pass
    else:
        try:
            start = time.perf_counter()
            get_pool(2)
            metrics["exec.pool_start_ms"] = (ms(time.perf_counter() - start), "ms")
            metrics["exec.pool2_speedup"] = (mode_speedup(ctx, parallel=2), "ratio")
        finally:
            shutdown_pools()
    if ctx.trace_out:
        rec.dump(ctx.trace_out)
    return Outcome(len(read_s), failed, metrics, {"reads": len(read_s)})
