"""Workload ``pushdown_mix``: selective queries through the cost-based
optimizer (``optimize="safe"``) over Zipf-skewed keys, one query in
twenty unselective.

Pushdown makes the sweeps small, so ``query`` (parser, statistics,
``choose_plan``, planner) and ``TPRelation.select`` carry a large share
of a selective read; the unselective twentieth is where the optimizer can
only break even or lose.  The valuation memo is cleared before every
query, so no read is served by an earlier one.
"""

from __future__ import annotations

import gc
import time

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
    ratio,
    require_equal,
    timed_setups,
    ungated,
)

def build(relations: dict) -> TPDatabase:
    db = TPDatabase()
    for name, rows in relations.items():
        db.create_relation(name, gen.ATTRIBUTES, rows)
    for name in relations:
        db.stats_of(name)
    return db


def run_query(db: TPDatabase, text: str, optimize: str = "safe"):
    """Returns ``((start, end), result)``."""
    clear_valuation_cache()
    start = time.perf_counter()
    result = db.query(text, optimize=optimize)
    return (start, time.perf_counter()), result


def replay(ctx: Context, db: TPDatabase, seconds: float, traced_cycle=None):
    """Whole cycles of the query list while another one fits into
    ``seconds``, going by the last one (at least one), so every run
    times the same mix of templates.

    The traced run passes ``traced_cycle``: it is handed each cycle's
    queries right after they were timed, so traced and untraced cycles
    alternate and a drift in machine speed hits both alike.

    Returns ``(per-read (start, end), rows out, failed)``."""
    queries = ctx.inputs["queries"]
    cycles = [
        queries[i: i + gen.PUSHDOWN_CYCLE] for i in range(0, len(queries), gen.PUSHDOWN_CYCLE)
    ]
    for query in cycles[0]:
        run_query(db, query["q"])
    gc.collect()
    spans, out_rows, failed = [], 0, 0
    cycle = 1
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not spans or time.perf_counter() + last < deadline:
        began = time.perf_counter()
        if ctx.inject == "crash":
            raise RuntimeError("injected failure in the measured phase")
        for query in cycles[cycle % len(cycles)]:
            try:
                span, result = run_query(db, query["q"])
                out_rows += len(result)
            except Exception:
                now = time.perf_counter()
                span = (now, now)
                failed += 1
            spans.append(span)
        if traced_cycle is not None:
            traced_cycle(cycles[cycle % len(cycles)])
        cycle += 1
        last = time.perf_counter() - began
    return spans, out_rows, failed


def gate(ctx: Context, db: TPDatabase, half: bool = False) -> dict[bool, list[tuple[float, float]]]:
    """The first query of each template and both unselective forms give
    identical canonical rows with the optimizer off.

    ``half``: an untraced run checks every second of these eight, the
    even or the odd ones by its seed — three templates and one
    unselective form.  With the optimizer off each costs a second or
    more, and the driver's 92 runs share 3420 s; any two seeds of
    different parity check all eight, and every traced run does.

    Returns the ``(off seconds, safe seconds)`` pairs per class
    (selective True / False) — the traced run reports their ratio."""
    sample, seen = [], set()
    for query in ctx.inputs["queries"]:
        shape = query["q"].split("'")[0]
        if shape not in seen:
            seen.add(shape)
            sample.append(query)
    if half:
        sample = sample[ctx.seed % 2:: 2]
    pairs: dict[bool, list[tuple[float, float]]] = {True: [], False: []}
    for i, query in enumerate(sample):
        off, reference = run_query(db, query["q"], optimize="off")
        safe, result = run_query(db, query["q"])
        expected = canonical_rows(reference)
        if ctx.inject == "oracle" and i == 0:
            expected = break_oracle(expected)
        require_equal(f"pushdown_mix {query['q']!r}", canonical_rows(result), expected)
        pairs[query["selective"]].append((off[1] - off[0], safe[1] - safe[0]))
    return pairs


def untraced(ctx: Context) -> Outcome:
    db, setups = timed_setups(ctx, build)
    spans, out_rows, failed = replay(ctx, db, ctx.seconds)
    rss = peak_rss_mb()
    gate(ctx, db, half=True)
    read_s = ctx.seconds_of(spans)
    metrics = end_to_end(
        setup_times=ctx.seconds_of(setups),
        ops_per_s=ratio(len(read_s), sum(read_s)),
        read_ms_iqm=ms(iqm(read_s)),
        out_rows_per_s=ratio(out_rows, sum(read_s)),
        rss_mb=rss,
    )
    return Outcome(len(read_s), failed, metrics, {"reads": len(read_s)})


def traced(ctx: Context) -> Outcome:
    from .stages import read_metrics, traced_read
    from .spans import Recorder

    db = build(ctx.inputs["relations"])
    rec = Recorder()
    candidates = []

    def traced_cycle(queries: list) -> None:
        for query in queries:
            clear_valuation_cache()
            _result, choice = traced_read(rec, db, query["q"], optimize="safe")
            candidates.append(choice.n_candidates)

    spans, _rows, failed = replay(ctx, db, ctx.seconds, traced_cycle)
    read_s = ctx.seconds_of(spans)
    metrics = read_metrics(rec, read_s)
    metrics["query.candidates_p50"] = (median(candidates), "count")
    metrics.update(ungated(read_s=read_s, attempted=len(read_s), failed=failed))

    # Statistics as the first optimized query after a load pays for them.
    cold = TPDatabase()
    stats_s = []
    for name, rows in ctx.inputs["relations"].items():
        cold.create_relation(name, gen.ATTRIBUTES, rows)
        start = time.perf_counter()
        cold.stats_of(name)
        stats_s.append(time.perf_counter() - start)
    metrics["query.stats_ms"] = (ms(median(stats_s)), "ms")

    pairs = gate(ctx, db)
    for selective, name in ((True, "selective"), (False, "unselective")):
        metrics["query.safe_speedup_" + name] = (
            ratio(sum(off for off, _ in pairs[selective]),
                  sum(safe for _, safe in pairs[selective])),
            "ratio",
        )
    if ctx.trace_out:
        rec.dump(ctx.trace_out)
    return Outcome(len(read_s), failed, metrics, {"reads": len(read_s)})
