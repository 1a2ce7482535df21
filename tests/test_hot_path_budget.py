"""A deterministic budget for the serial read path (DESIGN.md §6.3).

Counts the calls (Python functions and C functions alike, as cProfile
would) made while ``TPDatabase.query`` answers ``a | b``, ``a & b`` and
``a - b`` over a fixed seeded 2 × 2 000-tuple input, per output row.
Counts repeat exactly from run to run, so the ceiling cannot flake — and
it stops a later change from quietly re-adding a per-row copy or a
per-node Python-level hop to the pipeline

    sweep → batch-valuate distinct lineages → build each tuple once.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from collections import Counter

from repro.db import TPDatabase
from repro.prob.valuation import clear_valuation_cache

#: Calls per output row.  Measured when this budget was set: 12.2
#: (it was 27.7 before tuples were built once and interning lost its
#: Python-level weakref bookkeeping); the ceiling leaves ~15 % headroom.
CALLS_PER_ROW_CEILING = 14.0

READS = ("a | b", "a & b", "a - b")


def seeded_rows(seed: int, n: int = 2000, keys: int = 80) -> list[tuple]:
    """``(key, ts, te, p)`` rows: per key a left-to-right chain of
    disjoint intervals (duplicate-free by construction), shuffled."""
    rng = random.Random(seed)
    rows = []
    for k in range(keys):
        t = rng.randrange(0, 8)
        for _ in range(n // keys):
            t += rng.randint(0, 6)
            te = t + rng.randint(1, 9)
            rows.append((f"k{k:03d}", t, te, rng.randrange(50, 951) / 1000))
            t = te
    rng.shuffle(rows)
    return rows


def count_calls(run) -> tuple[Counter, object]:
    """Run ``run()`` under a profile hook; calls by (kind, name)."""
    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[("py", frame.f_code.co_qualname)] += 1
        elif event == "c_call":
            calls[("c", getattr(arg, "__qualname__", repr(arg)))] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return calls, result


def test_calls_per_output_row_stay_under_the_ceiling():
    # Pinned to the serial tuple path whatever the ambient CI leg is.
    db = TPDatabase(parallel=1, columnar=False)
    db.create_relation("a", ("k",), seeded_rows(1))
    db.create_relation("b", ("k",), seeded_rows(2))
    clear_valuation_cache()

    def run() -> int:
        return sum(len(db.query(text)) for text in READS)

    calls, rows = count_calls(run)
    assert rows == 11368  # the input is fixed: so is the output
    total = sum(calls.values())
    assert total / rows <= CALLS_PER_ROW_CEILING, (
        f"{total / rows:.2f} calls per output row; the biggest callers: "
        f"{calls.most_common(8)}"
    )
    # No result tuple may be built and then copied.  (The one generic
    # field-introspecting copy per query is the ``parallel=1`` override
    # of the worker configuration, not a tuple.)
    assert calls[("py", "TPTuple.with_probability")] == 0
    assert calls[("py", dataclasses.replace.__qualname__)] <= len(READS)

    repeat_calls, _ = count_calls(run)
    # Warm repeats only save work (cached sort order, memo hits) …
    assert sum(repeat_calls.values()) <= total
    # … and repeat exactly: the count is a function of the input alone.
    assert count_calls(run)[0] == repeat_calls
