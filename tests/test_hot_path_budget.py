"""Deterministic budgets for the read paths (DESIGN.md §6.3, §13.2).

Counts the calls (Python functions and C functions alike, as cProfile
would) made while ``TPDatabase.query`` answers ``a | b``, ``a & b`` and
``a - b`` over a fixed seeded 2 × 2 000-tuple input, per output row.
Counts repeat exactly from run to run, so the ceiling cannot flake — and
it stops a later change from quietly re-adding a per-row copy or a
per-node Python-level hop to the pipeline

    sweep, build and valuate each tuple once → batch what is left → fill its p.

Next to it sits the allocation budget: collector runs and GC-tracked
objects retained per output row, counted the same deterministic way —
and what a result leaves behind once it is dropped (a process-wide
valuation memo once kept two tracked objects per row of it alive).

The same instrument pins four more shapes: a set operation's calls per
row must not grow with its batch (a memo bound once made the valuation
rescan its whole bucket for every row past the cap), a served
result-cache hit must cost the same number of calls whatever the size of
the result (it once re-walked and re-encoded every row), a ten-row
transaction under two eager views must cost the same whatever the size
of the fact groups it touches (it once walked each of them a dozen
times), and a keyed read of a view must cost its answer whatever the
size of the groups it does not select (it once copied the whole view
and its event map).  A served keyed read stays a hit across a commit to
another key (every commit once evicted it), and the entry it hits holds
its own events only, not its operands' merged map.  An n-ary ∪/∩ node
costs no more than the binary chain it stands for (a sweep of its own
once made 3–10× the chain's calls).  Loading a base relation costs a
handful of calls and four tracked objects per row (it once made 25 calls
per row, as many as sweeping it), and neither a load nor a read leaves
an ``Interval`` object behind: a tuple holds its two end points itself.
A chained read such as ``(a | b) | c`` builds no lineage node and runs
no batch, and its rows retain no more than they did while it built
both (its calls per row were 2–3× today's).
"""

from __future__ import annotations

import dataclasses
import gc
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from repro import Interval, TPRelation
from repro.core.setops import tp_except, tp_union
from repro.db import TPDatabase
from repro.lineage.formula import referenced_variables
from repro.prob.valuation import clear_valuation_cache, valuation_cache_stats
from repro.query.parser import parse_query
from repro.serve import QueryService
from repro.serve.protocol import encode_line

#: Calls per output row.  Measured when set: 3.10, since a row valued in
#: the sweep builds no lineage node until its ``lineage`` is read (no
#: ``Or``/``And``/``Not`` construction, no weak-reference callback when
#: the result is dropped); ~12 % headroom.  7.33 while every such row
#: interned its node, 9.03 while a batch valuated every row, 10.27 while
#: a tuple held an ``Interval`` of its own, 12.17 while the sweep still
#: emitted rows for a second pass to turn into tuples, 27.7 before
#: tuples were built once and interning lost its Python-level weakref
#: bookkeeping.
CALLS_PER_ROW_CEILING = 3.5

#: Collector runs per 1 000 output rows under ``ALLOCATION_THRESHOLDS``,
#: and GC-tracked objects a result keeps alive per output row.  Measured
#: when set: 1.41 and 1.00 (4.22 and 3.00 while every row valued in the
#: sweep interned its node; 4.49 while a batch built a list of every
#: row's lineage and a dict of the distinct ones; 5.45 and 3.68 while a
#: tuple kept its interval in a separate ``Interval`` object; 7.65 and
#: 4.57 with an intermediate row, an ``Interval`` per window and a
#: ``var_set`` per lineage node).  What is left per row is the
#: ``TPTuple`` alone: a window over two base variables keeps its two
#: ``Var`` operands, which the input relations hold anyway, until
#: someone reads its lineage (DESIGN.md §6.3).
COLLECTIONS_PER_1000_ROWS_CEILING = 1.6
RETAINED_PER_ROW_CEILING = 1.12
ALLOCATION_THRESHOLDS = (700, 10, 10)  # CPython's defaults, pinned

#: GC-tracked objects per output row still alive once the results are
#: dropped.  Measured when set: 0.001 (2.00 while a process-wide
#: valuation memo kept every result's root lineage alive).
LEFT_BEHIND_PER_ROW_CEILING = 0.01

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
    """Run ``run()`` under a profile hook; calls by (kind, name).

    Garbage left by earlier tests is collected first: a collection
    inside ``run()`` would otherwise count the finalizers of whatever
    it frees (a suspended generator's ``close``, say)."""
    gc.collect()
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
    db = TPDatabase()
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
    # The sweep's output row is the result tuple: no row format between.
    assert calls[("py", "tuples_from_rows")] == 0
    # No result tuple may be built and then copied.
    assert calls[("py", "TPTuple.with_probability")] == 0
    assert calls[("py", dataclasses.replace.__qualname__)] == 0
    # Every window over two base relations is valued where it is built:
    # nothing is left for the batch's 1OF walk …
    assert calls[("py", "_prob")] == 0
    # … and none of them builds its lineage node: nobody has read it.
    assert calls[("py", "Or.__new__")] == calls[("py", "And.__new__")] == 0

    repeat_calls, _ = count_calls(run)
    # Warm repeats only save work (cached sort order) …
    assert sum(repeat_calls.values()) <= total
    # … and repeat exactly: the count is a function of the input alone.
    assert count_calls(run)[0] == repeat_calls


def test_allocations_per_output_row_stay_under_the_ceiling():
    """Half of a large scan used to be the cyclic collector: what a read
    allocates is budgeted like what it calls.  Both readings are deltas
    of the interpreter's own counters and repeat exactly."""
    db = TPDatabase()
    db.create_relation("a", ("k",), seeded_rows(1))
    db.create_relation("b", ("k",), seeded_rows(2))
    clear_valuation_cache()
    collections = 0

    def on_collection(phase: str, info: dict) -> None:
        nonlocal collections
        collections += phase == "start"

    thresholds = gc.get_threshold()
    gc.collect()
    gc.set_threshold(*ALLOCATION_THRESHOLDS)
    gc.callbacks.append(on_collection)
    try:
        tracked = len(gc.get_objects())
        results = [db.query(text) for text in READS]
        gc.callbacks.remove(on_collection)
        gc.collect()
        retained = len(gc.get_objects()) - tracked
    finally:
        if on_collection in gc.callbacks:
            gc.callbacks.remove(on_collection)
        gc.set_threshold(*thresholds)
    rows = sum(len(result) for result in results)
    assert rows == 11368
    assert 1000 * collections / rows <= COLLECTIONS_PER_1000_ROWS_CEILING, (
        f"{collections} collector runs for {rows} output rows"
    )
    assert retained / rows <= RETAINED_PER_ROW_CEILING, (
        f"{retained / rows:.2f} tracked objects retained per output row"
    )


def test_dropped_results_leave_no_tracked_objects_behind():
    """Once the three results are dropped, what they built goes with
    them: no cache outside a result may hold its lineage.  What a read
    may leave — each relation's sort order — is a few objects in all."""
    db = TPDatabase()
    db.create_relation("a", ("k",), seeded_rows(1))
    db.create_relation("b", ("k",), seeded_rows(2))
    gc.collect()
    tracked = len(gc.get_objects())
    rows = sum(len(db.query(text)) for text in READS)
    gc.collect()
    left = len(gc.get_objects()) - tracked
    assert rows == 11368
    assert left / rows <= LEFT_BEHIND_PER_ROW_CEILING, (
        f"{left / rows:.3f} tracked objects per output row left behind"
    )


def test_no_interval_object_is_alive_after_loading_and_reading():
    """The kernels read ``t.start`` / ``t.end`` and build no ``Interval``:
    one is built only when someone asks for ``t.interval``."""
    db = TPDatabase()
    db.create_relation("a", ("k",), seeded_rows(1))
    db.create_relation("b", ("k",), seeded_rows(2))
    results = [db.query(text) for text in READS]
    gc.collect()
    alive = sum(type(obj) is Interval for obj in gc.get_objects())
    assert sum(map(len, results)) == 11368
    assert alive == 0, f"{alive} Interval objects alive"


# ----------------------------------------------------------------------
# chains: a deferred row is an operand, so no node and no batch
# ----------------------------------------------------------------------
#: Per chained read over the seeded 3 × 2 000-tuple input: its rows,
#: calls per output row, and GC-tracked objects a result keeps alive per
#: output row, unread and once every row's lineage has been read.
#: Measured when set, with ~12 % headroom on calls and unread objects:
#: calls 5.72 / 6.95 / 13.82 / 6.19 / 5.72, unread 1.20 / 1.31 / 1.93 /
#: 1.22 / 1.24, read 2.94 / 4.73 / 4.00 / 4.10 / 3.74 — the read column
#: is exactly what these results held while the interior sweep interned
#: every two-variable node and the root valued its compound windows in
#: a batch (12.40 / 21.14 / 42.03 / 14.94 / 14.96 calls, 2.09 / 3.92 /
#: 4.00 / 2.99 / 3.20 objects unread), and the ceiling: a read row drops
#: the interior row it held.  The two chains that repeat ``b`` are walked
#: by Shannon expansion in the sweep (DESIGN.md §6.3), with ~12 % headroom
#: on all three measured columns: calls 23.31 / 25.11, unread 1.67 /
#: 1.59, read 5.91 / 6.57 — against 137.5 / 129.3 calls and 6.80 / 7.24
#: objects unread while every such window was interned, cofactored
#: through ``restrict`` and batched.
CHAIN_BUDGETS = {
    "(a|b)|c": (8147, 6.4, 1.35, 2.95),
    "(a-b)-c": (5151, 7.8, 1.47, 4.74),
    "(a&b)&c": (1732, 15.5, 2.16, 4.01),
    "(a|b)-c": (7216, 6.9, 1.37, 4.10),
    "a|(b-c)": (6731, 6.4, 1.39, 3.75),
    "(a|b)&(b|c)": (6306, 26.1, 1.87, 6.62),
    "(a|b)-(b|c)": (7216, 28.1, 1.78, 7.36),
}


def chain_db() -> TPDatabase:
    db = TPDatabase()
    for name, seed in zip("abc", (1, 2, 3)):
        db.create_relation(name, ("k",), seeded_rows(seed))
    return db


@pytest.mark.parametrize("text", list(CHAIN_BUDGETS))
def test_a_chain_builds_no_node_and_runs_no_batch(text):
    """The interior node defers its two-variable windows, and the root
    reads those rows as operands and values its windows over them in the
    loop (DESIGN.md §6.3) — by Shannon expansion when they share ``b`` —
    so nothing is interned, nothing cofactored through ``restrict`` and
    nothing batched."""
    rows, ceiling, _, _ = CHAIN_BUDGETS[text]
    db = chain_db()
    clear_valuation_cache()
    calls, result = count_calls(lambda: db.query(text))
    assert len(result) == rows
    total = sum(calls.values())
    assert total / rows <= ceiling, (
        f"{total / rows:.2f} calls per output row; the biggest callers: "
        f"{calls.most_common(8)}"
    )
    assert calls[("py", "Or.__new__")] == calls[("py", "And.__new__")] == 0
    assert calls[("py", "probability_batch")] == calls[("py", "_prob")] == 0
    assert calls[("py", "restrict")] == 0


@pytest.mark.parametrize("text", list(CHAIN_BUDGETS))
def test_a_chain_result_retains_its_rows_and_then_its_nodes(text):
    """Unread, a chain's rows hold their operands — the interior rows
    among them — and no node; read, each holds its node and lets go of
    the interior row it held."""
    rows, _, unread_ceiling, read_ceiling = CHAIN_BUDGETS[text]
    db = chain_db()
    db.query(text)  # warm: sort orders
    gc.collect()
    tracked = len(gc.get_objects())
    result = db.query(text)
    gc.collect()
    unread = (len(gc.get_objects()) - tracked) / rows
    for t in result:
        t.lineage
    gc.collect()
    read = (len(gc.get_objects()) - tracked) / rows
    assert len(result) == rows
    assert unread <= unread_ceiling, f"{unread:.2f} tracked objects per unread row"
    assert read <= read_ceiling, f"{read:.2f} tracked objects per read row"


# ----------------------------------------------------------------------
# loading: a base tuple costs a handful of calls, not a sweep's worth
# ----------------------------------------------------------------------
#: Calls per row ``TPRelation.from_rows`` makes.  Measured when set: 9.0
#: — a length and an atomicity check, the interned variable (three), two
#: bare allocations, the append, and the duplicate check's sort key.
#: 25.0 while each row went through the dataclass constructors and
#: validation walked every tuple a second time.  7.0 since the tuple is
#: the one bare allocation and the sort key is a C-level ``attrgetter``.
LOAD_CALLS_PER_ROW_CEILING = 10.0

#: GC-tracked objects a loaded relation holds per row: ``TPTuple``, the
#: ``Var`` and its intern table's weak reference (4.0 while each tuple
#: kept an ``Interval`` object too).  The validation sort is thrown away,
#: not kept (DESIGN.md §6.3).
LOAD_TRACKED_PER_ROW_CEILING = 3.0


def test_calls_per_loaded_row_stay_under_the_ceiling():
    rows = seeded_rows(1, n=4000)
    calls, relation = count_calls(lambda: TPRelation.from_rows("a", ("k",), rows))
    assert len(relation) == 4000
    total = sum(calls.values())
    assert total / len(relation) <= LOAD_CALLS_PER_ROW_CEILING, (
        f"{total / len(relation):.2f} calls per loaded row; the biggest callers: "
        f"{calls.most_common(8)}"
    )
    # Built through the slot writers, not the dataclass constructors.
    assert calls[("py", "Interval.__post_init__")] == 0
    assert calls[("py", "base_tuple")] == 0
    # Deterministic once the first load's interned variables are gone.
    del relation
    assert count_calls(lambda: TPRelation.from_rows("a", ("k",), rows))[0] == calls


def test_tracked_objects_per_loaded_row_stay_under_the_ceiling():
    """What a relation of ``n`` more rows holds, per row: the slope
    between two loads, so the relation's own few objects drop out."""

    def tracked(n: int) -> int:
        rows = seeded_rows(1, n=n)
        gc.collect()
        before = len(gc.get_objects())
        relation = TPRelation.from_rows("a", ("k",), rows)
        gc.collect()
        held = len(gc.get_objects()) - before
        assert len(relation) == n
        return held

    per_row = (tracked(4000) - tracked(2000)) / 2000
    assert per_row <= LOAD_TRACKED_PER_ROW_CEILING, (
        f"{per_row:.2f} tracked objects per loaded row"
    )


# ----------------------------------------------------------------------
# n-ary ∪/∩: the optimizer's n-ary node costs what the binary chain costs
# ----------------------------------------------------------------------
#: Calls ``optimize='safe'`` spends on a three-way chain besides running
#: it: statistics lookup, candidate enumeration, scoring.  Measured when
#: set: 425 for ∪ and 563 for ∩ (and flat in the input size).  A
#: dedicated n-ary sweep once spent 3× the chain's calls per row on ∪
#: and 10× on ∩ here.
PLANNING_CALLS_CEILING = 1000


@pytest.mark.parametrize("op", ["|", "&"])
def test_an_nary_node_costs_no_more_than_the_binary_chain(op):
    """``a op (b op c)`` over 1 000 / 2 000 / 3 000 tuples plans an n-ary
    node at ``safe`` (folding left to right is the cheaper association);
    it may cost no more than the left-deep chain ``(a op b) op c`` at
    ``off`` — the same sweeps — plus planning."""
    db = TPDatabase()
    for name, seed, n in (("a", 1, 1000), ("b", 2, 2000), ("c", 3, 3000)):
        db.create_relation(name, ("k",), seeded_rows(seed, n=n))
    nested, chain = f"a {op} (b {op} c)", f"(a {op} b) {op} c"
    assert "×3]" in db.explain(nested, optimize="safe")
    assert db.query(nested, optimize="safe").equivalent_to(db.query(chain))

    def calls(text: str, level: str) -> tuple[int, int]:
        db.query(text, optimize=level)  # warm: sort orders, statistics
        clear_valuation_cache()
        # Only the row count leaves the run: a result kept alive would
        # turn the next run's lineage construction into intern hits.
        counted, rows = count_calls(lambda: len(db.query(text, optimize=level)))
        return sum(counted.values()), rows

    (nary, rows), (binary, chain_rows) = calls(nested, "safe"), calls(chain, "off")
    assert rows == chain_rows > 0
    assert nary <= binary + PLANNING_CALLS_CEILING, (
        f"{nary / rows:.2f} calls per output row for the n-ary node, "
        f"{binary / rows:.2f} for the binary chain"
    )


# ----------------------------------------------------------------------
# writes: a transaction costs its rows, not the fact groups it touches
# ----------------------------------------------------------------------
#: Calls per ten-row transaction through ``TPDatabase.apply`` with the
#: views ``r1 - r2`` and ``r1 JOIN r2 ON k`` eager.  Measured when set:
#: 3 078 at 250 tuples per fact group, 3 110 at 4 000 (16 719 and
#: 134 054 while the store and the view nodes still copied a group's
#: start column out to bisect it).
CALLS_PER_TRANSACTION_CEILING = 4000
TRANSACTIONS = 40


def _calls_per_transaction(per_group: int, facts: int = 8) -> tuple[float, Counter]:
    """``TRANSACTIONS`` seeded ten-row transactions (70 % inserts at a
    fact's frontier, 30 % uniform deletes), alternating between two
    stores of ``facts`` × ``per_group`` tuples."""
    rng = random.Random(5)
    db = TPDatabase()
    live: dict[str, list] = {}
    frontier: dict[tuple, int] = {}
    for name in ("r1", "r2"):
        rows = []
        for k in range(facts):
            t = rng.randrange(0, 8)
            for _ in range(per_group):
                t += rng.randint(0, 7)
                te = t + rng.randint(1, 9)
                rows.append((f"k{k:02d}", t, te, rng.randrange(50, 951) / 1000))
                t = te
            frontier[name, k] = t
        db.create_relation(name, ("k",), rows)
        live[name] = [row[:3] for row in rows]
    db.create_view("v1", "r1 - r2", policy="eager")
    db.create_view("v2", "r1 JOIN r2 ON k", policy="eager")
    script = []
    for i in range(TRANSACTIONS):
        name = ("r1", "r2")[i % 2]
        inserts, deletes = [], []
        for _ in range(10):
            if rng.random() < 0.7:
                k = rng.randrange(facts)
                t = frontier[name, k] + rng.randint(0, 7)
                frontier[name, k] = te = t + rng.randint(1, 9)
                inserts.append((f"k{k:02d}", t, te, 0.5))
            else:
                pool = live[name]
                j = rng.randrange(len(pool))
                pool[j], pool[-1] = pool[-1], pool[j]
                deletes.append(pool.pop())
        live[name].extend(row[:3] for row in inserts)
        script.append((name, inserts, deletes))

    def run() -> None:
        for name, inserts, deletes in script:
            db.apply(name, inserts=inserts, deletes=deletes)

    calls, _ = count_calls(run)
    for name, text in (("v1", "r1 - r2"), ("v2", "r1 JOIN r2 ON k")):
        assert db.relation(name).equivalent_to(db.query(text, use_views=False))
    return sum(calls.values()) / TRANSACTIONS, calls


def test_calls_per_transaction_do_not_grow_with_the_fact_group():
    small, small_calls = _calls_per_transaction(250)
    large, large_calls = _calls_per_transaction(4000)
    assert abs(large - small) / small <= 0.10, (
        f"{small:.0f} calls per transaction at 250 tuples per fact group, "
        f"{large:.0f} at 4 000; the biggest callers: {large_calls.most_common(8)}"
    )
    assert max(small, large) <= CALLS_PER_TRANSACTION_CEILING
    # No start column is walked: a run is bisected where it lies.
    for calls in (small_calls, large_calls):
        assert calls[("py", "TPTuple.start")] < 100 * TRANSACTIONS


# ----------------------------------------------------------------------
# keyed reads: v[k='k00'] costs k00's groups, not the view
# ----------------------------------------------------------------------
KEYED_READS = ("v1[k='k00']", "v2[k='k00']")
READ_ROUNDS = 10


def _keyed_rows(seed: int, per_group: int, facts: int = 8) -> list[tuple]:
    """``(key, ts, te, p)`` rows: the same 250 tuples under ``k00``
    whatever ``per_group`` tuples each of the other keys holds."""
    rows = []
    for k in range(facts):
        rng = random.Random(100 * seed + k)
        t = rng.randrange(0, 8)
        for _ in range(250 if k == 0 else per_group):
            t += rng.randint(0, 7)
            te = t + rng.randint(1, 9)
            rows.append((f"k{k:02d}", t, te, rng.randrange(50, 951) / 1000))
            t = te
    return rows


def _per_keyed_read(per_group: int) -> tuple[float, float, int]:
    """Calls and peak bytes allocated per keyed read (and the rows read)
    of the eager views ``r1 - r2`` and ``r1 JOIN r2 ON k``, each right
    after a commit changed them.  The selected key ``k00`` holds the
    same 250 tuples per store whatever ``per_group`` the other seven
    keys hold, and the commits touch only ``k01``."""
    db = TPDatabase()
    for name, seed in (("r1", 1), ("r2", 2)):
        db.create_relation(name, ("k",), _keyed_rows(seed, per_group))
    db.create_view("v1", "r1 - r2", policy="eager")
    db.create_view("v2", "r1 JOIN r2 ON k", policy="eager")
    calls = allocated = rows_read = 0
    for i in range(2 * READ_ROUNDS):
        ts = 10**7 + 10 * i  # overlapping on both sides: both views change
        db.apply("r1", inserts=[("k01", ts, ts + 5, 0.5)])
        db.apply("r2", inserts=[("k01", ts + 2, ts + 7, 0.5)])
        if i % 2 == 0:
            for text in KEYED_READS:
                counted, result = count_calls(lambda: db.query(text))
                calls += sum(counted.values())
                rows_read += len(result)
            continue
        # Allocation is read with the collector off, so that what it
        # frees of earlier garbage cannot move the reading.
        gc.disable()
        tracemalloc.start()
        try:
            for text in KEYED_READS:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                db.query(text)
                allocated += tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            gc.enable()
    reads = READ_ROUNDS * len(KEYED_READS)
    return calls / reads, allocated / reads, rows_read


def test_a_keyed_read_costs_its_answer_not_the_view():
    """Both readings agree within 10 % between 250 and 4 000 tuples in
    every unselected group.  The call count alone would not show a
    whole-view copy — that runs inside single C calls (``tuple(...)``,
    ``dict(...)``) — so the bytes a read allocates are pinned beside it:
    they once grew ×16 between the two sizes."""
    small_calls, small_bytes, small_rows = _per_keyed_read(250)
    large_calls, large_bytes, large_rows = _per_keyed_read(4000)
    assert small_rows == large_rows > 0  # the same answer at both sizes
    assert abs(large_calls - small_calls) / small_calls <= 0.10, (
        f"{small_calls:.0f} calls per keyed read at 250 tuples per group, "
        f"{large_calls:.0f} at 4 000"
    )
    assert abs(large_bytes - small_bytes) / small_bytes <= 0.10, (
        f"{small_bytes:.0f} bytes allocated per keyed read at 250 tuples "
        f"per group, {large_bytes:.0f} at 4 000"
    )


# ----------------------------------------------------------------------
# batch valuation: cost per row is independent of batch size
# ----------------------------------------------------------------------
def _pair(n: int) -> tuple[TPRelation, TPRelation]:
    """Two seeded relations of ``n`` tuples, 25 per key, already sorted."""
    pair = tuple(
        TPRelation.from_rows(name, ("k",), seeded_rows(seed, n=n, keys=n // 25))
        for name, seed in (("a", 1), ("b", 2))
    )
    for relation in pair:
        relation.sorted_tuples()
    return pair


@pytest.mark.parametrize("operation", [tp_union, tp_except])
def test_calls_per_row_do_not_grow_with_the_batch(operation):
    def per_row(n: int) -> float:
        r, s = _pair(n)
        calls, out = count_calls(lambda: operation(r, s))
        return sum(calls.values()) / len(out)

    small, large = per_row(2000), per_row(8000)
    assert abs(large - small) / small <= 0.05, (
        f"{small:.2f} calls per output row at n, {large:.2f} at 4n"
    )


def test_batches_over_one_pair_share_no_state_and_agree():
    """Repeated operations over one operand pair each value their rows
    again, all in the sweep, and give the same floats."""
    r, s = _pair(2000)
    results = []
    for operation in (tp_union, tp_except, tp_union, tp_except):
        clear_valuation_cache()
        out = operation(r, s)
        assert valuation_cache_stats() == {"hits": 0, "misses": 0, "swept": len(out)}
        results.append([t.p for t in out])
        del out
    assert results[0] == results[2] and results[1] == results[3]


# ----------------------------------------------------------------------
# serving: a cache hit costs the same whatever the result's size
# ----------------------------------------------------------------------
#: Calls for one hit through ``execute`` + ``encode_line``: parse,
#: canonical key, LRU probe, envelope encode.  Measured 153 when set.
HIT_CALLS_CEILING = 175


def _hit_calls(n: int, keys: int) -> tuple[int, int]:
    db = TPDatabase()
    db.create_relation("a", ("k",), seeded_rows(1, n=n, keys=keys))
    db.create_relation("b", ("k",), seeded_rows(2, n=n, keys=keys))
    service = QueryService(db)
    session = service.open_session()

    def reply() -> bytes:
        response = service.execute(session, "a | b", optimize="safe")
        return encode_line({
            "ok": True,
            "cached": response.cached,
            "epochs": response.epoch_key,
            "relation": response.result.fragment(),
        })

    miss = reply()
    calls, hit = count_calls(reply)
    assert hit == miss.replace(b'"cached":false', b'"cached":true', 1)
    return sum(calls.values()), hit.count(b"],[[") + 1  # calls, rows


def test_a_cache_hit_costs_the_same_for_ten_rows_and_a_thousand():
    small_calls, small_rows = _hit_calls(4, 2)
    large_calls, large_rows = _hit_calls(400, 8)
    assert small_rows <= 10 and large_rows >= 1000
    assert small_calls == large_calls <= HIT_CALLS_CEILING


def test_a_served_query_after_a_commit_does_not_rescan_for_statistics(monkeypatch):
    import repro.query.stats
    import repro.store.stats

    db = TPDatabase()
    db.create_relation("a", ("k",), seeded_rows(1, n=400, keys=8))
    db.create_relation("b", ("k",), seeded_rows(2, n=400, keys=8))
    service = QueryService(db)
    session = service.open_session()
    service.commit(session, "a", inserts=[("k000", 10_000, 10_005, 0.5)])
    service.execute(session, "(a | b)[k='k001']", optimize="safe")  # warm: b is summarized

    scans = []
    original = repro.query.stats.stats_from_tuples

    def counting(*args, **kwargs):
        scans.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.query.stats, "stats_from_tuples", counting)
    monkeypatch.setattr(repro.store.stats, "stats_from_tuples", counting)
    service.commit(session, "a", inserts=[("k000", 10_010, 10_015, 0.5)])
    # A text the plan cache has not seen, so the optimizer asks for statistics.
    response = service.execute(session, "(a & b)[k='k002']", optimize="safe")
    assert not response.cached and len(response.relation) > 0
    assert scans == [], f"statistics were rebuilt by a full scan of {scans}"
    # The session plans with the statistics the database itself maintains.
    assert service.session(session).stats["a"] == db.stats_of("a")
    assert db.stats_of("a").n_tuples == 402


# ----------------------------------------------------------------------
# keyed result parts: a commit to other keys keeps a selected entry hot
# ----------------------------------------------------------------------
def test_a_keyed_hit_survives_a_commit_to_another_key():
    """After a commit to ``k000`` a cached ``(a | b)[k='k001']`` is still
    a hit: no plan runs, and it costs no more than the ceiling set for a
    hit on ``a | b``.  The query is handed over parsed — parsing this
    longer text costs 132 calls of its own, hit or miss alike."""
    db = TPDatabase()
    db.create_relation("a", ("k",), seeded_rows(1, n=400, keys=8))
    db.create_relation("b", ("k",), seeded_rows(2, n=400, keys=8))
    service = QueryService(db)
    session = service.open_session()
    service.commit(session, "a", inserts=[("k000", 10_000, 10_005, 0.5)])
    query = parse_query("(a | b)[k='k001']")

    def reply() -> tuple:
        response = service.execute(session, query, optimize="safe")
        return response, encode_line({
            "ok": True,
            "cached": response.cached,
            "epochs": response.epoch_key,
            "relation": response.result.fragment(),
        })

    miss, miss_line = reply()
    service.commit(session, "a", inserts=[("k000", 10_010, 10_015, 0.5)])
    calls, (hit, hit_line) = count_calls(reply)
    assert hit.cached and hit.result is miss.result
    assert hit.epoch_key != miss.epoch_key  # the reader's own, newer pin
    assert calls[("py", "execute_plan")] == 0
    assert sum(calls.values()) <= HIT_CALLS_CEILING, calls.most_common(8)
    assert service.stats()["results"]["cross_epoch_hits"] == 1


def _cached_entry(per_group: int) -> TPRelation:
    """The relation a served ``(a | b)[k='k00']`` leaves in the result
    cache, right after a commit made ``a`` a store."""
    db = TPDatabase()
    for name, seed in (("a", 1), ("b", 2)):
        db.create_relation(name, ("k",), _keyed_rows(seed, per_group))
    service = QueryService(db)
    session = service.open_session()
    service.commit(session, "a", inserts=[("k01", 10**7, 10**7 + 5, 0.5)])
    service.execute(session, "(a | b)[k='k00']", optimize="safe")
    (entry,) = service.results.values()
    return entry.relation


def test_a_cached_entry_holds_only_the_events_it_references():
    """An entry that outlives its epoch must not pin the operands' whole
    merged event map: from 250 to 4 000 tuples in every unselected
    group, it holds exactly its own result's distinct variables."""
    small, large = _cached_entry(250), _cached_entry(4000)
    for relation in (small, large):
        assert len(relation.events) == len(
            referenced_variables(t.lineage for t in relation)
        )
    assert len(small) == len(large) > 0
    assert len(small.events) == len(large.events)
