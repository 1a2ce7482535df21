"""A row valued in the sweep builds its lineage node on first read.

The fused kernel leaves the node of every window it values inline —
``x∨y``, ``x∧y``, ``x∧¬y`` over two distinct base variables — unbuilt:
the row keeps the two variables and the operator, and the first read of
``t.lineage`` interns the node and stores it (DESIGN.md §6.3).  Nothing
of that may show.  Every materialized ∪/∩/− row must agree with its
``fused=False`` twin, starting from an unread row each time, in ``==``
and ``hash``, set membership, ``repr`` and ``str``, a ``pickle`` and a
``copy.deepcopy`` round trip, lineage identity on the first and second
read, and the valuation counters, which count the twin's rows as
batched and the fused rows as valued in the sweep unless the sweep left
them pending — over base pairs, and over derived operands such as
``(a | b) - c``, where one operand pair recurs in several windows.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings

from repro import TPRelation
from repro.core.setops import _fused_sweep, tp_except, tp_intersect, tp_union
from repro.core.tuple import TPTuple
from repro.db import TPDatabase
from repro.lineage.formula import intern_stats
from repro.prob.valuation import clear_valuation_cache, valuation_cache_stats
from tests.strategies import tp_relation, tp_relation_pair
from tests.test_hot_path_budget import LEFT_BEHIND_PER_ROW_CEILING, READS, seeded_rows
from tests.test_setops_inline_valuation import batched

OPS = [tp_union, tp_intersect, tp_except]


def operand_pairs(r: TPRelation, s: TPRelation, t: TPRelation) -> list:
    """A base pair, and derived left operands over a third relation:
    ``(r ∪ s) − t`` and ``(r − s) ∩ t`` meet one ``t`` tuple with the
    same ``r`` variable in windows either side of an ``s`` tuple."""
    return [(r, s), (tp_union(r, s), t), (tp_except(r, s), t)]


def fresh(op, left: TPRelation, right: TPRelation) -> list[TPTuple]:
    """A new fused, materialized result whose rows nobody has read."""
    return list(op(left, right))


def deferred(rows: list[TPTuple]) -> int:
    """How many rows hold no lineage node yet (white box)."""
    return sum(1 for t in rows if t._lineage is None)


def assert_twins(op, left: TPRelation, right: TPRelation) -> None:
    clear_valuation_cache()
    twins = list(op(left, right, fused=False))
    assert valuation_cache_stats() == batched(twins, twins)
    lineages = [u.lineage for u in twins]

    _, pending = _fused_sweep(
        left.sorted_tuples(), right.sorted_tuples(), op.__name__[3:], left.merged_events(right)
    )
    clear_valuation_cache()
    rows = fresh(op, left, right)
    # Counted without building a node: no row has been read yet.
    assert valuation_cache_stats() == batched(rows, pending)
    assert len(rows) == len(twins)

    rows = fresh(op, left, right)
    assert rows == twins
    assert all(t == u and u == t for t, u in zip(rows, twins))
    rows = fresh(op, left, right)
    assert [hash(t) for t in rows] == [hash(u) for u in twins]

    members = set(twins)
    rows = fresh(op, left, right)
    assert all(t in members for t in rows)
    assert set(fresh(op, left, right)) == members

    rows = fresh(op, left, right)
    assert [repr(t) for t in rows] == [repr(u) for u in twins]
    rows = fresh(op, left, right)
    assert [str(t) for t in rows] == [str(u) for u in twins]

    for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        copies = round_trip(fresh(op, left, right))
        assert copies == twins
        assert all(type(t) is TPTuple for t in copies)
        assert all(t.lineage is u for t, u in zip(copies, lineages))

    rows = fresh(op, left, right)
    assert all(t.lineage is u for t, u in zip(rows, lineages))  # first read
    assert all(t.lineage is u for t, u in zip(rows, lineages))  # slot hit


class TestADeferredRowEqualsItsTwin:
    @settings(max_examples=40, deadline=None)
    @given(tp_relation_pair(), tp_relation("t"))
    def test_base_pairs_and_derived_operands(self, pair, t):
        r, s = pair
        for left, right in operand_pairs(r, s, t):
            for op in OPS:
                assert_twins(op, left, right)

    def test_a_repeated_pair_counts_as_one_formula(self):
        """``(a ∪ b) − c``: ``a1`` spans ``b1``, so ``a1∧¬c1`` is the
        lineage of two windows — one formula, one node once read.  The
        first result's read interned ``left``'s ``a1∨b1`` row, so the
        second result batches its window over that node and values the
        other two in the sweep."""
        a = TPRelation.from_rows("a", ("k",), [("x", 0, 10, 0.5)])
        b = TPRelation.from_rows("b", ("k",), [("x", 3, 5, 0.25)])
        c = TPRelation.from_rows("c", ("k",), [("x", 0, 10, 0.75)])
        left = tp_union(a, b, materialize=False)
        rows = fresh(tp_except, left, c)
        assert [str(t) for t in rows] == [
            "('x', a1∧¬c1, [0,3), 0.125)",
            "('x', (a1∨b1)∧¬c1, [3,5), 0.15625)",
            "('x', a1∧¬c1, [5,10), 0.125)",
        ]
        clear_valuation_cache()
        rows = fresh(tp_except, left, c)
        assert deferred(rows) == 2
        assert valuation_cache_stats() == {"hits": 0, "misses": 1, "swept": 2}
        assert rows[0].lineage is rows[2].lineage
        assert_twins(tp_except, left, c)


class TestTheNodeIsBuiltOnFirstRead:
    def test_no_node_until_a_read_then_the_same_one(self):
        a = TPRelation.from_rows("a", ("k",), [("x", 0, 4, 0.5), ("y", 0, 4, 0.5)])
        b = TPRelation.from_rows("b", ("k",), [("x", 2, 7, 0.5), ("y", 1, 3, 0.5)])
        gc.collect()
        before = intern_stats()
        rows = fresh(tp_union, a, b)
        assert deferred(rows) == 2
        assert intern_stats() == before  # no Or node built
        first = rows[1].lineage
        assert intern_stats()["or"] == before["or"] + 1
        assert rows[1].lineage is first
        assert first is (a.tuples[0].lineage | b.tuples[0].lineage)

    def test_the_reference_builds_every_node_and_lineage_only_rows_defer(self):
        """``fused=False`` builds every node; a fused lineage-only sweep
        (an interior plan node) defers its two-variable windows too, and
        their first read is the reference's node."""
        a = TPRelation.from_rows("a", ("k",), [("x", 0, 4, 0.5)])
        b = TPRelation.from_rows("b", ("k",), [("x", 2, 7, 0.5)])
        for op in OPS:
            twins = list(op(a, b, fused=False, materialize=True))
            assert deferred(twins) == 0
            for materialize in (True, False):
                rows = list(op(a, b, materialize=materialize))
                assert deferred(rows) == 1
                assert all(t.lineage is u.lineage for t, u in zip(rows, twins))

    def test_the_private_slots_are_not_fields(self):
        a = TPRelation.from_rows("a", ("k",), [("x", 0, 4, 0.5)])
        b = TPRelation.from_rows("b", ("k",), [("x", 2, 7, 0.5)])
        (t,) = a
        u = fresh(tp_intersect, a, b)[0]
        assert TPTuple.__match_args__ == ("fact", "lineage", "start", "end", "p")
        assert u.__getstate__() == [("x",), u.lineage, 2, 4, 0.25]
        assert repr(u) == (
            "TPTuple(fact=('x',), lineage=And((Var('a1'), Var('b1'))), "
            "interval=Interval(2, 4), p=0.25)"
        )
        with pytest.raises(AttributeError, match="'_left'"):
            t._left
        for name in ("lineage", "fact", "_lineage", "_op"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(u, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(u, name)
        assert copy.deepcopy(t) == t and pickle.loads(pickle.dumps(t)) == t


def test_a_partly_read_result_leaves_nothing_behind_once_dropped():
    """Half of each result's rows build their node, the other half
    never do; dropped, the three results take all of it with them."""
    db = TPDatabase()
    db.create_relation("a", ("k",), seeded_rows(1))
    db.create_relation("b", ("k",), seeded_rows(2))
    gc.collect()
    tracked = len(gc.get_objects())
    rows = 0
    for text in READS:
        result = db.query(text)
        rows += len(result)
        for t in list(result)[::2]:
            t.lineage
        del result
    gc.collect()
    left = len(gc.get_objects()) - tracked
    assert rows == 11368
    assert left / rows <= LEFT_BEHIND_PER_ROW_CEILING, (
        f"{left / rows:.3f} tracked objects per output row left behind"
    )


def test_threads_reading_one_result_see_one_node_per_row():
    """More readers than cores, switching every microsecond, read the
    lineage of one unread result at once: each row hands every thread
    the same node, and it is the reference path's formula."""
    r = TPRelation.from_rows("a", ("k",), seeded_rows(1, n=400, keys=8))
    s = TPRelation.from_rows("b", ("k",), seeded_rows(2, n=400, keys=8))
    expected = [str(u.lineage) for u in tp_union(r, s, fused=False)]
    rows = fresh(tp_union, r, s)
    assert deferred(rows) > 100
    seen: list[list] = []
    start = threading.Barrier(4)

    def read() -> None:
        start.wait()
        seen.append([t.lineage for t in rows])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 4
    for lineages in seen:
        assert all(a is b for a, b in zip(lineages, seen[0]))
    assert [str(lineage) for lineage in seen[0]] == expected
    assert all(t.lineage is lineage for t, lineage in zip(rows, seen[0]))
