"""A tuple is one object: ``TPTuple`` holds ``start`` and ``end`` itself.

Every way a tuple comes into being — the public constructor, the batch
loaders, the copy methods, the set-operation and join kernels, the
projection, the WAL/checkpoint codec and ``pickle`` — must give a tuple
whose :attr:`TPTuple.interval` reads back ``Interval(t.start, t.end)``,
and whose equality and hash are the value semantics they were when the
tuple held an ``Interval``: equal exactly when ``(fact, lineage,
interval, p)`` are.  A row the fused kernel valued in its sweep
holds its two operands and builds its lineage node on the first read
(DESIGN.md §6.3): one node, whichever thread reads first.
"""

from __future__ import annotations

import copy
import dataclasses
import doctest
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tuple
from repro import Interval, TPRelation
from repro.algebra.join import JOIN_KINDS, tp_join_operation
from repro.algebra.project import tp_project
from repro.core.setops import tp_except, tp_intersect, tp_union
from repro.core.tuple import TPTuple, base_tuples, tuples_from_rows
from repro.lineage import Var
from repro.lineage.formula import intern_stats
from repro.store.wal import decode_tuples, encode_tuples
from tests.strategies import tp_join_pair, tp_relation_pair
from tests.test_hot_path_budget import seeded_rows

OPS = [tp_union, tp_intersect, tp_except]


def fresh(op, left: TPRelation, right: TPRelation) -> list[TPTuple]:
    """A new fused, materialized result whose rows nobody has read."""
    return list(op(left, right))


def deferred(rows: list[TPTuple]) -> int:
    """How many rows hold no lineage node yet (white box)."""
    return sum(1 for t in rows if t._lineage is None)


def parent_key(t: TPTuple) -> tuple:
    """The fields equality and hash were defined over before."""
    return (t.fact, t.lineage, Interval(t.start, t.end), t.p)


def assert_layout(tuples: list[TPTuple]) -> None:
    for t in tuples:
        assert type(t.start) is int and type(t.end) is int
        assert t.interval == Interval(t.start, t.end)
        assert type(t.interval) is Interval
        assert (t.interval.start, t.interval.end) == (t.start, t.end)
    for t in tuples:
        for u in tuples:
            assert (t == u) is (parent_key(t) == parent_key(u))
            if t == u:
                assert hash(t) == hash(u)


def every_path(r: TPRelation, s: TPRelation) -> list[TPTuple]:
    """The tuples each construction path builds from two relations."""
    out: list[TPTuple] = []
    for t in r:
        out.append(TPTuple(t.fact, t.lineage, t.interval, t.p))
        out.append(TPTuple(fact=t.fact, lineage=t.lineage, interval=t.interval))
        out.append(t.with_probability(0.25))
        out.append(t.with_interval(Interval(t.start, t.end + 1)))
        out.append(t.with_fact(t.fact + ("extra",)))
    rows = [(*t.fact, t.start, t.end, t.p) for t in r]
    out += base_tuples(rows, r.schema.arity, [str(t.lineage) for t in r])[0]
    out += tuples_from_rows((t.fact, t.lineage, t.start, t.end) for t in s)
    for op in (tp_union, tp_intersect, tp_except):
        out += op(r, s)
        out += op(r, s, materialize=False)
    out += tp_project(r, list(r.schema.attributes))
    out += decode_tuples(*encode_tuples(out))
    out += pickle.loads(pickle.dumps(out))
    return out


@settings(max_examples=40, deadline=None)
@given(tp_relation_pair())
def test_every_set_operation_path_keeps_the_layout(pair):
    r, s = pair
    tuples = every_path(r, s)
    assert_layout(tuples)
    # The codec and pickle give back equal tuples, in order.
    n = len(tuples) // 4
    assert tuples[:n] == tuples[n:2 * n] == tuples[2 * n:3 * n] == tuples[3 * n:]


@settings(max_examples=40, deadline=None)
@given(
    st.booleans().flatmap(lambda rest: tp_join_pair(s_rest=rest)),
    st.sampled_from(JOIN_KINDS),
)
def test_every_join_path_keeps_the_layout(pair, kind):
    """The key-only right side exercises the key-projection copies."""
    r, s = pair
    out = list(tp_join_operation(kind, r, s, on=("k",)))
    out += tp_join_operation(kind, r, s, on=("k",), materialize=False)
    out += pickle.loads(pickle.dumps(out))
    assert_layout(out)


def test_the_constructor_keeps_its_signature_and_reads_back_a_fresh_interval():
    interval = Interval(2, 10)
    t = TPTuple(("milk",), Var("a1"), interval, 0.3)
    assert (t.start, t.end, t.p) == (2, 10, 0.3)
    assert t.interval == interval and t.interval is not interval
    assert TPTuple(("milk",), Var("a1"), interval).p is None
    assert repr(t) == "TPTuple(fact=('milk',), lineage=Var('a1'), interval=Interval(2, 10), p=0.3)"
    assert str(t) == "('milk', a1, [2,10), 0.3)"
    assert t.sort_key == (("milk",), 2)
    assert {t, TPTuple(("milk",), Var("a1"), Interval(2, 10), 0.3)} == {t}


def test_the_tuple_module_doctests_pass():
    results = doctest.testmod(repro.core.tuple)
    assert results.attempted > 0 and results.failed == 0


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
