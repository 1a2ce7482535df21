"""A tuple is one object: ``TPTuple`` holds ``start`` and ``end`` itself.

Every way a tuple comes into being — the public constructor, the batch
loaders, the copy methods, the set-operation and join kernels, the
projection, the WAL/checkpoint codec and ``pickle`` — must give a tuple
whose :attr:`TPTuple.interval` reads back ``Interval(t.start, t.end)``,
and whose equality and hash are the value semantics they were when the
tuple held an ``Interval``: equal exactly when ``(fact, lineage,
interval, p)`` are.
"""

from __future__ import annotations

import doctest
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tuple
from repro import Interval, TPRelation
from repro.algebra.join import JOIN_KINDS, tp_join_operation
from repro.algebra.project import tp_project
from repro.core.setops import tp_except, tp_intersect, tp_union
from repro.core.tuple import TPTuple, base_tuples, tuples_from_rows
from repro.lineage import Var
from repro.store.wal import decode_tuples, encode_tuples
from tests.strategies import tp_join_pair, tp_relation_pair


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
