"""No draft escapes: every row a public path hands back is a ``TPTuple``.

The trusted builders fill each row as a ``_TupleDraft`` — ``TPTuple``'s
slots without its ``__setattr__`` — and publish it with
``t.__class__ = TPTuple`` as its last write (DESIGN.md §6.3).  A row
that escaped unpublished would be mutable and never equal to the tuple
it stands for, so every path that builds rows is read here: the set
operations over generated programs (fused and ``fused=False``,
materialized and lineage-only, in one chunk and in random cuts), the
streams, eager and deferred views, the store's transactions and
restore, the WAL and checkpoint codec, the file loaders, the joins and
the three copy methods.  One row of each is held frozen: assigning or
deleting any field raises ``FrozenInstanceError``.
"""

from __future__ import annotations

import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.tuple
from repro import Interval, TPRelation
from repro.algebra.join import JOIN_KINDS, tp_join_operation
from repro.core.setops import OPERATIONS, _finish, sweep_chunks
from repro.core.tuple import TPTuple, _TupleDraft, base_tuples, tuples_from_rows
from repro.db import TPDatabase
from repro.db.io import load_csv, load_json, save_csv, save_json
from repro.lineage import Var
from repro.store import SegmentStore
from repro.store.checkpoint import load_checkpoint, write_checkpoint
from repro.store.wal import decode_tuples, encode_tuples

from .strategies import programs, tp_join_pair
from .test_hot_path_budget import seeded_rows
from .test_mode_matrix import STREAMS, cut, engine_catalog, evaluate

OPS = tuple(OPERATIONS)
FIELDS = ("fact", "lineage", "start", "end", "p")


def published(rows) -> list[TPTuple]:
    """``rows`` as a list, each a ``TPTuple`` — and so is every row a
    deferred row holds as an operand, however deep."""
    rows = list(rows)
    stack = list(rows)
    while stack:
        t = stack.pop()
        assert type(t) is TPTuple, type(t)
        if t._lineage is None:
            stack += (u for u in (t._left, t._right) if type(u) in (TPTuple, _TupleDraft))
    return rows


def assert_frozen(t: TPTuple) -> None:
    before = (t.fact, t.lineage, t.start, t.end, t.p)
    for name in FIELDS:
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(t, name)
    assert (t.fact, t.lineage, t.start, t.end, t.p) == before


def check(rows) -> list[TPTuple]:
    """Every row published; the first one frozen."""
    rows = published(rows)
    if rows:
        assert_frozen(rows[0])
    return rows


# ----------------------------------------------------------------------
# set operations: programs, chunked sweeps, streams
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op", OPS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_set_operation_mode_publishes_its_rows(op, data):
    catalog, tree, _ = data.draw(programs(op, engine_catalog(), depth=2))
    for fused in (True, False):
        for materialize in (True, False):
            check(evaluate(tree, catalog, fused=fused, materialize=materialize))
    left, right = (evaluate(side, catalog, materialize=False) for side in (tree.left, tree.right))
    points = data.draw(st.lists(st.integers(0, 12), max_size=3))
    for materialize in (True, False):
        events = left.merged_events(right) if materialize else None
        out, pending = [], []
        for more, more_pending in sweep_chunks(
            iter(cut(left.sorted_tuples(), points)),
            iter(cut(right.sorted_tuples(), points[::-1])),
            tree.op,
            events,
        ):
            out += published(more)
            pending += more_pending
        if materialize:
            _finish(out, pending, events, None)
        check(out)
    check(STREAMS[op](iter(left.sorted_tuples()), iter(right.sorted_tuples())))


# ----------------------------------------------------------------------
# joins, the copy methods and the loaders
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    st.booleans().flatmap(lambda rest: tp_join_pair(s_rest=rest)),
    st.sampled_from(JOIN_KINDS),
)
def test_every_join_kind_and_layout_publishes_its_rows(pair, kind):
    """The key-only right side is the degenerate layout, whose key
    projection copies rows through ``with_fact``."""
    r, s = pair
    check(tp_join_operation(kind, r, s, on=("k",)))
    check(tp_join_operation(kind, r, s, on=("k",), materialize=False))


def test_the_copy_methods_and_the_batch_builders_publish_their_rows():
    a = TPRelation.from_rows("a", ("k",), seeded_rows(1, n=200, keys=8))
    check(a)
    t = a.tuples[0]
    for copy in (
        t.with_probability(0.25),
        t.with_interval(Interval(t.start, t.end + 1)),
        t.with_fact(("other",)),
    ):
        check([copy])
        assert copy.lineage is t.lineage
    rows = [(*u.fact, u.start, u.end, u.p) for u in a]
    check(base_tuples(rows, 1, [f"x{i}" for i in range(len(rows))])[0])
    check(tuples_from_rows(((u.fact, u.lineage, u.start, u.end) for u in a), [0.5] * len(a)))
    check(tuples_from_rows((u.fact, u.lineage, u.start, u.end) for u in a))


def test_the_file_loaders_publish_their_rows():
    a = TPRelation.from_rows("a", ("k",), seeded_rows(1, n=200, keys=8))
    b = TPRelation.from_rows("b", ("k",), seeded_rows(2, n=200, keys=8))
    derived = OPERATIONS["union"](a, b)
    with tempfile.TemporaryDirectory() as directory:
        for relation in (a, derived):
            csv_path = Path(directory) / f"{relation.name}.csv"
            json_path = Path(directory) / f"{relation.name}.json"
            save_csv(relation, csv_path)
            save_json(relation, json_path)
            for loaded in (load_csv(csv_path), load_json(json_path)):
                check(loaded)
                assert loaded.equivalent_to(relation)


# ----------------------------------------------------------------------
# the store: transactions, restore, WAL and checkpoints, views
# ----------------------------------------------------------------------
def test_the_store_and_its_codec_publish_their_rows():
    a = TPRelation.from_rows("a", ("k",), seeded_rows(1, n=200, keys=8))
    b = TPRelation.from_rows("b", ("k",), seeded_rows(2, n=200, keys=8))
    for relation in (a, OPERATIONS["except"](a, b)):
        store = SegmentStore.from_relation(relation, segment_capacity=4)
        check(store.iter_sorted())
        changes = store.apply(
            inserts=[("k000", 10**6, 10**6 + 3, 0.5), ("new", 1, 2, 0.25)],
            deletes=[(*relation.tuples[0].fact, relation.tuples[0].start,
                      relation.tuples[0].end)],
        )
        assert len(check(changes.inserted)) == 2
        check(store.iter_sorted())
        check(decode_tuples(*encode_tuples(list(store.iter_sorted()))))
        restored = SegmentStore.restore(
            store.name, store.schema.attributes, list(store.iter_sorted()),
            dict(store.events), epoch=store.epoch, counter=store._counter,
        )
        check(restored.iter_sorted())
        with tempfile.TemporaryDirectory() as directory:
            checkpoint = load_checkpoint(write_checkpoint(store, directory))
            check(checkpoint.tuples)
            check(checkpoint.restore().iter_sorted())


@pytest.mark.parametrize("policy", ["eager", "deferred"])
def test_views_and_a_reopened_database_publish_their_rows(policy):
    with tempfile.TemporaryDirectory() as directory:
        db = TPDatabase(data_dir=directory)
        db.create_relation("r1", ("k",), seeded_rows(1, n=400, keys=8))
        db.create_relation("r2", ("k",), seeded_rows(2, n=400, keys=8))
        db.create_view("v1", "r1 | r2", policy=policy)
        db.create_view("v2", "r1 JOIN r2 ON k", policy=policy)
        check(db.relation("v1"))
        check(db.relation("v2"))
        for i in range(6):
            ts = 10**6 + 10 * i
            db.apply("r1", inserts=[("k001", ts, ts + 5, 0.5)])
            db.apply("r2", inserts=[("k001", ts + 2, ts + 7, 0.5)],
                     deletes=[] if i else [seeded_rows(2, n=400, keys=8)[0][:3]])
            for name in ("v1", "v2"):
                check(db.relation(name))
                check(db.query(f"{name}[k='k001']"))
        db.checkpoint("r1")
        db.apply("r1", inserts=[("k002", 10**7, 10**7 + 1, 0.5)])
        expected = {name: db.relation(name) for name in ("r1", "r2")}
        db.close()
        reopened = TPDatabase(data_dir=directory)
        for name, relation in expected.items():
            assert check(reopened.relation(name)) == list(relation)
        reopened.close()


# ----------------------------------------------------------------------
# the draft itself
# ----------------------------------------------------------------------
class TestTheDraft:
    def test_it_has_the_tuples_slots_and_no_setattr_of_its_own(self):
        assert _TupleDraft.__slots__ is TPTuple.__slots__
        assert not issubclass(_TupleDraft, TPTuple)
        assert not issubclass(TPTuple, _TupleDraft)
        assert _TupleDraft.__setattr__ is object.__setattr__
        assert "__dict__" not in dir(_TupleDraft())

    def test_a_class_with_one_slot_more_cannot_be_published(self):
        class Wider:
            __slots__ = (*TPTuple.__slots__, "extra")

        row = Wider()
        with pytest.raises(TypeError):
            row.__class__ = TPTuple
        assert type(row) is Wider

    def test_a_published_draft_is_an_ordinary_tuple(self):
        row = _TupleDraft()
        row.fact = ("milk",)
        row._lineage = Var("a1")
        row.start = 2
        row.end = 10
        row.p = 0.3
        row.__class__ = TPTuple
        assert_frozen(row)
        assert row == TPTuple(("milk",), Var("a1"), Interval(2, 10), 0.3)
        assert hash(row) == hash(TPTuple(("milk",), Var("a1"), Interval(2, 10), 0.3))

    def test_the_row_writers_are_gone_from_the_module(self):
        module = repro.core.tuple
        for name in ("set_fact", "set_start", "set_end", "set_op", "set_p",
                     "set_lineage", "set_left", "set_right", "new_object"):
            assert not hasattr(module, name)
            assert name not in module.__all__
