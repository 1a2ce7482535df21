"""Who copies an event map and who shares it (DESIGN.md §5).

Relations *derived* from relations take their parent's ``EventMap`` (or
the operands' cached merged map) by reference; the public constructor
and ``SegmentStore.snapshot()`` copy.  The snapshot copy is the one that
matters for correctness: the store keeps mutating its live map, and a
pinned snapshot that aliased it would lose a deleted tuple's event under
the reader's feet.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import TPRelation
from repro.core.setops import multi_union, tp_except, tp_union
from repro.db import TPDatabase
from repro.prob.valuation import clear_valuation_cache
from repro.serve import QueryService
from repro.store import SegmentStore


def _r(name: str = "r") -> TPRelation:
    return TPRelation.from_rows(
        name, ("x",), [("v", 1, 5, 0.5), ("w", 2, 6, 0.25), ("v", 7, 9, 0.75)]
    )


def _rows(relation: TPRelation) -> list[tuple]:
    return [
        (t.fact, t.start, t.end, str(t.lineage), t.p)
        for t in relation.sorted_tuples()
    ]


# ----------------------------------------------------------------------
# derived relations share, the public constructor copies
# ----------------------------------------------------------------------
def test_derived_relations_share_their_parents_event_map():
    r = _r()
    assert r.select(x="v").events is r.events
    assert r.where(lambda t: t.start > 1).events is r.events
    assert r.rename("q").events is r.events
    pending = tp_union(r, _r("s"), materialize=False)
    assert pending.materialize_probabilities().events is pending.events


def test_the_public_constructor_still_copies():
    r = _r()
    copy = TPRelation("c", r.schema, r.tuples, r.events)
    assert copy.events is not r.events and copy.events == r.events
    copy.events["r1"] = 0.9
    assert r.events["r1"] == 0.5


def test_operator_results_hold_the_operands_merged_map():
    r, s = _r("r"), _r("s")
    merged = r.merged_events(s)
    assert tp_union(r, s).events is merged
    assert tp_except(r, s).events is merged
    # Every selection over the pair shares the pair's one merged map
    # instead of a copy of its own.
    assert tp_union(r.select(x="v"), s.select(x="v")).events is merged
    assert tp_union(r.select(x="w"), s.rename("t")).events is merged
    # n-ary folds go through the same pairwise cache.
    t = _r("t")
    assert multi_union(r, s, t).events is merged.merged_with(t.events)


def test_alternating_partners_each_keep_their_merged_map():
    r1, r2, r3 = _r("r1"), _r("r2"), _r("r3")
    with_r2, with_r3 = r1.merged_events(r2), r1.merged_events(r3)
    for _ in range(3):
        assert r1.merged_events(r2) is with_r2
        assert r1.merged_events(r3) is with_r3


def test_a_merged_map_dies_with_its_right_operand():
    r, s = _r("r"), _r("s")
    merged = weakref.ref(r.merged_events(s))
    assert merged() is not None
    del s
    gc.collect()
    assert merged() is None, "the left map kept a dead partner's merge alive"


def test_mutating_a_parent_map_is_seen_through_a_derived_relation():
    r = _r()
    derived = r.select(x="v")
    t = derived.tuples[0]
    assert derived.probability_of(t) == pytest.approx(0.5)
    before = derived.events.epoch
    r.events["r1"] = 0.9
    assert derived.events.epoch != before
    assert derived.probability_of(t) == pytest.approx(0.9)


# ----------------------------------------------------------------------
# a snapshot never aliases the store's live map
# ----------------------------------------------------------------------
def _store() -> SegmentStore:
    store = SegmentStore("a", ("product",))
    store.insert([("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8), ("milk", 12, 15, 0.6)])
    return store


def test_pinned_snapshot_survives_the_delete_of_a_base_tuple():
    store = _store()
    other = TPRelation.from_rows(
        "b", ("product",), [("milk", 5, 12, 0.5), ("chips", 1, 9, 0.4)]
    )
    pinned = store.snapshot()
    assert pinned.events is not store.events
    before = {op: _rows(f(pinned, other)) for op, f in _OPS.items()}

    doomed = next(t for t in pinned if t.fact == ("chips",))
    changeset = store.apply(deletes=[("chips", 4, 7)])
    # The commit dropped the tuple's event from the store's live map …
    assert str(doomed.lineage) in changeset.removed_events
    assert str(doomed.lineage) not in store.events

    # … and the pinned snapshot still valuates every lineage it holds.
    clear_valuation_cache()
    assert {op: _rows(f(pinned, other)) for op, f in _OPS.items()} == before
    assert str(doomed.lineage) in pinned.events


_OPS = {"union": tp_union, "except": tp_except}


def test_pinned_session_answers_the_same_after_another_sessions_delete():
    db = TPDatabase()
    db.create_relation(
        "a", ("product",), [("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8)]
    )
    db.create_relation("b", ("product",), [("milk", 5, 12, 0.5), ("chips", 1, 9, 0.4)])
    db.store("a")
    service = QueryService(db, cache_size=0)  # every read recomputes
    reader, writer = service.open_session(), service.open_session()
    queries = ("a | b", "b - a", "(a & b)[product='chips']")
    before = [_rows(service.execute(reader, q, optimize="safe").relation) for q in queries]

    changeset = service.commit(writer, "a", deletes=[("chips", 4, 7)])
    assert changeset.removed_events, "the delete must drop its event"
    clear_valuation_cache()

    after = [_rows(service.execute(reader, q, optimize="safe").relation) for q in queries]
    assert after == before
    # The writer, re-pinned, sees the delete.
    assert _rows(service.execute(writer, "a | b").relation) != before[0]
