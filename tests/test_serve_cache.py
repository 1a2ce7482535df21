"""Serving-cache correctness: key composition, LRU mechanics, sweeping.

The regression that must never ship (DESIGN.md §13.3): a *near-miss*
key — same query text, different optimize level or epoch — aliasing a
cached result.  The key is (canonical form, level, epoch signature);
these tests pin each component's presence by
driving real queries through :class:`repro.serve.QueryService`.  An
epoch part names the registered object it was read from (a replaced
relation never aliases its predecessor), and a store read only through
σ on its leading attribute is keyed on the selected fact groups'
versions instead of its epoch.
"""

from __future__ import annotations

import pytest

from repro.db import TPDatabase
from repro.query import canonical_key, parse_query
from repro.serve import LRUCache, QueryService
from repro.serve.protocol import relation_fragment


def _db() -> TPDatabase:
    db = TPDatabase()
    db.create_relation(
        "a", ("product",), [("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8)]
    )
    db.create_relation("b", ("product",), [("milk", 5, 12, 0.5)])
    return db


# ----------------------------------------------------------------------
# the LRU building block
# ----------------------------------------------------------------------
def test_lru_eviction_order_and_counters():
    cache = LRUCache(2)
    cache.put("x", 1)
    cache.put("y", 2)
    assert cache.get("x") == 1  # refreshes x: y is now the LRU tail
    cache.put("z", 3)
    assert cache.get("y") is None
    assert cache.get("x") == 1 and cache.get("z") == 3
    stats = cache.stats()
    assert stats["evictions"] == 1
    assert stats["hits"] == 3 and stats["misses"] == 1


def test_lru_capacity_zero_disables_caching():
    cache = LRUCache(0)
    cache.put("x", 1)
    assert cache.get("x") is None
    with pytest.raises(ValueError):
        LRUCache(-1)


def test_lru_sweep_does_not_count_as_eviction():
    cache = LRUCache(8)
    for index in range(4):
        cache.put(index, index)
    assert cache.sweep(lambda key: key % 2 == 0) == 2
    assert cache.stats()["entries"] == 2
    assert cache.stats()["evictions"] == 0


# ----------------------------------------------------------------------
# result-cache key composition (the near-miss regression)
# ----------------------------------------------------------------------
def test_same_query_different_optimize_level_never_aliases():
    service = QueryService(_db())
    session = service.open_session()
    first = service.execute(session, "a | b", optimize="safe")
    assert first.cached is False
    near_miss = service.execute(session, "a | b", optimize="off")
    assert near_miss.cached is False, (
        "a different optimize level aliased the cached result"
    )
    # The exact key (query, level, epoch) does hit.
    assert service.execute(session, "a | b", optimize="safe").cached is True
    assert service.execute(session, "a | b", optimize="off").cached is True


def test_canonically_equal_queries_share_one_entry():
    service = QueryService(_db())
    session = service.open_session()
    service.execute(session, "(a | b) | a", optimize="safe")
    reassociated = service.execute(session, "a | (b | a)", optimize="safe")
    assert reassociated.cached is True, (
        "canonically equal queries must share a cache entry"
    )


def _swapped_db() -> TPDatabase:
    """``a`` is ``(x, y)`` and ``b`` is ``(y, x)``: σ[x] reads column 0
    of ``a`` but column 1 of ``b``, so it may not move below ``a | b``."""
    db = TPDatabase()
    db.create_relation("a", ("x", "y"), [("1", "2", 0, 5, 0.5)])
    db.create_relation(
        "b", ("y", "x"), [("1", "2", 0, 5, 0.4), ("2", "1", 0, 5, 0.6)]
    )
    return db


OUTSIDE = "(a | b)[x='1']"
INSIDE = "a[x='1'] | b[x='1']"


def test_a_selection_outside_and_inside_a_set_op_keep_two_keys():
    """The key is built without schemas, so it may not equate σ written
    above ``a | b`` with σ written on each operand."""
    assert canonical_key(parse_query(OUTSIDE)) != canonical_key(parse_query(INSIDE))
    # Re-association under σ is still absorbed.
    assert canonical_key(parse_query("((a | b) | a)[x='1']")) == canonical_key(
        parse_query("(a | (b | a))[x='1']")
    )


@pytest.mark.parametrize("level", ["off", "safe"])
def test_a_selection_over_swapped_columns_is_not_served_its_pushed_twin(level):
    """Without schemas σ is not pushed, so the two texts keep two result
    keys: the second is executed, not served the first's one row."""
    db = _swapped_db()
    service = QueryService(db)
    session = service.open_session()
    assert len(service.execute(session, OUTSIDE, optimize=level).relation) == 1
    inside = service.execute(session, INSIDE, optimize=level)
    assert inside.cached is False
    assert len(inside.relation) == 2 == len(db.query(INSIDE))


def test_a_selection_over_swapped_columns_does_not_reuse_its_twins_plan():
    """A commit moves the result key, so only the plan cache could alias:
    the second text must run its own plan."""
    db = _swapped_db()
    service = QueryService(db)
    session = service.open_session()
    service.execute(session, OUTSIDE, optimize="safe")
    service.commit(session, "a", inserts=[("3", "3", 0, 5, 0.5)])
    inside = service.execute(session, INSIDE, optimize="safe")
    assert inside.cached is False
    assert inside.result.fragment() == relation_fragment(
        db.query(INSIDE, optimize="safe")
    )


def test_a_name_rebound_to_swapped_columns_does_not_reuse_its_pushed_plan():
    """With ``a`` and ``b`` both ``(x, y)`` the ``safe`` plan pushes σ[x]
    into each operand.  Rebinding ``b`` to ``(y, x)`` moves the result
    key; the plan key must move too, or the stale pushed plan selects
    ``b``'s second column."""
    db = TPDatabase()
    db.create_relation("a", ("x", "y"), [(str(i), "a", 0, 5, 0.5) for i in range(8)])
    db.create_relation("b", ("x", "y"), [(str(i), "b", 0, 5, 0.4) for i in range(8)])
    service = QueryService(db)
    session = service.open_session()
    pushed = "(σ[x='1'](a) ∪ σ[x='1'](b))"
    assert pushed in db.explain(OUTSIDE, optimize="safe")
    service.execute(session, OUTSIDE, optimize="safe")
    db.create_relation(
        "b", ("y", "x"), [("1", "b", 0, 5, 0.4), ("b", "1", 0, 5, 0.6)],
        replace=True,
    )
    service.begin(session)
    rebound = service.execute(session, OUTSIDE, optimize="safe")
    assert rebound.cached is False
    assert rebound.result.fragment() == relation_fragment(
        db.query(OUTSIDE, optimize="safe")
    )


def test_commit_changes_the_epoch_key_and_misses():
    service = QueryService(_db())
    session = service.open_session()
    before = service.execute(session, "a | b", optimize="safe")
    service.commit(session, "a", inserts=[("beer", 3, 8, 0.5)])
    after = service.execute(session, "a | b", optimize="safe")
    assert after.cached is False
    assert after.epoch_key != before.epoch_key
    facts = {t.fact[0] for t in after.relation}
    assert "beer" in facts


def test_commit_to_unreferenced_store_keeps_the_entry_hot():
    db = _db()
    service = QueryService(db)
    session = service.open_session()
    db.store("b")  # make b mutable so its epoch can move
    service.execute(session, "a | a", optimize="safe")
    service.commit(session, "b", inserts=[("beer", 3, 8, 0.5)])
    assert service.execute(session, "a | a", optimize="safe").cached is True, (
        "a commit to an unreferenced relation must not invalidate the entry"
    )


def test_sweep_retires_epochs_no_session_pins():
    service = QueryService(_db())
    reader = service.open_session()
    writer = service.open_session()
    service.execute(reader, "a | b", optimize="safe")
    service.commit(writer, "a", inserts=[("beer", 3, 8, 0.5)])
    service.execute(writer, "a | b", optimize="safe")
    assert service.results.stats()["entries"] == 2  # old epoch still pinned
    service.close_session(reader)
    assert service.results.stats()["entries"] == 1, (
        "closing the pinning session must retire the historical entry"
    )


def _facts(response) -> set:
    return {t.fact[0] for t in response.relation}


def test_a_replaced_relation_is_never_served_from_the_cache():
    """A relation replaced under its name answers anew: the part names
    the registered object, not only the name."""
    db = _db()
    service = QueryService(db)
    session = service.open_session()
    assert _facts(service.execute(session, "a | b")) == {"milk", "chips"}
    db.create_relation("a", ("product",), [("tea", 1, 4, 0.9)], replace=True)
    service.begin(session)
    after = service.execute(session, "a | b")
    assert after.cached is False
    assert _facts(after) == {"tea", "milk"}


def test_a_replaced_store_is_never_served_from_the_cache():
    """A store replaced and written again reaches the epoch its
    predecessor had: the epoch alone does not name what is read."""
    db = _db()
    service = QueryService(db)
    session = service.open_session()
    service.commit(session, "a", inserts=[("beer", 3, 8, 0.5)])
    assert _facts(service.execute(session, "a | b")) == {"milk", "chips", "beer"}
    db.create_relation("a", ("product",), [("tea", 1, 4, 0.9)], replace=True)
    service.commit(session, "a", inserts=[("beer", 3, 8, 0.5)])
    assert db.store("a").epoch == 1
    after = service.execute(session, "a | b")
    assert after.cached is False
    assert _facts(after) == {"tea", "beer", "milk"}


# ----------------------------------------------------------------------
# keyed parts: σ on the leading attribute reads only its fact groups
# ----------------------------------------------------------------------
def _store_db() -> TPDatabase:
    db = _db()
    db.store("a")
    return db


def test_a_commit_to_another_key_keeps_a_selected_entry_hot():
    service = QueryService(_store_db())
    session = service.open_session()
    query = "(a | b)[product='milk']"
    first = service.execute(session, query, optimize="safe")
    service.commit(session, "a", inserts=[("beer", 3, 8, 0.5)])
    again = service.execute(session, query, optimize="safe")
    assert again.cached is True and again.result is first.result
    # The reply still carries the reader's own epochs.
    assert again.epoch_key != first.epoch_key
    assert service.stats()["results"]["cross_epoch_hits"] == 1
    # An unselected read of the same store does move with the epoch.
    assert service.execute(session, "a | b", optimize="safe").cached is False
    # A commit to the selected key does invalidate.
    service.commit(session, "a", inserts=[("milk", 20, 22, 0.5)])
    changed = service.execute(session, query, optimize="safe")
    assert changed.cached is False
    assert (("milk",), 20, 22) in {(t.fact, t.start, t.end) for t in changed.relation}


def test_a_reader_pinned_before_a_change_to_its_key_keeps_its_answer():
    service = QueryService(_store_db())
    reader = service.open_session()
    writer = service.open_session()
    query = "(a | b)[product='milk']"
    old = service.execute(reader, query, optimize="safe")
    service.commit(writer, "a", inserts=[("milk", 20, 22, 0.5)])
    new = service.execute(writer, query, optimize="safe")
    assert new.cached is False and len(new.relation) > len(old.relation)
    # The reader's pin predates the change: it is served its own epoch,
    # under the whole-store part (its groups' version at that epoch is
    # no longer known), which then stays hot for it.
    stale = service.execute(reader, query, optimize="safe")
    assert stale.result.fragment() == old.result.fragment()
    assert service.execute(reader, query, optimize="safe").cached is True


def test_sweep_retires_a_keyed_entry_once_its_groups_change():
    service = QueryService(_store_db())
    session = service.open_session()
    service.execute(session, "(a | b)[product='milk']", optimize="safe")
    service.execute(session, "(a | b)[product='chips']", optimize="safe")
    service.commit(session, "a", inserts=[("milk", 20, 22, 0.5)])
    # No session can reach the milk entry any more; the chips entry is current.
    assert service.results.stats()["entries"] == 1
    assert service.execute(session, "(a | b)[product='chips']", optimize="safe").cached


def test_non_leading_selections_keep_whole_epochs():
    db = TPDatabase()
    db.create_relation("a", ("product", "shop"), [("milk", "x", 2, 10, 0.3)])
    db.create_relation("b", ("product", "shop"), [("milk", "y", 5, 12, 0.5)])
    db.store("a")
    service = QueryService(db)
    session = service.open_session()
    service.execute(session, "(a | b)[shop='x']", optimize="safe")
    # A commit that touches neither milk nor shop x.
    service.commit(session, "a", inserts=[("tea", "z", 0, 1, 0.5)])
    assert service.execute(session, "(a | b)[shop='x']", optimize="safe").cached is False


def test_cache_size_zero_service_still_correct():
    service = QueryService(_db(), cache_size=0)
    session = service.open_session()
    first = service.execute(session, "a | b", optimize="safe")
    second = service.execute(session, "a | b", optimize="safe")
    assert second.cached is False
    rows = lambda r: [  # noqa: E731 - tiny local canonicalizer
        (t.fact, t.start, t.end, str(t.lineage), t.p) for t in r
    ]
    assert rows(first.relation) == rows(second.relation)
