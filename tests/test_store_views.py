"""Materialized views: policies, strategies, db wiring, planner reads."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import UnsupportedOperationError, tp_set_operation
from repro.baselines import (
    get_view_maintenance_strategy,
    view_maintenance_strategies,
)
from repro.core.sorting import null_safe_key
from repro.db import TPDatabase
from repro.lineage.formula import variables
from repro.prob.valuation import clear_valuation_cache
from repro.query.parser import parse_query
from repro.serve import QueryService
from repro.store import REFRESH_POLICIES, MaterializedView, SegmentStore
from tests.strategies import JOIN_KEY_POOL, tp_join_relation
from tests.test_join_generalized import NULL_PADDED_CATALOG, NULL_PADDED_SHAPES


@pytest.fixture
def db(rel_a, rel_b, rel_c) -> TPDatabase:
    database = TPDatabase()
    for relation in (rel_a, rel_b, rel_c):
        database.register(relation)
    return database


class TestViewCorrectness:
    @pytest.mark.parametrize(
        "query", ["a | b", "a & c", "c - (a | b)", "(a | b) - c"]
    )
    def test_view_matches_direct_query(self, db, query):
        view = db.create_view("v", query)
        direct = db.query(query, use_views=False)
        assert db.query("v").equivalent_to(direct)

    @pytest.mark.parametrize("strategy", ["INCREMENTAL", "RECOMPUTE"])
    def test_view_follows_mutations(self, db, strategy):
        db.create_view("v", "c - (a | b)", strategy=strategy)
        db.insert("a", [("beer", 1, 6, 0.5), ("milk", 11, 14, 0.4)])
        db.delete("c", [("milk", 1, 4)])
        db.apply("b", inserts=[("dates", 2, 5, 0.3)], deletes=[("chips", 3, 6)])
        direct = db.query("c - (a | b)", use_views=False)
        assert db.query("v").equivalent_to(direct)

    def test_incremental_equals_recompute(self, db):
        vi = db.create_view("vi", "c - (a | b)", policy="manual")
        vr = db.create_view("vr", "c - (a | b)", policy="manual",
                            strategy="RECOMPUTE")
        db.insert("c", [("beer", 1, 9, 0.7)])
        db.delete("a", [("dates", 1, 3)])
        vi.refresh()
        vr.refresh()
        assert vi.relation().equivalent_to(vr.relation())

    def test_view_over_selection(self, db):
        view = db.create_view("v", "c[product='milk'] - a[product='milk']")
        db.insert("c", [("milk", 11, 13, 0.5), ("chips", 10, 12, 0.6)])
        direct = db.query("c[product='milk'] - a[product='milk']", use_views=False)
        assert view.relation().equivalent_to(direct)

    def test_view_over_join(self, db):
        db.create_relation("prices", ("product", "price"),
                           [("milk", 2, 3, 8, 0.8), ("beer", 1, 0, 5, 0.6)])
        view = db.create_view("v", "c LEFT OUTER JOIN prices ON product")
        db.insert("prices", [("chips", 3, 2, 6, 0.5)])
        db.delete("c", [("chips", 4, 5)])
        direct = db.query("c LEFT OUTER JOIN prices ON product", use_views=False)
        assert view.relation().equivalent_to(direct)

    @pytest.mark.parametrize("strategy", ["INCREMENTAL", "RECOMPUTE"])
    @pytest.mark.parametrize("shape", sorted(NULL_PADDED_SHAPES))
    def test_view_over_null_padded_outer_join(self, shape, strategy):
        # The inner outer join pads with None; the outer join above it
        # then produces the same padded fact from two sources, and the
        # coinciding runs must collapse as in the batch join.
        query = NULL_PADDED_SHAPES[shape]
        database = TPDatabase()
        for relation in NULL_PADDED_CATALOG.values():
            database.register(relation)
        view = database.create_view("v", query, strategy=strategy)
        database.insert("p", [("k1", "a1", 7, 9, 0.3)])
        database.insert("q", [("k1", "a1", 6, 8, 0.6)])
        database.insert("f", [("k1", "c1", 7, 8, 0.5)])
        database.delete("e", [("k1", "b1", 1, 3)])
        direct = database.query(query, use_views=False)
        assert view.relation().equivalent_to(direct)
        ordered = sorted(view.relation(), key=null_safe_key)
        for prev, curr in zip(ordered, ordered[1:]):
            if prev.fact == curr.fact:
                assert curr.start >= prev.end, "view not duplicate-free"


class TestRefreshPolicies:
    def test_deferred_refreshes_on_read(self, db):
        view = db.create_view("v", "a | b", policy="deferred")
        db.insert("a", [("beer", 1, 3, 0.5)])
        assert not view.is_fresh()
        assert any(t.fact == ("beer",) for t in view.relation())
        assert view.is_fresh()

    def test_eager_refreshes_on_write(self, db):
        view = db.create_view("v", "a | b", policy="eager")
        db.insert("a", [("beer", 1, 3, 0.5)])
        assert view.is_fresh()

    def test_manual_serves_stale_until_refreshed(self, db):
        view = db.create_view("v", "a | b", policy="manual")
        before = len(view.relation())
        db.insert("a", [("beer", 1, 3, 0.5)])
        assert not view.is_fresh()
        assert len(view.relation()) == before  # stale by contract
        db.refresh("v")
        assert view.is_fresh() and len(view.relation()) == before + 1

    def test_refresh_reports_content_change(self, db):
        view = db.create_view("v", "a & b", policy="manual")
        db.insert("a", [("beer", 20, 22, 0.5)])  # no intersection partner
        assert view.refresh() is False  # refreshed, nothing changed
        assert view.is_fresh()
        db.insert("b", [("beer", 21, 25, 0.5)])
        assert view.refresh() is True

    def test_unknown_policy_rejected(self, db):
        with pytest.raises(ValueError, match="refresh policy"):
            db.create_view("v", "a | b", policy="sometimes")


class TestDatabaseWiring:
    def test_mutating_plain_relation_converts_to_store(self, db, rel_a):
        db.insert("a", [("beer", 1, 3, 0.5)])
        assert isinstance(db.store("a"), SegmentStore)
        assert len(db.relation("a")) == len(rel_a) + 1
        # Queries read the store snapshot transparently.
        assert any(t.fact == ("beer",) for t in db.query("a | a"))

    def test_planner_reads_fresh_view(self, db):
        db.create_view("q", "c - (a | b)")
        plan_line = db.explain("c - (a | b)").splitlines()[2]
        assert "Scan[q]" in plan_line

    def test_planner_substitutes_subtrees(self, db):
        db.create_view("q", "a | b")
        explain = db.explain("c - (a | b)")
        assert "Scan[q]" in explain and "Union" not in explain

    def test_stale_manual_view_not_substituted(self, db):
        db.create_view("q", "a | b", policy="manual")
        assert "Scan[q]" in db.explain("a | b")  # fresh: substituted
        db.insert("a", [("beer", 1, 3, 0.5)])
        assert "Scan[q]" not in db.explain("a | b")  # stale: recomputed
        direct = db.query("a | b", use_views=False)
        assert db.query("a | b").equivalent_to(direct)

    def test_use_views_false_bypasses(self, db):
        db.create_view("q", "a | b")
        assert "Scan[q]" not in db.explain("a | b", use_views=False)

    def test_view_usable_inside_larger_query(self, db):
        db.create_view("q", "a | b")
        direct = db.query("c - (a | b)", use_views=False)
        assert db.query("c - q").equivalent_to(direct)

    def test_view_name_collisions_rejected(self, db):
        db.create_view("q", "a | b")
        with pytest.raises(ValueError, match="already exists"):
            db.create_view("q", "a & b")
        with pytest.raises(ValueError, match="already names"):
            db.create_view("a", "a & b")

    def test_views_over_views_rejected(self, db):
        db.create_view("q", "a | b")
        with pytest.raises(UnsupportedOperationError, match="views over"):
            db.create_view("qq", "q - c")

    def test_drop_view(self, db):
        db.create_view("q", "a | b")
        db.drop_view("q")
        assert "Scan[q]" not in db.explain("a | b")
        with pytest.raises(KeyError):
            db.view("q")

    def test_mutating_a_view_rejected(self, db):
        db.create_view("q", "a | b")
        with pytest.raises(UnsupportedOperationError, match="view"):
            db.insert("q", [("beer", 1, 3, 0.5)])

    def test_replacing_a_view_base_relation_rejected(self, db):
        """replace=True must not orphan the store a view still reads."""
        db.create_view("q", "a | b")
        with pytest.raises(ValueError, match="referenced by view"):
            db.create_relation("a", ("product",), [("beer", 1, 4, 0.5)],
                               replace=True)
        # Dropping the view unblocks the replacement, and queries see it.
        db.drop_view("q")
        db.create_relation("a", ("product",), [("beer", 1, 4, 0.5)],
                           replace=True)
        assert [t.fact for t in db.query("a | a")] == [("beer",)]

    def test_eager_view_never_serves_stale_after_direct_store_write(self, db):
        """Writes through db.store(...).apply bypass _notify_views; the
        substituted eager view must still re-check freshness on read."""
        db.create_view("q", "c - (a | b)", policy="eager")
        db.store("c").apply(inserts=[("beer", 1, 5, 0.9)])
        direct = db.query("c - (a | b)", use_views=False)
        assert db.query("c - (a | b)").equivalent_to(direct)
        assert db.query("q").equivalent_to(direct)

    def test_change_log_pruned_once_views_consumed(self, db):
        db.create_view("q", "a | b", policy="eager")
        store = db.store("a")
        for i in range(5):
            db.insert("a", [("beer", 20 + 3 * i, 21 + 3 * i, 0.5)])
        # Eager refresh consumes each transaction; the next apply prunes.
        assert store.segment_stats()["log_entries"] <= 1

    def test_manual_view_pins_change_log_until_refresh(self, db):
        view = db.create_view("q", "a | b", policy="manual")
        store = db.store("a")
        for i in range(4):
            db.insert("a", [("beer", 20 + 3 * i, 21 + 3 * i, 0.5)])
        assert store.segment_stats()["log_entries"] == 4  # still needed
        view.refresh()
        db.insert("a", [("tea", 40, 42, 0.5)])
        assert store.segment_stats()["log_entries"] == 1

    def test_events_do_not_leak_under_update_workload(self, db):
        """Delete + re-insert rounds must not grow the event maps."""
        view = db.create_view("q", "a | b", policy="eager")
        store = db.store("a")
        for _ in range(50):
            (t,) = store.tuples_of(("milk",))
            db.apply("a", deletes=[("milk", t.start, t.end)],
                     inserts=[("milk", t.start, t.end, 0.5)])
        assert len(store.events) == 3  # one live variable per tuple
        # The view's event map tracks removals through the change log.
        assert len(view.relation().events) == len(
            db.query("a | b", use_views=False).events
        )

    def test_shared_variable_events_survive_partial_delete(self, rel_a, rel_c):
        """A variable referenced by several lineages must outlive the
        deletion of one of its tuples (refcounting, not 1:1 assumption)."""
        from repro import tp_union

        derived = tp_union(rel_a, rel_c)  # several tuples share a1, c1, …
        store = SegmentStore.from_relation(derived)
        victim = next(t for t in store.iter_sorted() if "a1" in str(t.lineage))
        store.delete([(*victim.fact, victim.start, victim.end)])
        assert "a1" in store.events  # other lineages still reference a1
        remaining = store.snapshot()
        assert remaining.materialize_probabilities() is not None

    def test_base_root_view_over_unmaterialized_store(self, rel_a, rel_c):
        """A view whose root is a bare scan must not write probabilities
        into the store's own tuple lists (they would vanish on the next
        flat-cache rebuild)."""
        from repro import tp_except

        derived = tp_except(rel_a, rel_c, materialize=False)  # p=None tuples
        store = SegmentStore.from_relation(derived)
        view = MaterializedView("v", parse_query("d"), {"d": store})
        assert all(t.p is not None for t in view.relation())
        reference = {
            (t.fact, t.interval): t.p
            for t in tp_except(rel_a, rel_c)
        }
        # Mutating the same fact group rebuilds the store's flat cache;
        # the view must still serve fully materialized probabilities.
        store.insert([("milk", 30, 32, 0.5)])
        served = {(t.fact, t.interval): t.p for t in view.relation()}
        for key, p in reference.items():
            assert served[key] == pytest.approx(p)
        assert all(p is not None for p in served.values())
        # The store itself still holds its original unmaterialized tuples.
        assert any(t.p is None for t in store.iter_sorted())

    def test_unconsumed_store_log_is_capped(self):
        from repro.store.segment import UNCONSUMED_LOG_CAP

        store = SegmentStore("s", ("k",))
        for i in range(UNCONSUMED_LOG_CAP + 50):
            store.insert([("x", 2 * i, 2 * i + 1, 0.5)])
        assert store.segment_stats()["log_entries"] == UNCONSUMED_LOG_CAP


class TestMaintenanceRegistry:
    def test_strategies_registered(self):
        names = [s.name for s in view_maintenance_strategies()]
        assert names == ["INCREMENTAL", "RECOMPUTE"]

    def test_lookup_case_insensitive(self):
        assert get_view_maintenance_strategy("recompute").name == "RECOMPUTE"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            get_view_maintenance_strategy("MAGIC")


class TestStandaloneViews:
    def test_view_without_database(self, rel_a, rel_b):
        a = SegmentStore.from_relation(rel_a)
        b = SegmentStore.from_relation(rel_b)
        view = MaterializedView("v", parse_query("a - b"), {"a": a, "b": b})
        reference = tp_set_operation("except", a.snapshot(), b.snapshot())
        assert view.relation().equivalent_to(reference)
        a.apply(deletes=[("milk", 2, 10)], inserts=[("milk", 2, 6, 0.9)])
        reference = tp_set_operation("except", a.snapshot(), b.snapshot())
        assert view.relation().equivalent_to(reference)

    def test_delete_everything(self, rel_a, rel_b):
        a = SegmentStore.from_relation(rel_a)
        b = SegmentStore.from_relation(rel_b)
        view = MaterializedView("v", parse_query("a | b"), {"a": a, "b": b})
        a.delete_where(lambda t: True)
        b.delete_where(lambda t: True)
        assert len(view.relation()) == 0
        # Refill after total deletion.
        a.insert([("milk", 1, 4, 0.5)])
        assert len(view.relation()) == 1


class TestMaintenanceCounters:
    """``MaterializedView.stats()``: what a refresh re-swept, spliced,
    reused and valuated — visible without a profiler (DESIGN.md §9.2)."""

    @staticmethod
    def _reswept_per_refresh(per_group: int) -> float:
        """Ten two-row transactions at the frontier of one fact group
        that holds ``per_group`` untouched tuples on either side."""
        db = TPDatabase()
        for name in ("r", "s"):
            rows = [("k", 3 * i, 3 * i + 2, 0.5) for i in range(per_group)]
            db.create_relation(name, ("k",), rows)
        views = [
            db.create_view("d", "r - s", policy="eager"),
            db.create_view("j", "r JOIN s ON k", policy="eager"),
        ]
        built = [view.stats() for view in views]
        assert all(stats["rows_reswept"] == 2 * per_group for stats in built)
        frontier = 3 * per_group
        for i in range(10):
            ts = frontier + 5 * (i // 2)  # s follows r: the windows change twice
            db.apply(
                "rs"[i % 2],
                inserts=[("k", ts, ts + 2, 0.5), ("k", ts + 2, ts + 4, 0.5)],
                deletes=[("k", 3 * i, 3 * i + 2)],
            )
        reswept = 0
        for view, before in zip(views, built):
            after = view.stats()
            assert after["refreshes"] == 10 and before["refreshes"] == 0
            assert after["ranges_reswept"] - before["ranges_reswept"] == 20
            valuated = after["rows_valuated"] - before["rows_valuated"]
            assert 0 < valuated <= after["rows_spliced"] <= 40
            assert before["rows_spliced"] == 0  # the build splices nothing
            reswept += after["rows_reswept"] - before["rows_reswept"]
        assert db.stats()["views"]["d"] == views[0].stats()
        return reswept / 20

    def test_rows_reswept_do_not_grow_with_the_untouched_part_of_a_group(self):
        small = self._reswept_per_refresh(50)
        large = self._reswept_per_refresh(800)
        assert small == large <= 8

    def test_unchanged_windows_keep_their_tuples(self):
        stores = {
            "r": SegmentStore("r", ("k",)),
            "s": SegmentStore("s", ("k",)),
        }
        stores["r"].insert([("x", 0, 4, 0.5), ("x", 4, 8, 0.5)])
        stores["s"].insert([("x", 2, 6, 0.5)])
        view = MaterializedView("v", parse_query("r | s"), stores)
        before = view.relation()  # [0,2) [2,4) [4,6) [6,8)
        # Replacing r's second tuple widens through s's [2,6) and r's
        # [0,4) to [0,8): all four windows are re-swept, the two that r's
        # first tuple decides come out as they were and keep their tuples.
        stores["r"].apply(deletes=[("x", 4, 8)], inserts=[("x", 4, 7, 0.9)])
        after = view.relation()
        assert [(t.start, t.end) for t in after] == [(0, 2), (2, 4), (4, 6), (6, 7)]
        assert [t for t in after if any(t is u for u in before)] == list(after)[:2]
        stats = view.stats()
        assert stats["refreshes"] == 1 and stats["rows_reswept"] == 3 + 3
        assert stats["rows_reused"] == 2 and stats["rows_valuated"] == 4 + 2
        recompute = MaterializedView("w", parse_query("r | s"), stores, strategy="RECOMPUTE")
        stores["r"].insert([("y", 1, 2, 0.5)])
        assert recompute.relation().equivalent_to(view.relation())
        assert recompute.stats()["refreshes"] == 1
        assert recompute.stats()["rows_reused"] == 0


# ----------------------------------------------------------------------
# keyed reads: σ over a view from the selected fact groups
# ----------------------------------------------------------------------
#: The stores, by schema: two attributes put several facts under one
#: key; one attribute makes the selection name a single fact.
KEYED_STORES = {
    "r": (("k", "a"), ["a1", "a2"]),
    "s": (("k", "a"), ["a1", "a2"]),
    "t": (("k", "b"), ["b1"]),
    "p": (("k",), []),
    "q": (("k",), []),
}
#: Every kind of view root: set operation, join, selection over an
#: operator, selection over a store and a bare store (the last two do
#: not own their cache and valuate on the copy they serve).
KEYED_VIEWS = {
    "v_setop": "r - s",
    "v_join": "r JOIN t ON k",
    "v_select": "(r | s)[a='a1']",
    "v_select_base": "r[a='a2']",
    "v_base": "s",
    "v_key": "p & q",
}
KEYS = (*JOIN_KEY_POOL, "k9")


def _candidate_facts(name: str) -> list[tuple]:
    _, rest = KEYED_STORES[name]
    if not rest:
        return [(k,) for k in JOIN_KEY_POOL]
    return [(k, v) for k in JOIN_KEY_POOL for v in rest]


@st.composite
def keyed_scenario(draw):
    relations = {
        name: draw(tp_join_relation(name, attributes, rest, max_facts=4))
        for name, (attributes, rest) in KEYED_STORES.items()
    }
    views = {
        name: (
            draw(st.sampled_from(REFRESH_POLICIES)),
            draw(st.sampled_from(["INCREMENTAL", "RECOMPUTE"])),
        )
        for name in KEYED_VIEWS
    }
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(sorted(KEYED_STORES)),
                st.lists(st.integers(0, 30), max_size=3),  # delete picks
                st.lists(  # inserts: (fact pick, gap, length)
                    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return relations, views, steps


def _apply_step(db: TPDatabase, name: str, picks: list, inserts: list) -> None:
    """One transaction: deletes by index, inserts at a fact's frontier
    (duplicate-free by construction, adjacency included)."""
    stored = list(db.store(name).iter_sorted())
    doomed = {stored[pick % len(stored)] for pick in picks} if stored else set()
    frontier: dict = {}
    for t in stored:
        frontier[t.fact] = max(frontier.get(t.fact, 0), t.end)
    facts = _candidate_facts(name)
    rows = []
    for pick, gap, length in inserts:
        fact = facts[pick % len(facts)]
        ts = frontier.get(fact, 0) + gap
        frontier[fact] = ts + length
        rows.append((*fact, ts, ts + length, 0.25 + 0.1 * gap))
    db.apply(
        name,
        inserts=rows,
        deletes=[(*t.fact, t.start, t.end) for t in doomed],
    )


def _rows(relation) -> list[tuple]:
    return [(t.fact, t.interval, t.p) for t in relation]


def _live_maps(db: TPDatabase) -> list:
    """The maps later transactions and refreshes mutate in place: every
    store's, and every incremental engine's."""
    engines = [db.view(name)._engine for name in KEYED_VIEWS]
    return [db.store(name).events for name in KEYED_STORES] + [
        engine.events for engine in engines if hasattr(engine, "events")
    ]


class TestKeyedReads:
    """``db.query("v[k='x']")`` ≡ ``db.relation("v").select(k='x')`` —
    a view's read from the selected fact groups, holding only the events
    it references, never the live map (DESIGN.md §5, §9.4); a store's
    keyed read bisects its snapshot."""

    @given(scenario=keyed_scenario())
    @settings(max_examples=25)
    def test_keyed_read_equals_select_over_the_whole_relation(self, scenario):
        relations, views, steps = scenario
        db = TPDatabase()
        for relation in relations.values():
            db.register(relation)
        for name, text in KEYED_VIEWS.items():
            policy, strategy = views[name]
            db.create_view(name, text, policy=policy, strategy=strategy)
        held = []
        for step in steps:
            _apply_step(db, *step)
            live = _live_maps(db)
            for name in (*KEYED_VIEWS, *KEYED_STORES):
                for key in KEYS:
                    # use_views=False: no view may stand in for a store.
                    keyed = db.query(f"{name}[k='{key}']", use_views=False)
                    whole = db.relation(name)
                    expected = whole.select(k=key)
                    assert _rows(keyed) == _rows(expected)
                    assert all(a.lineage is b.lineage for a, b in zip(keyed, expected))
                    assert [null_safe_key(t) for t in keyed] == sorted(
                        null_safe_key(t) for t in keyed
                    )
                    assert keyed.is_sorted_by_fact_ts
                    assert all(keyed.events is not m for m in live)
                    referenced = {v for t in keyed for v in variables(t.lineage)}
                    # A result assembled at this revision is bisected and
                    # shares its map; otherwise the map is restricted.
                    if keyed.events is not whole.events:
                        assert set(keyed.events) == referenced
                    held.append((keyed, _rows(keyed)))
        # Later writes — deletes of base tuples included — leave a held
        # result exactly as it was, and it still valuates on its own.
        for name in KEYED_STORES:
            db.apply(name, deletes=[
                (*t.fact, t.start, t.end) for t in db.store(name).iter_sorted()
            ])
        clear_valuation_cache()
        for keyed, rows in held:
            assert _rows(keyed) == rows
            for t in keyed:
                assert keyed.probability_of(t) == pytest.approx(t.p)

    def test_a_manual_view_over_a_store_reads_the_stores_probabilities(self, db):
        """A bare-store root serves the store's current lists; its engine
        map catches up only at the refresh a manual view has not had."""
        db.create_view("v", "a", policy="manual")
        db.insert("a", [("milk", 20, 22, 0.5)])
        keyed = db.query("v[product='milk']")
        whole = db.relation("v")
        assert _rows(keyed) == _rows(whole.select(product="milk"))
        assert [t.start for t in keyed] == [2, 20]
        for relation in (keyed, whole):
            assert [relation.probability_of(t) for t in relation] == pytest.approx(
                [t.p for t in relation]
            )

    def test_keyed_reads_are_counted(self, db):
        view = db.create_view("v", "c - (a | b)", policy="eager")
        db.insert("a", [("beer", 1, 6, 0.5)])
        before = view.stats()
        milk = db.query("v[product='milk']")
        optimized = db.query("v[product='milk']", optimize="safe")
        whole = db.relation("v")
        after = view.stats()
        assert _rows(optimized) == _rows(milk)
        assert after["reads"] == before["reads"] + 3
        assert after["rows_read"] == before["rows_read"] + 2 * len(milk) + len(whole)
        assert 0 < len(milk) < len(whole)
        assert db.stats()["views"]["v"] == after
        # The keyed read restricts its map to what its rows reference.
        assert set(milk.events) == {v for t in milk for v in variables(t.lineage)}
        # Neither the planner's statistics nor a server session's pin is
        # a query's read of the view; a served query reads the pinned
        # copy, not the view.
        db.stats_of("v")
        service = QueryService(db)
        session = service.open_session()
        service.begin(session)
        service.execute(session, "v[product='milk']", optimize="safe")
        assert view.stats() == after
        assert service.stats()["views"]["v"] == after

    def test_explain_analyze_reports_the_whole_scan(self, db):
        db.create_view("v", "c - (a | b)")
        report = db.query("EXPLAIN v[product='milk']")
        scan = next(line for line in report.splitlines() if "Scan[v]" in line)
        assert f"actual rows={len(db.relation('v'))}" in scan
