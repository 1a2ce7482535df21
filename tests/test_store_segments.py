"""Unit tests for the mutable segment store (repro.store.segment/delta)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import DuplicateFactError, tp_union
from repro.lineage.formula import Var, variable_names, variables
from repro.store import Delta, SegmentStore, load_delta, save_delta

from .strategies import tp_relation


@pytest.fixture
def store(rel_a) -> SegmentStore:
    return SegmentStore.from_relation(rel_a)


class TestBasics:
    def test_from_relation_round_trip(self, rel_a, store):
        assert len(store) == len(rel_a)
        assert store.snapshot().equivalent_to(rel_a)
        assert store.snapshot().name == rel_a.name

    def test_snapshot_is_born_sorted(self, store):
        snap = store.snapshot()
        assert snap.is_sorted_by_fact_ts

    def test_snapshot_cached_per_epoch(self, store):
        assert store.snapshot() is store.snapshot()
        store.insert([("beer", 1, 3, 0.5)])
        first = store.snapshot()
        assert first is not None and first is store.snapshot()

    def test_iter_sorted_matches_snapshot(self, store):
        store.insert([("beer", 1, 3, 0.5), ("milk", 12, 14, 0.2)])
        assert list(store.iter_sorted()) == list(store.snapshot().sorted_tuples())

    def test_tuples_of(self, store):
        (t,) = store.tuples_of(("chips",))
        assert (t.start, t.end) == (4, 7)
        assert store.tuples_of(("nope",)) == []


class TestTransactions:
    def test_insert_assigns_fresh_ids_and_events(self, store):
        before = dict(store.events)
        cs = store.insert([("beer", 1, 3, 0.5)])
        (t,) = cs.inserted
        name = str(t.lineage)
        assert name not in before and store.events[name] == 0.5

    def test_empty_transaction_is_noop(self, store):
        epoch = store.epoch
        cs = store.apply()
        assert not cs and store.epoch == epoch
        assert store.changes_since(epoch) == []

    def test_epoch_and_change_log(self, store):
        start = store.epoch
        store.insert([("beer", 1, 3, 0.5)])
        store.delete([("chips", 4, 7)])
        changes = store.changes_since(start)
        assert [cs.epoch for cs in changes] == [start + 1, start + 2]
        assert len(changes[0].inserted) == 1 and len(changes[1].deleted) == 1

    def test_delete_unknown_tuple_rejected(self, store):
        with pytest.raises(KeyError):
            store.delete([("chips", 4, 8)])  # wrong interval

    def test_overlap_rejected_and_rolled_back(self, store):
        epoch = store.epoch
        snapshot = store.snapshot()
        with pytest.raises(DuplicateFactError):
            # Second insert of the batch overlaps the first.
            store.insert([("beer", 1, 5, 0.5), ("beer", 3, 8, 0.4)])
        assert store.epoch == epoch
        assert store.snapshot().equivalent_to(snapshot)

    def test_failed_batch_rolls_back_deletes_too(self, store):
        snapshot = store.snapshot()
        with pytest.raises(DuplicateFactError):
            store.apply(
                deletes=[("chips", 4, 7)],
                inserts=[("milk", 3, 5, 0.4)],  # overlaps stored milk [2,10)
            )
        assert store.snapshot().equivalent_to(snapshot)

    def test_delete_then_insert_same_batch(self, store):
        # The "update" pattern: replacing a tuple in place is one batch.
        cs = store.apply(
            deletes=[("milk", 2, 10)], inserts=[("milk", 2, 10, 0.9)]
        )
        assert len(cs.inserted) == len(cs.deleted) == 1
        (t,) = store.tuples_of(("milk",))
        assert t.p == 0.9

    def test_boundary_touching_insert_accepted(self, store):
        # Half-open intervals: [10, 12) touches milk's [2, 10) but does
        # not overlap it.
        store.insert([("milk", 10, 12, 0.4)])
        starts = [t.start for t in store.tuples_of(("milk",))]
        assert starts == [2, 10]

    def test_delete_where(self, store):
        cs = store.delete_where(lambda t: t.fact == ("milk",))
        assert len(cs.deleted) == 1
        assert ("milk",) not in store

    def test_regions_merge_per_fact(self, store):
        cs = store.apply(
            deletes=[("milk", 2, 10)],
            inserts=[("milk", 2, 8, 0.4), ("dates", 10, 12, 0.3)],
        )
        regions = dict(((f, (lo, hi)) for f, lo, hi in cs.regions()))
        assert regions[("milk",)] == (2, 10)
        assert regions[("dates",)] == (10, 12)


class TestSegmentation:
    def test_segments_split_and_stay_sorted(self):
        store = SegmentStore("s", ("k",), segment_capacity=4)
        rows = [("x", i * 2, i * 2 + 1, 0.5) for i in range(40)]
        store.insert(rows)
        stats = store.segment_stats()
        assert stats["segments"] > 1
        starts = [t.start for t in store.tuples_of(("x",))]
        assert starts == sorted(starts)

    def test_interval_index_locates_across_segments(self):
        store = SegmentStore("s", ("k",), segment_capacity=4)
        store.insert([("x", i * 10, i * 10 + 9, 0.5) for i in range(20)])
        # Delete from the middle, insert into the freed slot.
        store.delete([("x", 100, 109)])
        store.insert([("x", 101, 104, 0.3)])
        with pytest.raises(DuplicateFactError):
            store.insert([("x", 103, 106, 0.3)])
        starts = [t.start for t in store.tuples_of(("x",))]
        assert starts == sorted(starts) and 101 in starts

    def test_empty_fact_groups_pruned(self):
        store = SegmentStore("s", ("k",))
        store.insert([("x", 0, 5, 0.5), ("y", 0, 5, 0.5)])
        store.delete_where(lambda t: t.fact == ("y",))
        assert store.facts() == [("x",)]

    def test_prune_log(self):
        store = SegmentStore("s", ("k",))
        store.insert([("x", 0, 5, 0.5)])
        store.insert([("x", 6, 8, 0.5)])
        store.prune_log(1)
        assert [cs.epoch for cs in store.changes_since(1)] == [2]
        with pytest.raises(ValueError, match="pruned"):
            store.changes_since(0)


class TestRangeReads:
    """``run`` / ``widen`` / ``overlapping`` / ``find`` bisect the
    segments; each must equal the scan of ``tuples()`` it replaced."""

    FACT = ("x",)

    @staticmethod
    def _check(store: SegmentStore, points: list[int]) -> None:
        group = store._groups.get(TestRangeReads.FACT)
        tuples = store.tuples_of(TestRangeReads.FACT)
        if group is not None:
            assert group.bounds == [segment[0].start for segment in group.segments]
            # Before the first start, on every segment bound, past the last end.
            points = points + [tuples[0].start - 1, *group.bounds, tuples[-1].end + 1]
        for lo in points:
            for hi in points:
                if lo >= hi:
                    continue
                inside = [t for t in tuples if lo <= t.start < hi]
                assert store.run_of(TestRangeReads.FACT, lo, hi) == inside
                crossing_lo = [t.start for t in tuples if t.start < lo < t.end]
                crossing_hi = [t.end for t in tuples if t.start < hi < t.end]
                assert store.widen_of(TestRangeReads.FACT, lo, hi) == (
                    min(crossing_lo, default=lo), max(crossing_hi, default=hi)
                )
                if group is None:
                    continue
                clashes = [t for t in tuples if t.start < hi and lo < t.end]
                assert group.overlapping(lo, hi) is (clashes[0] if clashes else None)
                exact = [t for t in tuples if (t.start, t.end) == (lo, hi)]
                assert group.find(lo, hi) is (exact[0] if exact else None)

    @given(
        capacity=st.integers(min_value=2, max_value=4),
        steps=st.lists(
            st.tuples(
                st.booleans(),  # insert (or remove)
                st.integers(min_value=0, max_value=40),  # start / victim
                st.integers(min_value=1, max_value=6),  # length
            ),
            max_size=30,
        ),
        points=st.lists(st.integers(min_value=-2, max_value=50), max_size=6),
    )
    def test_range_reads_equal_brute_force_after_every_mutation(
        self, capacity, steps, points
    ):
        store = SegmentStore("s", ("k",), segment_capacity=capacity)
        for insert, at, length in steps:
            tuples = store.tuples_of(self.FACT)
            if not insert:
                if tuples:
                    victim = tuples[at % len(tuples)]
                    store.delete([("x", victim.start, victim.end)])
            else:
                clashes = [t for t in tuples if t.start < at + length and at < t.end]
                if clashes:
                    # Rejected, and the error names the first clash in Ts order.
                    with pytest.raises(DuplicateFactError) as rejected:
                        store.insert([("x", at, at + length, 0.5)])
                    assert str(rejected.value).endswith(
                        f"overlaps stored interval {clashes[0].interval}"
                    )
                else:
                    store.insert([("x", at, at + length, 0.5)])
            self._check(store, points)


class TestBulkBuild:
    """``from_relation`` and ``restore`` cut each fact's sorted run into
    segments directly, with no per-tuple insert: the layout must keep
    every invariant the insert path keeps, and further mutations must
    behave as on any store."""

    @staticmethod
    def _check(store: SegmentStore, relation) -> None:
        assert list(store.iter_sorted()) == relation.sorted_tuples()
        assert store.facts() == sorted({t.fact for t in relation})
        for fact in store.facts():
            group = store._groups[fact]
            assert all(0 < len(s) <= store.segment_capacity for s in group.segments)
            assert group.bounds == [segment[0].start for segment in group.segments]
            starts = [t.start for t in group.tuples()]
            assert starts == sorted(set(starts))
        assert store._var_refs == Counter(
            var for t in relation for var in variable_names(t.lineage)
        )

    @given(
        r=tp_relation("r", max_intervals=12),
        s=tp_relation("s", max_intervals=12),
        capacity=st.integers(min_value=2, max_value=5),
        derived=st.booleans(),
    )
    def test_bulk_built_stores_keep_the_segment_invariants(self, r, s, capacity, derived):
        relation = tp_union(r, s) if derived else r
        seeded = SegmentStore.from_relation(relation, segment_capacity=capacity)
        self._check(seeded, relation)
        restored = SegmentStore.restore(
            relation.name, relation.schema.attributes, relation.sorted_tuples(),
            dict(relation.events), epoch=3, counter=7, segment_capacity=capacity,
        )
        self._check(restored, relation)
        assert (restored.epoch, restored._counter) == (3, 7)
        # A bulk-built store mutates like any other.
        for store in (seeded, restored):
            last = store.tuples_of(("x",))
            end = last[-1].end if last else 0
            store.insert([("x", end, end + 2, 0.5), ("x", end + 3, end + 4, 0.5)])
            store.delete_where(lambda t: t.start % 3 == 0)
            expected = store.snapshot()
            for fact in store.facts():
                group = store._groups[fact]
                assert group.bounds == [segment[0].start for segment in group.segments]
            assert list(store.iter_sorted()) == expected.sorted_tuples()

    @given(
        r=tp_relation("r", max_intervals=12),
        s=tp_relation("s", max_intervals=12),
    )
    def test_a_bulk_load_counts_references_as_the_per_row_loop_did(self, r, s):
        """The C-level passes over a run's names count what one Python
        statement per row counted, on a base store and on stores whose
        lineages are compound (∪, and ∪ over a repeated variable)."""
        for relation in (r, tp_union(r, s), tp_union(tp_union(r, s), r)):
            expected: dict[str, int] = {}
            for t in relation.sorted_tuples():
                lineage = t.lineage
                for var in (lineage.name,) if type(lineage) is Var else variables(lineage):
                    expected[var] = expected.get(var, 0) + 1
            seeded = SegmentStore.from_relation(relation)
            restored = SegmentStore.restore(
                relation.name, relation.schema.attributes, relation.sorted_tuples(),
                dict(relation.events), epoch=0, counter=0,
            )
            assert seeded._var_refs == restored._var_refs == expected

    def test_restore_refuses_a_run_out_of_fact_order(self, rel_a):
        backwards = sorted(rel_a, key=lambda t: t.fact, reverse=True)
        with pytest.raises(ValueError, match="order"):
            SegmentStore.restore(
                "a", ("product",), backwards, dict(rel_a.events), epoch=0, counter=0
            )


class TestDeltaFiles:
    def test_round_trip(self, tmp_path):
        delta = Delta(
            inserts=(("milk", 2, 10, 0.3), ("chips", 1, 4, 0.8)),
            deletes=(("dates", 1, 3),),
        )
        path = tmp_path / "delta.csv"
        save_delta(delta, path, ("product",))
        loaded = load_delta(path, ("product",))
        assert loaded == delta
        assert len(loaded) == 3 and bool(loaded)

    def test_apply_to_store(self, store, tmp_path):
        delta = Delta(inserts=(("beer", 1, 3, 0.5),), deletes=(("chips", 4, 7),))
        path = tmp_path / "delta.csv"
        save_delta(delta, path, ("product",))
        cs = store.apply(
            inserts=load_delta(path, ("product",)).inserts,
            deletes=load_delta(path, ("product",)).deletes,
        )
        assert len(cs.inserted) == 1 and len(cs.deleted) == 1

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("op,item,ts,te,p\n+,milk,1,2,0.5\n")
        with pytest.raises(ValueError, match="delta file"):
            load_delta(path, ("product",))

    def test_bad_marker_rejected(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("op,product,ts,te,p\n?,milk,1,2,0.5\n")
        with pytest.raises(ValueError, match="op marker"):
            load_delta(path, ("product",))

    def test_insert_needs_probability(self, tmp_path):
        path = tmp_path / "delta.csv"
        path.write_text("op,product,ts,te,p\n+,milk,1,2,\n")
        with pytest.raises(ValueError, match="probability"):
            load_delta(path, ("product",))
