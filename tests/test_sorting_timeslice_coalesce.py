"""Tests for sorting strategies, sortedness propagation, the sorting
contract (DESIGN.md §6.1–§6.2), the timeslice operator, and coalescing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Interval, TPRelation, TPSchema, coalesce, is_coalesced, timeslice
from repro.core.errors import DuplicateFactError
from repro.core.setops import tp_except, tp_intersect, tp_union
from repro.core.sorting import (
    is_sorted,
    null_safe_key,
    sort_comparison,
    sort_counting,
    sort_tuples,
)
from repro.core.timeslice import snapshot_lineages
from repro.core.tuple import TPTuple
from repro.lineage import Var

from .strategies import tp_relation

OPS = [tp_union, tp_intersect, tp_except]


class TestSorting:
    @given(tp_relation("r", max_facts=3, max_intervals=5))
    def test_strategies_agree(self, relation):
        by_comparison = sort_comparison(relation.tuples)
        by_counting = sort_counting(relation.tuples)
        assert by_comparison == by_counting

    @given(tp_relation("r"))
    def test_sorted_order(self, relation):
        ordered = sort_tuples(relation.tuples)
        assert is_sorted(ordered)

    def test_counting_sparse_fallback(self):
        # Starts far apart force the sparse-domain fallback path.
        r = TPRelation.from_rows(
            "r", ("x",), [("v", 1_000_000, 1_000_001, 0.5), ("v", 1, 2, 0.5)]
        )
        assert [t.start for t in sort_counting(r.tuples)] == [1, 1_000_000]

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            sort_tuples([], strategy="bogo")

    def test_is_sorted_detects_disorder(self, rel_a):
        assert not is_sorted(list(rel_a.tuples))  # milk before chips in rows
        assert is_sorted(rel_a.sorted_tuples())

    def test_three_stable_passes_are_the_full_key_order(self):
        """``sort_comparison`` sorts by ``Te``, ``Ts`` and then the fact,
        stably: the ``(F, Ts, Te)`` order, full ties in input order."""
        rows = [("v", 3, 5), ("u", 3, 9), ("v", 1, 4), ("v", 3, 4), ("u", 3, 9)]
        stream = [
            TPTuple((f,), Var(f"full{i}"), Interval(s, e)) for i, (f, s, e) in enumerate(rows)
        ]
        ordered = sort_comparison(iter(stream))  # any iterable
        assert ordered == sorted(stream, key=lambda t: (t.fact, t.start, t.end))
        assert [t.lineage.name for t in ordered] == ["full1", "full4", "full2", "full3", "full0"]

    def test_null_padded_facts_take_the_null_safe_order(self):
        """Facts the raw order cannot compare fall back to
        ``null_safe_key`` — for the sort, the sort cache and the
        duplicate check alike."""
        rows = [(("k", None), 2, 4), (("k", 1), 5, 6), (("k", None), 0, 2), (("k", 1), 0, 3)]
        stream = [
            TPTuple(f, Var(f"pad{i}"), Interval(s, e)) for i, (f, s, e) in enumerate(rows)
        ]
        expected = sorted(stream, key=null_safe_key)
        assert [t.lineage.name for t in expected] == ["pad3", "pad1", "pad2", "pad0"]
        assert sort_comparison(stream) == expected
        events = {f"pad{i}": 0.5 for i in range(len(rows))}
        relation = TPRelation("r", TPSchema(("a", "b")), stream, events)
        assert relation.sorted_tuples() == expected
        overlapping = [*stream, TPTuple(("k", None), Var("pad9"), Interval(3, 5))]
        with pytest.raises(DuplicateFactError):
            TPRelation("r", TPSchema(("a", "b")), overlapping, {**events, "pad9": 0.5})


class TestTimeslice:
    def test_paper_semantics(self, rel_a):
        snapshot = timeslice(rel_a, 2)
        assert {t.fact for t in snapshot} == {("milk",), ("dates",)}
        for t in snapshot:
            assert t.interval == Interval(2, 3)

    def test_probabilities_preserved(self, rel_a):
        snapshot = timeslice(rel_a, 5)
        (milk,) = [t for t in snapshot if t.fact == ("milk",)]
        assert milk.p == pytest.approx(0.3)

    def test_empty_outside_domain(self, rel_a):
        assert len(timeslice(rel_a, 100)) == 0

    def test_snapshot_lineages(self, rel_c):
        lams = snapshot_lineages(rel_c, 7)
        assert str(lams[("milk",)]) == "c2"
        assert str(lams[("chips",)]) == "c4"
        assert ("dates",) not in lams


class TestCoalesce:
    def _t(self, fact, lam, lo, hi, p=None):
        return TPTuple((fact,), lam, Interval(lo, hi), p)

    def test_merges_adjacent_equal_lineage(self):
        v = Var("r1")
        merged = coalesce([self._t("x", v, 1, 3), self._t("x", v, 3, 6)])
        assert merged == [self._t("x", v, 1, 6)]

    def test_keeps_gap(self):
        v = Var("r1")
        merged = coalesce([self._t("x", v, 1, 3), self._t("x", v, 4, 6)])
        assert len(merged) == 2

    def test_keeps_different_lineage(self):
        merged = coalesce(
            [self._t("x", Var("r1"), 1, 3), self._t("x", Var("r2"), 3, 6)]
        )
        assert len(merged) == 2

    def test_keeps_different_facts(self):
        v = Var("r1")
        merged = coalesce([self._t("x", v, 1, 3), self._t("y", v, 3, 6)])
        assert len(merged) == 2

    def test_merge_chain(self):
        v = Var("r1")
        merged = coalesce(
            [self._t("x", v, 3, 6), self._t("x", v, 1, 3), self._t("x", v, 6, 9)]
        )
        assert merged == [self._t("x", v, 1, 9)]

    def test_probability_survives_merge(self):
        v = Var("r1")
        merged = coalesce(
            [self._t("x", v, 1, 3, 0.5), self._t("x", v, 3, 6, 0.5)]
        )
        assert merged[0].p == 0.5

    def test_none_probability_filled_from_partner(self):
        v = Var("r1")
        merged = coalesce(
            [self._t("x", v, 1, 3, None), self._t("x", v, 3, 6, 0.5)]
        )
        assert merged[0].p == 0.5

    def test_is_coalesced(self):
        v = Var("r1")
        assert is_coalesced([self._t("x", v, 1, 3), self._t("x", v, 4, 6)])
        assert not is_coalesced([self._t("x", v, 1, 3), self._t("x", v, 3, 6)])

    @given(tp_relation("r"))
    def test_idempotent(self, relation):
        once = coalesce(relation.tuples)
        twice = coalesce(once)
        assert once == twice

    @given(tp_relation("r"))
    def test_pointwise_preserving(self, relation):
        """Coalescing never changes which lineage is valid at any point."""
        merged = coalesce(relation.tuples)
        span = relation.time_span()
        if span is None:
            return
        for t in range(span.start, span.end):
            before = {
                (u.fact, u.lineage) for u in relation if u.interval.contains_point(t)
            }
            after = set()
            for u in merged:
                if u.interval.contains_point(t):
                    after.add((u.fact, u.lineage))
            assert before == after


class TestSortednessPropagation:
    def _pair(self):
        r = TPRelation.from_rows(
            "r", ("x",), [("v", 5, 9, 0.4), ("v", 1, 3, 0.5), ("w", 2, 6, 0.6)]
        )
        s = TPRelation.from_rows(
            "s", ("x",), [("v", 2, 7, 0.3), ("w", 4, 8, 0.9)]
        )
        return r, s

    def test_outputs_are_born_sorted(self):
        r, s = self._pair()
        for op in OPS:
            result = op(r, s)
            assert result.is_sorted_by_fact_ts
            assert is_sorted(result.sorted_tuples())

    def test_base_relations_discover_sortedness_lazily(self):
        r, _ = self._pair()
        assert not r.is_sorted_by_fact_ts  # insertion order is shuffled
        r.sorted_tuples()
        assert not r.is_sorted_by_fact_ts  # still a different order

    def test_assume_sorted_skips_the_sort(self):
        tuples = [
            TPTuple(("v",), Var("e1"), Interval(1, 3), 0.5),
            TPTuple(("v",), Var("e2"), Interval(4, 6), 0.5),
        ]
        rel = TPRelation(
            "pre", TPSchema(("x",)), tuples, {"e1": 0.5, "e2": 0.5},
            assume_sorted=True,
        )
        assert rel.is_sorted_by_fact_ts
        assert [t.lineage for t in rel.sorted_tuples()] == [Var("e1"), Var("e2")]

    def test_sorted_cache_survives_rename_and_materialize(self):
        r, s = self._pair()
        result = tp_union(r, s, materialize=False)
        assert result.rename("q").is_sorted_by_fact_ts
        assert result.materialize_probabilities().is_sorted_by_fact_ts

    def test_sortedness_is_decided_once(self):
        """The flag is a stored answer (declared at construction or found
        by the first sort), carried by rename / select / where /
        materialize and reset by unpickling."""
        import pickle

        tuples = [
            TPTuple(("v",), Var("e1"), Interval(1, 3)),
            TPTuple(("w",), Var("e2"), Interval(4, 6)),
        ]
        events = {"e1": 0.5, "e2": 0.5}
        in_order = TPRelation("in_order", TPSchema(("x",)), tuples, events)
        assert not in_order.is_sorted_by_fact_ts  # not known yet
        assert not in_order.rename("q").is_sorted_by_fact_ts
        cache = in_order.sorted_tuples()
        assert in_order.is_sorted_by_fact_ts  # discovered by the sort
        renamed = in_order.rename("q")
        assert renamed.is_sorted_by_fact_ts
        assert renamed.sorted_tuples() is cache  # the cache travels too
        assert in_order.select(x="v").is_sorted_by_fact_ts
        assert in_order.where(lambda t: True).is_sorted_by_fact_ts
        materialized = in_order.materialize_probabilities()
        assert materialized.is_sorted_by_fact_ts
        assert [t.p for t in materialized.sorted_tuples()] == [0.5, 0.5]
        reloaded = pickle.loads(pickle.dumps(in_order))
        assert not reloaded.is_sorted_by_fact_ts  # derived state is rebuilt
        reloaded.sorted_tuples()
        assert reloaded.is_sorted_by_fact_ts

        declared = TPRelation(
            "declared", TPSchema(("x",)), tuples, events, assume_sorted=True
        )
        assert declared.is_sorted_by_fact_ts  # before any sorted_tuples()
        assert declared.rename("q").is_sorted_by_fact_ts
        assert list(declared.sorted_tuples()) == tuples

    def test_materialize_drops_a_sort_cache_of_reordered_tuples(self):
        """Pinned behaviour: a sort order discovered for tuples whose
        insertion order differs is not carried through materialization
        (the copies would need re-mapping); the result re-sorts itself."""
        shuffled = TPRelation(
            "shuffled", TPSchema(("x",)),
            [
                TPTuple(("w",), Var("e2"), Interval(4, 6)),
                TPTuple(("v",), Var("e1"), Interval(1, 3)),
            ],
            {"e1": 0.5, "e2": 0.25},
        )
        shuffled.sorted_tuples()
        assert not shuffled.is_sorted_by_fact_ts
        materialized = shuffled.materialize_probabilities()
        assert not materialized.is_sorted_by_fact_ts
        assert [t.p for t in materialized] == [0.25, 0.5]  # insertion order
        assert [t.p for t in materialized.sorted_tuples()] == [0.5, 0.25]
        assert materialized.rename("q").sorted_tuples() is materialized.sorted_tuples()


def _raw_stream(rng: random.Random, n: int) -> list[TPTuple]:
    """A raw, not-yet-deduplicated stream: duplicate (fact, Ts) allowed."""
    out = []
    for i in range(n):
        fact = (rng.choice("xyz"),)
        start = rng.randint(0, 6)
        end = start + rng.randint(1, 5)
        out.append(TPTuple(fact, Var(f"raw{i}"), Interval(start, end)))
    return out


class TestSortingContract:
    def test_strategies_agree_on_raw_streams(self):
        rng = random.Random(7)
        for _ in range(300):
            stream = _raw_stream(rng, rng.randint(0, 14))
            assert sort_comparison(stream) == sort_counting(stream)

    def test_ties_broken_by_te_then_input_order(self):
        t_long = TPTuple(("x",), Var("t1"), Interval(2, 9))
        t_short = TPTuple(("x",), Var("t2"), Interval(2, 4))
        t_short2 = TPTuple(("x",), Var("t3"), Interval(2, 4))
        stream = [t_long, t_short, t_short2]
        expected = [t_short, t_short2, t_long]
        assert sort_comparison(stream) == expected
        assert sort_counting(stream) == expected

    def test_relation_sorted_tuples_matches_sort_comparison(self):
        # The default set-operation path sorts through the relation's
        # cache; its tie-breaking must match the explicit strategies.
        tuples = [
            TPTuple(("x",), Var("c1"), Interval(5, 10)),
            TPTuple(("x",), Var("c2"), Interval(5, 7)),
            TPTuple(("x",), Var("c3"), Interval(1, 4)),
        ]
        rel = TPRelation(
            "raw", TPSchema(("x",)), tuples,
            {"c1": 0.5, "c2": 0.5, "c3": 0.5}, validate=False,
        )
        assert rel.sorted_tuples() == sort_comparison(tuples) == sort_counting(tuples)

    def test_sparse_fallback_keeps_the_contract(self):
        # Huge start spread forces sort_counting's comparison fallback.
        stream = [
            TPTuple(("x",), Var("s1"), Interval(1_000_000, 1_000_002)),
            TPTuple(("x",), Var("s2"), Interval(0, 5)),
            TPTuple(("x",), Var("s3"), Interval(0, 2)),
        ]
        assert sort_counting(stream) == sort_comparison(stream)

    def test_is_sorted_uses_the_full_key(self):
        # A raw stream with a Te inversion at a tied (F, Ts) must not be
        # accepted as sorted, since the sorters would reorder it.
        stream = [
            TPTuple(("x",), Var("k1"), Interval(0, 9)),
            TPTuple(("x",), Var("k2"), Interval(0, 3)),
        ]
        assert not is_sorted(stream)
        assert is_sorted(sort_comparison(stream))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_agreement_is_seed_independent(self, seed):
        rng = random.Random(seed)
        stream = _raw_stream(rng, rng.randint(0, 20))
        assert sort_comparison(stream) == sort_counting(stream)
