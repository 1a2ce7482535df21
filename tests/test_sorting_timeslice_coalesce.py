"""Tests for sorting strategies, the timeslice operator, and coalescing."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro import Interval, TPRelation, TPSchema, coalesce, is_coalesced, timeslice
from repro.core.errors import DuplicateFactError
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
