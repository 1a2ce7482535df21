"""Tests for the future-work algebra: TP join and TP projection.

Ground truth is per-time-point evaluation: at each time point the join
(projection) of the snapshots must match the snapshot of the result —
the same snapshot-reducibility discipline the set operations obey.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import SchemaMismatchError, TPRelation
from repro.algebra import tp_join, tp_project
from repro.lineage import is_one_occurrence_form
from repro.prob import clear_valuation_cache, valuation_cache_stats
from repro.semantics import check_change_preservation, check_duplicate_free

from .strategies import tp_relation


class TestJoinBasics:
    def test_doc_example(self):
        r = TPRelation.from_rows(
            "r", ("item", "store"), [("milk", "hb", 1, 5, 0.5)]
        )
        s = TPRelation.from_rows("s", ("item", "price"), [("milk", 2, 3, 8, 0.8)])
        result = tp_join(r, s, on=("item",))
        (t,) = list(result)
        assert t.fact == ("milk", "hb", 2)
        assert str(t.lineage) == "r1∧s1"
        assert (t.start, t.end) == (3, 5)
        assert t.p == pytest.approx(0.4)
        assert result.schema.attributes == ("item", "store", "price")

    def test_natural_join_uses_shared_attributes(self):
        r = TPRelation.from_rows("r", ("item",), [("milk", 1, 5, 0.5)])
        s = TPRelation.from_rows("s", ("item",), [("milk", 3, 8, 0.5)])
        result = tp_join(r, s)
        (t,) = list(result)
        assert (t.start, t.end) == (3, 5)

    def test_no_shared_attributes_rejected(self):
        r = TPRelation.from_rows("r", ("item",), [("milk", 1, 5, 0.5)])
        s = TPRelation.from_rows("s", ("price",), [(3, 3, 8, 0.5)])
        with pytest.raises(SchemaMismatchError):
            tp_join(r, s)

    def test_unknown_join_attribute_rejected(self):
        r = TPRelation.from_rows("r", ("item",), [("milk", 1, 5, 0.5)])
        s = TPRelation.from_rows("s", ("item",), [("milk", 3, 8, 0.5)])
        with pytest.raises(SchemaMismatchError):
            tp_join(r, s, on=("ghost",))

    def test_disjoint_times_empty(self):
        r = TPRelation.from_rows("r", ("item",), [("milk", 1, 3, 0.5)])
        s = TPRelation.from_rows("s", ("item",), [("milk", 5, 8, 0.5)])
        assert len(tp_join(r, s)) == 0

    def test_touching_intervals_empty(self):
        r = TPRelation.from_rows("r", ("item",), [("milk", 1, 3, 0.5)])
        s = TPRelation.from_rows("s", ("item",), [("milk", 3, 8, 0.5)])
        assert len(tp_join(r, s)) == 0

    def test_one_to_many(self):
        r = TPRelation.from_rows("r", ("item",), [("milk", 0, 10, 0.5)])
        s = TPRelation.from_rows(
            "s", ("item", "price"), [("milk", 2, 1, 4, 0.5), ("milk", 3, 6, 9, 0.5)]
        )
        result = tp_join(r, s)
        rows = {(t.fact, t.start, t.end) for t in result}
        assert rows == {
            (("milk", 2), 1, 4),
            (("milk", 3), 6, 9),
        }

    def test_duplicate_attribute_names_disambiguated(self):
        r = TPRelation.from_rows("r", ("item", "price"), [("milk", 1, 1, 5, 0.5)])
        s = TPRelation.from_rows("s", ("item", "price"), [("milk", 2, 3, 8, 0.5)])
        result = tp_join(r, s, on=("item",))
        assert result.schema.attributes == ("item", "price", "price_2")

    @settings(max_examples=40, deadline=None)
    @given(r=tp_relation("r"), s=tp_relation("s"))
    def test_pointwise_correct(self, r, s):
        """Snapshot reducibility of the join over random relations."""
        result = tp_join(r, s)
        span = set()
        for u in list(r) + list(s):
            span.update(range(u.start, u.end))
        for point in span:
            snap_r = [u for u in r if u.interval.contains_point(point)]
            snap_s = [u for u in s if u.interval.contains_point(point)]
            expected = {
                (rt.fact + st.fact[1:], str(rt.lineage), str(st.lineage))
                for rt in snap_r
                for st in snap_s
                if rt.fact[0] == st.fact[0]
            }
            actual = set()
            for t in result:
                if t.interval.contains_point(point):
                    lam_r, lam_s = t.lineage.children
                    actual.add((t.fact, str(lam_r), str(lam_s)))
            assert actual == expected

    @settings(max_examples=40, deadline=None)
    @given(r=tp_relation("r"), s=tp_relation("s"))
    def test_join_lineage_1of(self, r, s):
        for t in tp_join(r, s):
            assert is_one_occurrence_form(t.lineage)


class TestProjectBasics:
    def test_doc_example(self):
        r = TPRelation.from_rows(
            "r",
            ("item", "store"),
            [("milk", "hb", 1, 5, 0.5), ("milk", "oerlikon", 3, 8, 0.5)],
        )
        result = tp_project(r, ["item"])
        rows = {(t.start, t.end, str(t.lineage), round(t.p, 6)) for t in result}
        assert rows == {
            (1, 3, "r1", 0.5),
            (3, 5, "r1∨r2", 0.75),
            (5, 8, "r2", 0.5),
        }

    def test_identity_projection(self, rel_a):
        result = tp_project(rel_a, ["product"])
        assert result.equivalent_to(rel_a)

    def test_empty_attribute_list_rejected(self, rel_a):
        with pytest.raises(ValueError):
            tp_project(rel_a, [])

    def test_unknown_attribute_rejected(self, rel_a):
        with pytest.raises(SchemaMismatchError):
            tp_project(rel_a, ["color"])

    def test_output_duplicate_free_and_coalesced(self):
        r = TPRelation.from_rows(
            "r",
            ("item", "store"),
            [
                ("milk", "a", 0, 4, 0.5),
                ("milk", "b", 2, 6, 0.5),
                ("milk", "c", 8, 9, 0.5),
            ],
        )
        result = tp_project(r, ["item"])
        assert check_duplicate_free(result) == []
        assert check_change_preservation(result) == []

    def test_projection_merges_equal_adjacent_lineage(self):
        # Two stores with *identical* validity: fragments [1,5) from both
        # contributors collapse to a single maximal tuple.
        r = TPRelation.from_rows(
            "r",
            ("item", "store"),
            [("milk", "a", 1, 5, 0.5), ("milk", "b", 1, 5, 0.5)],
        )
        result = tp_project(r, ["item"])
        (t,) = list(result)
        assert str(t.lineage) == "r1∨r2"
        assert (t.start, t.end) == (1, 5)

    def test_repeated_lineages_are_valuated_once(self):
        # r1 covers [1,5); r2 inside it splits r1 into two fragments that
        # carry the same lineage object.
        r = TPRelation.from_rows(
            "r",
            ("item", "store"),
            [("milk", "a", 1, 5, 0.5), ("milk", "b", 3, 4, 0.5)],
        )
        clear_valuation_cache()
        result = tp_project(r, ["item"])
        assert [str(t.lineage) for t in result] == ["r1", "r1∨r2", "r1"]
        assert valuation_cache_stats() == {"hits": 1, "misses": 2, "swept": 0}

    @settings(max_examples=40, deadline=None)
    @given(r=tp_relation("r", max_facts=3, max_intervals=3))
    def test_pointwise_lineage_or(self, r):
        """At each point, the projected lineage is the OR of contributors."""
        result = tp_project(r, ["fact"])
        span = r.time_span()
        if span is None:
            return
        for point in range(span.start, span.end):
            for fact in {t.fact for t in r}:
                contributors = {
                    str(t.lineage)
                    for t in r
                    if t.fact == fact and t.interval.contains_point(point)
                }
                out = [
                    t
                    for t in result
                    if t.fact == fact and t.interval.contains_point(point)
                ]
                if not contributors:
                    assert out == []
                else:
                    assert len(out) == 1
                    assert set(map(str, _disjuncts(out[0].lineage))) == contributors

    @settings(max_examples=30, deadline=None)
    @given(r=tp_relation("r", max_facts=2, max_intervals=3))
    def test_probabilities_match_worlds(self, r):
        """Projection probabilities against brute-force enumeration."""
        if len(r.events) > 10:
            return
        from itertools import product as cartesian

        result = tp_project(r, ["fact"])
        for t in result:
            point = t.start
            expected = 0.0
            names = sorted(r.events)
            for bits in cartesian((False, True), repeat=len(names)):
                world = dict(zip(names, bits))
                weight = 1.0
                for name, present in world.items():
                    weight *= r.events[name] if present else 1 - r.events[name]
                holds = any(
                    world[str(u.lineage)]
                    for u in r
                    if u.fact == t.fact and u.interval.contains_point(point)
                )
                if holds:
                    expected += weight
            assert t.p == pytest.approx(expected)


def _disjuncts(lineage):
    from repro.lineage import Or

    if isinstance(lineage, Or):
        return lineage.children
    return (lineage,)
