"""Tests for TPRelation: construction, invariants, algebra helpers."""

from __future__ import annotations

import pytest

from repro import (
    DuplicateFactError,
    Interval,
    TPRelation,
    TPSchema,
    UnknownVariableError,
    base_tuple,
)
from repro.core.schema import make_fact
from repro.core.tuple import TPTuple
from repro.lineage import Var


class TestFromRows:
    def test_ids_and_events(self, rel_a):
        ids = [str(t.lineage) for t in rel_a]
        assert ids == ["a1", "a2", "a3"]
        assert rel_a.events == {"a1": 0.3, "a2": 0.8, "a3": 0.6}

    def test_row_arity_checked(self):
        with pytest.raises(ValueError, match="fields"):
            TPRelation.from_rows("r", ("x", "y"), [("only-one", 1, 2, 0.5)])

    def test_id_prefix(self):
        r = TPRelation.from_rows(
            "weird name", ("x",), [("v", 1, 2, 0.5)], id_prefix="w"
        )
        assert str(next(iter(r)).lineage) == "w1"

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            TPRelation.from_rows("r", ("x",), [("v", 1, 2, 0.0)])
        with pytest.raises(ValueError):
            TPRelation.from_rows("r", ("x",), [("v", 1, 2, 1.5)])


class TestDuplicateFreeness:
    def test_overlap_same_fact_rejected(self):
        with pytest.raises(DuplicateFactError):
            TPRelation.from_rows(
                "r", ("x",), [("v", 1, 5, 0.5), ("v", 4, 8, 0.5)]
            )

    def test_adjacent_same_fact_allowed(self):
        r = TPRelation.from_rows("r", ("x",), [("v", 1, 5, 0.5), ("v", 5, 8, 0.5)])
        assert len(r) == 2

    def test_overlap_different_facts_allowed(self):
        r = TPRelation.from_rows("r", ("x",), [("v", 1, 5, 0.5), ("w", 1, 5, 0.5)])
        assert len(r) == 2

    def test_validation_can_be_skipped(self):
        schema = TPSchema(("x",))
        t1 = base_tuple(("v",), "r1", Interval(1, 5), 0.5)
        t2 = base_tuple(("v",), "r2", Interval(4, 8), 0.5)
        r = TPRelation("r", schema, [t1, t2], {"r1": 0.5, "r2": 0.5}, validate=False)
        assert len(r) == 2


class TestEventValidation:
    def test_unknown_event_rejected(self):
        schema = TPSchema(("x",))
        t = TPTuple(("v",), Var("ghost"), Interval(1, 2))
        with pytest.raises(UnknownVariableError):
            TPRelation("r", schema, [t], {})

    def test_fact_arity_checked(self):
        schema = TPSchema(("x", "y"))
        t = base_tuple(("only-one",), "r1", Interval(1, 2), 0.5)
        with pytest.raises(ValueError, match="arity"):
            TPRelation("r", schema, [t], {"r1": 0.5})


class TestAccessors:
    def test_len_iter_bool(self, rel_a):
        assert len(rel_a) == 3
        assert bool(rel_a)
        assert not TPRelation("e", TPSchema(("x",)), [], {})

    def test_sorted_tuples(self, rel_a):
        ordered = rel_a.sorted_tuples()
        assert [t.fact for t in ordered] == [("chips",), ("dates",), ("milk",)]

    def test_facts(self, rel_c):
        assert rel_c.facts() == {("milk",), ("chips",)}

    def test_distinct_points(self, rel_a):
        assert rel_a.distinct_points() == {1, 2, 3, 4, 7, 10}

    def test_endpoint_count(self, rel_a):
        assert rel_a.endpoint_count() == 6

    def test_time_span(self, rel_a):
        assert rel_a.time_span() == Interval(1, 10)
        assert TPRelation("e", TPSchema(("x",)), [], {}).time_span() is None


class TestSelection:
    def test_select_equality(self, rel_c):
        milk = rel_c.select(product="milk")
        assert len(milk) == 2
        assert milk.facts() == {("milk",)}

    def test_select_keeps_events(self, rel_c):
        milk = rel_c.select(product="milk")
        assert milk.events == rel_c.events

    def test_select_matches_a_plain_filter(self):
        rows = [
            (k, c, ts, ts + 2, 0.5)
            for ts, (k, c) in enumerate(
                [("x", 1), ("y", 1), ("x", 2), ("z", 1), ("x", 1), ("y", 2)]
            )
        ]
        r = TPRelation.from_rows("r", ("k", "c"), rows)
        one = r.select(k="x")  # the specialised one-equality case
        assert list(one) == [t for t in r if t.fact[0] == "x"]  # same order
        assert one.name == "σ[k='x'](r)"
        two = r.select(c=1, k="x")  # the general case
        assert list(two) == [t for t in r if t.fact == ("x", 1)]
        assert two.name == "σ[c=1,k='x'](r)"
        assert list(r.select()) == list(r)
        assert len(r.select(k="nope")) == 0

    @staticmethod
    def _same_as_where(r: TPRelation, value: object) -> TPRelation:
        """``select`` on the leading attribute (a bisect over a sorted
        relation) must be ``where`` by predicate: same tuples, same
        order, same sortedness flag, the very same event map."""
        selected = r.select(k=value)
        scanned = r.where(lambda t: t.fact[0] == value)
        assert list(selected) == list(scanned)
        assert all(a is b for a, b in zip(selected, scanned))
        assert selected.is_sorted_by_fact_ts == scanned.is_sorted_by_fact_ts
        assert selected.events is r.events
        return selected

    def test_select_by_bisect_equals_where_by_predicate(self):
        rows = [
            (k, c, ts, ts + 2, 0.5)
            for ts, (k, c) in enumerate(
                [("x", 1), ("y", 1), ("x", 2), ("z", 1), ("x", 1), ("y", 2)]
            )
        ]
        unsorted = TPRelation.from_rows("r", ("k", "c"), rows)
        assert not unsorted.is_sorted_by_fact_ts
        ordered = TPRelation(
            "r", unsorted.schema, unsorted.sorted_tuples(), unsorted.events,
            assume_sorted=True,
        )
        empty = TPRelation("r", unsorted.schema, [], {}, assume_sorted=True)
        for r in (unsorted, ordered, empty):
            for value in ("x", "y", "z", "a", "xx", "zz", 7, None, float("nan")):
                self._same_as_where(r, value)  # present, absent, wrong type
        assert len(ordered.select(k="x")) == 3
        assert ordered.select(k="x").is_sorted_by_fact_ts
        numbers = TPRelation.from_rows(
            "n", ("k",), [(1, 0, 2, 0.5), (2, 0, 2, 0.5), (2, 3, 4, 0.5), (5, 0, 1, 0.5)]
        )
        numbers.sorted_tuples()  # discovers that insertion order is (F, Ts)
        assert numbers.is_sorted_by_fact_ts
        for value in (0, 1, 2, 2.0, True, 3, 9, "2", float("nan")):
            self._same_as_where(numbers, value)

    def test_select_on_an_unsorted_relation_indexes_the_leading_value_once(self):
        rows = [
            (k, c, ts, ts + 2, 0.5)
            for ts, (k, c) in enumerate(
                [("x", 1), ("y", 1), ("x", 2), ("z", 1), ("x", 1), ("y", 2)]
            )
        ]
        r = TPRelation.from_rows("r", ("k", "c"), rows)
        assert not r.is_sorted_by_fact_ts
        assert [t.start for t in r.select(k="x")] == [0, 2, 4]  # insertion order
        index = r._leading_index
        assert index is not None
        # Later selections look the value up; nothing is re-indexed.
        assert [t.start for t in r.select(k="y")] == [1, 5]
        assert [t.start for t in r.select(c=1, k="x")] == [0, 4]  # narrowed first
        assert len(r.select(k=["x"])) == 0  # unhashable: compared, not looked up
        assert r._leading_index is index
        assert r.rename("q")._leading_index is index
        # A sorted relation answers by bisect and builds no index.
        ordered = TPRelation(
            "o", r.schema, r.sorted_tuples(), r.events, assume_sorted=True
        )
        assert [t.start for t in ordered.select(c=1, k="x")] == [0, 4]
        assert ordered._leading_index is None

    def test_select_on_a_null_padded_join_output(self):
        from repro import tp_join_operation

        r = TPRelation.from_rows(
            "r", ("k", "a"), [("k1", "a1", 0, 4, 0.5), ("k2", "a1", 1, 3, 0.5)]
        )
        s = TPRelation.from_rows(
            "s", ("k", "b"), [("k1", "b1", 2, 6, 0.5), ("k3", "b1", 0, 2, 0.5)]
        )
        outer = tp_join_operation("full_outer", r, s, ("k",))
        assert outer.is_sorted_by_fact_ts
        assert {t.fact[1] for t in outer} >= {None, "a1"}
        for value in ("k1", "k2", "k3", "k0", "k9", None):
            self._same_as_where(outer, value)
        # A leading column that itself ends in nulls (k and a swapped; the
        # a column reads a1 … a1, None): a probe that lands on a null
        # cannot be ordered against the value, and the scan answers.
        null_led = TPRelation(
            "p", TPSchema(("k", "rest")),
            [TPTuple((t.fact[1], t.fact[0]), t.lineage, t.interval, t.p) for t in outer],
            outer.events, validate=False, assume_sorted=True,
        )
        assert [t.fact[0] for t in null_led][-1] is None
        for value in ("a1", None, "zz"):
            self._same_as_where(null_led, value)

    def test_select_unknown_attribute(self, rel_c):
        from repro import SchemaMismatchError

        with pytest.raises(SchemaMismatchError):
            rel_c.select(color="red")

    def test_where(self, rel_c):
        late = rel_c.where(lambda t: t.start >= 6)
        assert {t.start for t in late} == {6, 7}

    def test_rename(self, rel_a):
        assert rel_a.rename("a2").name == "a2"


class TestProbabilities:
    def test_materialize_idempotent(self, rel_a):
        assert rel_a.materialize_probabilities().equivalent_to(rel_a)

    def test_materialize_with_nothing_pending_is_the_relation(self, rel_a):
        # Relations are immutable: no copy of the tuples or the event map.
        assert rel_a.materialize_probabilities() is rel_a
        assert rel_a.select(product="milk").materialize_probabilities().name == (
            "σ[product='milk'](a)"
        )

    def test_materialize_keeps_already_valued_tuples(self):
        schema = TPSchema(("x",))
        valued = TPTuple(("v",), Var("e1"), Interval(1, 2), 0.5)
        pending = TPTuple(("v",), Var("e1") & Var("e2"), Interval(3, 4))
        r = TPRelation("r", schema, [valued, pending], {"e1": 0.5, "e2": 0.2})
        m = r.materialize_probabilities()
        assert m is not r and m.name == "r"
        assert m.tuples[0] is valued
        assert m.tuples[1].p == pytest.approx(0.1)
        assert m.tuples[1].interval == pending.interval
        assert m.tuples[1].lineage is pending.lineage

    def test_materialize_fills_missing(self):
        schema = TPSchema(("x",))
        t = TPTuple(("v",), Var("e1") & ~Var("e2"), Interval(1, 2))
        r = TPRelation("r", schema, [t], {"e1": 0.5, "e2": 0.2})
        filled = r.materialize_probabilities()
        assert next(iter(filled)).p == pytest.approx(0.4)

    def test_probability_of(self, rel_a):
        t = next(iter(rel_a))
        assert rel_a.probability_of(t) == pytest.approx(0.3)


class TestComparison:
    def test_equivalent_to_self(self, rel_a):
        assert rel_a.equivalent_to(rel_a)

    def test_equivalent_ignores_order(self, rel_a):
        reversed_rel = TPRelation(
            "a", rel_a.schema, list(reversed(rel_a.tuples)), rel_a.events
        )
        assert rel_a.equivalent_to(reversed_rel)

    def test_probability_tolerance(self, rel_a):
        bumped = TPRelation(
            "a",
            rel_a.schema,
            [TPTuple(t.fact, t.lineage, t.interval, t.p + 1e-12) for t in rel_a],
            rel_a.events,
        )
        assert rel_a.equivalent_to(bumped)
        shifted = TPRelation(
            "a",
            rel_a.schema,
            [TPTuple(t.fact, t.lineage, t.interval, min(1.0, t.p + 0.01)) for t in rel_a],
            rel_a.events,
        )
        assert not rel_a.equivalent_to(shifted)

    def test_different_contents(self, rel_a, rel_b):
        assert not rel_a.equivalent_to(rel_b)


class TestRendering:
    def test_to_table_contains_rows(self, rel_a):
        table = rel_a.to_table()
        assert "product" in table
        assert "'milk'" in table
        assert "[2,10)" in table

    def test_repr(self, rel_a):
        assert "3 tuples" in repr(rel_a)

    def test_make_fact_rejects_mutables(self):
        with pytest.raises(TypeError):
            make_fact([["nested", "list"]])
