"""Correctness of the generalized-window joins (outer & anti).

Three layers of ground truth:

1. the **naive sweepline baseline** (`repro.baselines.naive_join`) — an
   independent elementary-segment implementation the kernel must match
   tuple-for-tuple (facts, intervals, syntactic lineage, probabilities);
2. **possible-worlds enumeration** — at sampled time points, every
   output probability must equal the summed probability of the worlds
   whose deterministic snapshot join contains the fact, and absent
   (fact, point) combinations must have zero marginal;
3. **algebraic identities** — anti join on all attributes coincides with
   −ᵀᵖ, degenerate layouts collapse to projections/union.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Interval,
    TPRelation,
    tp_anti_join,
    tp_except,
    tp_full_outer_join,
    tp_join,
    tp_join_operation,
    tp_left_outer_join,
    tp_right_outer_join,
    tp_union,
)
from repro.algebra.join import JOIN_KINDS, _disambiguate, merge_fact_overlaps
from repro.baselines import get_join_algorithm, naive_join_operation
from repro.core.errors import UnsupportedOperationError
from repro.core.sorting import null_safe_key
from repro.core.tuple import TPTuple
from repro.db import TPDatabase
from repro.lineage import Var, is_one_occurrence_form
from repro.query import JoinNode, RelationRef, execute_plan, plan_query
from repro.query.parser import parse_query
from repro.semantics import join_marginal_via_worlds, query_marginals_via_worlds

from .strategies import tp_join_pair, tp_join_relation, tp_relation_pair

KINDS = sorted(JOIN_KINDS)


relaxed = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


def _rows(relation: TPRelation) -> list[tuple]:
    return [
        (t.fact, t.start, t.end, str(t.lineage), None if t.p is None else round(t.p, 9))
        for t in sorted(relation, key=null_safe_key)
    ]


@pytest.mark.parametrize("kind", KINDS)
class TestAgainstNaiveBaseline:
    @relaxed
    @given(pair=tp_join_pair())
    def test_matches_naive_sweepline(self, kind, pair):
        r, s = pair
        kernel = tp_join_operation(kind, r, s, on=("k",))
        naive = naive_join_operation(kind, r, s, on=("k",))
        assert _rows(kernel) == _rows(naive)
        assert kernel.schema.attributes == naive.schema.attributes

    @relaxed
    @given(pair=tp_join_pair(s_rest=False))
    def test_matches_naive_on_degenerate_right_side(self, kind, pair):
        """The right side is key-only: matched and preserved facts
        coincide and the layouts must collapse identically."""
        r, s = pair
        kernel = tp_join_operation(kind, r, s, on=("k",))
        naive = naive_join_operation(kind, r, s, on=("k",))
        assert _rows(kernel) == _rows(naive)

    @relaxed
    @given(pair=tp_join_pair())
    def test_output_duplicate_free_and_change_preserved(self, kind, pair):
        r, s = pair
        result = tp_join_operation(kind, r, s, on=("k",))
        ordered = sorted(result, key=null_safe_key)
        for prev, curr in zip(ordered, ordered[1:]):
            if prev.fact != curr.fact:
                continue
            assert curr.start >= prev.end, "output not duplicate-free"
            if curr.start == prev.end:
                assert curr.lineage is not prev.lineage, "intervals not maximal"

    @relaxed
    @given(pair=tp_join_pair())
    def test_lineage_in_1of(self, kind, pair):
        """One join over base relations keeps lineage in 1OF — matched
        pairs and negated disjunctions never repeat a variable."""
        r, s = pair
        for t in tp_join_operation(kind, r, s, on=("k",)):
            assert is_one_occurrence_form(t.lineage)


@pytest.mark.parametrize("kind", KINDS)
class TestPossibleWorlds:
    @settings(max_examples=25, deadline=None)
    @given(pair=tp_join_pair(max_facts=2, max_intervals=1))
    def test_probabilities_match_world_enumeration(self, kind, pair):
        r, s = pair
        if len(r.events) + len(s.events) > 8:
            return  # keep 2^n enumeration cheap
        result = tp_join_operation(kind, r, s, on=("k",))
        for t in result:
            for point in (t.start, t.end - 1):
                expected = join_marginal_via_worlds(kind, r, s, ("k",), t.fact, point)
                assert t.p == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(pair=tp_join_pair(max_facts=2, max_intervals=1))
    def test_absent_points_have_zero_marginal(self, kind, pair):
        r, s = pair
        if len(r.events) + len(s.events) > 8:
            return
        result = tp_join_operation(kind, r, s, on=("k",))
        span_points = set()
        for u in list(r) + list(s):
            span_points.update(range(u.start, u.end))
        present = {
            (u.fact, point) for u in result for point in range(u.start, u.end)
        }
        for fact in {u.fact for u in result}:
            for point in span_points:
                if (fact, point) not in present:
                    assert join_marginal_via_worlds(
                        kind, r, s, ("k",), fact, point
                    ) == pytest.approx(0.0, abs=1e-12)


class TestAlgebraicIdentities:
    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair())
    def test_anti_join_on_all_attributes_is_except(self, pair):
        """▷ᵀᵖ over the full schema coincides with −ᵀᵖ (both emit
        andNot lineage over the same window structure)."""
        r, s = pair
        anti = tp_anti_join(r, s, on=("fact",))
        diff = tp_except(r, s)
        assert anti.equivalent_to(diff)

    @settings(max_examples=40, deadline=None)
    @given(pair=tp_join_pair())
    def test_left_outer_covers_left_exactly(self, pair):
        """Every left point survives in a left outer join, and no
        right-only point appears."""
        r, s = pair
        result = tp_left_outer_join(r, s, on=("k",))
        left_points = {(t.fact, p) for t in r for p in range(t.start, t.end)}
        out_points = {
            (t.fact[:2], p) for t in result for p in range(t.start, t.end)
        }
        assert out_points == left_points

    @settings(max_examples=40, deadline=None)
    @given(pair=tp_join_pair())
    def test_full_outer_mirror_symmetry(self, pair):
        """r ⟗ s and s ⟗ r cover the same (key, time) points."""
        r, s = pair
        forward = tp_full_outer_join(r, s, on=("k",))
        backward = tp_full_outer_join(s, r, on=("k",))
        fwd = {(t.fact[0], p) for t in forward for p in range(t.start, t.end)}
        bwd = {(t.fact[0], p) for t in backward for p in range(t.start, t.end)}
        assert fwd == bwd


class TestEdgeCases:
    def _r(self):
        return TPRelation.from_rows(
            "r", ("k", "a"), [("k1", "x", 0, 5, 0.5), ("k2", "y", 2, 6, 0.4)]
        )

    def _empty(self, attributes):
        from repro import TPSchema

        return TPRelation("e", TPSchema(attributes), [], {})

    def test_left_outer_with_empty_right_preserves_all(self):
        r = self._r()
        result = tp_left_outer_join(r, self._empty(("k", "b")), on=("k",))
        assert _rows(result) == [
            (("k1", "x", None), 0, 5, "r1", 0.5),
            (("k2", "y", None), 2, 6, "r2", 0.4),
        ]

    def test_anti_with_empty_right_is_left(self):
        r = self._r()
        result = tp_anti_join(r, self._empty(("k", "b")), on=("k",))
        assert result.equivalent_to(r)

    def test_inner_with_empty_side_is_empty(self):
        r = self._r()
        assert len(tp_join(r, self._empty(("k", "b")), on=("k",))) == 0
        assert len(tp_join(self._empty(("k", "b")), r, on=("k",))) == 0

    def test_full_outer_with_empty_left_preserves_right(self):
        s = TPRelation.from_rows("s", ("k", "b"), [("k1", 7, 1, 4, 0.8)])
        result = tp_full_outer_join(self._empty(("k", "a")), s, on=("k",))
        assert _rows(result) == [(("k1", None, 7), 1, 4, "s1", 0.8)]

    def test_fully_overlapping_pair(self):
        """Identical intervals: the preserved window covers the whole
        tuple with the partner's negated lineage."""
        r = TPRelation.from_rows("r", ("k", "a"), [("k1", "x", 0, 4, 0.5)])
        s = TPRelation.from_rows("s", ("k", "b"), [("k1", 9, 0, 4, 0.25)])
        result = tp_left_outer_join(r, s, on=("k",))
        assert _rows(result) == [
            (("k1", "x", 9), 0, 4, "r1∧s1", 0.125),
            (("k1", "x", None), 0, 4, "r1∧¬s1", 0.375),
        ]

    def test_anti_join_fully_overlapping_is_negation(self):
        r = TPRelation.from_rows("r", ("k", "a"), [("k1", "x", 0, 4, 0.5)])
        s = TPRelation.from_rows("s", ("k", "b"), [("k1", 9, 0, 4, 0.25)])
        result = tp_anti_join(r, s, on=("k",))
        assert _rows(result) == [(("k1", "x"), 0, 4, "r1∧¬s1", 0.375)]

    def test_concurrent_matches_negate_disjunction(self):
        """Two right tuples valid at once: ¬(s1∨s2) in one window."""
        r = TPRelation.from_rows("r", ("k", "a"), [("k1", "x", 0, 4, 0.5)])
        s = TPRelation.from_rows(
            "s", ("k", "b"), [("k1", 1, 0, 4, 0.5), ("k1", 2, 0, 4, 0.5)]
        )
        result = tp_anti_join(r, s, on=("k",))
        assert _rows(result) == [(("k1", "x"), 0, 4, "r1∧¬(s1∨s2)", 0.125)]


class TestDegenerateLayouts:
    def test_left_outer_against_key_only_right_is_left(self):
        r = TPRelation.from_rows("r", ("k", "a"), [("k1", "x", 0, 5, 0.5)])
        s = TPRelation.from_rows("s", ("k",), [("k1", 2, 4, 0.8)])
        result = tp_left_outer_join(r, s, on=("k",))
        assert result.schema.attributes == ("k", "a")
        assert result.equivalent_to(r)

    def test_right_outer_of_key_only_left_is_right_projection(self):
        r = TPRelation.from_rows("r", ("k",), [("k1", 0, 2, 0.5)])
        s = TPRelation.from_rows("s", ("k", "b"), [("k1", 7, 1, 4, 0.8)])
        result = tp_right_outer_join(r, s, on=("k",))
        assert result.schema.attributes == ("k", "b")
        assert _rows(result) == [(("k1", 7), 1, 4, "s1", 0.8)]

    def test_full_outer_of_key_only_sides_is_union(self):
        r = TPRelation.from_rows("r", ("k",), [("k1", 0, 3, 0.5)])
        s = TPRelation.from_rows("s", ("k",), [("k1", 2, 5, 0.8)])
        result = tp_full_outer_join(r, s, on=("k",))
        assert result.equivalent_to(tp_union(r, s))

    def test_full_outer_of_null_padded_key_only_sides(self):
        # Both operands are outer-join outputs over the same attributes,
        # so the natural full outer join is key-only on both sides — and
        # the right side's facts hold None next to strings, which only
        # the null-safe order can sort (used to raise TypeError).
        q = TPRelation.from_rows("q", ("k", "a"), [("k1", "a1", 0, 4, 0.5)])
        e = TPRelation.from_rows("e", ("k", "b"), [("k1", "b1", 1, 3, 0.5)])
        left = tp_left_outer_join(q, e, on=("k",))
        right = tp_left_outer_join(q, e, on=("k",))
        assert any(None in t.fact for t in right)
        result = tp_full_outer_join(left, right)
        assert result.schema.attributes == ("k", "a", "b")
        assert {(t.fact, t.start, t.end) for t in result} == {
            (t.fact, t.start, t.end) for t in left
        }
        assert result.is_sorted_by_fact_ts


#: Outer joins over an outer-join operand, natural on (k, a): the
#: operand's `b` is None where it was padded, so a padded output fact
#: equals a matched fact, or the other side's padded fact, in time.
NULL_PADDED_SHAPES = {
    # p adds no attributes: preserved-right (k, a, None) vs matched.
    "right_outer": "(q LEFT OUTER JOIN e ON k) RIGHT OUTER JOIN p",
    # Mirror: preserved-left (k, a, None) vs matched with a padded right.
    "left_outer": "p LEFT OUTER JOIN (q LEFT OUTER JOIN e ON k)",
    # Right side key-only: collapse-carried left tuples vs preserved-right.
    "full_outer_s_collapse": "(q LEFT OUTER JOIN e ON k) FULL OUTER JOIN p",
    # Left side key-only: collapse-carried right tuples vs preserved-left.
    "full_outer_r_collapse": "p FULL OUTER JOIN (q LEFT OUTER JOIN e ON k)",
    # Both sides padded: matched, preserved-left and preserved-right meet.
    "full_outer_three_way": (
        "(q LEFT OUTER JOIN e ON k) FULL OUTER JOIN (p LEFT OUTER JOIN f ON k)"
    ),
}
NULL_PADDED_CATALOG = {
    "q": TPRelation.from_rows("q", ("k", "a"), [("k1", "a1", 0, 4, 0.5)]),
    "e": TPRelation.from_rows("e", ("k", "b"), [("k1", "b1", 1, 3, 0.5)]),
    "p": TPRelation.from_rows("p", ("k", "a"), [("k1", "a1", 2, 6, 0.4)]),
    "f": TPRelation.from_rows("f", ("k", "c"), [("k1", "c1", 3, 5, 0.6)]),
}


def assert_duplicate_free(relation: TPRelation) -> None:
    ordered = sorted(relation, key=null_safe_key)
    for prev, curr in zip(ordered, ordered[1:]):
        if prev.fact == curr.fact:
            assert curr.start >= prev.end, f"{curr.fact} overlaps in time"


def assert_matches_query_oracle(result: TPRelation, query, catalog) -> None:
    oracle = query_marginals_via_worlds(query, catalog)
    computed = {
        (t.fact, point): t.p for t in result for point in range(t.start, t.end)
    }
    # A contradictory lineage is a stored tuple of probability zero and
    # a position the oracle never lists.
    for position in computed.keys() | oracle.keys():
        assert computed.get(position, 0.0) == pytest.approx(
            oracle.get(position, 0.0), abs=1e-9
        ), position


@pytest.mark.parametrize("shape", sorted(NULL_PADDED_SHAPES))
class TestNullPaddedCollisions:
    """Coinciding padded facts collapse into one duplicate-free run whose
    segments carry the disjunction of the coinciding lineages."""

    def _result(self, shape, materialize=True):
        query = parse_query(NULL_PADDED_SHAPES[shape])
        return execute_plan(
            plan_query(query), NULL_PADDED_CATALOG, materialize=materialize
        )

    def test_output_duplicate_free(self, shape):
        result = self._result(shape)
        assert_duplicate_free(result)
        assert any(None in t.fact for t in result)

    def test_probabilities_match_world_enumeration(self, shape):
        query = parse_query(NULL_PADDED_SHAPES[shape])
        assert_matches_query_oracle(self._result(shape), query, NULL_PADDED_CATALOG)

    def test_lineage_only_then_materialized_is_identical(self, shape):
        once = self._result(shape)
        two_pass = self._result(shape, materialize=False).materialize_probabilities()
        assert [(t.fact, t.interval, t.p) for t in once] == [
            (t.fact, t.interval, t.p) for t in two_pass
        ]
        assert all(t.lineage is u.lineage for t, u in zip(once, two_pass))

    def test_result_feeds_a_set_operation(self, shape):
        # LAWA asserts duplicate-free input (it raised on the collision).
        result = self._result(shape)
        union = tp_union(result, result)
        assert [(t.fact, t.interval) for t in union] == [
            (t.fact, t.interval) for t in result
        ]
        assert [t.p for t in union] == pytest.approx([t.p for t in result])

    def test_store_backed_equals_catalog(self, shape):
        db = TPDatabase()
        for relation in NULL_PADDED_CATALOG.values():
            db.register(relation)
            db.store(relation.name)
        stored = db.query(NULL_PADDED_SHAPES[shape])
        catalog = self._result(shape)
        assert [(t.fact, t.interval, t.p) for t in stored] == [
            (t.fact, t.interval, t.p) for t in catalog
        ]
        assert all(t.lineage is u.lineage for t, u in zip(stored, catalog))


def test_right_outer_collision_segments():
    """(q ⟕ e) ⟖ p: p's padded fact meets the matched (k1, a1, None)
    over [2, 4) and is split there, never duplicated."""
    result = execute_plan(
        plan_query(parse_query(NULL_PADDED_SHAPES["right_outer"])),
        NULL_PADDED_CATALOG,
    )
    padded = [t for t in result if t.fact == ("k1", "a1", None)]
    assert [(t.start, t.end) for t in padded] == [(2, 3), (3, 4), (4, 6)]
    assert str(padded[-1].lineage) == "p1"


@pytest.mark.parametrize("on", [None, ("k",)], ids=["natural", "on_k"])
@pytest.mark.parametrize("side", ["padded_left", "padded_right"])
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_outer_join_operand_duplicate_free_and_exact(kind, side, on, data):
    """Every join kind over a left-outer-join operand (which carries
    None-padded facts), on either side, natural or explicit: the output
    stays duplicate-free and matches possible-worlds enumeration."""
    catalog = {
        "q": data.draw(tp_join_relation("q", ("k", "a"), ["a1", "a2"], max_facts=2,
                                        max_intervals=1)),
        "e": data.draw(tp_join_relation("e", ("k", "b"), ["b1"], max_facts=2,
                                        max_intervals=1)),
        "p": data.draw(tp_join_relation("p", ("k", "a"), ["a1", "a2"], max_facts=2,
                                        max_intervals=2)),
    }
    padded = JoinNode("left_outer", RelationRef("q"), RelationRef("e"), ("k",))
    if side == "padded_left":
        query = JoinNode(kind, padded, RelationRef("p"), on)
    else:
        query = JoinNode(kind, RelationRef("p"), padded, on)
    result = execute_plan(plan_query(query), catalog)
    assert_duplicate_free(result)
    if sum(len(rel) for rel in catalog.values()) <= 10:
        assert_matches_query_oracle(result, query, catalog)


class TestMergeFactOverlaps:
    def _tuples(self, rows):
        return [
            TPTuple(fact, Var(name), Interval(ts, te)) for fact, name, ts, te in rows
        ]

    def test_no_overlap_returns_the_same_list(self):
        tuples = self._tuples(
            [(("x",), "a", 0, 2), (("x",), "b", 2, 4), (("y",), "c", 1, 3)]
        )
        assert merge_fact_overlaps(tuples) is tuples

    def test_three_way_overlap_splits_at_every_end_point(self):
        tuples = self._tuples(
            [(("x",), "a", 0, 4), (("x",), "b", 1, 3), (("x",), "c", 2, 6),
             (("y",), "d", 0, 9)]
        )
        merged = merge_fact_overlaps(tuples)
        assert [(t.fact, t.start, t.end, str(t.lineage)) for t in merged] == [
            (("x",), 0, 1, "a"),
            (("x",), 1, 2, "a∨b"),
            (("x",), 2, 3, "a∨b∨c"),
            (("x",), 3, 4, "a∨c"),
            (("x",), 4, 6, "c"),
            (("y",), 0, 9, "d"),
        ]
        assert all(t.p is None for t in merged)

    def test_nested_interval_rejoins_around_the_overlap(self):
        tuples = self._tuples([(("x", None), "a", 0, 6), (("x", None), "b", 2, 3)])
        merged = merge_fact_overlaps(tuples)
        assert [(t.start, t.end, str(t.lineage)) for t in merged] == [
            (0, 2, "a"),
            (2, 3, "a∨b"),
            (3, 6, "a"),
        ]


class TestDisambiguate:
    def test_three_way_collision(self):
        assert _disambiguate(("a", "a", "a")) == ("a", "a_2", "a_3")

    def test_collision_with_literal_suffix_name(self):
        """A generated suffix must never shadow a literal attribute."""
        assert _disambiguate(("a", "a_2", "a")) == ("a", "a_2", "a_3")
        assert _disambiguate(("a", "a", "a_2")) == ("a", "a_3", "a_2")

    def test_four_way_collision_deterministic(self):
        assert _disambiguate(("x", "x", "x", "x")) == ("x", "x_2", "x_3", "x_4")

    def test_no_collision_is_identity(self):
        assert _disambiguate(("a", "b", "c")) == ("a", "b", "c")

    def test_join_schema_with_triple_name_clash(self):
        r = TPRelation.from_rows(
            "r", ("item", "price", "price_2"), [("milk", 1, 2, 1, 5, 0.5)]
        )
        s = TPRelation.from_rows(
            "s", ("item", "price"), [("milk", 3, 3, 8, 0.5)]
        )
        result = tp_join(r, s, on=("item",))
        assert result.schema.attributes == ("item", "price", "price_2", "price_3")


class TestJoinRegistry:
    def test_kernel_and_naive_registered(self):
        assert get_join_algorithm("GTWINDOW").name == "GTWINDOW"
        assert get_join_algorithm("naive-sweep").name == "NAIVE-SWEEP"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            get_join_algorithm("GHOST")

    def test_unknown_kind_rejected(self):
        r = TPRelation.from_rows("r", ("k",), [("k1", 0, 2, 0.5)])
        with pytest.raises(UnsupportedOperationError):
            tp_join_operation("semi", r, r)

    def test_algorithms_agree_through_registry(self):
        r = TPRelation.from_rows("r", ("k", "a"), [("k1", "x", 0, 5, 0.5)])
        s = TPRelation.from_rows("s", ("k", "b"), [("k1", 7, 2, 8, 0.8)])
        for kind in KINDS:
            kernel = get_join_algorithm("GTWINDOW").compute(kind, r, s, on=("k",))
            naive = get_join_algorithm("NAIVE-SWEEP").compute(kind, r, s, on=("k",))
            assert _rows(kernel) == _rows(naive)
