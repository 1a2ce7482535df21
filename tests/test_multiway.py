"""Tests for n-ary TP union and intersection: left folds of the binary
LAWA kernel, lineage-identical to the left-deep ``tp_union`` /
``tp_intersect`` chain."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import UnsupportedOperationError, tp_except, tp_intersect, tp_union
from repro.core.setops import multi_intersect, multi_union
from repro.query import MultiOpNode, RelationRef
from repro.semantics import (
    check_change_preservation,
    check_duplicate_free,
    query_marginals_via_worlds,
)

from .strategies import tp_relation

FOLDS = {"union": (multi_union, tp_union), "intersect": (multi_intersect, tp_intersect)}


@st.composite
def operands(draw, max_relations: int = 5, **kwargs):
    """2–``max_relations`` relations with distinct names and event ids."""
    n = draw(st.integers(min_value=2, max_value=max_relations))
    return [draw(tp_relation(f"x{i + 1}", **kwargs)) for i in range(n)]


def assert_is_left_deep_chain(op: str, relations) -> None:
    nary, binary = FOLDS[op]
    result = nary(*relations)
    chain = relations[0]
    for relation in relations[1:]:
        chain = binary(chain, relation)
    assert len(result) == len(chain)
    for mine, theirs in zip(result.sorted_tuples(), chain.sorted_tuples()):
        assert (mine.fact, mine.interval) == (theirs.fact, theirs.interval)
        assert mine.lineage is theirs.lineage  # interned: one node each
        assert mine.p == theirs.p


def assert_matches_worlds(op: str, relations) -> None:
    result = FOLDS[op][0](*relations)
    query = MultiOpNode(op, tuple(RelationRef(r.name) for r in relations))
    oracle = query_marginals_via_worlds(query, {r.name: r for r in relations})
    computed = {
        (t.fact, point): t.p for t in result for point in range(t.start, t.end)
    }
    for key in set(oracle) | set(computed):
        assert computed.get(key, 0.0) == pytest.approx(oracle.get(key, 0.0), abs=1e-9), key


class TestMultiUnion:
    def test_paper_relations(self, rel_a, rel_b, rel_c):
        result = multi_union(rel_a, rel_b, rel_c)
        folded = tp_union(tp_union(rel_a, rel_b), rel_c)
        # Same facts/intervals/probabilities; lineage association may
        # differ ((a∨b)∨c vs a∨b∨c) — flattening makes them equal here.
        assert result.contents() == folded.contents()
        mine = {(t.fact, t.interval): t.p for t in result}
        theirs = {(t.fact, t.interval): t.p for t in folded}
        for key, p in mine.items():
            assert p == pytest.approx(theirs[key])

    def test_three_way_overlap_lineage(self):
        from repro import TPRelation

        r1 = TPRelation.from_rows("r1", ("x",), [("f", 0, 10, 0.5)])
        r2 = TPRelation.from_rows("r2", ("x",), [("f", 2, 8, 0.5)])
        r3 = TPRelation.from_rows("r3", ("x",), [("f", 4, 6, 0.5)])
        result = multi_union(r1, r2, r3)
        rows = {(t.start, t.end, str(t.lineage)) for t in result}
        assert rows == {
            (0, 2, "r11"),
            (2, 4, "r11∨r21"),
            (4, 6, "r11∨r21∨r31"),
            (6, 8, "r11∨r21"),
            (8, 10, "r11"),
        }

    @settings(max_examples=30, deadline=None)
    @given(relations=operands(max_facts=2, max_intervals=3))
    def test_equals_folded_binary(self, relations):
        assert_is_left_deep_chain("union", relations)

    @settings(max_examples=20, deadline=None)
    @given(relations=operands(max_facts=1, max_intervals=2))
    def test_agrees_with_possible_worlds(self, relations):
        assert_matches_worlds("union", relations)

    @settings(max_examples=30, deadline=None)
    @given(
        r1=tp_relation("x1", max_facts=2, max_intervals=3),
        r2=tp_relation("x2", max_facts=2, max_intervals=3),
    )
    def test_two_way_matches_binary(self, r1, r2):
        assert multi_union(r1, r2).equivalent_to(tp_union(r1, r2))

    @settings(max_examples=25, deadline=None)
    @given(
        r1=tp_relation("x1", max_facts=2, max_intervals=3),
        r2=tp_relation("x2", max_facts=2, max_intervals=3),
        r3=tp_relation("x3", max_facts=2, max_intervals=3),
    )
    def test_invariants(self, r1, r2, r3):
        result = multi_union(r1, r2, r3)
        assert check_duplicate_free(result) == []
        assert check_change_preservation(result) == []


class TestMultiIntersect:
    def test_three_way(self):
        from repro import TPRelation

        r1 = TPRelation.from_rows("r1", ("x",), [("f", 0, 10, 0.5)])
        r2 = TPRelation.from_rows("r2", ("x",), [("f", 2, 8, 0.4)])
        r3 = TPRelation.from_rows("r3", ("x",), [("f", 4, 6, 0.2)])
        result = multi_intersect(r1, r2, r3)
        (t,) = list(result)
        assert (t.start, t.end) == (4, 6)
        assert str(t.lineage) == "r11∧r21∧r31"
        assert t.p == pytest.approx(0.5 * 0.4 * 0.2)

    @settings(max_examples=30, deadline=None)
    @given(relations=operands(max_facts=2, max_intervals=3))
    def test_equals_folded_binary(self, relations):
        assert_is_left_deep_chain("intersect", relations)

    @settings(max_examples=20, deadline=None)
    @given(relations=operands(max_facts=1, max_intervals=2))
    def test_agrees_with_possible_worlds(self, relations):
        assert_matches_worlds("intersect", relations)

    def test_early_exit_on_exhausted_side(self, rel_a, rel_b):
        from repro import TPRelation

        empty = TPRelation.from_rows("e", ("product",), [])
        assert len(multi_intersect(rel_a, empty, rel_b)) == 0


class TestDifferenceComposition:
    @settings(max_examples=30, deadline=None)
    @given(
        r=tp_relation("x1", max_facts=2, max_intervals=3),
        s1=tp_relation("x2", max_facts=2, max_intervals=3),
        s2=tp_relation("x3", max_facts=2, max_intervals=3),
    )
    def test_chained_difference_via_multi_union(self, r, s1, s2):
        """r − s1 − s2 covers the same (fact, point, probability) space as
        r − (s1 ∪ s2); lineages differ syntactically but agree
        semantically."""
        chained = tp_except(tp_except(r, s1), s2)
        via_union = tp_except(r, multi_union(s1, s2))
        left = {(t.fact, p) for t in chained for p in range(t.start, t.end)}
        right = {(t.fact, p) for t in via_union for p in range(t.start, t.end)}
        assert left == right
        probs_left = {
            (t.fact, p): t.p for t in chained for p in range(t.start, t.end)
        }
        probs_right = {
            (t.fact, p): t.p for t in via_union for p in range(t.start, t.end)
        }
        for key, value in probs_left.items():
            assert value == pytest.approx(probs_right[key])


class TestSweepMechanics:
    def test_needs_two_relations(self, rel_a):
        with pytest.raises(UnsupportedOperationError):
            multi_union(rel_a)

    def test_schema_compatibility(self, rel_a):
        from repro import SchemaMismatchError, TPRelation

        wide = TPRelation.from_rows(
            "w", ("product", "store"), [("milk", "hb", 1, 3, 0.5)]
        )
        with pytest.raises(SchemaMismatchError):
            multi_union(rel_a, wide)

    def test_window_count_bound(self, rel_a, rel_b, rel_c):
        """Generalized Prop. 1: the n-ary union, one tuple per window,
        has ≤ Σ nᵢ − fd tuples (nᵢ: end points of rᵢ; fd: distinct facts)."""
        result = multi_union(rel_a, rel_b, rel_c)
        bound = (
            rel_a.endpoint_count()
            + rel_b.endpoint_count()
            + rel_c.endpoint_count()
            - len(rel_a.facts() | rel_b.facts() | rel_c.facts())
        )
        assert len(result) <= bound
