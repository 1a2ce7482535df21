"""Property-based correctness of LAWA set operations.

The central invariant suite: on random duplicate-free relations, the LAWA
implementations must (a) agree exactly with the literal snapshot-semantics
oracle, (b) satisfy snapshot reducibility (Def. 1), change preservation
(Def. 2) and duplicate-freeness, and (c) produce 1OF lineages whose exact
probabilities match brute-force possible-world enumeration.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro import tp_except, tp_intersect, tp_union
from repro.lineage import is_one_occurrence_form
from repro.prob import clear_valuation_cache, valuation_cache_stats
from repro.semantics import (
    check_change_preservation,
    check_duplicate_free,
    check_snapshot_reducibility,
    marginal_via_worlds,
    snapshot_set_operation,
)

from .strategies import tp_relation_pair

OPS = {"union": tp_union, "intersect": tp_intersect, "except": tp_except}

relaxed = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


@pytest.mark.parametrize("op", sorted(OPS))
@relaxed
@given(pair=tp_relation_pair())
def test_the_oracle_valuates_each_distinct_lineage_once(op, pair):
    r, s = pair
    clear_valuation_cache()
    expected = snapshot_set_operation(op, r, s)
    distinct = len({t.lineage for t in expected})
    assert valuation_cache_stats() == {
        "hits": len(expected) - distinct, "misses": distinct, "swept": 0,
    }


@pytest.mark.parametrize("op", sorted(OPS))
class TestAgainstSnapshotOracle:
    @relaxed
    @given(pair=tp_relation_pair())
    def test_matches_oracle(self, op, pair):
        r, s = pair
        expected = snapshot_set_operation(op, r, s)
        actual = OPS[op](r, s)
        assert actual.equivalent_to(expected), (
            f"{op} mismatch:\nexpected:\n{expected.to_table()}\n"
            f"actual:\n{actual.to_table()}"
        )

    @relaxed
    @given(pair=tp_relation_pair())
    def test_snapshot_reducibility(self, op, pair):
        r, s = pair
        result = OPS[op](r, s)
        assert check_snapshot_reducibility(op, r, s, result) == []

    @relaxed
    @given(pair=tp_relation_pair())
    def test_change_preservation(self, op, pair):
        r, s = pair
        assert check_change_preservation(OPS[op](r, s)) == []

    @relaxed
    @given(pair=tp_relation_pair())
    def test_output_duplicate_free(self, op, pair):
        r, s = pair
        assert check_duplicate_free(OPS[op](r, s)) == []

    @relaxed
    @given(pair=tp_relation_pair())
    def test_single_operation_lineage_in_1of(self, op, pair):
        """Theorem 1, base case: one operation over base relations."""
        r, s = pair
        for t in OPS[op](r, s):
            assert is_one_occurrence_form(t.lineage)

    @relaxed
    @given(pair=tp_relation_pair())
    def test_output_size_linear(self, op, pair):
        """Prop. 1 consequence: at most nr + ns − fd output tuples."""
        r, s = pair
        if not len(r) and not len(s):
            return
        fd = len(r.facts() | s.facts())
        bound = r.endpoint_count() + s.endpoint_count() - max(1, fd)
        assert len(OPS[op](r, s)) <= max(bound, 0) + 1


@pytest.mark.parametrize("op", sorted(OPS))
class TestPossibleWorlds:
    @settings(max_examples=25, deadline=None)
    @given(pair=tp_relation_pair(max_facts=2, max_intervals=2))
    def test_probabilities_match_world_enumeration(self, op, pair):
        """Def. 1 numerically: P(fact at t) equals the summed probability
        of the worlds in which the per-world operation contains it."""
        r, s = pair
        if len(r.events) + len(s.events) > 10:
            return  # keep 2^n enumeration cheap
        result = OPS[op](r, s)
        for t in result:
            for point in (t.start, t.end - 1):
                expected = marginal_via_worlds(op, r, s, t.fact, point)
                assert t.p == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(pair=tp_relation_pair(max_facts=2, max_intervals=2))
    def test_absent_points_have_zero_marginal(self, op, pair):
        """Where the result has no tuple, the world-marginal must be 0."""
        r, s = pair
        if len(r.events) + len(s.events) > 10:
            return
        result = OPS[op](r, s)
        span_points = set()
        for u in list(r) + list(s):
            span_points.update(range(u.start, u.end))
        facts = r.facts() | s.facts()
        present = {
            (u.fact, point)
            for u in result
            for point in range(u.start, u.end)
        }
        for fact in facts:
            for point in span_points:
                if (fact, point) not in present:
                    assert marginal_via_worlds(op, r, s, fact, point) == pytest.approx(
                        0.0, abs=1e-12
                    )


class TestAlgebraicIdentities:
    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair())
    def test_intersection_subset_of_union(self, pair):
        r, s = pair
        union_points = {
            (t.fact, p) for t in tp_union(r, s) for p in range(t.start, t.end)
        }
        inter_points = {
            (t.fact, p) for t in tp_intersect(r, s) for p in range(t.start, t.end)
        }
        assert inter_points <= union_points

    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair())
    def test_except_covers_left_exactly(self, pair):
        """r −Tp s keeps *every* point of r (probabilistic semantics)."""
        r, s = pair
        left_points = {
            (t.fact, p) for t in r for p in range(t.start, t.end)
        }
        diff_points = {
            (t.fact, p) for t in tp_except(r, s) for p in range(t.start, t.end)
        }
        assert diff_points == left_points

    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair())
    def test_union_covers_both(self, pair):
        r, s = pair
        expected = {
            (t.fact, p) for t in list(r) + list(s) for p in range(t.start, t.end)
        }
        union_points = {
            (t.fact, p) for t in tp_union(r, s) for p in range(t.start, t.end)
        }
        assert union_points == expected

    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair())
    def test_self_union_covers_self(self, pair):
        """r ∪Tp r covers exactly r's points, with original probabilities.

        The lineage of each output tuple is λ∨λ (a repeated subgoal!),
        which is not in 1OF — the valuation must still return P(λ),
        exercising the Shannon fallback of the dispatcher.
        """
        r, _ = pair
        result = tp_union(r, r)
        points_expected = {
            (t.fact, p) for t in r for p in range(t.start, t.end)
        }
        points_actual = {
            (t.fact, p) for t in result for p in range(t.start, t.end)
        }
        assert points_actual == points_expected
        original = {(t.fact, t.start): t.p for t in r}
        for t in result:
            key = (t.fact, t.start)
            if key in original:
                assert t.p == pytest.approx(original[key])
