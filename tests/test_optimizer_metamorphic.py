"""Plan-space metamorphic harness for the cost-based optimizer.

The optimizer's contract (DESIGN.md §11): **every** plan the enumerator
can emit is result-equivalent to the unoptimized plan —

* *safe* plans (pushdown, flattening, join reassociation) are
  **lineage-identical**: same tuples, same intervals, and the identical
  interned lineage objects, hence float-identical probabilities;
* *aggressive* plans (difference fusion, multiway reordering) may change
  the lineage *form* but preserve tuples, intervals and probabilities.

Three layers of attack:

* a fixed 4-relation query whose plan space is enumerated exhaustively
  (≥ 4 distinct plans), every plan executed and compared to the
  unoptimized plan *and* to the possible-worlds oracle;
* hypothesis property tests over random query trees
  (``tests/strategies.query_scenario``: selections, all five joins,
  n-ary set-op chains, repeated subgoals) proving the same for the whole
  enumerated space of each random tree;
* cost-model/choice sanity: the chooser is deterministic, never picks a
  plan worse than the unrewritten tree under its own model, and its
  statistics inputs agree between the lazy relation path and the
  incrementally maintained store path.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import assume, given, settings

from repro import TPRelation
from repro.core.sorting import null_safe_key
from repro.query import (
    choose_plan,
    enumerate_plans,
    execute_plan,
    parse_query,
    plan_query,
    relation_stats,
)
from repro.semantics import query_marginals_via_worlds

from .strategies import query_scenario

TOL = 1e-9


def run_plan(node, catalog) -> TPRelation:
    return execute_plan(plan_query(node), catalog)


def stats_of(catalog) -> dict:
    return {name: relation_stats(rel) for name, rel in catalog.items()}


def shape(relation) -> Counter:
    """Multiset of (fact, interval) — the tuple/interval fingerprint."""
    return Counter((t.fact, t.interval) for t in relation)


def point_probabilities(relation) -> dict:
    return {
        (t.fact, point): t.p
        for t in relation
        for point in range(t.start, t.end)
    }


def assert_lineage_identical(result, reference) -> None:
    """Same tuples, same intervals, *identical* interned lineages, same
    floats — the safe-plan contract (tuple order may differ between
    plan shapes; compare in (F, Ts) order)."""
    assert len(result) == len(reference)
    left = sorted(result, key=null_safe_key)
    right = sorted(reference, key=null_safe_key)
    for mine, theirs in zip(left, right):
        assert mine.fact == theirs.fact
        assert mine.interval == theirs.interval
        assert mine.lineage is theirs.lineage, (
            f"lineage diverged: {mine.lineage} vs {theirs.lineage}"
        )
        assert mine.p == theirs.p


def assert_probability_identical(result, reference, tol: float = TOL) -> None:
    """Same tuples and intervals; probabilities equal within ``tol`` —
    the aggressive-plan contract (lineage form may differ)."""
    assert shape(result) == shape(reference)
    mine = point_probabilities(result)
    theirs = point_probabilities(reference)
    assert mine.keys() == theirs.keys()
    for key, p in mine.items():
        assert p == pytest.approx(theirs[key], abs=tol), key


def assert_matches_oracle(result, query, catalog, tol: float = TOL) -> None:
    oracle = query_marginals_via_worlds(query, catalog)
    computed = point_probabilities(result)
    for key in set(oracle) | set(computed):
        got = computed.get(key, 0.0)
        expected = oracle.get(key, 0.0)
        assert got == pytest.approx(expected, abs=tol), key


# ----------------------------------------------------------------------
# exhaustive enumeration over a fixed 4-relation query
# ----------------------------------------------------------------------
class TestFourRelationPlanSpace:
    QUERY = "((r1 | r2) | r3)[x='f'] - r4"

    @pytest.fixture
    def catalog(self):
        return {
            "r1": TPRelation.from_rows(
                "r1", ("x",), [("f", 0, 6, 0.5), ("g", 1, 4, 0.3)]
            ),
            "r2": TPRelation.from_rows("r2", ("x",), [("f", 2, 8, 0.4)]),
            "r3": TPRelation.from_rows(
                "r3", ("x",), [("f", 5, 9, 0.6), ("g", 2, 3, 0.9)]
            ),
            "r4": TPRelation.from_rows("r4", ("x",), [("f", 0, 2, 0.2)]),
        }

    def test_enumerates_at_least_four_distinct_plans(self, catalog):
        plans = enumerate_plans(parse_query(self.QUERY), stats=stats_of(catalog))
        assert len(plans) >= 4
        assert len(set(map(str, plans))) == len(plans)

    def test_every_safe_plan_lineage_identical_and_oracle_exact(self, catalog):
        query = parse_query(self.QUERY)
        plans = enumerate_plans(query, stats=stats_of(catalog))
        reference = run_plan(plans[0], catalog)  # the unoptimized shape
        assert_matches_oracle(reference, query, catalog)
        for plan in plans[1:]:
            result = run_plan(plan, catalog)
            assert_lineage_identical(result, reference)
            assert_matches_oracle(result, query, catalog)

    def test_every_aggressive_plan_probability_identical(self, catalog):
        query = parse_query("r1 - r2 - r3 - r4")
        plans = enumerate_plans(
            query, stats=stats_of(catalog), aggressive=True
        )
        fused = [p for p in plans if "∪" in str(p)]
        assert fused, "difference fusion must appear in the aggressive space"
        reference = run_plan(plans[0], catalog)
        assert_matches_oracle(reference, query, catalog)
        for plan in plans[1:]:
            result = run_plan(plan, catalog)
            assert_probability_identical(result, reference)
            assert_matches_oracle(result, query, catalog)

    def test_join_chain_reassociations_all_identical(self):
        catalog = {
            "j1": TPRelation.from_rows(
                "j1", ("k", "a"),
                [("k1", "a1", 0, 6, 0.5), ("k2", "a1", 1, 4, 0.3)],
            ),
            "j2": TPRelation.from_rows(
                "j2", ("k", "b"), [("k1", "b1", 2, 8, 0.4), ("k2", "b2", 0, 3, 0.9)]
            ),
            "j3": TPRelation.from_rows("j3", ("b", "c"), [("b1", "c1", 1, 9, 0.6)]),
            "j4": TPRelation.from_rows("j4", ("c", "d"), [("c1", "d1", 0, 7, 0.8)]),
        }
        query = parse_query("j1 JOIN j2 JOIN j3 JOIN j4")
        plans = enumerate_plans(query, stats=stats_of(catalog))
        assert len(plans) >= 4  # the association shapes of a 4-chain
        reference = run_plan(plans[0], catalog)
        assert_matches_oracle(reference, query, catalog)
        for plan in plans[1:]:
            assert_lineage_identical(run_plan(plan, catalog), reference)

    def test_chooser_is_deterministic_and_never_worse(self, catalog):
        query = parse_query(self.QUERY)
        stats = stats_of(catalog)
        first = choose_plan(query, stats)
        again = choose_plan(query, stats)
        assert first.chosen == again.chosen
        unrewritten_cost = first.candidates[0][1].cost
        assert first.estimate.cost <= unrewritten_cost
        assert first.chosen_index == min(
            range(first.n_candidates),
            key=lambda i: (first.candidates[i][1].cost, i),
        )


# ----------------------------------------------------------------------
# random query trees: the whole enumerated space, per tree
# ----------------------------------------------------------------------
class TestMetamorphicRandomTrees:
    @settings(max_examples=30, deadline=None)
    @given(scenario=query_scenario())
    def test_safe_plans_lineage_identical(self, scenario):
        catalog, query = scenario
        plans = enumerate_plans(query, stats=stats_of(catalog), limit=16)
        reference = run_plan(plans[0], catalog)
        for plan in plans[1:]:
            assert_lineage_identical(run_plan(plan, catalog), reference)

    @settings(max_examples=20, deadline=None)
    @given(scenario=query_scenario(max_depth=2))
    def test_aggressive_plans_probability_identical(self, scenario):
        catalog, query = scenario
        plans = enumerate_plans(
            query, stats=stats_of(catalog), aggressive=True, limit=16
        )
        reference = run_plan(plans[0], catalog)
        for plan in plans[1:]:
            assert_probability_identical(run_plan(plan, catalog), reference)

    @settings(max_examples=15, deadline=None)
    @given(scenario=query_scenario(max_relations=3, max_depth=2, max_intervals=1))
    def test_all_plans_match_possible_worlds_oracle(self, scenario):
        catalog, query = scenario
        total_events = sum(len(rel) for rel in catalog.values())
        assume(0 < total_events <= 10)  # 2¹⁰ worlds stays fast
        plans = enumerate_plans(
            query, stats=stats_of(catalog), aggressive=True, limit=8
        )
        for plan in plans:
            assert_matches_oracle(run_plan(plan, catalog), query, catalog)

    @settings(max_examples=20, deadline=None)
    @given(scenario=query_scenario(max_depth=2))
    def test_chosen_plan_equivalent_to_unoptimized(self, scenario):
        catalog, query = scenario
        stats = stats_of(catalog)
        choice = choose_plan(query, stats)
        assert_lineage_identical(
            run_plan(choice.chosen, catalog), run_plan(query, catalog)
        )


def test_multiway_reordering_keeps_the_operand_that_names_the_schema_first():
    """``q3`` is the smallest operand but names the second attribute ``b``."""
    catalog = {
        "q2": TPRelation.from_rows("q2", ("k", "a"), [("k1", "k1", 0, 4, 0.5)]),
        "q3": TPRelation.from_rows("q3", ("k", "b"), []),
    }
    query = parse_query("((q2 | q2) | q3)[a='k1']")
    plans = enumerate_plans(query, stats=stats_of(catalog), aggressive=True)
    reference = run_plan(plans[0], catalog)
    for plan in plans[1:]:
        assert_probability_identical(run_plan(plan, catalog), reference)


# ----------------------------------------------------------------------
# statistics: lazy relation path ≡ incremental store path
# ----------------------------------------------------------------------
class TestStatisticsConsistency:
    def test_incremental_store_stats_match_scratch_recompute(self):
        from repro.query.stats import stats_from_tuples
        from repro.store import SegmentStore, StoreStatistics

        store = SegmentStore("r", ("k", "a"))
        store.insert(
            [("k1", "a1", 0, 4, 0.5), ("k2", "a2", 2, 6, 0.7), ("k1", "a2", 5, 9, 0.4)]
        )
        maintainer = StoreStatistics(store)

        def assert_consistent():
            incremental = maintainer.current()
            scratch = stats_from_tuples("r", ("k", "a"), store.iter_sorted())
            assert incremental.n_tuples == scratch.n_tuples
            assert incremental.n_facts == scratch.n_facts
            assert incremental.distinct == scratch.distinct
            assert incremental.span == scratch.span
            assert incremental.covered == scratch.covered

        assert_consistent()
        store.apply(
            inserts=[("k3", "a1", 1, 3, 0.9)], deletes=[("k2", "a2", 2, 6)]
        )
        assert_consistent()
        store.delete([("k1", "a2", 5, 9)])  # boundary delete → span shrinks
        assert_consistent()
        store.insert([("k1", "a2", 20, 25, 0.3)])  # far outside: re-spread
        assert_consistent()
        store.delete_where(lambda t: True)  # wipe
        assert maintainer.current().n_tuples == 0
        assert maintainer.current().span is None
