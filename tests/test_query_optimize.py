"""Tests for the query optimizer (flattening + difference fusion)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.db import TPDatabase
from repro.query import (
    MultiOpNode,
    MultiSetOpPlan,
    RelationRef,
    SetOpNode,
    optimize_query,
    parse_query,
    plan_query,
)

from .strategies import tp_relation


class TestFlattening:
    def test_union_chain_flattens(self):
        node = optimize_query(parse_query("a | b | c | d"))
        assert isinstance(node, MultiOpNode)
        assert node.op == "union"
        assert [str(c) for c in node.children] == ["a", "b", "c", "d"]

    def test_intersect_chain_flattens(self):
        node = optimize_query(parse_query("a & b & c"))
        assert isinstance(node, MultiOpNode)
        assert node.op == "intersect"

    def test_mixed_ops_do_not_merge(self):
        node = optimize_query(parse_query("(a | b) & (c | d)"))
        assert isinstance(node, SetOpNode)
        assert node.op == "intersect"
        assert isinstance(node.left, RelationRef) is False

    def test_binary_stays_binary(self):
        node = optimize_query(parse_query("a | b"))
        assert isinstance(node, SetOpNode)

    def test_nested_parenthesized_chain(self):
        node = optimize_query(parse_query("(a | (b | c)) | d"))
        assert isinstance(node, MultiOpNode)
        assert len(node.children) == 4

    def test_difference_not_flattened(self):
        node = optimize_query(parse_query("a - b - c"))
        assert isinstance(node, SetOpNode)
        assert node.op == "except"

    def test_str_rendering(self):
        assert str(optimize_query(parse_query("a | b | c"))) == "(a ∪ b ∪ c)"


class TestDifferenceFusion:
    def test_fusion(self):
        node = optimize_query(parse_query("a - b - c"), aggressive=True)
        assert str(node) == "(a − (b ∪ c))"

    def test_long_chain_fuses_to_multiway_union(self):
        node = optimize_query(parse_query("a - b - c - d"), aggressive=True)
        assert str(node) == "(a − (b ∪ c ∪ d))"

    def test_fusion_off_by_default(self):
        node = optimize_query(parse_query("a - b - c"))
        assert "∪" not in str(node)


class TestPlanningAndExecution:
    @pytest.fixture
    def db(self):
        db = TPDatabase()
        db.create_relation("r1", ("x",), [("f", 0, 6, 0.5), ("g", 1, 4, 0.3)])
        db.create_relation("r2", ("x",), [("f", 2, 8, 0.4)])
        db.create_relation("r3", ("x",), [("f", 5, 9, 0.6), ("g", 2, 3, 0.9)])
        db.create_relation("r4", ("x",), [("f", 0, 2, 0.2)])
        return db

    def test_multiway_plan_node(self):
        plan = plan_query(optimize_query(parse_query("a | b | c")))
        assert isinstance(plan, MultiSetOpPlan)
        assert "LAWA×3" in plan.describe()

    def test_optimized_union_matches_unoptimized(self, db):
        plain = db.query("r1 | r2 | r3 | r4")
        optimized = db.query("r1 | r2 | r3 | r4", optimize=True)
        assert optimized.equivalent_to(plain)  # lineage-identical

    def test_optimized_intersection_matches(self, db):
        plain = db.query("r1 & r2 & r3")
        optimized = db.query("r1 & r2 & r3", optimize=True)
        assert optimized.equivalent_to(plain)

    def test_aggressive_difference_same_distribution(self, db):
        plain = db.query("r1 - r2 - r3")
        fused = db.query("r1 - r2 - r3", aggressive=True)
        left = {(t.fact, p): t.p for t in plain for p in range(t.start, t.end)}
        right = {(t.fact, p): t.p for t in fused for p in range(t.start, t.end)}
        assert left.keys() == right.keys()
        for key, value in left.items():
            assert value == pytest.approx(right[key])

    def test_explain_shows_multiway(self, db):
        # A left-deep chain ties with its n-ary fold and stays a chain; a
        # right-nested one is cheaper folded left to right.
        assert "LAWA×3" not in db.explain("r1 | r2 | r3", optimize=True)
        text = db.explain("r4 | (r2 | r1)", optimize=True)
        assert "Union[LAWA×3]" in text
        assert "PTIME" in text  # analysis still reported on the original

    def test_mixed_query_end_to_end(self, db):
        plain = db.query("(r1 | r2 | r4) - r3")
        optimized = db.query("(r1 | r2 | r4) - r3", optimize=True)
        assert optimized.equivalent_to(plain)

    @settings(max_examples=25, deadline=None)
    @given(
        r1=tp_relation("y1", max_facts=2, max_intervals=3),
        r2=tp_relation("y2", max_facts=2, max_intervals=3),
        r3=tp_relation("y3", max_facts=2, max_intervals=3),
    )
    def test_property_optimized_equals_plain(self, r1, r2, r3):
        db = TPDatabase()
        db.register(r1.rename("r1"))
        db.register(r2.rename("r2"))
        db.register(r3.rename("r3"))
        for query in ("r1 | r2 | r3", "r1 & r2 & r3", "(r1 | r2) & r3"):
            plain = db.query(query)
            optimized = db.query(query, optimize=True)
            assert optimized.equivalent_to(plain), query


# ----------------------------------------------------------------------
# PR 5: cost-based optimizer — rules, statistics, cost model, levels
# ----------------------------------------------------------------------
def _stats(catalog):
    from repro.query import relation_stats

    return {name: relation_stats(rel) for name, rel in catalog.items()}


@pytest.fixture
def join_catalog():
    from repro import TPRelation

    return {
        "r": TPRelation.from_rows(
            "r", ("k", "a"),
            [("k1", "a1", 0, 6, 0.5), ("k2", "a1", 1, 4, 0.3), ("k1", "a2", 2, 5, 0.7)],
        ),
        "s": TPRelation.from_rows(
            "s", ("k", "b"), [("k1", "b1", 2, 8, 0.4), ("k2", "b2", 0, 3, 0.9)]
        ),
        "t": TPRelation.from_rows(
            "t", ("b", "c"), [("b1", "c1", 1, 9, 0.6), ("b2", "c2", 2, 3, 0.5)]
        ),
    }


class TestJoinPushdown:
    """The per-kind soundness table of σ-through-join (DESIGN.md §11)."""

    def push(self, text, catalog):
        from repro.query import enumerate_plans

        plans = enumerate_plans(parse_query(text), stats=_stats(catalog))
        return str(plans[-1])  # the most-rewritten candidate

    def test_join_attribute_pushes_into_both_sides(self, join_catalog):
        pushed = self.push("(r JOIN s)[k='k1']", join_catalog)
        assert pushed == "(σ[k='k1'](r) ⋈ σ[k='k1'](s))"

    def test_right_rest_attribute_pushes_right_only(self, join_catalog):
        assert self.push("(r JOIN s)[b='b1']", join_catalog) == "(r ⋈ σ[b='b1'](s))"

    def test_left_outer_pushes_left_attribute_only(self, join_catalog):
        pushed = self.push("(r LEFT OUTER JOIN s)[a='a1']", join_catalog)
        assert pushed == "(σ[a='a1'](r) ⟕ s)"

    def test_left_outer_never_pushes_padded_right_rest(self, join_catalog):
        from repro.query import enumerate_plans

        plans = enumerate_plans(
            parse_query("(r LEFT OUTER JOIN s)[b='b1']"), stats=_stats(join_catalog)
        )
        assert all("σ[b='b1'](s)" not in str(p) for p in plans)

    def test_right_outer_never_pushes_padded_left_rest(self, join_catalog):
        from repro.query import enumerate_plans

        plans = enumerate_plans(
            parse_query("(r RIGHT OUTER JOIN s)[a='a1']"), stats=_stats(join_catalog)
        )
        assert all("σ[a='a1'](r)" not in str(p) for p in plans)

    def test_full_outer_pushes_join_attribute_only(self, join_catalog):
        pushed = self.push("(r ⟗ s)[k='k2']", join_catalog)
        assert pushed == "(σ[k='k2'](r) ⟗ σ[k='k2'](s))"
        from repro.query import enumerate_plans

        plans = enumerate_plans(
            parse_query("(r ⟗ s)[b='b1']"), stats=_stats(join_catalog)
        )
        assert all("σ" not in str(p) or "σ[b='b1']((r" in str(p) for p in plans)

    def test_anti_join_pushes_both_on_join_attribute(self, join_catalog):
        assert (
            self.push("(r ANTI JOIN s)[k='k2']", join_catalog)
            == "(σ[k='k2'](r) ▷ σ[k='k2'](s))"
        )

    def test_setop_guard_blocks_positional_mismatch(self):
        """σ[b=...] over r(k,a) ∪ s(k,b): 'b' resolves only in s — the
        guarded rule must keep σ above instead of pushing one-sided."""
        from repro import TPRelation
        from repro.query import enumerate_plans

        catalog = {
            "r": TPRelation.from_rows("r", ("k", "a"), [("k1", "a1", 0, 4, 0.5)]),
            "s": TPRelation.from_rows("s", ("k", "b"), [("k1", "b1", 1, 3, 0.4)]),
        }
        plans = enumerate_plans(
            parse_query("(r | s)[a='a1']"), stats=_stats(catalog)
        )
        assert all("(σ" not in str(p) for p in plans)


class TestReassociation:
    def test_three_chain_yields_both_associations(self, join_catalog):
        from repro.query import enumerate_plans

        plans = enumerate_plans(
            parse_query("r JOIN s JOIN t"), stats=_stats(join_catalog)
        )
        shapes = {str(p) for p in plans}
        assert "((r ⋈ s) ⋈ t)" in shapes
        assert "(r ⋈ (s ⋈ t))" in shapes

    def test_explicit_on_chains_not_reassociated(self, join_catalog):
        from repro.query import enumerate_plans

        plans = enumerate_plans(
            parse_query("r JOIN s ON k JOIN t ON b"), stats=_stats(join_catalog)
        )
        assert len(plans) == 1  # only natural chains reassociate

    def test_outer_joins_block_the_chain(self, join_catalog):
        from repro.query import enumerate_plans

        plans = enumerate_plans(
            parse_query("r LEFT OUTER JOIN s JOIN t"), stats=_stats(join_catalog)
        )
        assert {str(p) for p in plans} == {str(plans[0])} or len(plans) == 1


class TestCostModel:
    def test_selectivity_uses_distinct_counts(self, join_catalog):
        from repro.query import estimate

        stats = _stats(join_catalog)
        scan = estimate(parse_query("r"), stats)
        assert scan.rows == 3.0
        selected = estimate(parse_query("r[k='k1']"), stats)
        assert selected.rows == pytest.approx(1.5)  # 2 distinct keys

    def test_chooser_prefers_pushdown(self, join_catalog):
        from repro.query import choose_plan

        stats = _stats(join_catalog)
        choice = choose_plan(parse_query("(r JOIN s)[k='k1']"), stats)
        assert "σ[k='k1'](r)" in str(choice.chosen)
        costs = [entry[1].cost for entry in choice.candidates]
        assert choice.estimate.cost == min(costs)

    def test_a_sweep_costs_its_input_rows(self):
        from repro.datasets import generate_pair
        from repro.query import estimate, relation_stats

        r, s = generate_pair(6000, n_facts=8, seed=1)
        stats = {"r": relation_stats(r), "s": relation_stats(s)}
        union = estimate(parse_query("r | s"), stats)
        assert union.cost == len(r) + len(s)

    def test_order_multiway_children_sorts_by_cardinality(self, join_catalog):
        from repro import TPRelation
        from repro.query import optimize_query, order_multiway_children

        catalog = dict(join_catalog)
        catalog["u"] = TPRelation.from_rows("u", ("k", "a"), [("k1", "a1", 0, 2, 0.5)])
        stats = _stats(catalog)
        flat = optimize_query(parse_query("r | r | u"))
        ordered = order_multiway_children(flat, stats)
        assert str(ordered) == "(u ∪ r ∪ r)"


class TestResolveLevel:
    def test_mappings(self):
        from repro.query import resolve_level

        assert resolve_level(False) == "off"
        assert resolve_level(None) == "off"
        assert resolve_level(True) == "safe"
        assert resolve_level("safe") == "safe"
        assert resolve_level("off", aggressive=True) == "aggressive"
        assert resolve_level(True, aggressive=True) == "aggressive"

    def test_rejects_unknown_levels(self):
        from repro.query import resolve_level

        with pytest.raises(ValueError, match="off, safe, aggressive"):
            resolve_level("fast")
        with pytest.raises(ValueError, match="off, safe, aggressive"):
            resolve_level(2)


class TestViewMatching:
    def test_rewritten_subtree_reads_the_view(self):
        """Canonical matching: a pushdown-variant of the view definition
        is substituted by a scan of the maintained result."""
        from repro.db import TPDatabase

        db = TPDatabase()
        db.create_relation(
            "a", ("g",), [("x", 0, 6, 0.5), ("y", 1, 4, 0.3)]
        )
        db.create_relation("b", ("g",), [("x", 2, 8, 0.4)])
        db.create_view("v", "(a | b)[g='x']")
        exact = db.explain("(a | b)[g='x']", optimize="safe")
        assert "Scan[v]" in exact
        variant = db.explain("a[g='x'] | b[g='x']", optimize="safe")
        assert "Scan[v]" in variant
        unoptimized = db.explain("a[g='x'] | b[g='x']")
        assert "Scan[v]" not in unoptimized  # exact matching only
        result = db.query("a[g='x'] | b[g='x']", optimize="safe")
        direct = db.query("(a | b)[g='x']", use_views=False)
        assert result.equivalent_to(direct.rename(result.name))


class TestDatabaseStats:
    def test_stats_of_prefers_incremental_store_path(self):
        from repro.db import TPDatabase

        db = TPDatabase()
        db.create_relation("a", ("g",), [("x", 0, 6, 0.5), ("y", 1, 4, 0.3)])
        lazy = db.stats_of("a")
        assert (lazy.n_tuples, lazy.n_facts) == (2, 2)
        db.insert("a", [("z", 7, 9, 0.8)])  # converts to a store
        incremental = db.stats_of("a")
        assert incremental.n_tuples == 3
        assert incremental.distinct["g"] == 3
        assert incremental.span == (0, 9)
        db.delete("a", [("x", 0, 6)])
        assert db.stats_of("a").n_tuples == 2
        assert db.stats_of("a").span == (1, 9)


class TestExplainPrefixDisambiguation:
    """Keywords are not reserved as relation names (PR 2's convention):
    EXPLAIN yields to a relation named 'explain' whenever the whole text
    is the only valid reading."""

    @pytest.fixture
    def db(self):
        from repro.db import TPDatabase

        db = TPDatabase()
        db.create_relation("explain", ("g",), [("x", 0, 4, 0.5)])
        db.create_relation("a", ("g",), [("x", 2, 6, 0.7)])
        return db

    def test_relation_named_explain_still_queryable(self, db):
        result = db.query("explain | a")
        assert not isinstance(result, str)
        assert len(result) == 3

    def test_explain_prefix_still_wins_when_remainder_parses(self, db):
        report = db.query("EXPLAIN explain | a")
        assert isinstance(report, str)
        assert "optimizer:" in report

    def test_garbage_after_explain_reports_the_target(self, db):
        from repro import QueryParseError

        with pytest.raises(QueryParseError, match="EXPLAIN target"):
            db.query("EXPLAIN ] nonsense [")


class TestHistogramBuckets:
    def test_narrow_spans_partition_evenly(self):
        from repro.query.stats import build_histogram

        hist = build_histogram([(0, 10)], (0, 10))
        assert len(hist) == 10  # one bucket per point, no dead tail
        assert all(count == 1 for count in hist)
        hist = build_histogram([(9, 10)], (0, 10))
        assert hist == (0,) * 9 + (1,)

    def test_wide_spans_cap_at_n_buckets(self):
        from repro.query.stats import N_BUCKETS, build_histogram

        hist = build_histogram([(0, 1600)], (0, 1600))
        assert len(hist) == N_BUCKETS
        assert all(count == 1 for count in hist)

    def test_overlap_estimates_see_narrow_span_coverage(self):
        """A late tuple in a narrow span must overlap a late peer —
        the clamped-width regression collapsed this fraction to 0."""
        from repro import TPRelation
        from repro.query import estimate, parse_query, relation_stats

        r = TPRelation.from_rows("r", ("g",), [("x", 9, 10, 0.5)])
        s = TPRelation.from_rows(
            "s", ("g",), [("x", 0, 1, 0.5), ("x", 7, 10, 0.6)]
        )
        stats = {"r": relation_stats(r), "s": relation_stats(s)}
        est = estimate(parse_query("r & s"), stats)
        assert est.rows > 0.0
