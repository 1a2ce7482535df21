"""Joins through the query layer: parser → planner → executor.

The generalized join operators must be reachable end-to-end from the
textual query language, compose with set operations and selections, and
survive the optimizer untouched.
"""

from __future__ import annotations

import pytest

from repro import QueryParseError, TPSchema, UnsupportedOperationError, tp_join
from repro.db import TPDatabase
from repro.query import (
    JoinNode,
    JoinPlan,
    RelationRef,
    analyze,
    canonical_form,
    execute_plan,
    parse_query,
    plan_query,
    relation_references,
)


@pytest.fixture
def db():
    database = TPDatabase()
    database.create_relation(
        "stock",
        ("item", "store"),
        [("milk", "hb", 1, 5, 0.5), ("milk", "aldi", 3, 9, 0.4), ("tea", "hb", 0, 4, 0.9)],
    )
    database.create_relation(
        "prices",
        ("item", "price"),
        [("milk", 2, 3, 8, 0.8), ("beer", 1, 0, 5, 0.6)],
    )
    return database


class TestParsing:
    def test_inner_join_keyword_and_symbol(self):
        assert str(parse_query("r JOIN s ON item")) == "(r ⋈[item] s)"
        assert str(parse_query("r ⋈ s")) == "(r ⋈ s)"

    def test_outer_join_spellings(self):
        assert str(parse_query("r LEFT JOIN s")) == "(r ⟕ s)"
        assert str(parse_query("r left outer join s")) == "(r ⟕ s)"
        assert str(parse_query("r RIGHT OUTER JOIN s")) == "(r ⟖ s)"
        assert str(parse_query("r FULL JOIN s")) == "(r ⟗ s)"
        assert str(parse_query("r ⟕ s")) == "(r ⟕ s)"
        assert str(parse_query("r ⟖ s")) == "(r ⟖ s)"
        assert str(parse_query("r ⟗ s")) == "(r ⟗ s)"

    def test_anti_join_spellings(self):
        assert str(parse_query("r ANTI JOIN s ON k")) == "(r ▷[k] s)"
        assert str(parse_query("r ▷ s")) == "(r ▷ s)"

    def test_on_clause_forms(self):
        plain = parse_query("r JOIN s ON a, b")
        parenthesized = parse_query("r JOIN s ON (a, b)")
        assert isinstance(plain, JoinNode) and plain.on == ("a", "b")
        assert parenthesized.on == ("a", "b")

    def test_join_binds_tighter_than_set_operations(self):
        query = parse_query("a | b JOIN c")
        assert str(query) == "(a ∪ (b ⋈ c))"
        query = parse_query("a LEFT JOIN b - c")
        assert str(query) == "((a ⟕ b) − c)"

    def test_joins_associate_left(self):
        query = parse_query("a JOIN b JOIN c")
        assert str(query) == "((a ⋈ b) ⋈ c)"

    def test_join_with_selection_operand(self):
        query = parse_query("a[item='milk'] LEFT JOIN b ON item")
        assert isinstance(query, JoinNode)
        assert str(query.left) == "σ[item='milk'](a)"

    def test_incomplete_join_rejected(self):
        with pytest.raises(QueryParseError):
            parse_query("a LEFT b")
        with pytest.raises(QueryParseError):
            parse_query("a ANTI b")
        with pytest.raises(QueryParseError):
            parse_query("a JOIN b ON")

    def test_relation_references_traverse_joins(self):
        query = parse_query("a JOIN b ON k | a")
        assert relation_references(query) == ["a", "b", "a"]


class TestPlanning:
    def test_join_plan_bound_to_gtwindow_by_default(self):
        plan = plan_query(parse_query("a LEFT JOIN b ON item"))
        assert isinstance(plan, JoinPlan)
        assert plan.kind == "left_outer"
        assert plan.on == ("item",)
        assert plan.algorithm.name == "GTWINDOW"
        assert "LeftOuterJoin[GTWINDOW] on(item)" in plan.describe()

    def test_join_algorithm_override(self):
        plan = plan_query(parse_query("a ▷ b"), join_algorithm="NAIVE-SWEEP")
        assert plan.algorithm.name == "NAIVE-SWEEP"

    def test_unknown_join_algorithm_rejected(self):
        with pytest.raises(UnsupportedOperationError):
            plan_query(parse_query("a JOIN b"), join_algorithm="GHOST")


class TestExecution:
    def test_inner_join_query_matches_algebra(self, db):
        result = db.query("stock JOIN prices ON item")
        direct = tp_join(
            db.relation("stock"), db.relation("prices"), on=("item",)
        )
        assert result.equivalent_to(direct)

    def test_left_outer_join_end_to_end(self, db):
        result = db.query("stock LEFT OUTER JOIN prices ON item")
        rows = {(t.fact, t.start, t.end, str(t.lineage)) for t in result}
        assert (("tea", "hb", None), 0, 4, "stock3") in rows
        assert (("milk", "hb", 2), 3, 5, "stock1∧prices1") in rows
        assert all(t.p is not None for t in result)

    def test_anti_join_end_to_end(self, db):
        result = db.query("stock ANTI JOIN prices ON item")
        assert result.schema.attributes == ("item", "store")
        facts = {t.fact for t in result}
        assert ("tea", "hb") in facts

    def test_naive_algorithm_selectable(self, db):
        kernel = db.query("stock FULL JOIN prices ON item")
        naive = db.query("stock FULL JOIN prices ON item", join_algorithm="NAIVE-SWEEP")
        assert kernel.equivalent_to(naive)

    def test_join_composes_with_set_operations(self, db):
        db.create_relation(
            "more", ("item", "store"), [("milk", "hb", 4, 7, 0.3)]
        )
        result = db.query("(stock ANTI JOIN prices ON item) | more")
        assert len(result) > 0

    def test_execute_plan_materializes_at_root(self, db):
        plan = plan_query(parse_query("stock ⟕ prices ON item"))
        result = execute_plan(plan, db.catalog)
        assert all(t.p is not None for t in result)


class TestAnalysisAndOptimizer:
    def test_analysis_counts_joins(self):
        analysis = analyze(parse_query("a LEFT JOIN b ON k | a ANTI JOIN c"))
        assert analysis.operations["left_outer_join"] == 1
        assert analysis.operations["anti_join"] == 1
        assert analysis.repeated_relations == ("a",)

    def test_optimizer_preserves_joins(self):
        query = parse_query("a JOIN b ON k | c | d")
        schemas = {
            "a": TPSchema(("k", "x")),
            "b": TPSchema(("k", "y")),
            "c": TPSchema(("k", "x", "y")),
            "d": TPSchema(("k", "x", "y")),
        }
        optimized = canonical_form(query, schemas)
        assert str(optimized) == "((a ⋈[k] b) ∪ c ∪ d)"

    def test_optimizer_keeps_selection_above_join(self):
        """σ on the right side's rest attribute of a left outer join: the
        column is padded for unmatched rows, so σ must stay above."""
        query = parse_query("(a LEFT JOIN b ON k)[item='milk']")
        schemas = {"a": TPSchema(("k", "qty")), "b": TPSchema(("k", "item"))}
        optimized = canonical_form(query, schemas)
        assert str(optimized) == "σ[item='milk']((a ⟕[k] b))"

    def test_explain_renders_join_plan(self, db):
        text = db.explain("stock LEFT JOIN prices ON item")
        assert "LeftOuterJoin[GTWINDOW]" in text
        assert "left_outer_join×1" in text

    def test_join_node_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            JoinNode("semi", RelationRef("a"), RelationRef("b"))
