"""Tests for selection syntax in queries (the paper's Example 4 shape)."""

from __future__ import annotations

import pytest

from repro import QueryParseError, TPSchema, tp_except
from repro.db import TPDatabase
from repro.query import (
    RelationRef,
    SelectionNode,
    canonical_form,
    parse_query,
)


@pytest.fixture
def db(rel_a, rel_b, rel_c) -> TPDatabase:
    database = TPDatabase()
    for rel in (rel_a, rel_b, rel_c):
        database.register(rel)
    return database


class TestParsing:
    def test_basic_selection(self):
        ast = parse_query("c[product='milk']")
        assert ast == SelectionNode(RelationRef("c"), "product", "milk")

    def test_selection_on_parenthesized_query(self):
        ast = parse_query("(a | b)[product='milk']")
        assert isinstance(ast, SelectionNode)
        assert ast.attribute == "product"

    def test_stacked_selections(self):
        ast = parse_query("r[item='milk'][store='hb']")
        assert isinstance(ast, SelectionNode)
        assert ast.attribute == "store"
        assert isinstance(ast.child, SelectionNode)

    def test_numeric_values(self):
        assert parse_query("r[qty=12]").value == 12
        assert parse_query("r[price=2.5]").value == 2.5
        assert parse_query("r[delta=-3]").value == -3

    def test_bareword_value(self):
        assert parse_query("r[station=zrh]").value == "zrh"

    def test_str_round_trip_structure(self):
        ast = parse_query("c[product='milk'] - a[product='milk']")
        assert str(ast) == "(σ[product='milk'](c) − σ[product='milk'](a))"

    @pytest.mark.parametrize(
        "text",
        ["r[", "r[product]", "r[product=]", "r[product='milk'", "r[=5]", "r[1=2]"],
    )
    def test_bad_syntax(self, text):
        with pytest.raises(QueryParseError):
            parse_query(text)


class TestExecution:
    def test_example4_query(self, db, rel_a, rel_c):
        """σF='milk'(c) −Tp σF='milk'(a) — the paper's Example 4."""
        result = db.query("c[product='milk'] - a[product='milk']")
        expected = tp_except(
            rel_c.select(product="milk"), rel_a.select(product="milk")
        )
        assert result.equivalent_to(expected)
        rows = {
            (str(t.lineage), t.start, t.end, round(t.p, 6)) for t in result
        }
        assert rows == {
            ("c1", 1, 2, 0.6),
            ("c1∧¬a1", 2, 4, 0.42),
            ("c2∧¬a1", 6, 8, 0.49),
        }

    def test_selection_after_set_op(self, db, rel_a, rel_c):
        whole = db.query("(a | c)[product='chips']")
        expected = db.query("a | c").select(product="chips")
        assert whole.contents() == expected.contents()

    def test_unknown_attribute_raises(self, db):
        from repro import SchemaMismatchError

        with pytest.raises(SchemaMismatchError):
            db.query("a[color='red']")

    def test_analysis_sees_through_selection(self, db):
        analysis = db.analyze("c[product='milk'] - a[product='milk']")
        assert analysis.non_repeating
        assert analysis.relations == ("c", "a")


class TestPushdown:
    def test_selection_pushed_below_set_op(self):
        schemas = {name: TPSchema(("product",)) for name in "ab"}
        node = canonical_form(parse_query("(a | b)[product='milk']"), schemas)
        assert str(node) == "(σ[product='milk'](a) ∪ σ[product='milk'](b))"

    def test_pushdown_through_multiway(self):
        schemas = {name: TPSchema(("x",)) for name in "abc"}
        node = canonical_form(parse_query("(a | b | c)[x=1]"), schemas)
        text = str(node)
        assert text.count("σ[x=1]") == 3

    def test_selection_stays_put_without_schemas(self):
        """Nothing proves 'product' sits at one position in a and b."""
        node = canonical_form(parse_query("(a | b)[product='milk']"), {})
        assert str(node) == "σ[product='milk']((a ∪ b))"

    @pytest.mark.parametrize(
        "text, layouts, expected",
        [
            pytest.param(
                "(a - b)[x='1']",
                {"a": ("x", "y"), "b": ("x", "z")},
                "(σ[x='1'](a) − σ[x='1'](b))",
                id="same-position",
            ),
            pytest.param(
                "(a | b)[x='1']",
                {"a": ("x", "y"), "b": ("y", "x")},
                "σ[x='1']((a ∪ b))",
                id="swapped-columns",
            ),
            pytest.param(
                "(a & b)[x='1']",
                {"a": ("x", "y"), "b": ("z", "y")},
                "σ[x='1']((a ∩ b))",
                id="missing-from-one-operand",
            ),
            pytest.param(
                "(a | b | c)[x='1']",
                {"a": ("x", "y"), "b": ("x", "y"), "c": ("y", "x")},
                "σ[x='1']((a ∪ b ∪ c))",
                id="one-multiway-operand-swapped",
            ),
            pytest.param(
                "((a | b)[x='1'] | c)[y='2']",
                {"a": ("x", "y"), "b": ("y", "x"), "c": ("x", "y")},
                "(σ[y='2'](σ[x='1']((a ∪ b))) ∪ σ[y='2'](c))",
                id="outer-pushed-inner-kept",
            ),
        ],
    )
    def test_pushdown_needs_one_position_in_every_operand(
        self, text, layouts, expected
    ):
        """Set operations combine facts by position, so σ distributes only
        when its attribute has the same index in every operand."""
        schemas = {name: TPSchema(attrs) for name, attrs in layouts.items()}
        assert str(canonical_form(parse_query(text), schemas)) == expected

    def test_pushdown_preserves_results(self, db):
        plain = db.query("(a | c)[product='milk']")
        optimized = db.query("(a | c)[product='milk']", optimize="safe")
        assert optimized.contents() == plain.contents()

    def test_explain_shows_pushed_plan(self, db):
        text = db.explain("(a | c)[product='milk']", optimize="safe")
        assert "Select[product='milk']" in text
        assert text.index("Union") < text.index("Select")  # σ below the op
