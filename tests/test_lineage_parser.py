"""Round-trip and syntax tests for the lineage parser."""

from __future__ import annotations

import pytest
from hypothesis import given

from repro import QueryParseError, parse_lineage
from repro.lineage import FALSE, TRUE, Var, land, lnot, lor

from .strategies import formulas


class TestNotations:
    def test_unicode(self):
        assert parse_lineage("c1 ∧ ¬(a1 ∨ b1)") == land(
            Var("c1"), lnot(lor(Var("a1"), Var("b1")))
        )

    def test_ascii_symbols(self):
        assert parse_lineage("c1 & !(a1 | b1)") == parse_lineage("c1 ∧ ¬(a1 ∨ b1)")

    def test_keywords(self):
        assert parse_lineage("c1 and not (a1 or b1)") == parse_lineage(
            "c1 ∧ ¬(a1 ∨ b1)"
        )

    def test_constants(self):
        assert parse_lineage("true") == TRUE
        assert parse_lineage("⊥") == FALSE


class TestPrecedence:
    def test_and_binds_tighter(self):
        assert parse_lineage("a | b & c") == lor(Var("a"), land(Var("b"), Var("c")))

    def test_not_binds_tightest(self):
        assert parse_lineage("!a & b") == land(lnot(Var("a")), Var("b"))

    def test_parentheses(self):
        assert parse_lineage("(a | b) & c") == land(
            lor(Var("a"), Var("b")), Var("c")
        )

    def test_chained_same_operator_flattens(self):
        assert parse_lineage("a & b & c") == land(Var("a"), Var("b"), Var("c"))


class TestErrors:
    @pytest.mark.parametrize(
        "text", ["", "a &", "& a", "(a", "a)", "a ~ b", "a b"]
    )
    def test_rejected(self, text):
        with pytest.raises(QueryParseError):
            parse_lineage(text)


FORMULAS = formulas(names=("a1", "b2", "c3", "x"), depth=3)


class TestRoundTrip:
    @given(FORMULAS)
    def test_parse_of_str_is_identity(self, formula):
        assert parse_lineage(str(formula)) == formula
