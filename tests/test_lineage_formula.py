"""Tests for the lineage formula AST and smart constructors."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lineage import (
    FALSE,
    TRUE,
    And,
    Or,
    Var,
    evaluate,
    formula_size,
    land,
    lnot,
    lor,
    map_variables,
    restrict,
    variable_occurrences,
    variables,
)

from .strategies import formulas

a, b, c = Var("a"), Var("b"), Var("c")


FORMULAS = formulas(names=("a", "b", "c"), depth=3)


class TestConstructors:
    def test_land_flattens(self):
        assert land(a, land(b, c)) == land(land(a, b), c) == And((a, b, c))

    def test_lor_flattens(self):
        assert lor(a, lor(b, c)) == lor(lor(a, b), c) == Or((a, b, c))

    def test_single_operand_passthrough(self):
        assert land(a) is a
        assert lor(a) is a

    def test_empty_conjunction_is_true(self):
        assert land() == TRUE

    def test_empty_disjunction_is_false(self):
        assert lor() == FALSE

    def test_constant_folding_and(self):
        assert land(a, TRUE) is a
        assert land(a, FALSE) == FALSE

    def test_constant_folding_or(self):
        assert lor(a, FALSE) is a
        assert lor(a, TRUE) == TRUE

    def test_double_negation(self):
        assert lnot(lnot(a)) is a

    def test_negated_constants(self):
        assert lnot(TRUE) == FALSE
        assert lnot(FALSE) == TRUE

    def test_operator_sugar(self):
        assert (a & b) == land(a, b)
        assert (a | b) == lor(a, b)
        assert ~a == lnot(a)

    def test_order_preserved(self):
        assert land(a, b) != land(b, a)  # syntactic comparison


class TestPrinting:
    def test_paper_notation(self):
        c1, a1, b1 = Var("c1"), Var("a1"), Var("b1")
        assert str(c1 & ~(a1 | b1)) == "c1∧¬(a1∨b1)"

    def test_and_not(self):
        assert str(a & ~b) == "a∧¬b"

    def test_or_inside_and_parenthesized(self):
        assert str(land(a, lor(b, c))) == "a∧(b∨c)"

    def test_and_inside_or_unparenthesized(self):
        assert str(lor(a, land(b, c))) == "a∨b∧c"

    def test_constants(self):
        assert str(TRUE) == "⊤"
        assert str(FALSE) == "⊥"


class TestStructure:
    def test_variables(self):
        assert variables(a & ~(b | c)) == {"a", "b", "c"}

    def test_variable_occurrences(self):
        formula = (a & b) | (a & c)
        assert variable_occurrences(formula) == {"a": 2, "b": 1, "c": 1}

    def test_formula_size(self):
        assert formula_size(a) == 1
        assert formula_size(a & ~b) == 4  # And, a, Not, b

    def test_map_variables(self):
        renamed = map_variables(a & ~b, lambda name: name.upper())
        assert str(renamed) == "A∧¬B"


class TestEvaluate:
    def test_basic(self):
        formula = a & ~(b | c)
        assert evaluate(formula, {"a": True, "b": False, "c": False})
        assert not evaluate(formula, {"a": True, "b": True, "c": False})

    def test_missing_variable(self):
        with pytest.raises(KeyError):
            evaluate(a & b, {"a": True})

    @given(FORMULAS, st.booleans(), st.booleans(), st.booleans())
    def test_de_morgan(self, formula, va, vb, vc):
        env = {"a": va, "b": vb, "c": vc}
        assert evaluate(lnot(land(a, formula)), env) == evaluate(
            lor(lnot(a), lnot(formula)), env
        )


class TestRestrict:
    def test_restrict_true(self):
        assert restrict(a & b, "a", True) is b

    def test_restrict_false_kills_conjunction(self):
        assert restrict(a & b, "a", False) == FALSE

    def test_restrict_or(self):
        assert restrict(a | b, "a", True) == TRUE
        assert restrict(a | b, "a", False) is b

    @given(FORMULAS, st.booleans(), st.booleans(), st.booleans())
    def test_restrict_agrees_with_evaluate(self, formula, va, vb, vc):
        env = {"a": va, "b": vb, "c": vc}
        restricted = restrict(formula, "a", va)
        assert evaluate(restricted, env) == evaluate(formula, env)

    @given(FORMULAS)
    def test_restrict_removes_variable(self, formula):
        restricted = restrict(formula, "a", True)
        assert "a" not in variables(restricted)


class TestFormulasStrategy:
    """The shared ``formulas`` strategy keeps each caller's input space."""

    @given(formulas(names=("p", "q"), depth=2))
    def test_draws_only_from_its_pool(self, formula):
        assert variables(formula) <= {"p", "q"}

    @given(st.data(), st.integers(0, 4))
    def test_depth_bounds_the_leaves(self, data, depth):
        formula = data.draw(formulas(names=("a", "b", "c"), depth=depth))
        assert sum(variable_occurrences(formula).values()) <= 2**depth
