"""Tests for the exact probability valuations (1OF and Shannon).

Ground truth is brute-force enumeration over all truth assignments, so
every exact method is checked against the same oracle, and the paper's
worked probabilities (Fig. 1c, Fig. 3) are pinned explicitly.
"""

from __future__ import annotations

from itertools import product as cartesian

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    UnknownVariableError,
    ValuationError,
    probability,
    probability_1of,
    probability_batch,
    probability_shannon,
)
from repro.lineage import Var, evaluate, land, lnot, lor, variables

from .strategies import formulas

a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")


def brute_force(formula, probs):
    names = sorted(variables(formula))
    total = 0.0
    for bits in cartesian((False, True), repeat=len(names)):
        env = dict(zip(names, bits))
        if evaluate(formula, env):
            weight = 1.0
            for name, bit in env.items():
                weight *= probs[name] if bit else 1.0 - probs[name]
            total += weight
    return total


FORMULAS = formulas(names=("a", "b", "c", "d"), depth=3)

probs_strategy = st.fixed_dictionaries(
    {
        name: st.floats(min_value=0.01, max_value=0.99, allow_nan=False)
        for name in ("a", "b", "c", "d")
    }
)


class TestPaperValues:
    """The marginal probabilities the paper reports for Fig. 1/3."""

    def test_fig1_c1_and_not_a1(self):
        formula = Var("c1") & ~Var("a1")
        assert probability_1of(formula, {"c1": 0.6, "a1": 0.3}) == pytest.approx(0.42)

    def test_fig1_c2_and_not_a1_or_b1(self):
        formula = Var("c2") & ~(Var("a1") | Var("b1"))
        p = probability_1of(formula, {"c2": 0.7, "a1": 0.3, "b1": 0.6})
        assert p == pytest.approx(0.196)

    def test_fig1_c3_and_not_a2_or_b2(self):
        formula = Var("c3") & ~(Var("a2") | Var("b2"))
        p = probability_1of(formula, {"c3": 0.7, "a2": 0.8, "b2": 0.9})
        assert p == pytest.approx(0.014)

    def test_fig3_union(self):
        formula = Var("a1") | Var("c1")
        assert probability_1of(formula, {"a1": 0.3, "c1": 0.6}) == pytest.approx(0.72)

    def test_fig3_intersection(self):
        formula = Var("a2") & Var("c3")
        assert probability_1of(formula, {"a2": 0.8, "c3": 0.7}) == pytest.approx(0.56)


class TestOneOccurrence:
    def test_rejects_non_1of(self):
        with pytest.raises(ValuationError):
            probability_1of(a & ~a, {"a": 0.5})

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            probability_1of(a & b, {"a": 0.5})

    @given(FORMULAS, probs_strategy)
    def test_matches_brute_force_when_1of(self, formula, probs):
        from repro.lineage import is_one_occurrence_form

        if is_one_occurrence_form(formula):
            assert probability_1of(formula, probs) == pytest.approx(
                brute_force(formula, probs)
            )


class TestShannon:
    @given(FORMULAS, probs_strategy)
    def test_matches_brute_force(self, formula, probs):
        assert probability_shannon(formula, probs) == pytest.approx(
            brute_force(formula, probs)
        )

    def test_repeated_variable_exact(self):
        # P(a ∨ (a ∧ b)) = P(a), the absorption the 1OF path would get wrong.
        formula = a | (a & b)
        assert probability_shannon(formula, {"a": 0.3, "b": 0.9}) == pytest.approx(0.3)

    def test_contradiction(self):
        assert probability_shannon(a & ~a, {"a": 0.7}) == pytest.approx(0.0)

    def test_tautology(self):
        assert probability_shannon(a | ~a, {"a": 0.7}) == pytest.approx(1.0)

    @given(FORMULAS, probs_strategy)
    def test_complement_sums_to_one(self, formula, probs):
        total = probability_shannon(formula, probs) + probability_shannon(
            lnot(formula), probs
        )
        assert total == pytest.approx(1.0)

    @given(FORMULAS, FORMULAS, probs_strategy)
    def test_inclusion_exclusion(self, f, g, probs):
        # P(f ∨ g) + P(f ∧ g) = P(f) + P(g), with f and g sharing variables.
        assert probability_shannon(lor(f, g), probs) + probability_shannon(
            land(f, g), probs
        ) == pytest.approx(probability_shannon(f, probs) + probability_shannon(g, probs))

    @given(FORMULAS, FORMULAS, probs_strategy)
    def test_connectives_bound_their_operands(self, f, g, probs):
        pf, pg = probability_shannon(f, probs), probability_shannon(g, probs)
        slack = 1e-9
        assert probability_shannon(land(f, g), probs) <= min(pf, pg) + slack
        assert probability_shannon(lor(f, g), probs) >= max(pf, pg) - slack


class TestExactPipeline:
    """``Method.AUTO`` below the sampling limit: 1OF where it applies,
    Shannon expansion elsewhere — exact either way."""

    @given(FORMULAS, probs_strategy)
    def test_auto_matches_brute_force(self, formula, probs):
        assert probability(formula, probs) == pytest.approx(brute_force(formula, probs))

    @given(st.lists(FORMULAS, max_size=6), probs_strategy)
    def test_batch_matches_brute_force(self, batch, probs):
        # Repeated formulas in one batch share a value; each still exact.
        batch = batch + batch[:2]
        values = probability_batch(batch, probs)
        assert len(values) == len(batch)
        for formula, value in zip(batch, values):
            assert value == pytest.approx(brute_force(formula, probs))
