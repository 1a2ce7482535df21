"""Tests for Monte-Carlo estimation and the valuation dispatcher."""

from __future__ import annotations

import random
import re

import pytest

from repro import (
    Method,
    ValuationError,
    probability,
    probability_batch,
    probability_montecarlo,
)
from repro.lineage import Var
from repro.prob import ProbabilityOptions

a, b, c = Var("a"), Var("b"), Var("c")
PROBS = {"a": 0.3, "b": 0.6, "c": 0.5}


class TestMonteCarlo:
    def test_estimate_close_to_exact(self):
        formula = a & ~(b | c)
        exact = 0.3 * (1 - 0.6) * (1 - 0.5)
        estimate = probability_montecarlo(
            formula, PROBS, samples=50_000, rng=random.Random(7)
        )
        assert abs(estimate.estimate - exact) < 0.01

    def test_interval_contains_exact_usually(self):
        formula = (a & b) | c
        exact = 1 - (1 - 0.3 * 0.6) * (1 - 0.5)
        hits = 0
        for seed in range(20):
            est = probability_montecarlo(
                formula, PROBS, samples=2_000, rng=random.Random(seed)
            )
            if est.low <= exact <= est.high:
                hits += 1
        # 95% CI should cover the target in the vast majority of trials.
        assert hits >= 16

    def test_reproducible_with_seed(self):
        est1 = probability_montecarlo(a | b, PROBS, samples=500, rng=random.Random(3))
        est2 = probability_montecarlo(a | b, PROBS, samples=500, rng=random.Random(3))
        assert est1.estimate == est2.estimate

    def test_float_conversion(self):
        est = probability_montecarlo(a, PROBS, samples=100, rng=random.Random(1))
        assert float(est) == est.estimate

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            probability_montecarlo(a, PROBS, samples=0)

    def test_bad_confidence(self):
        with pytest.raises(ValueError):
            probability_montecarlo(a, PROBS, samples=10, confidence=0.5)

    def test_bounds_clamped(self):
        est = probability_montecarlo(
            a, {"a": 0.999}, samples=50, rng=random.Random(0)
        )
        assert 0.0 <= est.low <= est.high <= 1.0


class TestDispatcher:
    def test_auto_uses_1of_fast_path(self):
        assert probability(a & ~b, PROBS) == pytest.approx(0.3 * 0.4)

    def test_auto_exact_on_repeats(self):
        # Absorption: P(a ∨ (a∧b)) = P(a); the 1OF formula would inflate it.
        assert probability(a | (a & b), PROBS) == pytest.approx(0.3)

    def test_explicit_methods_agree(self):
        formula = (a & b) | (~a & c)
        expected = 0.3 * 0.6 + 0.7 * 0.5
        assert probability(formula, PROBS, method=Method.SHANNON) == pytest.approx(
            expected
        )

    def test_explicit_montecarlo(self):
        options = ProbabilityOptions(samples=30_000, rng=random.Random(5))
        estimate = probability(
            (a & b) | (~a & c), PROBS, method=Method.MONTE_CARLO, options=options
        )
        assert abs(estimate - (0.3 * 0.6 + 0.7 * 0.5)) < 0.02

    def test_auto_falls_back_to_sampling_when_wide(self):
        # A chain x0x1 ∨ x1x2 ∨ … repeats every variable twice; with the
        # exact limit lowered the dispatcher must switch to sampling.
        names = [Var(f"x{i}") for i in range(30)]
        formula = names[0] & names[1]
        for left, right in zip(names[1:], names[2:]):
            formula = formula | (left & right)
        probs = {f"x{i}": 0.5 for i in range(30)}
        options = ProbabilityOptions(
            exact_repeated_limit=4, samples=2_000, rng=random.Random(11)
        )
        value = probability(formula, probs, options=options)
        assert 0.0 <= value <= 1.0

    def test_method_1of_validates(self):
        with pytest.raises(ValuationError):
            probability(a & ~a, PROBS, method=Method.ONE_OCCURRENCE)

    @pytest.mark.parametrize("bad", ["1of", "bdd"])
    @pytest.mark.parametrize(
        "valuate",
        [
            lambda formula, method: probability(formula, PROBS, method=method),
            lambda formula, method: probability_batch([formula], PROBS, method=method),
        ],
        ids=["probability", "probability_batch"],
    )
    def test_non_member_method_rejected(self, valuate, bad):
        # A method that is not a Method member must not quietly run AUTO.
        with pytest.raises(ValuationError, match=re.escape(repr(bad))):
            valuate(a | (a & b), bad)

    def test_methods_are_the_exact_pipeline_and_sampling(self):
        assert [m.value for m in Method] == ["auto", "1of", "shannon", "montecarlo"]

    def test_bdd_is_not_a_method(self):
        with pytest.raises(ValueError):
            Method("bdd")

    @pytest.mark.parametrize(
        "method", [Method.AUTO, Method.ONE_OCCURRENCE, Method.SHANNON], ids=lambda m: m.value
    )
    def test_batch_agrees_with_single_calls(self, method):
        batch = [a & ~b, (a & b) | c, a, ~(b | c), a & ~b]
        expected = [probability(formula, PROBS, method=method) for formula in batch]
        assert probability_batch(batch, PROBS, method=method) == expected
