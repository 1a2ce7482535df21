"""Monte-Carlo (approximate) probability valuation.

The paper's data model admits approximate confidence computation
(Section III cites simulation-based approaches).  We provide a
straightforward independent-sample estimator with a normal-approximation
confidence interval: sample a truth assignment for every variable from the
event probabilities, evaluate the lineage, and average.

The estimator is unbiased for any formula and needs no structural
assumptions, making it the fallback when a lineage is neither in 1OF nor
small enough for exact Shannon expansion.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

from ..lineage.formula import Lineage, evaluate, variables

__all__ = ["MonteCarloEstimate", "probability_montecarlo"]


@dataclass(frozen=True, slots=True)
class MonteCarloEstimate:
    """An estimated probability with a symmetric confidence interval."""

    estimate: float
    half_width: float
    samples: int
    confidence: float

    @property
    def low(self) -> float:
        return max(0.0, self.estimate - self.half_width)

    @property
    def high(self) -> float:
        return min(1.0, self.estimate + self.half_width)

    def __float__(self) -> float:
        return self.estimate


# z-scores for the confidence levels we expose; avoids a scipy dependency
# in the core package (scipy is only used by benchmarks).
_Z_SCORES = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}


def probability_montecarlo(
    formula: Lineage,
    probabilities: Mapping[str, float],
    *,
    samples: int = 10_000,
    confidence: float = 0.95,
    rng: Optional[random.Random] = None,
) -> MonteCarloEstimate:
    """Estimate the marginal probability of ``formula`` by sampling.

    Parameters
    ----------
    samples:
        Number of independent possible-world samples to draw.
    confidence:
        Confidence level for the returned interval (0.90, 0.95 or 0.99).
    rng:
        Source of randomness; pass a seeded ``random.Random`` for
        reproducible estimates.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    z = _Z_SCORES.get(round(confidence, 2))
    if z is None:
        raise ValueError(f"unsupported confidence level {confidence!r}")
    rng = rng if rng is not None else random.Random()

    names = sorted(variables(formula))
    hits = 0
    assignment: dict[str, bool] = {}
    for _ in range(samples):
        for name in names:
            assignment[name] = rng.random() < probabilities[name]
        if evaluate(formula, assignment):
            hits += 1

    estimate = hits / samples
    variance = estimate * (1.0 - estimate) / samples
    half_width = z * math.sqrt(variance)
    return MonteCarloEstimate(estimate, half_width, samples, confidence)
