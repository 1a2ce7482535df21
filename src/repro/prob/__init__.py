"""Probability valuations for lineage formulas (exact and approximate)."""

from .exact_1of import probability_1of
from .montecarlo import MonteCarloEstimate, probability_montecarlo
from .shannon import probability_shannon
from .valuation import (
    EventMap,
    Method,
    ProbabilityOptions,
    clear_valuation_cache,
    probability,
    probability_batch,
    valuation_cache_stats,
)

__all__ = [
    "EventMap",
    "Method",
    "MonteCarloEstimate",
    "ProbabilityOptions",
    "clear_valuation_cache",
    "probability",
    "probability_1of",
    "probability_batch",
    "probability_montecarlo",
    "probability_shannon",
    "valuation_cache_stats",
]
