"""Probability valuations for lineage formulas (exact and approximate)."""

from .anytime import AnytimeResult, probability_anytime
from .bdd import Bdd, BddManager, equivalent, probability_bdd
from .bid import BlockEventSpace, probability_bid
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
    "AnytimeResult",
    "Bdd",
    "BddManager",
    "BlockEventSpace",
    "EventMap",
    "Method",
    "probability_bid",
    "MonteCarloEstimate",
    "ProbabilityOptions",
    "clear_valuation_cache",
    "equivalent",
    "probability",
    "probability_1of",
    "probability_anytime",
    "probability_batch",
    "probability_bdd",
    "probability_montecarlo",
    "probability_shannon",
    "valuation_cache_stats",
]
