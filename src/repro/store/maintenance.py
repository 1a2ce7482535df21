"""Registry of view-maintenance strategies.

Mirrors the algorithm registries of :mod:`repro.baselines.registry`
(LAWA & friends for set operations, GTWINDOW/NAIVE-SWEEP for joins): the
optimized engine ships beside a simple full-recompute fallback, and every
property test and benchmark can hold the two against each other on the
same mutating stores.

* ``INCREMENTAL`` — delta-scoped maintenance: dirty regions widened to
  window boundaries, kernel re-sweeps over the widened ranges only,
  results spliced into the cached output (:class:`~repro.store.view
  .IncrementalEngine`).
* ``RECOMPUTE`` — full re-evaluation of the view's query through the
  batch operators on every refresh (:class:`~repro.store.view
  .RecomputeEngine`) — the oracle the incremental engine is verified
  against, and a safe harbor for query shapes a future operator might
  not maintain incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.errors import UnsupportedOperationError
from .view import IncrementalEngine, RecomputeEngine

__all__ = [
    "MaintenanceStrategy",
    "maintenance_strategies",
    "get_maintenance_strategy",
]


@dataclass(frozen=True)
class MaintenanceStrategy:
    """A named way of keeping a materialized view consistent."""

    name: str
    description: str
    build: Callable  # (query, stores, options) -> engine

    def __repr__(self) -> str:
        return f"<{self.name}: {self.description}>"


def maintenance_strategies() -> list[MaintenanceStrategy]:
    """The registered strategies: the incremental engine and its oracle."""
    return [
        MaintenanceStrategy(
            "INCREMENTAL",
            "dirty-region re-sweeps spliced into the cached output",
            IncrementalEngine,
        ),
        MaintenanceStrategy(
            "RECOMPUTE",
            "full re-evaluation through the batch operators",
            RecomputeEngine,
        ),
    ]


def get_maintenance_strategy(name: str) -> MaintenanceStrategy:
    """Look a strategy up by name (case-insensitive)."""
    for strategy in maintenance_strategies():
        if strategy.name.lower() == name.lower():
            return strategy
    raise UnsupportedOperationError(
        f"no view-maintenance strategy named {name!r}"
    )
