"""Parallel fact-group execution engine (DESIGN.md §10).

Shards the sweep kernels by fact group (set operations) and join-key
group (generalized joins), runs them across a persistent process pool,
and merges deterministically — bit-identical to serial execution, which
remains the default.  Configure via the ``REPRO_PARALLEL`` environment
variable, :func:`set_parallel` / :func:`parallel_execution`, the
``TPDatabase(parallel=...)`` constructor, or the CLI ``--parallel N``.

Only the lightweight configuration layer is imported eagerly; the
orchestration (:mod:`repro.exec.engine`) and pool machinery load on
first parallel use.
"""

from __future__ import annotations

from typing import Any

from .config import (
    ParallelConfig,
    active_config,
    config_from_env,
    parallel_execution,
    parse_workers,
    set_parallel,
)

__all__ = [
    "ParallelConfig",
    "active_config",
    "config_from_env",
    "group_rows_many",
    "join_sweep_rows",
    "parallel_execution",
    "parallel_probability_values",
    "parse_workers",
    "set_parallel",
    "setop_sweep_rows",
    "shutdown_pools",
]

_ENGINE_EXPORTS = {
    "group_rows_many",
    "join_sweep_rows",
    "parallel_probability_values",
    "setop_sweep_rows",
}


def __getattr__(name: str) -> Any:
    if name in _ENGINE_EXPORTS:
        from . import engine

        return getattr(engine, name)
    if name == "shutdown_pools":
        from .pool import shutdown_pools

        return shutdown_pools
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
