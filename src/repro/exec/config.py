"""Parallel-execution configuration (the ``REPRO_PARALLEL`` knob).

One :class:`ParallelConfig` governs every parallel-capable seam of the
system — the set-operation sweep, the generalized-join driver, the
incremental-view re-sweeps and the batch probability valuation.  It can
be set three equivalent ways, in increasing precedence:

1. the ``REPRO_PARALLEL`` environment variable (process-wide default),
2. :func:`set_parallel` / the :func:`parallel_execution` context manager
   (programmatic, e.g. ``TPDatabase(parallel=4)`` wraps its work in it),
3. an explicit worker count handed to an individual entry point.

``workers=1`` *is* the serial engine — no pool is created, no payload is
ever serialized, and every operator runs the exact code path previous
releases ran.  The parallel engine is bit-identical to it by
construction (DESIGN.md §10) and proven so by
``tests/test_parallel_differential.py``, so switching the knob can never
change a result, only its wall-clock time.

Worker processes force themselves serial (:func:`mark_worker`): nested
parallelism would oversubscribe the pool and can deadlock the
fork-based start method.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional, Union

__all__ = [
    "ParallelConfig",
    "SERIAL",
    "active_config",
    "config_from_env",
    "estimated_speedup",
    "mark_worker",
    "parallel_execution",
    "parse_workers",
    "set_parallel",
]

#: Environment variables consulted by :func:`config_from_env`.
ENV_WORKERS = "REPRO_PARALLEL"
ENV_MIN_TUPLES = "REPRO_PARALLEL_MIN_TUPLES"
ENV_MIN_FORMULAS = "REPRO_PARALLEL_MIN_FORMULAS"


@dataclass(frozen=True)
class ParallelConfig:
    """Tuning knobs of the parallel execution engine.

    Attributes
    ----------
    workers:
        Worker-pool size.  ``1`` disables the engine (serial execution).
    min_tuples:
        Sweeps whose combined input is smaller than this stay serial —
        below a few thousand tuples the pool round-trip costs more than
        the sweep itself.  ``0`` parallelizes everything (the setting the
        differential suite and the ``REPRO_PARALLEL`` CI leg run under).
    min_formulas:
        Batch valuations with fewer distinct non-atomic deterministic
        formulas than this stay serial, for the same break-even reason.
    chunks_per_worker:
        Oversubscription factor of the size-balanced chunker: more
        chunks than workers lets the pool rebalance when chunk costs
        are uneven.
    """

    workers: int = 1
    min_tuples: int = 4096
    min_formulas: int = 1024
    chunks_per_worker: int = 2

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"parallel worker count must be >= 1, got {self.workers}"
            )
        if self.min_tuples < 0 or self.min_formulas < 0:
            raise ValueError("parallel thresholds must be >= 0")
        if self.chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be >= 1")

    @property
    def enabled(self) -> bool:
        return self.workers > 1

    @property
    def n_chunks(self) -> int:
        return self.workers * self.chunks_per_worker


#: The serial configuration — the default, and the forced state inside
#: pool workers.
SERIAL = ParallelConfig(workers=1)


def parse_workers(text: str, *, source: str = ENV_WORKERS) -> int:
    """Parse a worker count, rejecting non-integers and values < 1."""
    try:
        workers = int(text)
    except ValueError as exc:
        raise ValueError(
            f"{source} must be an integer worker count, got {text!r}"
        ) from exc
    if workers < 1:
        raise ValueError(
            f"{source} must be a positive worker count, got {workers}"
        )
    return workers


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        value = int(text)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {text!r}") from exc
    return value


def config_from_env() -> ParallelConfig:
    """The process-wide default configuration, read from the environment."""
    text = os.environ.get(ENV_WORKERS)
    workers = parse_workers(text) if text is not None else 1
    return ParallelConfig(
        workers=workers,
        min_tuples=_env_int(ENV_MIN_TUPLES, ParallelConfig.min_tuples),
        min_formulas=_env_int(ENV_MIN_FORMULAS, ParallelConfig.min_formulas),
    )


# The active configuration.  Resolved lazily so importing repro never
# fails on a malformed environment; the first parallel-capable call does.
_ACTIVE: Optional[ParallelConfig] = None
_IN_WORKER = False


def mark_worker() -> None:
    """Force this process serial (called by the pool initializer)."""
    global _IN_WORKER
    _IN_WORKER = True


def active_config() -> ParallelConfig:
    """The configuration every parallel-capable seam consults."""
    global _ACTIVE
    if _IN_WORKER:
        return SERIAL
    if _ACTIVE is None:
        _ACTIVE = config_from_env()
    return _ACTIVE


def _coerce(config: Union[int, ParallelConfig, None]) -> Optional[ParallelConfig]:
    if config is None:
        return None
    if isinstance(config, ParallelConfig):
        return config
    workers = parse_workers(str(config), source="parallel")
    base = _ACTIVE if _ACTIVE is not None else config_from_env()
    return replace(base, workers=workers)


def set_parallel(config: Union[int, ParallelConfig, None]) -> None:
    """Set the active configuration.

    Accepts a worker count (other knobs keep their current values), a
    full :class:`ParallelConfig`, or ``None`` to fall back to the
    environment default.
    """
    global _ACTIVE
    _ACTIVE = _coerce(config) if config is not None else config_from_env()


def estimated_speedup(
    work_units: float,
    groups: float,
    config: Optional[ParallelConfig] = None,
) -> float:
    """Expected pool speedup for ``work_units`` of sweep work over
    ``groups`` shardable units — the execution engine's contribution to
    the cost model (DESIGN.md §11).

    Mirrors the engine's own gating: below ``min_tuples`` the operation
    stays serial (the pool round-trip costs more than the sweep), and a
    sweep can never run faster than its number of independently
    shardable groups allows — the chunker shards by fact/key group, so
    ``min(workers, groups)`` bounds the parallelism.  ``config=None``
    reads the ambient configuration, exactly like the operators do.
    """
    cfg = config if config is not None else active_config()
    if not cfg.enabled or work_units < cfg.min_tuples:
        return 1.0
    return max(1.0, min(float(cfg.workers), groups))


@contextmanager
def parallel_execution(
    config: Union[int, ParallelConfig, None]
) -> Iterator[ParallelConfig]:
    """Run a block under an explicit configuration (``None`` = no-op)."""
    global _ACTIVE
    override = _coerce(config)
    if override is None:
        yield active_config()
        return
    previous = _ACTIVE
    _ACTIVE = override
    try:
        yield override
    finally:
        _ACTIVE = previous
