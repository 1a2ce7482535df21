"""Helpers shared by the four workloads: statistics, canonical rows,
the per-run context and the end-to-end metric block."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from repro.db import TPDatabase

from . import gen

if TYPE_CHECKING:
    from .probe import Probe

#: Set-up is repeated this often per run and ``setup_s`` is the median:
#: a single set-up is too short to be steady from run to run.
SETUP_REPEATS = 3


class GateFailure(AssertionError):
    """A correctness gate found a wrong output: no metric is published."""


@dataclass
class Context:
    """What one run of one workload is given."""

    workload: str
    seed: int
    scale: float
    seconds: float
    workdir: Path
    inject: Optional[str] = None
    trace_out: Optional[str] = None
    inputs: dict = field(default_factory=dict)
    #: The machine-speed probe of an untraced run (``probe.py``); a
    #: traced run has none and reports raw wall-clock.
    probe: Optional["Probe"] = None

    def scratch(self, prefix: str) -> Path:
        """A fresh directory under this run's work directory."""
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.workdir))

    def seconds_of(self, spans, own_time: bool = True) -> list[float]:
        """The ``(start, end)`` spans in seconds: normalised against the
        machine-speed probe when the run has one, raw otherwise.

        ``own_time`` is False for spans spent waiting on another process
        (see :meth:`Probe.normaliser`)."""
        if self.probe is None:
            return [end - start for start, end in spans]
        normalised = self.probe.normaliser(own_time)
        return [normalised(start, end) for start, end in spans]


@dataclass
class Outcome:
    """What a run hands back once its gates passed: operation counts,
    named metrics as ``(value, unit)``, and the sample counts behind them."""

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    samples: dict[str, int] = field(default_factory=dict)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def iqm(values) -> float:
    """Interquartile mean: the mean of the middle half of the sample.

    Every workload times a few discrete kinds of read (six set
    operations, six templates, two views), so a plain median lands in
    the gap between two kinds and jumps from run to run; the
    interquartile mean ignores the tails like a median but moves
    smoothly."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut: len(ordered) - cut]
    return sum(middle) / len(middle) if middle else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def ms(seconds: float) -> float:
    return seconds * 1000.0


def peak_rss_mb() -> float:
    """This process's high-water resident set (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def canonical_rows(relation) -> list[tuple]:
    """A relation as sorted ``(fact, start, end, lineage text, p)`` rows —
    the form every correctness gate compares."""
    return sorted(
        (tuple(t.fact), t.start, t.end, str(t.lineage), t.p) for t in relation
    )


def reopen(directory: Path):
    """Open a populated data directory until every store is readable;
    returns ``(database, seconds)``."""
    start = time.perf_counter()
    db = TPDatabase(data_dir=directory)
    for name in db.store_names():
        len(db.relation(name))
    return db, time.perf_counter() - start


def disk_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def require_equal(what: str, got, expected) -> None:
    if got != expected:
        raise GateFailure(f"{what}: output differs from the reference")


def break_oracle(rows: list[tuple]) -> list[tuple]:
    """``--inject oracle``: flip one expected probability, so the gate
    must trip (the smoke test proves the gates can fail)."""
    head = rows[0]
    return [head[:-1] + (1.0 - head[-1],)] + rows[1:]


def timed_setups(ctx: Context, build: Callable[[dict], object], dispose=None):
    """Run set-up :data:`SETUP_REPEATS` times — regenerate the base rows,
    build the database — and keep the last instance.

    Returns ``(instance, [(start, end) per set-up])``.  Earlier instances
    are disposed of and collected before the next one is built, so they
    do not inflate the peak resident set.
    """
    spans = []
    instance = None
    for _ in range(SETUP_REPEATS):
        if instance is not None:
            if dispose is not None:
                dispose(instance)
            instance = None
            gc.collect()
        start = time.perf_counter()
        relations = gen.relations(ctx.workload, ctx.seed, ctx.scale)
        instance = build(relations)
        spans.append((start, time.perf_counter()))
    return instance, spans


def end_to_end(
    *, setup_times, ops_per_s: float, read_ms_iqm: float, out_rows_per_s: float, rss_mb: float
) -> dict[str, tuple[float, str]]:
    """The end-to-end metric block every workload reports (BENCHMARK.json)."""
    return {
        "setup_s": (median(setup_times), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "read_ms_iqm": (read_ms_iqm, "ms"),
        "out_rows_per_s": (out_rows_per_s, "rows/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


#: A p95 is reported only with at least ten samples beyond it.
P95_MIN_SAMPLES = 200


def ungated(
    *, read_s, write_s=(), recover_s: float = 0.0, disk_bytes_per_row: float = 0.0,
    attempted: int, failed: int,
) -> dict[str, tuple[float, str]]:
    """The user-visible numbers that not every workload has (writes,
    recovery, space) or that need more samples than a short run gives
    (p95): printed with the per-layer metrics, not bounded."""
    def p95(samples) -> float:
        return ms(percentile(samples, 0.95)) if len(samples) >= P95_MIN_SAMPLES else 0.0

    return {
        "read_ms_p50": (ms(median(read_s)), "ms"),
        "read_ms_p95": (p95(read_s), "ms"),
        "write_ms_p50": (ms(median(write_s)), "ms"),
        "write_ms_p95": (p95(write_s), "ms"),
        "recover_s": (recover_s, "s"),
        "disk_bytes_per_row": (disk_bytes_per_row, "B/row"),
        "failed_share": (ratio(failed, attempted), "ratio"),
    }
