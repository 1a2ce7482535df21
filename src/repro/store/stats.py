"""Incrementally maintained statistics for mutable stores (DESIGN.md §10).

The optimizer's :class:`~repro.query.stats.RelationStats` summary is a
single pass over an immutable relation; for a write-heavy
:class:`~repro.store.SegmentStore` recomputing it per query would cost a
full scan per plan.  :class:`StoreStatistics` instead piggybacks on the
store's epoch/:class:`~repro.store.ChangeSet` machinery:

* it registers as a change-log **consumer** (the same weak-consumer
  protocol materialized views use), so the store retains exactly the
  change sets the statistics still have to replay and prunes the rest;
* on read it replays the pending change sets, updating tuple counts,
  per-fact-group cardinalities, per-attribute distinct-value counters
  and the coverage histogram *incrementally* — O(changes), not O(store);
* the covering span is exact: inserts widen it directly, and a delete
  touching the current boundary (the one case that may *tighten* it)
  marks the summary dirty so the next read rebuilds in one pass;
* the histogram keeps its bucket edges across small span growth —
  out-of-range intervals clamp into the edge buckets (estimate-grade,
  by design) — and is re-spread over fresh edges only when the span
  outgrows the old edges by half a histogram width, so an append-heavy
  time-series workload rebuilds O(log span) times, not O(inserts).

A pruned-past-our-epoch change log (possible when the maintainer was
created long before its first read and no other consumer pinned the
log) falls back to the same full rebuild, so the summary is never
silently wrong.
"""

from __future__ import annotations

from typing import Counter as CounterType, Optional

from collections import Counter

from ..core.schema import Fact
from ..query.stats import RelationStats, build_histogram, stats_from_tuples
from .segment import ChangeSet, SegmentStore

__all__ = ["StoreStatistics"]


class StoreStatistics:
    """Maintains one store's :class:`RelationStats` across transactions."""

    def __init__(self, store: SegmentStore) -> None:
        self._store = store
        self.seen_epoch = store.epoch
        self._fact_counts: CounterType[Fact] = Counter()
        self._value_counts: list[CounterType] = [
            Counter() for _ in store.schema.attributes
        ]
        self._covered = 0
        self._span: Optional[tuple[int, int]] = None
        self._hist_span: Optional[tuple[int, int]] = None
        self._histogram: list[int] = []
        self._dirty = True  # first read performs the seeding pass
        store.register_consumer(self)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        """Full pass over the store: reseed every counter and the histogram."""
        store = self._store
        self._fact_counts = Counter()
        self._value_counts = [Counter() for _ in store.schema.attributes]
        self._covered = 0
        lo: Optional[int] = None
        hi: Optional[int] = None
        intervals: list[tuple[int, int]] = []
        for t in store.iter_sorted():
            self._fact_counts[t.fact] += 1
            for i, value in enumerate(t.fact):
                self._value_counts[i][value] += 1
            start, end = t.start, t.end
            intervals.append((start, end))
            self._covered += end - start
            lo = start if lo is None else min(lo, start)
            hi = end if hi is None else max(hi, end)
        self._span = None if lo is None else (lo, hi)
        self._hist_span = self._span
        self._histogram = list(build_histogram(intervals, self._span))
        self._dirty = False
        self.seen_epoch = store.epoch

    def _apply(self, changeset: ChangeSet) -> None:
        """Replay one committed transaction into the counters."""
        for t in changeset.inserted:
            self._fact_counts[t.fact] += 1
            for i, value in enumerate(t.fact):
                self._value_counts[i][value] += 1
            self._covered += t.end - t.start
            self._bump(t.start, t.end, +1)
        for t in changeset.deleted:
            count = self._fact_counts[t.fact] - 1
            if count > 0:
                self._fact_counts[t.fact] = count
            else:
                del self._fact_counts[t.fact]
            for i, value in enumerate(t.fact):
                vcount = self._value_counts[i][value] - 1
                if vcount > 0:
                    self._value_counts[i][value] = vcount
                else:
                    del self._value_counts[i][value]
            self._covered -= t.end - t.start
            if self._span is not None and (
                t.start <= self._span[0] or t.end >= self._span[1]
            ):
                # A boundary-touching delete may tighten the span; the
                # next read rebuilds span + histogram from the store.
                self._dirty = True
            else:
                self._bump(t.start, t.end, -1)

    def _bump(self, start: int, end: int, delta: int) -> None:
        """Add/remove one interval's span and histogram contribution."""
        if self._span is None:
            if delta > 0:
                self._span = (start, end)
                self._hist_span = self._span
                self._histogram = list(
                    build_histogram([(start, end)], self._span)
                )
            return
        if delta > 0:
            lo, hi = self._span
            self._span = (min(lo, start), max(hi, end))
        hist_span = self._hist_span
        if hist_span is None or not self._histogram:
            return
        h_lo, h_hi = hist_span
        width = max(1.0, (h_hi - h_lo) / len(self._histogram))
        # Re-spread over fresh edges once the exact span has outgrown
        # the histogram's edges by half a histogram width.
        slack = (h_hi - h_lo) / 2 or 1
        if self._span[0] < h_lo - slack or self._span[1] > h_hi + slack:
            self._dirty = True
            return
        last_bucket = len(self._histogram) - 1
        first = min(last_bucket, max(0, int((start - h_lo) / width)))
        last = min(last_bucket, max(0, int((end - 1 - h_lo) / width)))
        for i in range(first, last + 1):
            bumped = self._histogram[i] + delta
            self._histogram[i] = bumped if bumped > 0 else 0

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def current(self) -> RelationStats:
        """The up-to-date summary, replaying pending change sets first."""
        store = self._store
        if not self._dirty and store.epoch != self.seen_epoch:
            try:
                pending = store.changes_since(self.seen_epoch)
            except ValueError:
                # Log pruned past our read position — rebuild instead.
                self._dirty = True
            else:
                for changeset in pending:
                    self._apply(changeset)
                self.seen_epoch = store.epoch
        if self._dirty or store.epoch != self.seen_epoch:
            self._rebuild()
        n_tuples = sum(self._fact_counts.values())
        if not n_tuples:
            return stats_from_tuples(store.name, store.schema.attributes, ())
        return RelationStats(
            name=store.name,
            attributes=store.schema.attributes,
            n_tuples=n_tuples,
            n_facts=len(self._fact_counts),
            distinct={
                a: len(self._value_counts[i])
                for i, a in enumerate(store.schema.attributes)
            },
            span=self._span,
            histogram=tuple(self._histogram),
            covered=self._covered,
        )

    def __repr__(self) -> str:
        return (
            f"StoreStatistics({self._store.name!r}, seen_epoch "
            f"{self.seen_epoch}, dirty={self._dirty})"
        )
