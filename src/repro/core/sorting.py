"""Sorting of TP relations by ``(fact, Ts)``.

The sorting step is the O(n log n) part of the LAWA pipeline (paper,
Section VI-B).  The paper notes that a counting-based sort brings the
total down to linear time whenever the time domain ΩT fits in memory; we
implement both strategies behind one entry point so benchmarks can compare
them (`benchmarks/test_complexity_ablation.py`).

Output contract
---------------
Both strategies produce the identical order on the *same* input — also on
raw, not-yet-deduplicated streams where several same-fact tuples may share
a start point (duplicate-free relations cannot tie on ``(F, Ts)``, but
loaders and baseline intermediates can).  Ties on ``(F, Ts)`` are broken
by ``Te`` and then by input order (stability); :func:`sort_counting`
enforces this by comparison-sorting within a start-point bucket whenever a
bucket holds more than one tuple (DESIGN.md §6.2).
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from .tuple import TPTuple

__all__ = [
    "sort_comparison",
    "sort_counting",
    "sort_tuples",
    "is_sorted",
    "fact_lt",
    "null_safe_key",
    "null_safe_fact_key",
    "sort_key_le",
    "sort_key_lt",
]


#: The ``(F, Ts, Te)`` key, read from the tuple's slots at C speed.
_full_key = attrgetter("fact", "start", "end")
#: Its three components, one per stable pass of :func:`sort_comparison`.
_fact_of = attrgetter("fact")
_start_of = attrgetter("start")
_end_of = attrgetter("end")


def fact_lt(a, b) -> bool:
    """``a < b`` on facts, total also for null-padded facts.

    The sweep kernels compare facts only when *crossing* fact groups
    (opening a fresh window, merging group lists) — a cold path — but a
    raw tuple comparison is untyped once outer-join outputs put ``None``
    next to concrete values.  The raw order is tried first (free when it
    succeeds, and identical to the null-safe order wherever it is
    defined, since any pair the raw comparison decides never reaches a
    ``None``); the :func:`null_safe_fact_key` convention decides the
    rest.  Inputs containing such facts are always born sorted in that
    same convention (the join kernels emit it), so cursor advancement
    stays consistent with the input order.
    """
    try:
        return a < b
    except TypeError:
        return null_safe_fact_key(a) < null_safe_fact_key(b)


def sort_key_lt(a: TPTuple, b: TPTuple) -> bool:
    """``a.sort_key < b.sort_key``, total for null-padded facts."""
    try:
        return a.sort_key < b.sort_key
    except TypeError:
        return (null_safe_fact_key(a.fact), a.start) < (
            null_safe_fact_key(b.fact), b.start,
        )


def sort_key_le(a: TPTuple, b: TPTuple) -> bool:
    """``a.sort_key <= b.sort_key``, total for null-padded facts."""
    try:
        return a.sort_key <= b.sort_key
    except TypeError:
        return (null_safe_fact_key(a.fact), a.start) <= (
            null_safe_fact_key(b.fact), b.start,
        )


def null_safe_fact_key(fact) -> tuple:
    """The fact component of :func:`null_safe_key`.

    The single definition of the null-safe fact ordering convention —
    the batch join driver and the incremental view engine both sort by
    it, so their outputs stay order-compatible.
    """
    return tuple((v is None, v) for v in fact)


def null_safe_key(t: TPTuple) -> tuple:
    """``(F, Ts, Te)`` ordering that stays total for null-padded facts.

    Outer joins emit facts containing ``None``; wrapping every value as
    ``(is_null, value)`` sorts nulls after concrete values without ever
    comparing ``None`` against one.  On null-free facts the order
    coincides exactly with :func:`sort_comparison`'s plain key.
    """
    return (null_safe_fact_key(t.fact), t.start, t.end)


def sort_comparison(tuples: Iterable[TPTuple]) -> list[TPTuple]:
    """Timsort by the ``(fact, Ts, Te)`` key — the default strategy.

    Three stable passes, least significant first: ``Te``, then ``Ts``,
    then the fact.  Stability composes them into the lexicographic
    order, ties on all three kept in input order (DESIGN.md §6.2), and
    each pass keys on an object the tuple already holds, so no key tuple
    is built per row.  Facts the raw order cannot compare (null-padded
    ones) take :func:`null_safe_key` instead.
    """
    by_time = sorted(tuples, key=_end_of)
    by_time.sort(key=_start_of)
    try:
        return sorted(by_time, key=_fact_of)
    except TypeError:
        return sorted(by_time, key=null_safe_key)


def sort_counting(tuples: Iterable[TPTuple]) -> list[TPTuple]:
    """Counting-based sort: group by fact, counting-sort starts per group.

    Linear in ``n + |ΩT|`` per fact group.  Facts themselves are ordered
    with a comparison sort, but the number of distinct facts is typically
    far below the number of tuples, so in the regimes the paper discusses
    (few facts, many intervals) the overall cost is effectively linear.
    Falls back gracefully for sparse domains: buckets are allocated only
    over each group's own start range.

    Buckets with more than one tuple — same fact *and* same start point,
    which only raw streams produce — are comparison-sorted by ``Te`` (a
    stable sort, preserving input order on full ties) so the output
    contract matches :func:`sort_comparison` exactly.
    """
    groups: dict[tuple, list[TPTuple]] = {}
    for t in tuples:
        groups.setdefault(t.fact, []).append(t)

    ordered: list[TPTuple] = []
    for fact in sorted(groups):
        group = groups[fact]
        lo = min(t.start for t in group)
        hi = max(t.start for t in group)
        width = hi - lo + 1
        if width > 4 * len(group) + 16:
            # Domain too sparse for dense buckets: comparison sort wins.
            group.sort(key=lambda t: (t.start, t.end))
            ordered.extend(group)
            continue
        buckets: list[list[TPTuple]] = [[] for _ in range(width)]
        for t in group:
            buckets[t.start - lo].append(t)
        for bucket in buckets:
            if len(bucket) > 1:
                # Raw (not-yet-deduplicated) streams can put several
                # same-fact tuples on one start point; break the tie the
                # same way the comparison strategy does.
                bucket.sort(key=lambda t: t.end)
            ordered.extend(bucket)
    return ordered


def sort_tuples(tuples: Iterable[TPTuple], *, strategy: str = "comparison") -> list[TPTuple]:
    """Sort by ``(fact, Ts)`` using the requested strategy."""
    if strategy == "comparison":
        return sort_comparison(tuples)
    if strategy == "counting":
        return sort_counting(tuples)
    raise ValueError(f"unknown sort strategy {strategy!r}")


def is_sorted(tuples: Sequence[TPTuple]) -> bool:
    """True iff the sequence is in the order this module's sorters emit.

    Uses the same full ``(fact, Ts, Te)`` key as :func:`sort_comparison`
    so a raw stream accepted by this predicate is exactly one the sorters
    would leave unchanged.  (On duplicate-free relations the ``Te``
    component is inert — ties on ``(fact, Ts)`` cannot occur.)
    """
    return all(
        _full_key(tuples[i]) <= _full_key(tuples[i + 1])
        for i in range(len(tuples) - 1)
    )
