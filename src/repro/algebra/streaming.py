"""Streaming (constant-space) TP set operations.

Section VI-B of the paper points out that, because filtering and lineage
concatenation happen at window-creation time, "no intermediate buffers
need to be maintained (apart from very few pointers), and thus the space
complexity of all TP set operators is constant".

This module delivers that claim as an API: the ``stream_*`` functions
consume *iterators* of tuples already sorted by ``(F, Ts)`` and yield
output tuples one by one.  State is exactly the paper's ``status``
record — two one-tuple lookahead cursors, the two valid tuples, the
previous boundary and the current fact — regardless of input size.
Combined with the counting-sort option (or inputs stored sorted), the
whole pipeline runs without materializing either input.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from ..core.interval import Interval
from ..core.tuple import TPTuple
from ..lineage.concat import concat_and, concat_and_not, concat_or

__all__ = ["stream_union", "stream_intersect", "stream_except"]

_UNSET = object()


class _Cursor:
    """One-tuple lookahead over a sorted tuple iterator."""

    __slots__ = ("_iterator", "head")

    def __init__(self, tuples: Iterable[TPTuple]) -> None:
        self._iterator = iter(tuples)
        self.head: Optional[TPTuple] = next(self._iterator, None)

    def advance(self) -> None:
        self.head = next(self._iterator, None)


def _stream_windows(
    r: Iterable[TPTuple], s: Iterable[TPTuple]
) -> Iterator[tuple[object, int, int, Optional[TPTuple], Optional[TPTuple]]]:
    """The LAWA sweep over iterators; yields (fact, ts, te, rValid, sValid).

    A transliteration of :meth:`repro.core.lawa.LawaSweep.advance` onto
    lookahead cursors; kept separate so the in-memory sweep stays free of
    iterator overhead in benchmarks.
    """
    cr = _Cursor(r)
    cs = _Cursor(s)
    r_valid: Optional[TPTuple] = None
    s_valid: Optional[TPTuple] = None
    prev_win_te = -1
    fact: object = _UNSET
    guard = None  # detects unsorted input

    while True:
        head_r, head_s = cr.head, cs.head
        if r_valid is None and s_valid is None:
            r_continues = head_r is not None and head_r.fact == fact
            s_continues = head_s is not None and head_s.fact == fact
            if r_continues and s_continues:
                win_ts = min(head_r.start, head_s.start)
            elif r_continues:
                win_ts = head_r.start
            elif s_continues:
                win_ts = head_s.start
            elif head_r is None and head_s is None:
                return
            else:
                if head_s is None or (
                    head_r is not None and head_r.sort_key <= head_s.sort_key
                ):
                    opener = head_r
                else:
                    opener = head_s
                assert opener is not None
                fact = opener.fact
                win_ts = opener.start
            if guard is not None and (fact, win_ts) < guard:
                raise ValueError("stream inputs must be sorted by (fact, Ts)")
        else:
            win_ts = prev_win_te
        guard = (fact, win_ts)

        if head_r is not None and head_r.fact == fact and head_r.start == win_ts:
            r_valid = head_r
            cr.advance()
            head_r = cr.head
        if head_s is not None and head_s.fact == fact and head_s.start == win_ts:
            s_valid = head_s
            cs.advance()
            head_s = cs.head

        win_te: Optional[int] = None
        if head_r is not None and head_r.fact == fact:
            win_te = head_r.start
        if head_s is not None and head_s.fact == fact:
            start = head_s.start
            if win_te is None or start < win_te:
                win_te = start
        if r_valid is not None:
            end = r_valid.end
            if win_te is None or end < win_te:
                win_te = end
        if s_valid is not None:
            end = s_valid.end
            if win_te is None or end < win_te:
                win_te = end
        if win_te is None or win_te <= win_ts:
            # A sorted input can never bound a window at or before its
            # start (see the LawaSweep invariant); an unsorted stream can.
            raise ValueError("stream inputs must be sorted by (fact, Ts)")

        yield fact, win_ts, win_te, r_valid, s_valid

        if r_valid is not None and r_valid.end == win_te:
            r_valid = None
        if s_valid is not None and s_valid.end == win_te:
            s_valid = None
        prev_win_te = win_te


def stream_union(
    r: Iterable[TPTuple], s: Iterable[TPTuple]
) -> Iterator[TPTuple]:
    """Lazily yield r ∪Tp s from ``(F, Ts)``-sorted tuple streams.

    Probabilities are not materialized (the stream carries lineage only);
    pipe through a valuation step if needed.
    """
    for fact, ts, te, r_valid, s_valid in _stream_windows(r, s):
        if r_valid is not None or s_valid is not None:
            lam_r = r_valid.lineage if r_valid is not None else None
            lam_s = s_valid.lineage if s_valid is not None else None
            yield TPTuple(fact, concat_or(lam_r, lam_s), Interval(ts, te))


def stream_intersect(
    r: Iterable[TPTuple], s: Iterable[TPTuple]
) -> Iterator[TPTuple]:
    """Lazily yield r ∩Tp s from sorted tuple streams."""
    for fact, ts, te, r_valid, s_valid in _stream_windows(r, s):
        if r_valid is not None and s_valid is not None:
            yield TPTuple(
                fact, concat_and(r_valid.lineage, s_valid.lineage), Interval(ts, te)
            )


def stream_except(
    r: Iterable[TPTuple], s: Iterable[TPTuple]
) -> Iterator[TPTuple]:
    """Lazily yield r −Tp s from sorted tuple streams."""
    for fact, ts, te, r_valid, s_valid in _stream_windows(r, s):
        if r_valid is not None:
            lam_s = s_valid.lineage if s_valid is not None else None
            yield TPTuple(
                fact, concat_and_not(r_valid.lineage, lam_s), Interval(ts, te)
            )
