"""Streaming (constant-space) TP set operations.

Section VI-B of the paper points out that, because filtering and lineage
concatenation happen at window-creation time, "no intermediate buffers
need to be maintained (apart from very few pointers), and thus the space
complexity of all TP set operators is constant".

This module delivers that claim as an API: the ``stream_*`` functions
consume *iterators* of tuples already sorted by ``(F, Ts)`` and yield
output tuples one by one.  They *are* the in-memory kernel,
:func:`repro.core.setops.sweep_chunks`, fed one tuple per chunk: its
state is the paper's ``status`` record — one lookahead tuple per side,
the valid lineage and end point per side, the previous boundary and the
current fact — regardless of input size, and it hands over what it has
built before it pulls the next input tuple (DESIGN.md §3.1, §6).  The
rows are lineage-only (``p`` is None), tuple for tuple the rows of
``tp_*(r, s, materialize=False)``.

The kernel trusts its inputs' order; a stream's is checked here, tuple by
tuple: a tuple out of ``(F, Ts)`` order raises
:class:`~repro.core.errors.UnsortedInputError`, and one overlapping its
same-fact predecessor raises :class:`~repro.core.errors.DuplicateFactError`.
Two streams whose facts hold values of two kinds in one column, which
the kernel cannot order, raise
:class:`~repro.core.errors.SchemaMismatchError`; one stream that does
raises :class:`~repro.core.errors.InvalidFactError` naming its two
tuples.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.errors import DuplicateFactError, InvalidFactError, UnsortedInputError
from ..core.schema import operand_kind_clash
from ..core.setops import sweep_chunks
from ..core.sorting import fact_lt
from ..core.tuple import TPTuple

__all__ = ["stream_union", "stream_intersect", "stream_except"]


def stream_union(r: Iterable[TPTuple], s: Iterable[TPTuple]) -> Iterator[TPTuple]:
    """Lazily yield r ∪Tp s from ``(F, Ts)``-sorted tuple streams.

    Probabilities are not materialized (the stream carries lineage only);
    pipe through a valuation step if needed.
    """
    return _stream(r, s, "union")


def stream_intersect(r: Iterable[TPTuple], s: Iterable[TPTuple]) -> Iterator[TPTuple]:
    """Lazily yield r ∩Tp s from sorted tuple streams."""
    return _stream(r, s, "intersect")


def stream_except(r: Iterable[TPTuple], s: Iterable[TPTuple]) -> Iterator[TPTuple]:
    """Lazily yield r −Tp s from sorted tuple streams."""
    return _stream(r, s, "except")


def _stream(r: Iterable[TPTuple], s: Iterable[TPTuple], op: str) -> Iterator[TPTuple]:
    last: list = [(), ()]  # the fact each side read last
    try:
        for out, _ in sweep_chunks(zip(_checked(r, last, 0)), zip(_checked(s, last, 1)), op):
            yield from out
    except TypeError:
        clash = () not in last and operand_kind_clash(
            "the left stream", "the right stream", [last[0]], [last[1]]
        )
        if not clash:
            raise
        raise clash from None


def _checked(tuples: Iterable[TPTuple], last: list, side: int) -> Iterator[TPTuple]:
    """``tuples``, refusing one out of ``(F, Ts)`` order or overlapping
    its same-fact predecessor — before the kernel reads it — and noting
    each one's fact in ``last[side]``."""
    prev = None
    for t in tuples:
        if prev is not None:
            fact = t.fact
            if fact == prev.fact:
                if t.start < prev.end:
                    if t.start < prev.start:
                        raise UnsortedInputError(
                            f"stream input is not sorted by (fact, Ts): {t} after {prev}"
                        )
                    raise DuplicateFactError(
                        f"stream input holds overlapping tuples of one fact: "
                        f"{prev} and {t}"
                    )
            else:
                try:
                    backwards = fact_lt(fact, prev.fact)
                except TypeError:
                    raise InvalidFactError(
                        f"stream input holds values of two kinds in one fact "
                        f"column, which do not order against each other: {prev} "
                        f"and {t}"
                    ) from None
                if backwards:
                    raise UnsortedInputError(
                        f"stream input is not sorted by (fact, Ts): {t} after {prev}"
                    )
        prev = t
        last[side] = t.fact
        yield t
