"""Tests for the streaming (constant-space) set operations."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings

from repro import (
    DuplicateFactError,
    Interval,
    InvalidFactError,
    TPError,
    TPRelation,
    UnsortedInputError,
    base_tuple,
    tp_except,
    tp_intersect,
    tp_union,
)
from repro.algebra import stream_except, stream_intersect, stream_union
from repro.core.setops import OPERATIONS, sweep_chunks
from repro.core.sorting import sort_tuples

from .strategies import tp_relation_pair

STREAMS = {"union": stream_union, "intersect": stream_intersect, "except": stream_except}
ALL_OPS = pytest.mark.parametrize("op", tuple(OPERATIONS))


def _right_stream(name="s"):
    """Unbounded ``("f",)`` stream at ``[3i, 3i+2)``, lineage ``s1, s2, …``
    — the tuples of :func:`_right_relation`, and more."""
    for i in itertools.count():
        yield base_tuple(("f",), f"{name}{i + 1}", Interval(3 * i, 3 * i + 2), 0.5)


def _right_relation(n, name="s"):
    rows = [("f", 3 * i, 3 * i + 2, 0.5) for i in range(n)]
    return TPRelation.from_rows(name, ("x",), rows)


#: Three ``("f",)`` tuples spanning ``[0, 10)``: the short side of the
#: exhaustion tests.
SHORT_ROWS = [("f", 0, 4, 0.5), ("f", 5, 7, 0.5), ("f", 9, 10, 0.5)]

#: (stream operator, materialized operator), one per set operation.
OPERATIONS = pytest.mark.parametrize(
    "stream_fn, batch_fn",
    [
        (stream_union, tp_union),
        (stream_intersect, tp_intersect),
        (stream_except, tp_except),
    ],
    ids=["union", "intersect", "except"],
)


def _rows(tuples):
    return [(t.fact, t.interval, t.lineage) for t in tuples]


def _counted(tuples, pulls, limit):
    """Yield ``tuples``, appending each to ``pulls``; fail past ``limit``
    pulls, so a sweep that never stops fails instead of hanging."""
    for t in tuples:
        if len(pulls) == limit:
            raise AssertionError(f"read more than {limit} tuples of the stream")
        pulls.append(t)
        yield t


class TestStreaming:
    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair())
    def test_streams_equal_materialized(self, pair):
        r, s = pair
        r_sorted = sort_tuples(r.tuples)
        s_sorted = sort_tuples(s.tuples)
        for stream_fn, batch_fn in (
            (stream_union, tp_union),
            (stream_intersect, tp_intersect),
            (stream_except, tp_except),
        ):
            streamed = {
                (t.fact, t.interval, t.lineage)
                for t in stream_fn(iter(r_sorted), iter(s_sorted))
            }
            batch = {
                (t.fact, t.interval, t.lineage)
                for t in batch_fn(r, s, materialize=False)
            }
            assert streamed == batch

    def test_lazy_consumption(self, rel_a, rel_c):
        """The stream yields without exhausting the inputs first."""
        r_sorted = sort_tuples(rel_c.tuples)
        s_sorted = sort_tuples(rel_a.tuples)
        consumed = []

        def tracking(tuples):
            for t in tuples:
                consumed.append(t)
                yield t

        stream = stream_union(tracking(r_sorted), tracking(s_sorted))
        first = next(stream)
        assert first is not None
        assert len(consumed) < len(r_sorted) + len(s_sorted)

    def test_accepts_generators_of_unbounded_prefix(self):
        """Constant state: results appear long before the stream ends."""

        def endless(name):
            for i in itertools.count():
                yield base_tuple(("f",), f"{name}{i}", Interval(3 * i, 3 * i + 2), 0.5)

        stream = stream_intersect(endless("r"), endless("s"))
        first_five = [next(stream) for _ in range(5)]
        assert len(first_five) == 5

    def test_exhausted_left_stops_reading_right(self):
        """∩ and − stop once the left side is exhausted (DESIGN.md §3.1):
        the right stream is read at most one lookahead past the left
        side's last tuple."""
        left = sort_tuples(TPRelation.from_rows("r", ("x",), SHORT_ROWS).tuples)
        right = sort_tuples(_right_relation(1000).tuples)
        budget = sum(1 for t in right if t.start <= left[-1].start) + 1
        for stream_fn in (stream_intersect, stream_except):
            pulls: list = []
            list(stream_fn(iter(left), _counted(right, pulls, len(right))))
            assert len(pulls) <= budget, stream_fn.__name__

    def test_unbounded_right_stream(self):
        """A finite left side against an endless right stream returns, and
        with the rows of the materialized operation."""
        r = TPRelation.from_rows(
            "r",
            ("x",),
            [("e", 0, 4, 0.5), ("f", 1, 7, 0.5), ("f", 10, 11, 0.6), ("f", 20, 25, 0.7)],
        )
        s = _right_relation(10)  # covers r's span and then some
        for stream_fn, batch_fn in (
            (stream_intersect, tp_intersect),
            (stream_except, tp_except),
        ):
            right = _counted(_right_stream(), [], 1000)
            streamed = [
                (t.fact, t.interval, t.lineage)
                for t in stream_fn(iter(sort_tuples(r.tuples)), right)
            ]
            batch = [
                (t.fact, t.interval, t.lineage)
                for t in batch_fn(r, s, materialize=False)
            ]
            assert streamed == batch, stream_fn.__name__

    def test_exhausted_right_stops_intersect(self):
        """∩ also stops once the right side is exhausted: an endless left
        stream against a finite right one returns the rows of
        ``tp_intersect``, reading the left at most one lookahead past
        the right side's last tuple."""
        right = TPRelation.from_rows("s", ("x",), SHORT_ROWS)
        pulls: list = []
        streamed = _rows(
            stream_intersect(
                _counted(_right_stream("r"), pulls, 1000),
                iter(sort_tuples(right.tuples)),
            )
        )
        assert streamed == _rows(
            tp_intersect(_right_relation(10, "r"), right, materialize=False)
        )
        last_start = max(start for _, start, _, _ in SHORT_ROWS)
        assert len(pulls) <= sum(1 for i in range(1000) if 3 * i <= last_start) + 1

    def test_except_outlives_the_right_side(self):
        """− does not stop when the right side is exhausted: the left
        tuples past the right side's end still come out whole."""
        left = _right_relation(10, "r")
        right = TPRelation.from_rows("s", ("x",), SHORT_ROWS)
        streamed = _rows(
            stream_except(iter(sort_tuples(left.tuples)), iter(sort_tuples(right.tuples)))
        )
        assert streamed == _rows(tp_except(left, right, materialize=False))
        assert any(interval.start >= 10 for _, interval, _ in streamed)

    def test_union_reads_both_sides_to_the_end(self):
        """∪ has no early exit: it drains the longer right side after the
        short left side is exhausted."""
        left = TPRelation.from_rows("r", ("x",), SHORT_ROWS)
        right = _right_relation(1000)
        pulls: list = []
        streamed = _rows(
            stream_union(
                iter(sort_tuples(left.tuples)),
                _counted(sort_tuples(right.tuples), pulls, len(right) + 1),
            )
        )
        assert len(pulls) == len(right)
        assert streamed == _rows(tp_union(left, right, materialize=False))

    @OPERATIONS
    @pytest.mark.parametrize("empty", ["left", "right", "both"])
    def test_empty_side(self, stream_fn, batch_fn, empty):
        """An empty input stream gives the materialized operation's rows."""
        r = TPRelation.from_rows("r", ("x",), [] if empty != "right" else SHORT_ROWS)
        s = _right_relation(0 if empty != "left" else 4)
        streamed = _rows(stream_fn(iter(sort_tuples(r.tuples)), iter(sort_tuples(s.tuples))))
        assert streamed == _rows(batch_fn(r, s, materialize=False))

    @OPERATIONS
    def test_unsorted_right_input_detected(self, stream_fn, batch_fn):
        good = [
            base_tuple(("f",), "r1", Interval(0, 2), 0.5),
            base_tuple(("f",), "r2", Interval(20, 22), 0.5),
        ]
        bad = [
            base_tuple(("f",), "s2", Interval(10, 12), 0.5),
            base_tuple(("f",), "s1", Interval(0, 2), 0.5),
        ]
        with pytest.raises(ValueError, match="sorted"):
            list(stream_fn(iter(good), iter(bad)))

    def test_unsorted_input_detected(self):
        bad = [
            base_tuple(("f",), "r2", Interval(10, 12), 0.5),
            base_tuple(("f",), "r1", Interval(0, 2), 0.5),
        ]
        good = [base_tuple(("f",), "s1", Interval(0, 2), 0.5)]
        with pytest.raises(ValueError, match="sorted"):
            list(stream_union(iter(bad), iter(good)))


def test_a_chunk_end_hands_over_its_rows_before_the_next_pull():
    facts = [(("f",), 0, 2), (("f",), 4, 6), (("g",), 0, 3)]
    tuples = [
        base_tuple(fact, f"r{i}", Interval(ts, te), 0.5)
        for i, (fact, ts, te) in enumerate(facts)
    ]
    pulled: list = []

    def chunks():
        yield tuples[:2]
        pulled.append("second chunk")
        yield tuples[2:]

    flushes = sweep_chunks(chunks(), iter(()), "union")
    first, _ = next(flushes)
    assert [(t.start, t.end) for t in first] == [(0, 2)] and not pulled
    rest = [t for more, _ in flushes for t in more]
    assert [(t.fact, t.start, t.end) for t in rest] == [
        (("f",), 4, 6), (("g",), 0, 3),
    ]


def _tuples(*spec):
    return [
        base_tuple((fact,), name, Interval(ts, te), 0.5) for fact, name, ts, te in spec
    ]


@pytest.mark.parametrize("side", ["left", "right"])
@ALL_OPS
def test_overlapping_tuples_of_one_fact_are_refused(op, side):
    bad = _tuples(("f", "r1", 0, 5), ("f", "r2", 3, 7))
    good = _tuples(("f", "s1", 0, 9))
    operands = (bad, good) if side == "left" else (good, bad)
    with pytest.raises(DuplicateFactError, match="overlapping"):
        list(STREAMS[op](iter(operands[0]), iter(operands[1])))


@pytest.mark.parametrize(
    "bad",
    [
        _tuples(("f", "r1", 4, 6), ("f", "r2", 0, 2)),  # start goes back
        _tuples(("g", "r1", 0, 2), ("f", "r2", 4, 6)),  # fact goes back
    ],
    ids=["start", "fact"],
)
@ALL_OPS
def test_unsorted_streams_raise_a_typed_error(op, bad):
    """The other side covers both facts, so every operation reads the
    offending tuple (a stream checks only the tuples it reads)."""
    good = _tuples(("f", "s1", 0, 9), ("g", "s2", 0, 9))
    for operands in ((bad, good), (good, bad)):
        with pytest.raises(UnsortedInputError, match="sorted") as caught:
            list(STREAMS[op](iter(operands[0]), iter(operands[1])))
        assert isinstance(caught.value, TPError)
        assert isinstance(caught.value, ValueError)


@ALL_OPS
@pytest.mark.parametrize("side", [0, 1])
def test_one_stream_of_two_kinds_is_a_typed_error(op, side):
    """Within one stream the kernel would compare the two facts; the
    refusal names both tuples instead of leaking ``fact_lt``'s
    ``TypeError``."""
    mixed = [
        base_tuple(("x", 1), "r1", Interval(0, 2), 0.5),
        base_tuple(("x", "q"), "r2", Interval(0, 2), 0.5),
    ]
    other = [base_tuple(("x", 1), "s1", Interval(0, 9), 0.5)]
    sides = [iter(mixed), iter(other)] if side == 0 else [iter(other), iter(mixed)]
    with pytest.raises(InvalidFactError, match=r"two kinds.*'x', 1, r1.*'x', 'q', r2"):
        list(STREAMS[op](*sides))
