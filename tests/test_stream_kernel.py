"""One set-operation sweep: chunked inputs, streams and their front door.

:func:`repro.core.setops.sweep_chunks` is the only set-operation sweep of
the engine (DESIGN.md §3.1, §6).  The in-memory operators feed it one
chunk per side, the ``stream_*`` functions one tuple per chunk, so

* cutting the inputs anywhere — empty chunks included — must not change
  a single output tuple: same facts and intervals in the same order, the
  identical lineage object, the same probability, the same rows left
  for the batch;
* a stream must give ``tp_*(materialize=False)``'s rows in its order,
  also over operands whose rows hold no lineage node yet (an earlier
  ``tp_union``'s rows valued in its sweep);
* a stream is checked where the kernel is not: a tuple out of
  ``(F, Ts)`` order raises :class:`UnsortedInputError`, and two
  overlapping tuples of one fact raise :class:`DuplicateFactError`
  (a stream once returned the first of them over the overlap only).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DuplicateFactError,
    Interval,
    TPError,
    UnsortedInputError,
    base_tuple,
    tp_except,
    tp_intersect,
    tp_union,
)
from repro.algebra import stream_except, stream_intersect, stream_union
from repro.core.setops import OPERATIONS, _fused_sweep, sweep_chunks

from .strategies import tp_relation, tp_relation_pair

STREAMS = {"union": stream_union, "intersect": stream_intersect, "except": stream_except}
BATCH = {"union": tp_union, "intersect": tp_intersect, "except": tp_except}
ALL_OPS = pytest.mark.parametrize("op", tuple(OPERATIONS))


def cut(draw, tuples: list) -> list:
    """``tuples`` cut at random points, repeated points and both ends
    included, so some chunks are empty."""
    points = sorted(draw(st.lists(st.integers(0, len(tuples)), max_size=6)))
    bounds = [0, *points, len(tuples)]
    return [tuples[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def assert_identical(mine: list, theirs: list) -> None:
    assert [(t.fact, t.start, t.end) for t in mine] == [
        (t.fact, t.start, t.end) for t in theirs
    ]
    for a, b in zip(mine, theirs):
        assert a.p == b.p or (a.p is None and b.p is None)
        assert a.lineage is b.lineage


def positions(rows: list, some: list) -> list[int]:
    chosen = {id(t) for t in some}
    return [i for i, t in enumerate(rows) if id(t) in chosen]


@ALL_OPS
@settings(max_examples=60, deadline=None)
@given(pair=tp_relation_pair(), valuate=st.booleans(), data=st.data())
def test_any_chunking_is_the_unchunked_kernel(op, pair, valuate, data):
    r, s = pair
    tr, ts = r.sorted_tuples(), s.sorted_tuples()
    events = r.merged_events(s) if valuate else None
    whole, whole_pending = _fused_sweep(tr, ts, op, events)
    out: list = []
    pending: list = []
    for more, more_pending in sweep_chunks(
        iter(cut(data.draw, tr)), iter(cut(data.draw, ts)), op, events
    ):
        assert more  # a flush hands over rows, never an empty list
        out += more
        pending += more_pending
    assert positions(out, pending) == positions(whole, whole_pending)
    assert_identical(out, whole)


@ALL_OPS
@settings(max_examples=40, deadline=None)
@given(pair=tp_relation_pair(), third=tp_relation("t"))
def test_streams_are_the_batch_rows_in_order(op, pair, third):
    """Each operand pair is built twice, so the stream and the batch
    each meet rows nobody has read."""
    r, s = pair
    shapes = [
        lambda: (r, s),
        lambda: (tp_union(r, s), third),
        lambda: (third, tp_union(r, s)),
    ]
    for make in shapes:
        left, right = make()
        streamed = list(
            STREAMS[op](iter(left.sorted_tuples()), iter(right.sorted_tuples()))
        )
        assert all(t.p is None for t in streamed)
        batch = list(BATCH[op](*make(), materialize=False))
        assert_identical(streamed, batch)


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
