"""Chained set queries valued in the sweep equal the reference bit for bit.

An interior plan node is lineage-only, and a fused one leaves every
window over two base variables — and every window over such a row —
deferred: the row keeps its operands, a row among them, and no node is
built.  The root reads a deferred input row as an operand, values the
windows the one-occurrence table covers (DESIGN.md §6.3) and batches
the rest.  None of that may show: for every chain the fused result
must equal the unfused reference (``fused=False`` at every level, one
batch at the root) in facts, end points, ``repr(p)``, lineage identity
on the first and the second read, and ``valuation_cache_stats()``
exactly — over all nine operator pairs in both associations,
four-relation chains, a repeated relation, a deleted event, and an
interior row that spans several root windows.  Streams over deferred
interior rows build the reference's nodes too.
"""

from __future__ import annotations

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TPRelation
from repro.algebra.streaming import stream_except, stream_intersect, stream_union
from repro.core.errors import UnknownVariableError
from repro.core.setops import tp_except, tp_intersect, tp_union
from repro.prob.valuation import clear_valuation_cache, valuation_cache_stats
from tests.strategies import tp_relation
from tests.test_hot_path_budget import seeded_rows

OPS = {"union": tp_union, "intersect": tp_intersect, "except": tp_except}
STREAMS = {"union": stream_union, "intersect": stream_intersect, "except": stream_except}
PAIRS = list(product(OPS, repeat=2))


def evaluate(tree, fused: bool, materialize: bool = True) -> TPRelation:
    """A tree of ``(op, left, right)`` over relations, as the executor
    runs it: interior nodes lineage-only, the root with ``materialize``."""
    if isinstance(tree, TPRelation):
        return tree
    op, left, right = tree
    return OPS[op](
        evaluate(left, fused, False),
        evaluate(right, fused, False),
        fused=fused,
        materialize=materialize,
    )


def run(tree, fused: bool):
    """A fresh result nobody has read, and the counters it moved — or
    the error it raised."""
    clear_valuation_cache()
    try:
        rows = list(evaluate(tree, fused))
    except UnknownVariableError as exc:
        return ("raised", str(exc)), valuation_cache_stats()
    return rows, valuation_cache_stats()


def values(rows) -> list[tuple]:
    """Everything but the lineage: reads no node."""
    return [(t.fact, t.start, t.end, type(t.p), repr(t.p)) for t in rows]


def assert_chain_agrees(tree) -> None:
    reference, reference_stats = run(tree, fused=False)
    rows, stats = run(tree, fused=True)
    if isinstance(reference, tuple):
        assert rows == reference  # the same error, naming the same variable
        assert stats == reference_stats == {"hits": 0, "misses": 0, "swept": 0}
        return
    # The reference batches every row; the chain values every row in the
    # sweep and batches none — counted before any node exists.
    distinct = len({u.lineage for u in reference})
    assert reference_stats == {
        "hits": len(reference) - distinct, "misses": distinct, "swept": 0,
    }
    assert stats == {"hits": 0, "misses": 0, "swept": len(rows)}
    assert values(rows) == values(reference)
    lineages = [u.lineage for u in reference]
    assert all(t.lineage is u for t, u in zip(rows, lineages))  # first read
    assert all(t.lineage is u for t, u in zip(rows, lineages))  # slot hit


def three_relations():
    return st.tuples(tp_relation("a"), tp_relation("b"), tp_relation("c"))


class TestThreeRelationChains:
    @settings(max_examples=40, deadline=None)
    @given(three_relations())
    def test_every_operator_pair_in_both_associations(self, relations):
        a, b, c = relations
        for op1, op2 in PAIRS:
            assert_chain_agrees((op2, (op1, a, b), c))
            assert_chain_agrees((op1, a, (op2, b, c)))

    @settings(max_examples=30, deadline=None)
    @given(three_relations(), st.sampled_from(PAIRS), st.data())
    def test_a_deleted_event(self, relations, ops, data):
        """The event a window needs is gone: the same error from the
        batch, or — when no row references it — the same result."""
        a, b, c = relations
        owner = data.draw(st.sampled_from(relations))
        if owner.events:
            del owner.events[data.draw(st.sampled_from(sorted(owner.events)))]
        op1, op2 = ops
        assert_chain_agrees((op2, (op1, a, b), c))
        assert_chain_agrees((op1, a, (op2, b, c)))


class TestRepeatedRelations:
    @settings(max_examples=30, deadline=None)
    @given(tp_relation("a"), tp_relation("b"), st.sampled_from(PAIRS))
    def test_a_relation_on_both_sides(self, a, b, ops):
        """``(a ∪ b) ∪ a`` and its kin: repeated variables are not 1OF,
        so those windows go to the batch (Shannon)."""
        op1, op2 = ops
        for tree in (
            (op2, (op1, a, b), a),
            (op2, (op1, a, b), b),
            (op1, a, (op2, a, b)),
            (op2, (op1, a, b), (op1, a, b)),
        ):
            assert_chain_agrees(tree)


class TestRepeatedVariablesAreWalkedInTheSweep:
    """Windows over one variable twice — ``a∧a``, ``a−a`` — and over two
    rows that share one — ``(a∪b)∩(b∪c)`` and its kin — are not 1OF:
    the sweep runs the batch's Shannon walk over their operand trees."""

    @settings(max_examples=30, deadline=None)
    @given(three_relations(), st.sampled_from(list(OPS)))
    def test_shared_relations(self, relations, outer):
        a, b, c = relations
        for tree in (
            ("intersect", a, a),
            ("except", a, a),
            ("union", a, a),
            (outer, ("union", a, b), ("union", b, c)),
            (outer, ("intersect", a, b), ("intersect", b, c)),
            (outer, ("except", a, b), ("except", b, c)),
            (outer, ("union", a, b), ("except", b, c)),
        ):
            assert_chain_agrees(tree)

    @settings(max_examples=20, deadline=None)
    @given(three_relations(), tp_relation("d"), st.sampled_from(PAIRS))
    def test_four_relation_trees_that_repeat_one(self, relations, d, ops):
        a, b, c = relations
        x, y = ops
        for tree in (
            (x, (y, (x, a, b), c), a),
            (y, (x, a, b), (x, c, a)),
            (x, (y, a, (x, b, c)), (y, d, b)),
            (y, ("union", (x, a, b), c), ("intersect", b, d)),
        ):
            assert_chain_agrees(tree)


class TestFourRelationChains:
    @settings(max_examples=30, deadline=None)
    @given(
        three_relations(),
        tp_relation("d"),
        st.lists(st.sampled_from(list(OPS)), min_size=3, max_size=3),
    )
    def test_every_shape(self, relations, d, ops):
        """Left-deep, bushy and right-deep: a root over a row whose
        operand is a row is batched, one over a copy of a row is not."""
        a, b, c = relations
        x, y, z = ops
        for tree in (
            (z, (y, (x, a, b), c), d),
            (z, (x, a, b), (y, c, d)),
            (x, a, (y, b, (z, c, d))),
            (z, (x, a, (y, b, c)), d),
        ):
            assert_chain_agrees(tree)


def seeded(name: str, seed: int) -> TPRelation:
    return TPRelation.from_rows(name, ("k",), seeded_rows(seed, n=400, keys=8))


def test_seeded_chains_with_many_windows_of_every_shape():
    """Hundreds of windows per chain, probabilities on a 1/1000 grid:
    every row of the one-occurrence table occurs, with values whose
    products depend on the order they are taken in."""
    a, b, c, d = (seeded(name, seed) for name, seed in zip("abcd", (11, 12, 13, 14)))
    for op1, op2 in PAIRS:
        assert_chain_agrees((op2, (op1, a, b), c))
        assert_chain_agrees((op1, a, (op2, b, c)))
        assert_chain_agrees((op2, (op1, a, b), (op1, c, d)))
        assert_chain_agrees((op2, (op1, (op2, a, b), c), d))
        assert_chain_agrees((op2, (op1, a, b), (op1, b, c)))
        assert_chain_agrees((op2, (op1, a, b), b))


def test_an_interior_row_spans_several_root_windows():
    """``a1∨b1`` over [2, 8) meets two ``c`` tuples: the root sees it
    alone, with ``c1``, alone, with ``c2`` and alone again — three
    copies of one formula and two windows over the row itself; ``a1``
    either side of it.  All seven are valued in the sweep."""
    a = TPRelation.from_rows("a", ("k",), [("x", 0, 10, 0.3)])
    b = TPRelation.from_rows("b", ("k",), [("x", 2, 8, 0.7)])
    c = TPRelation.from_rows("c", ("k",), [("x", 3, 4, 0.1), ("x", 5, 6, 0.9)])
    tree = ("union", ("union", a, b), c)
    rows, stats = run(tree, fused=True)
    assert sum(t._lineage is None for t in rows) == 5  # white box: no node yet
    assert stats == {"hits": 0, "misses": 0, "swept": 7}
    assert [(str(t.lineage), t.start, t.end) for t in rows] == [
        ("a1", 0, 2),
        ("a1∨b1", 2, 3),
        ("a1∨b1∨c1", 3, 4),
        ("a1∨b1", 4, 5),
        ("a1∨b1∨c2", 5, 6),
        ("a1∨b1", 6, 8),
        ("a1", 8, 10),
    ]
    assert rows[1].lineage is rows[3].lineage is rows[5].lineage
    for op1, op2 in PAIRS:
        assert_chain_agrees((op2, (op1, a, b), c))
        assert_chain_agrees((op1, c, (op2, a, b)))


@settings(max_examples=30, deadline=None)
@given(three_relations(), st.sampled_from(PAIRS))
def test_streams_over_deferred_interior_rows(relations, ops):
    """A stream reads an interior result's unread rows as operands and
    defers its own windows; every row's first read is the node the
    reference builds for it."""
    a, b, c = relations
    op1, op2 = ops
    reference = evaluate((op2, (op1, a, b), c), fused=False, materialize=False)
    interior = evaluate((op1, a, b), fused=True, materialize=False)
    rows = list(STREAMS[op2](iter(interior.sorted_tuples()), iter(c.sorted_tuples())))
    assert values(rows) == values(reference)
    assert all(t.p is None for t in rows)
    assert all(t.lineage is u.lineage for t, u in zip(rows, reference))
