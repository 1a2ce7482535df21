"""The fused kernel valuates base-variable windows as it builds them.

Windows over two base relations are one-occurrence forms — ``x``,
``x∨y``, ``x∧y``, ``x∧¬y`` over distinct variables (Theorem 1) — and
the kernel writes their ``p`` in the loop; every other window is left
for one batch (DESIGN.md §6.3).  Neither where a row is valuated nor
the split may show: the fused, materialized ∪/∩/− must equal the
unfused reference (one batch over every row) bit for bit — facts, end
points, lineage objects, ``p`` and the valuation counters — over base
pairs, self-operations, derived left operands and an event map that
lacks a variable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TPRelation
from repro.core.errors import UnknownVariableError
from repro.core.setops import OPERATIONS, _fused_sweep, tp_except, tp_intersect, tp_union
from repro.lineage import Var
from repro.prob.valuation import clear_valuation_cache, valuation_cache_stats
from tests.strategies import tp_relation, tp_relation_pair

OPS = [tp_union, tp_intersect, tp_except]


def _run(op, r: TPRelation, s: TPRelation, fused: bool):
    """The result and the valuation counters it moved, or the error."""
    clear_valuation_cache()
    try:
        result = op(r, s, fused=fused)
    except UnknownVariableError as exc:
        return ("raised", str(exc)), valuation_cache_stats()
    rows = [
        (t.fact, t.start, t.end, t.lineage, type(t.p), repr(t.p)) for t in result
    ]
    return rows, valuation_cache_stats()


def assert_paths_agree(op, r: TPRelation, s: TPRelation) -> None:
    fused_rows, fused_stats = _run(op, r, s, fused=True)
    reference_rows, reference_stats = _run(op, r, s, fused=False)
    assert fused_stats == reference_stats
    assert type(fused_rows) is type(reference_rows)  # both raised, or neither
    if isinstance(fused_rows, tuple):
        assert fused_rows == reference_rows
        return
    assert len(fused_rows) == len(reference_rows)
    for got, want in zip(fused_rows, reference_rows):
        assert got[:3] == want[:3]
        assert got[3] is want[3]  # interned: identity, not just equality
        assert got[4:] == want[4:]  # exact float, -0.0 and all


class TestInlineEqualsBatch:
    @settings(max_examples=60, deadline=None)
    @given(tp_relation_pair())
    def test_base_pairs(self, pair):
        r, s = pair
        for op in OPS:
            assert_paths_agree(op, r, s)

    @settings(max_examples=30, deadline=None)
    @given(tp_relation("r"))
    def test_self_operations(self, r):
        for op in OPS:
            assert_paths_agree(op, r, r)

    @settings(max_examples=30, deadline=None)
    @given(tp_relation_pair(), tp_relation("t"), st.booleans())
    def test_derived_left_operands(self, pair, t, materialized):
        """``(r − s) ∪ t`` and ``(r ∪ s) ∩ t``, the inner result
        lineage-only as the executor builds it or materialized: a
        compound window goes to the batch, a base-variable one is valued
        inline from the event map, never from the input tuple's ``p``."""
        r, s = pair
        for inner, outer in ((tp_except, tp_union), (tp_union, tp_intersect)):
            left = inner(r, s, materialize=materialized)
            for op in (outer, *OPS):
                assert_paths_agree(op, left, t)

    @settings(max_examples=40, deadline=None)
    @given(tp_relation_pair(), st.data())
    def test_a_missing_variable_raises_the_same_error(self, pair, data):
        r, s = pair
        owner = data.draw(st.sampled_from([r, s]))
        if not owner.events:
            return
        del owner.events[data.draw(st.sampled_from(sorted(owner.events)))]
        for op in OPS:
            assert_paths_agree(op, r, s)


class TestTheSplit:
    """What the kernel leaves to the batch (white box)."""

    @staticmethod
    def _sweep(r: TPRelation, s: TPRelation, op: str, events=None):
        if events is None:
            events = r.merged_events(s)
        return _fused_sweep(r.sorted_tuples(), s.sorted_tuples(), op, events)

    @settings(max_examples=30, deadline=None)
    @given(tp_relation_pair())
    def test_a_base_pair_leaves_nothing_pending(self, pair):
        r, s = pair
        for op in OPERATIONS:
            out, pending = self._sweep(r, s, op)
            assert pending == []
            assert all(t.p is not None for t in out)

    @settings(max_examples=30, deadline=None)
    @given(tp_relation("r"))
    def test_a_self_operation_batches_every_two_operand_window(self, r):
        for op in OPERATIONS:
            out, pending = self._sweep(r, r, op)
            two_operand = [t for t in out if type(t.lineage) is not Var]
            assert pending == two_operand
            assert all(t.p is None for t in pending)

    def test_without_events_every_tuple_is_lineage_only(self):
        r = TPRelation.from_rows("a", ("k",), [("x", 0, 4, 0.5), ("x", 6, 9, 0.25)])
        s = TPRelation.from_rows("b", ("k",), [("x", 2, 7, 0.5)])
        for op in OPERATIONS:
            out, pending = _fused_sweep(r.sorted_tuples(), s.sorted_tuples(), op)
            assert out and pending == []
            assert all(t.p is None for t in out)

    def test_the_event_map_decides_not_the_input_tuple(self):
        """The kernel reads the operand pair's merged map by name, so a
        variable whose event changed after loading is valued at its
        event's probability, like the batch values it."""
        r = TPRelation.from_rows("a", ("k",), [("x", 0, 4, 0.5)])
        s = TPRelation.from_rows("b", ("k",), [("x", 2, 7, 0.5)])
        r.events["a1"] = 0.25
        union = tp_union(r, s)
        assert [t.p for t in union] == [0.25, 1.0 - 0.75 * 0.5, 0.5]
        assert [t.p for t in union] == [t.p for t in tp_union(r, s, fused=False)]

    def test_a_missing_variable_is_left_for_the_batch_to_name(self):
        r = TPRelation.from_rows("a", ("k",), [("x", 0, 4, 0.5)])
        s = TPRelation.from_rows("b", ("k",), [("x", 2, 7, 0.5)])
        del s.events["b1"]
        out, pending = self._sweep(r, s, "union")
        assert [t.p for t in out] == [0.5, None, None]
        assert pending == out[1:]
        with pytest.raises(UnknownVariableError, match="'b1'"):
            tp_union(r, s)
