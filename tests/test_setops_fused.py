"""Fused-kernel equivalence, sortedness propagation, sorting contract.

The fused kernel (DESIGN.md §6) must be **bit-identical** to the unfused
LawaSweep-driven reference path: same facts, same intervals, the *same
interned lineage objects*, same probabilities.  These tests pin that, plus
the sortedness flag carried by set-operation outputs and the strengthened
deterministic contract of the two sorting strategies (DESIGN.md §6.2).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Interval, TPRelation, TPSchema
from repro.core.setops import tp_except, tp_intersect, tp_set_operation, tp_union
from repro.core.sorting import is_sorted, sort_comparison, sort_counting
from repro.core.tuple import TPTuple
from repro.lineage import Var
from tests.strategies import tp_relation_pair
from tests.test_hot_path_budget import seeded_rows

OPS = [tp_union, tp_intersect, tp_except]


def assert_bit_identical(x: TPRelation, y: TPRelation) -> None:
    assert len(x) == len(y)
    for t, u in zip(x, y):
        assert t.fact == u.fact
        assert t.interval == u.interval
        assert t.lineage is u.lineage  # interned: identity, not just equality
        assert t.p == u.p  # exact float equality, not approx


class TestFusedEqualsUnfused:
    @settings(max_examples=60, deadline=None)
    @given(tp_relation_pair())
    def test_random_relations(self, pair):
        r, s = pair
        for op in OPS:
            assert_bit_identical(
                op(r, s, fused=True), op(r, s, fused=False)
            )

    @settings(max_examples=25, deadline=None)
    @given(tp_relation_pair())
    def test_unmaterialized(self, pair):
        r, s = pair
        for op in OPS:
            assert_bit_identical(
                op(r, s, materialize=False, fused=True),
                op(r, s, materialize=False, fused=False),
            )

    @settings(max_examples=15, deadline=None)
    @given(tp_relation_pair(), tp_relation_pair())
    def test_chained_operations(self, pair1, pair2):
        """Derived inputs carry non-atomic lineages (Or/And/Not nodes) —
        the kernel's fast concatenation paths must still flatten like the
        smart constructors do."""
        (r, s), (t, _) = pair1, pair2
        for inner in OPS:
            base_f = inner(r, s, materialize=False, fused=True)
            base_u = inner(r, s, materialize=False, fused=False)
            for outer in OPS:
                assert_bit_identical(
                    outer(base_f, t, fused=True),
                    outer(base_u, t, fused=False),
                )

    def test_a_window_equal_to_an_operand_interval_keeps_its_end_points(self):
        """A tuple holds its end points by value: a result tuple over
        exactly an operand tuple's interval reads back an equal
        ``Interval`` (windows of both kinds occur on this input), and
        nothing else about the result may differ from the reference."""
        r = TPRelation.from_rows("a", ("k",), seeded_rows(1))
        s = TPRelation.from_rows("b", ("k",), seeded_rows(2))
        operand = {(t.fact, t.start, t.end): t for t in (*s, *r)}
        for op in OPS:
            out = op(r, s)
            equal_to_an_operand = 0
            for t in out:
                original = operand.get((t.fact, t.start, t.end))
                if original is not None:
                    assert t.interval == original.interval
                    equal_to_an_operand += 1
            assert 0 < equal_to_an_operand < len(out)
            assert_bit_identical(out, op(r, s, fused=False))

    def test_paper_example_all_ops(self):
        a = TPRelation.from_rows(
            "a", ("product",),
            [("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8), ("dates", 1, 3, 0.6)],
        )
        c = TPRelation.from_rows(
            "c", ("product",),
            [("milk", 1, 4, 0.6), ("milk", 6, 8, 0.7),
             ("chips", 4, 5, 0.7), ("chips", 7, 9, 0.8)],
        )
        for name in ("union", "intersect", "except"):
            assert_bit_identical(
                tp_set_operation(name, c, a, fused=True),
                tp_set_operation(name, c, a, fused=False),
            )


class TestSortednessPropagation:
    def _pair(self):
        r = TPRelation.from_rows(
            "r", ("x",), [("v", 5, 9, 0.4), ("v", 1, 3, 0.5), ("w", 2, 6, 0.6)]
        )
        s = TPRelation.from_rows(
            "s", ("x",), [("v", 2, 7, 0.3), ("w", 4, 8, 0.9)]
        )
        return r, s

    def test_outputs_are_born_sorted(self):
        r, s = self._pair()
        for op in OPS:
            result = op(r, s)
            assert result.is_sorted_by_fact_ts
            assert is_sorted(result.sorted_tuples())

    def test_base_relations_discover_sortedness_lazily(self):
        r, _ = self._pair()
        assert not r.is_sorted_by_fact_ts  # insertion order is shuffled
        r.sorted_tuples()
        assert not r.is_sorted_by_fact_ts  # still a different order

    def test_assume_sorted_skips_the_sort(self):
        tuples = [
            TPTuple(("v",), Var("e1"), Interval(1, 3), 0.5),
            TPTuple(("v",), Var("e2"), Interval(4, 6), 0.5),
        ]
        rel = TPRelation(
            "pre", TPSchema(("x",)), tuples, {"e1": 0.5, "e2": 0.5},
            assume_sorted=True,
        )
        assert rel.is_sorted_by_fact_ts
        assert [t.lineage for t in rel.sorted_tuples()] == [Var("e1"), Var("e2")]

    def test_sorted_cache_survives_rename_and_materialize(self):
        r, s = self._pair()
        result = tp_union(r, s, materialize=False)
        assert result.rename("q").is_sorted_by_fact_ts
        assert result.materialize_probabilities().is_sorted_by_fact_ts

    def test_sortedness_is_decided_once(self):
        """The flag is a stored answer (declared at construction or found
        by the first sort), carried by rename / select / where /
        materialize and reset by unpickling."""
        import pickle

        tuples = [
            TPTuple(("v",), Var("e1"), Interval(1, 3)),
            TPTuple(("w",), Var("e2"), Interval(4, 6)),
        ]
        events = {"e1": 0.5, "e2": 0.5}
        in_order = TPRelation("in_order", TPSchema(("x",)), tuples, events)
        assert not in_order.is_sorted_by_fact_ts  # not known yet
        assert not in_order.rename("q").is_sorted_by_fact_ts
        cache = in_order.sorted_tuples()
        assert in_order.is_sorted_by_fact_ts  # discovered by the sort
        renamed = in_order.rename("q")
        assert renamed.is_sorted_by_fact_ts
        assert renamed.sorted_tuples() is cache  # the cache travels too
        assert in_order.select(x="v").is_sorted_by_fact_ts
        assert in_order.where(lambda t: True).is_sorted_by_fact_ts
        materialized = in_order.materialize_probabilities()
        assert materialized.is_sorted_by_fact_ts
        assert [t.p for t in materialized.sorted_tuples()] == [0.5, 0.5]
        reloaded = pickle.loads(pickle.dumps(in_order))
        assert not reloaded.is_sorted_by_fact_ts  # derived state is rebuilt
        reloaded.sorted_tuples()
        assert reloaded.is_sorted_by_fact_ts

        declared = TPRelation(
            "declared", TPSchema(("x",)), tuples, events, assume_sorted=True
        )
        assert declared.is_sorted_by_fact_ts  # before any sorted_tuples()
        assert declared.rename("q").is_sorted_by_fact_ts
        assert list(declared.sorted_tuples()) == tuples

    def test_materialize_drops_a_sort_cache_of_reordered_tuples(self):
        """Pinned behaviour: a sort order discovered for tuples whose
        insertion order differs is not carried through materialization
        (the copies would need re-mapping); the result re-sorts itself."""
        shuffled = TPRelation(
            "shuffled", TPSchema(("x",)),
            [
                TPTuple(("w",), Var("e2"), Interval(4, 6)),
                TPTuple(("v",), Var("e1"), Interval(1, 3)),
            ],
            {"e1": 0.5, "e2": 0.25},
        )
        shuffled.sorted_tuples()
        assert not shuffled.is_sorted_by_fact_ts
        materialized = shuffled.materialize_probabilities()
        assert not materialized.is_sorted_by_fact_ts
        assert [t.p for t in materialized] == [0.25, 0.5]  # insertion order
        assert [t.p for t in materialized.sorted_tuples()] == [0.5, 0.25]
        assert materialized.rename("q").sorted_tuples() is materialized.sorted_tuples()


def _raw_stream(rng: random.Random, n: int) -> list[TPTuple]:
    """A raw, not-yet-deduplicated stream: duplicate (fact, Ts) allowed."""
    out = []
    for i in range(n):
        fact = (rng.choice("xyz"),)
        start = rng.randint(0, 6)
        end = start + rng.randint(1, 5)
        out.append(TPTuple(fact, Var(f"raw{i}"), Interval(start, end)))
    return out


class TestSortingContract:
    def test_strategies_agree_on_raw_streams(self):
        rng = random.Random(7)
        for _ in range(300):
            stream = _raw_stream(rng, rng.randint(0, 14))
            assert sort_comparison(stream) == sort_counting(stream)

    def test_ties_broken_by_te_then_input_order(self):
        t_long = TPTuple(("x",), Var("t1"), Interval(2, 9))
        t_short = TPTuple(("x",), Var("t2"), Interval(2, 4))
        t_short2 = TPTuple(("x",), Var("t3"), Interval(2, 4))
        stream = [t_long, t_short, t_short2]
        expected = [t_short, t_short2, t_long]
        assert sort_comparison(stream) == expected
        assert sort_counting(stream) == expected

    def test_relation_sorted_tuples_matches_sort_comparison(self):
        # The default set-operation path sorts through the relation's
        # cache; its tie-breaking must match the explicit strategies.
        tuples = [
            TPTuple(("x",), Var("c1"), Interval(5, 10)),
            TPTuple(("x",), Var("c2"), Interval(5, 7)),
            TPTuple(("x",), Var("c3"), Interval(1, 4)),
        ]
        rel = TPRelation(
            "raw", TPSchema(("x",)), tuples,
            {"c1": 0.5, "c2": 0.5, "c3": 0.5}, validate=False,
        )
        assert rel.sorted_tuples() == sort_comparison(tuples) == sort_counting(tuples)

    def test_sparse_fallback_keeps_the_contract(self):
        # Huge start spread forces sort_counting's comparison fallback.
        stream = [
            TPTuple(("x",), Var("s1"), Interval(1_000_000, 1_000_002)),
            TPTuple(("x",), Var("s2"), Interval(0, 5)),
            TPTuple(("x",), Var("s3"), Interval(0, 2)),
        ]
        assert sort_counting(stream) == sort_comparison(stream)

    def test_is_sorted_uses_the_full_key(self):
        # A raw stream with a Te inversion at a tied (F, Ts) must not be
        # accepted as sorted, since the sorters would reorder it.
        stream = [
            TPTuple(("x",), Var("k1"), Interval(0, 9)),
            TPTuple(("x",), Var("k2"), Interval(0, 3)),
        ]
        assert not is_sorted(stream)
        assert is_sorted(sort_comparison(stream))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_agreement_is_seed_independent(self, seed):
        rng = random.Random(seed)
        stream = _raw_stream(rng, rng.randint(0, 20))
        assert sort_comparison(stream) == sort_counting(stream)
