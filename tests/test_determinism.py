"""Determinism of query results, and the memo/interning contract.

Running the same plan twice must yield identical results — the same
tuples in the same order, float-exact probabilities and the identical
interned lineage objects — whether it runs through the operators or the
database, and whether its operands are the same relation objects or
rebuilt copies of them.  A materialization leaves the valuation memo
warm: a follow-up valuation over the same operand pair recomputes
nothing.  The batch lineage codec the write-ahead log, checkpoints and
replicas ship formulas with round-trips to the very same interned
objects.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import TPRelation
from repro.core.setops import tp_intersect, tp_union
from repro.core.tuple import base_tuple
from repro.datasets import generate_join_pair, generate_pair
from repro.db.database import TPDatabase
from repro.lineage.formula import FALSE, TRUE, Bottom, Top, Var, land, lnot, lor
from repro.lineage.serialize import (
    decode_batch,
    decode_lineage,
    encode_batch,
    encode_lineage,
)
from repro.prob.valuation import clear_valuation_cache, valuation_cache_stats


def assert_bit_identical(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.fact == y.fact
        assert x.interval == y.interval
        assert x.lineage is y.lineage
        assert x.p == y.p


def rebuilt(relation: TPRelation) -> TPRelation:
    """A copy with fresh tuple objects, a fresh event map and no caches."""
    return TPRelation(
        relation.name,
        relation.schema,
        [base_tuple(t.fact, t.lineage.name, t.interval, t.p) for t in relation],
        dict(relation.events),
    )


class TestRepeatability:
    def test_same_plan_twice(self):
        r, s = generate_pair(1500, n_facts=6, seed=2)
        assert_bit_identical(tp_union(r, s), tp_union(r, s))

    def test_database_query_repeatable(self):
        db = TPDatabase()
        r, s = generate_pair(1200, n_facts=5, seed=8)
        db.register(r)
        db.register(s)
        first = db.query("(r | s) - (r & s)")
        second = db.query("(r | s) - (r & s)")
        assert_bit_identical(first, second)

    def test_store_backed_query_repeatable_across_unrelated_commits(self):
        """A commit to a relation the query does not read changes nothing."""
        db = TPDatabase()
        r, s = generate_pair(1200, n_facts=5, seed=12)
        db.register(r)
        db.register(s)
        db.create_relation("t", ("fact",), [("f0", 0, 5, 0.5)])
        for name in ("r", "s", "t"):
            db.store(name)
        first = db.query("(r | s) - (r & s)")
        db.apply("t", inserts=[("f1", 3, 9, 0.25)])
        second = db.query("(r | s) - (r & s)")
        assert_bit_identical(first, second)

    def test_join_query_repeatable(self):
        r, s = generate_join_pair(1200, n_keys=6, seed=5)
        db = TPDatabase()
        db.register(r)
        db.register(s)
        first = db.query("r LEFT OUTER JOIN s ON key")
        second = db.query("r LEFT OUTER JOIN s ON key")
        assert_bit_identical(first, second)


class TestReinterning:
    def test_rebuilt_operands_give_the_same_objects(self):
        """Operands rebuilt from their rows (fresh tuples, fresh event
        map) yield lineage `is`-identical to the originals' result."""
        r, s = generate_pair(1500, n_facts=6, seed=4)
        assert_bit_identical(tp_intersect(rebuilt(r), rebuilt(s)), tp_intersect(r, s))

    def test_chained_query_shares_interned_subformulas(self):
        """The database's plan and hand-chained operators build one graph."""
        r, s = generate_pair(1000, n_facts=4, seed=6)
        direct = tp_union(tp_intersect(r, s), tp_union(r, s))
        db = TPDatabase()
        db.register(rebuilt(r))
        db.register(rebuilt(s))
        assert_bit_identical(db.query("(r & s) | (r | s)"), direct)


class TestMemoAfterMaterialization:
    def test_memo_hits_after_a_root(self):
        """A materialized root leaves every distinct lineage memoized."""
        clear_valuation_cache()
        r, s = generate_pair(1500, n_facts=5, seed=3)
        first = tp_union(r, s)
        warmed = valuation_cache_stats()
        assert warmed["entries"] > 0, "the root left the memo cold"
        # The same operation again: every distinct lineage must hit.
        second = tp_union(r, s)
        stats = valuation_cache_stats()
        assert stats["hits"] > warmed["hits"]
        assert stats["misses"] == warmed["misses"], (
            "the follow-up recomputed probabilities the root had "
            "already materialized"
        )
        assert_bit_identical(first, second)

    def test_cold_values_equal_warm_values(self):
        """A valuation from a cleared memo gives bit-identical floats."""
        r, s = generate_pair(1500, n_facts=5, seed=10)
        warm = tp_union(r, s)
        clear_valuation_cache()
        cold = tp_union(r, s)
        assert_bit_identical(cold, warm)


_pa, _pb, _pc = Var("pa"), Var("pb"), Var("pc")


@st.composite
def _formulas(draw, depth: int = 3):
    if depth == 0:
        return draw(st.sampled_from([_pa, _pb, _pc]))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(st.sampled_from([_pa, _pb, _pc]))
    if kind == 1:
        return lnot(draw(_formulas(depth=depth - 1)))
    left = draw(_formulas(depth=depth - 1))
    right = draw(_formulas(depth=depth - 1))
    return land(left, right) if kind == 2 else lor(left, right)


def _non_constant(formulas):
    return [f for f in formulas if not isinstance(f, (Top, Bottom))]


class TestLineageBatchCodec:
    """The §4.1 batch codec the write-ahead log ships formulas with."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_formulas(), max_size=8))
    def test_round_trip_is_identity(self, batch):
        batch = _non_constant(batch)
        nodes, roots = encode_batch(batch)
        decoded = decode_batch(nodes, roots)
        assert len(decoded) == len(batch)
        for back, original in zip(decoded, batch):
            assert back is original  # re-interning == same process identity

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_formulas(), max_size=8))
    def test_wire_form_survives_pickling(self, batch):
        batch = _non_constant(batch)
        encoded = pickle.loads(pickle.dumps(encode_batch(batch), protocol=-1))
        assert decode_batch(*encoded) == batch

    @settings(max_examples=30, deadline=None)
    @given(_formulas())
    def test_single_formula_round_trip(self, formula):
        if isinstance(formula, (Top, Bottom)):
            return
        assert decode_lineage(encode_lineage(formula)) is formula

    def test_shared_subformulas_encoded_once(self):
        shared = land(_pa, _pb)
        nodes, roots = encode_batch([shared, lor(shared, _pc)])
        # pa, pb, pa∧pb, pc, (pa∧pb)∨pc — the shared node appears once.
        assert len(nodes) == 5
        assert roots == [2, 4]

    def test_repeated_roots_decode_to_one_object(self):
        shared = lor(land(_pa, _pb), _pc)
        nodes, roots = encode_batch([shared, _pa, shared])
        assert roots[0] == roots[2]
        first, _, third = decode_batch(nodes, roots)
        assert first is third is shared

    def test_empty_batch(self):
        assert encode_batch([]) == ([], [])
        assert decode_batch([], []) == []

    def test_constants_are_rejected(self):
        with pytest.raises(TypeError):
            encode_batch([TRUE])
        with pytest.raises(TypeError):
            encode_batch([FALSE])
