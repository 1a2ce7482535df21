"""Determinism of query results, and the batch-valuation/interning contract.

Running the same plan twice must yield identical results — the same
tuples in the same order, float-exact probabilities and the identical
interned lineage objects — whether it runs through the operators or the
database, and whether its operands are the same relation objects or
rebuilt copies of them.  A materialization valuates each distinct
lineage once and remembers nothing after it, and the Monte-Carlo
fallback of ``Method.AUTO`` is a function of the formula, in and across
processes.  The batch lineage codec the write-ahead log and checkpoints
ship formulas with round-trips to the very same interned objects.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import TPRelation
from repro.core.setops import tp_intersect, tp_union
from repro.core.tuple import base_tuple
from repro.datasets import generate_join_pair, generate_pair
from repro.db.database import TPDatabase
from repro.lineage.formula import FALSE, TRUE, Bottom, Top, Var, land, lor
from repro.lineage.onef import check_one_occurrence_form
from repro.lineage.serialize import (
    decode_batch,
    decode_lineage,
    encode_batch,
    encode_lineage,
)
from repro.prob.valuation import (
    clear_valuation_cache,
    probability,
    probability_batch,
    valuation_cache_stats,
)

from .strategies import formulas


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


class TestValuationPerBatch:
    def test_a_root_misses_once_per_distinct_lineage(self):
        """A materialized root over base relations values every row in
        the sweep and batches none, and the same operation again does the
        same work: nothing is kept."""
        clear_valuation_cache()
        r, s = generate_pair(1500, n_facts=5, seed=3)
        first = tp_union(r, s)
        distinct = len({t.lineage for t in first})
        assert distinct < len(first)  # repeated formulas exist
        assert valuation_cache_stats() == {"hits": 0, "misses": 0, "swept": len(first)}
        second = tp_union(r, s)
        assert valuation_cache_stats() == {
            "hits": 0, "misses": 0, "swept": 2 * len(first),
        }
        assert_bit_identical(first, second)

    def test_cold_values_equal_warm_values(self):
        """A read after cleared counters gives bit-identical floats."""
        r, s = generate_pair(1500, n_facts=5, seed=10)
        warm = tp_union(r, s)
        clear_valuation_cache()
        cold = tp_union(r, s)
        assert_bit_identical(cold, warm)


#: 25 repeated variables, one past ``exact_repeated_limit``, so
#: ``Method.AUTO`` estimates by Monte Carlo.  Run as-is in this process
#: and in fresh interpreters under other hash seeds.
_SAMPLED = """
from repro.lineage.formula import Var, land, lor, variables
from repro.prob.valuation import ProbabilityOptions, probability
f = lor(*(land(Var(f"mc{i}"), Var(f"mc{i}_{side}")) for side in "lr" for i in range(25)))
events = {name: 0.05 + (i % 7) / 20 for i, name in enumerate(sorted(variables(f)))}
options = ProbabilityOptions(samples=400)
value = probability(f, events, options=options)
"""


def _sampled() -> dict:
    namespace: dict = {}
    exec(_SAMPLED, namespace)
    return namespace


class TestAutoMonteCarloIsAFunctionOfTheFormula:
    def test_the_same_query_gets_the_same_estimate(self):
        run = _sampled()
        f, events, options, first = run["f"], run["events"], run["options"], run["value"]
        assert len(check_one_occurrence_form(f)) == 25
        assert probability(f, events, options=options) == first
        # Being a function of the formula, the estimate is shared in a batch.
        clear_valuation_cache()
        assert probability_batch([f, f], events, options=options) == [first, first]
        assert valuation_cache_stats() == {"hits": 1, "misses": 1, "swept": 0}

    def test_the_estimate_does_not_depend_on_the_hash_seed(self):
        here = _sampled()["value"]
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", _SAMPLED + "print(repr(value))"],
                env=env, capture_output=True, text=True, check=True,
            )
            assert float(out.stdout) == here


_pa, _pb, _pc = Var("pa"), Var("pb"), Var("pc")
_FORMULAS = formulas(names=("pa", "pb", "pc"), depth=3)


def _non_constant(formulas):
    return [f for f in formulas if not isinstance(f, (Top, Bottom))]


class TestLineageBatchCodec:
    """The §4.1 batch codec the write-ahead log ships formulas with."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_FORMULAS, max_size=8))
    def test_round_trip_is_identity(self, batch):
        batch = _non_constant(batch)
        nodes, roots = encode_batch(batch)
        decoded = decode_batch(nodes, roots)
        assert len(decoded) == len(batch)
        for back, original in zip(decoded, batch):
            assert back is original  # re-interning == same process identity

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_FORMULAS, max_size=8))
    def test_wire_form_survives_pickling(self, batch):
        batch = _non_constant(batch)
        encoded = pickle.loads(pickle.dumps(encode_batch(batch), protocol=-1))
        assert decode_batch(*encoded) == batch

    @settings(max_examples=30, deadline=None)
    @given(_FORMULAS)
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
