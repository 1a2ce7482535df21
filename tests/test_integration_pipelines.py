"""End-to-end integration tests over realistic (generated) datasets.

These complement the per-module hypothesis tests with fixed, larger
scenarios that chain several subsystems together: generator → database →
query pipeline → oracle comparison → serialization round trip.
"""

from __future__ import annotations

import pytest

from repro import tp_except, tp_intersect, tp_union
from repro.baselines import paper_algorithms
from repro.bench import sample_relation
from repro.datasets import (
    MeteoConfig,
    WebkitConfig,
    generate_meteo,
    generate_pair,
    generate_webkit,
    shifted_counterpart,
)
from repro.db import TPDatabase, load_json, save_json
from repro.semantics import (
    check_change_preservation,
    check_duplicate_free,
    snapshot_set_operation,
)

OPS = {"union": tp_union, "intersect": tp_intersect, "except": tp_except}


@pytest.fixture(scope="module")
def meteo_small():
    base = generate_meteo(config=MeteoConfig(400, n_stations=8, seed=21))
    return base, shifted_counterpart(base, seed=22)


@pytest.fixture(scope="module")
def webkit_small():
    base = generate_webkit(
        config=WebkitConfig(400, time_range=2_000, seed=23)
    )
    return base, shifted_counterpart(base, seed=24)


class TestDatasetOracleAgreement:
    """LAWA and every supporting baseline vs the snapshot oracle on
    simulated real-world data (bounded time ranges keep the oracle fast)."""

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_meteo_lawa(self, op, meteo_small):
        r, s = meteo_small
        r = sample_relation(r, 60, seed=1)
        s = sample_relation(s, 60, seed=2)
        # Rescale the 600-second grid to unit steps for the oracle.
        r = _rescale(r, 600)
        s = _rescale(s, 600)
        expected = snapshot_set_operation(op, r, s)
        assert OPS[op](r, s).equivalent_to(expected)

    @pytest.mark.parametrize("op", sorted(OPS))
    def test_webkit_all_algorithms(self, op, webkit_small):
        r, s = webkit_small
        r = sample_relation(r, 40, seed=3)
        s = sample_relation(s, 40, seed=4)
        r = _rescale(r, 50)
        s = _rescale(s, 50)
        expected = snapshot_set_operation(op, r, s)
        for algorithm in paper_algorithms():
            if op not in algorithm.supports:
                continue
            result = algorithm.compute(op, r, s)
            assert result.equivalent_to(expected), (algorithm.name, op)


def _rescale(relation, step):
    """Coarsen a relation's time grid so the point-wise oracle stays cheap."""
    from repro import Interval, TPRelation
    from repro.core.tuple import TPTuple

    tuples = []
    for t in relation:
        lo = t.start // step
        hi = max(lo + 1, -(-t.end // step))
        tuples.append(TPTuple(t.fact, t.lineage, Interval(lo, hi), t.p))
    # Coarsening can make same-fact intervals collide; drop the later of
    # any colliding pair — only the dataset *shape* matters here.
    kept: list = []
    last_end: dict = {}
    for t in sorted(tuples, key=lambda t: t.sort_key):
        if t.fact in last_end and t.start < last_end[t.fact]:
            continue
        last_end[t.fact] = t.end
        kept.append(t)
    return TPRelation(
        relation.name, relation.schema, kept, relation.events, validate=True
    )


class TestQueryPipelineOnSynthetic:
    def test_three_relation_query_end_to_end(self):
        r1, s1 = generate_pair(200, n_facts=4, seed=31)
        db = TPDatabase()
        db.register(r1.rename("r"))
        db.register(s1.rename("s"))
        db.register(shifted_counterpart(r1, name="t", seed=32))

        result = db.query("(r | s) - t")
        oracle = snapshot_set_operation(
            "except",
            snapshot_set_operation("union", db.relation("r"), db.relation("s")),
            db.relation("t"),
        )
        assert result.equivalent_to(oracle)
        assert check_duplicate_free(result) == []
        assert check_change_preservation(result) == []

    def test_serialization_of_query_result(self, tmp_path):
        r, s = generate_pair(150, n_facts=3, seed=41)
        result = tp_except(r, s)
        path = tmp_path / "result.json"
        save_json(result, path)
        assert load_json(path).equivalent_to(result)

    def test_optimized_pipeline_against_oracle(self):
        r1, s1 = generate_pair(150, n_facts=3, seed=51)
        t1 = shifted_counterpart(r1, name="t", seed=52)
        db = TPDatabase()
        db.register(r1.rename("r"))
        db.register(s1.rename("s"))
        db.register(t1)

        optimized = db.query("r | s | t", optimize="safe")
        oracle = snapshot_set_operation(
            "union",
            snapshot_set_operation("union", db.relation("r"), db.relation("s")),
            db.relation("t"),
        )
        assert optimized.equivalent_to(oracle)
