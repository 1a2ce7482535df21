"""Tier-1 tests for the scenario workload generators.

Four properties keep ``repro.bench.workloads`` trustworthy as the
input source of the serve stress tests and the configuration sweep:

* **determinism** — the same ``(spec, scale, seed)`` triple produces
  the byte-identical scenario (fingerprint equality across rebuilds;
  different seeds diverge);
* **schema validity** — every generated relation re-passes the full
  ``TPRelation`` invariant check (duplicate-free per-fact chains), and
  every delta batch applies cleanly to a live store;
* **semantic round-trip** — at possible-worlds scale, every catalog
  query evaluated through ``TPDatabase.query`` matches the brute-force
  possible-worlds oracle point for point;
* **configuration equivalence** — every scenario run under each engine
  configuration it admits (optimize level, relation or store backend,
  WAL durability) is bit-identical to its reference configuration, and
  a durable run reopens from disk to the same store states.
"""

from __future__ import annotations

import functools

import pytest

from repro.bench.workloads import (
    SCENARIOS,
    ScenarioSpec,
    build_scenario,
    iter_scenarios,
    scenario_catalog,
    tiny_spec,
)
from repro.core.relation import TPRelation
from repro.db import TPDatabase
from repro.query.parser import parse_query
from repro.semantics import query_marginals_via_worlds

SMALL_SCALE = 0.01
SEED = 7

QUERY_SPECS = [spec for spec in SCENARIOS if spec.kind == "query"]
MUTATING_SPECS = [spec for spec in SCENARIOS if spec.kind != "query"]


def small(spec: ScenarioSpec):
    return build_scenario(spec, scale=SMALL_SCALE, seed=SEED)


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SCENARIOS, ids=lambda s: s.name)
def test_same_seed_reproduces_fingerprint(spec):
    assert small(spec).fingerprint() == small(spec).fingerprint()


@pytest.mark.parametrize("spec", SCENARIOS, ids=lambda s: s.name)
def test_different_seed_changes_fingerprint(spec):
    a = build_scenario(spec, scale=SMALL_SCALE, seed=SEED)
    b = build_scenario(spec, scale=SMALL_SCALE, seed=SEED + 1)
    assert a.fingerprint() != b.fingerprint()


def test_scenarios_are_seed_isolated():
    """Adding/altering one scenario must not perturb another's data:
    every scenario derives its RNG streams from its own name."""
    solo = next(iter_scenarios(["uniform_setops"], scale=SMALL_SCALE, seed=SEED))
    swept = {s.name: s for s in iter_scenarios(scale=SMALL_SCALE, seed=SEED)}
    assert solo.fingerprint() == swept["uniform_setops"].fingerprint()


def test_catalog_names_are_unique_and_addressable():
    catalog = scenario_catalog()
    assert len(catalog) == len(SCENARIOS)
    names = [spec.name for spec in SCENARIOS]
    picked = [s.name for s in iter_scenarios(names[:2], scale=SMALL_SCALE, seed=SEED)]
    assert picked == names[:2]


def test_unknown_scenario_name_rejected():
    with pytest.raises(KeyError):
        list(iter_scenarios(["no_such_scenario"], scale=SMALL_SCALE, seed=SEED))


def test_invalid_axis_values_rejected():
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", description="", key_distribution="bimodal")
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", description="", interval_profile="huge")
    with pytest.raises(ValueError):
        ScenarioSpec(name="x", description="", kind="stress")


# ----------------------------------------------------------------------
# schema validity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SCENARIOS, ids=lambda s: s.name)
def test_generated_relations_pass_full_validation(spec):
    scenario = small(spec)
    assert scenario.relations, spec.name
    for relation in scenario.relations.values():
        # Generators build with validate=False for speed; re-running the
        # invariant check proves they never needed the shortcut.
        revalidated = TPRelation.from_tuples(
            relation.name, relation.schema, relation, relation.events, validate=True
        )
        assert len(revalidated) == len(relation) > 0


@pytest.mark.parametrize("spec", MUTATING_SPECS, ids=lambda s: s.name)
def test_delta_scripts_apply_cleanly(spec):
    """Every generated batch (and session op) applies to a live store
    without duplicate-insert or missing-delete errors."""
    scenario = small(spec)
    db = TPDatabase()
    for relation in scenario.relations.values():
        db.register(relation)
    for name in scenario.relations:
        db.store(name)
    if scenario.view_query is not None:
        db.create_view("v", scenario.view_query, policy="deferred")
    for target, delta in scenario.deltas:
        db.apply(target, inserts=delta.inserts, deletes=delta.deletes)
    for op in scenario.session:
        if op.action == "query":
            db.query(op.target)
        elif op.action == "apply":
            db.apply(op.target, inserts=op.inserts, deletes=op.deletes)
        else:
            db.refresh()
    db.close()


def test_scale_shrinks_and_grows_sizes():
    spec = QUERY_SPECS[0]
    tiny = build_scenario(spec, scale=0.01, seed=SEED)
    bigger = build_scenario(spec, scale=0.05, seed=SEED)
    assert tiny.total_tuples() < bigger.total_tuples()


# ----------------------------------------------------------------------
# semantic round-trip against the possible-worlds oracle
# ----------------------------------------------------------------------
def point_probabilities(relation) -> dict:
    return {
        (t.fact, point): t.p
        for t in relation
        for point in range(t.start, t.end)
    }


@pytest.mark.parametrize("spec", QUERY_SPECS, ids=lambda s: s.name)
def test_tiny_scenarios_match_possible_worlds(spec):
    scenario = build_scenario(tiny_spec(spec, n_tuples=4, n_facts=2), seed=SEED)
    db = TPDatabase()
    for relation in scenario.relations.values():
        db.register(relation)
    for query in scenario.queries:
        result = db.query(query)
        oracle = query_marginals_via_worlds(parse_query(query), scenario.relations)
        computed = point_probabilities(result)
        for key in set(oracle) | set(computed):
            assert computed.get(key, 0.0) == pytest.approx(
                oracle.get(key, 0.0), abs=1e-9
            ), (spec.name, query, key)


# ----------------------------------------------------------------------
# every configuration a scenario admits ≡ its reference configuration
# ----------------------------------------------------------------------
TINY_SCALE = 0.002  # a few dozen tuples per relation


def configurations(kind: str) -> list[tuple[str, str, str]]:
    """``(optimize, backend, durability)`` points a scenario kind admits;
    the first is the reference.  Mutating kinds always run on stores, and
    durability applies only where there are transactions to log.  The
    serving kind's cache on/off pair is
    ``test_cached_and_uncached_responses_are_bit_identical``."""
    if kind == "query":
        return [(o, b, "off") for o in ("off", "safe") for b in ("relation", "store")]
    if kind in ("delta-storm", "commit-stream"):
        return [("off", "store", d) for d in ("off", "batch", "commit")]
    if kind == "session":
        return [(o, "store", d) for o in ("off", "safe") for d in ("off", "batch")]
    return []


@functools.lru_cache(maxsize=None)
def tiny(name: str):
    return build_scenario(scenario_catalog()[name], scale=TINY_SCALE, seed=SEED)


def canonical(relation) -> tuple:
    """Order-independent ``(fact, start, end, lineage text, p)`` rows:
    lineage text, not identity, because recovery re-interns."""
    return tuple(
        sorted(
            ((t.fact, t.start, t.end, str(t.lineage), t.p) for t in relation),
            key=repr,
        )
    )


def run_configuration(scenario, optimize, backend, durability, data_dir=None):
    """The scenario's workload under one configuration: the canonical
    query and view results, and the canonical final store states."""
    kind = scenario.spec.kind
    db = TPDatabase(
        data_dir=data_dir, durability=durability if data_dir is not None else None
    )
    try:
        for relation in scenario.relations.values():
            db.register(relation)
        if backend == "store":
            for name in scenario.relations:
                db.store(name)
        if scenario.view_query is not None:
            policy = "eager" if kind == "delta-storm" else "deferred"
            db.create_view("v", scenario.view_query, policy=policy)
        results = []
        if kind == "query":
            results = [db.query(query, optimize=optimize) for query in scenario.queries]
        for target, delta in scenario.deltas:
            db.apply(target, inserts=delta.inserts, deletes=delta.deletes)
        for op in scenario.session:
            if op.action == "query":
                results.append(db.query(op.target, optimize=optimize))
            elif op.action == "apply":
                db.apply(op.target, inserts=op.inserts, deletes=op.deletes)
            else:
                db.refresh()
        if scenario.view_query is not None:
            results.append(db.relation("v"))
        stores = {name: canonical(db.relation(name)) for name in scenario.relations}
        return tuple(map(canonical, results)), stores
    finally:
        db.close()


@functools.lru_cache(maxsize=None)
def reference_run(name: str):
    scenario = tiny(name)
    return run_configuration(scenario, *configurations(scenario.spec.kind)[0])


@pytest.mark.parametrize(
    "spec,configuration",
    [
        pytest.param(spec, configuration, id=f"{spec.name}-{'-'.join(configuration)}")
        for spec in SCENARIOS
        for configuration in configurations(spec.kind)[1:]
    ],
)
def test_configurations_match_the_reference(spec, configuration, tmp_path):
    optimize, backend, durability = configuration
    data_dir = tmp_path / "db" if durability != "off" else None
    results, stores = run_configuration(
        tiny(spec.name), optimize, backend, durability, data_dir
    )
    expected_results, expected_stores = reference_run(spec.name)
    assert sum(map(len, expected_stores.values())) > 0
    assert results == expected_results
    assert stores == expected_stores
    if data_dir is not None:
        with TPDatabase(data_dir=data_dir, durability=durability) as reopened:
            for name, state in stores.items():
                assert canonical(reopened.relation(name)) == state, name
