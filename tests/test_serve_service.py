"""Session stress: concurrent readers vs. a serial oracle (DESIGN.md §13).

The MVCC claim, made falsifiable: while a ``delta_storm`` workload
(reused from :mod:`repro.bench.workloads`) commits batch after batch,
every open reader session must keep answering from **one** consistent
epoch — and its answers must be bit-identical (facts, intervals,
lineage text, probabilities) to a serial oracle that replays exactly
that many batches into a fresh database and runs the same query.

Hypothesis drives the schedule: which batch each reader opens after,
the optimize level, and the workload seed.  Caching is on throughout,
so a cache that leaked across epochs, levels or sessions would show up
as an oracle divergence here.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workloads import build_scenario, scenario_catalog
from repro.db import TPDatabase
from repro.query.executor import execute_plan
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.serve import QueryService
from repro.serve.protocol import relation_fragment

from .strategies import disjoint_intervals

#: delta_storm, shrunk to property-test size but with enough batches
#: that reader schedules can spread across a real epoch history.
_SPEC = replace(
    scenario_catalog()["delta_storm"],
    n_tuples=120,
    n_facts=8,
    n_batches=6,
    batch_fraction=0.05,
)


def _canonical(relation) -> list:
    rows = [(t.fact, t.start, t.end, str(t.lineage), t.p) for t in relation]
    rows.sort(key=repr)
    return rows


def _oracle(scenario, upto: int, query: str, level) -> list:
    """Serial replay: fresh db, first ``upto`` batches, one query."""
    db = TPDatabase()
    for relation in scenario.relations.values():
        db.register(relation)
    for name in scenario.relations:
        db.store(name)
    for target, delta in scenario.deltas[:upto]:
        db.apply(target, inserts=delta.inserts, deletes=delta.deletes)
    return _canonical(db.query(query, optimize=level))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    level=st.sampled_from(["off", "safe"]),
    open_after=st.lists(st.integers(0, 6), min_size=2, max_size=4),
)
def test_readers_stay_on_their_epoch_and_match_the_oracle(
    seed, level, open_after
):
    scenario = build_scenario(_SPEC, scale=1.0, seed=seed)
    queries = scenario.queries + ("r1 | r2",)
    db = TPDatabase()
    for relation in scenario.relations.values():
        db.register(relation)
    for name in scenario.relations:
        db.store(name)
    service = QueryService(db)
    writer = service.open_session()

    n_batches = len(scenario.deltas)
    schedule = sorted(min(point, n_batches) for point in open_after)
    readers: list[tuple[int, int]] = []  # (session id, batches applied at open)

    applied = 0
    pending = list(schedule)
    while pending and pending[0] == 0:
        pending.pop(0)
        readers.append((service.open_session(), 0))
    for target, delta in scenario.deltas:
        service.commit(writer, target, inserts=delta.inserts, deletes=delta.deletes)
        applied += 1
        while pending and pending[0] == applied:
            pending.pop(0)
            readers.append((service.open_session(), applied))
        # Mid-stream reads: every open reader answers from its own epoch.
        for session_id, upto in readers:
            response = service.execute(session_id, queries[0], optimize=level)
            assert _canonical(response.relation) == _oracle(
                scenario, upto, queries[0], level
            ), f"reader pinned after batch {upto} diverged mid-stream"

    # End-to-end: after the storm, each reader still answers from the
    # epoch it opened at, for every query, bit-identically to the oracle.
    for session_id, upto in readers:
        for query in queries:
            response = service.execute(session_id, query, optimize=level)
            assert _canonical(response.relation) == _oracle(
                scenario, upto, query, level
            ), f"reader pinned after batch {upto} diverged on {query!r}"
    # The writer reads its own writes: it matches the full replay.
    for query in queries:
        response = service.execute(writer, query, optimize=level)
        assert _canonical(response.relation) == _oracle(
            scenario, n_batches, query, level
        )


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cached_and_uncached_responses_are_bit_identical(seed):
    scenario = build_scenario(_SPEC, scale=1.0, seed=seed)
    db = TPDatabase()
    for relation in scenario.relations.values():
        db.register(relation)
    for name in scenario.relations:
        db.store(name)
    service = QueryService(db)
    session = service.open_session()
    query = scenario.queries[0]
    cold = service.execute(session, query, optimize="safe")
    hot = service.execute(session, query, optimize="safe")
    assert cold.cached is False and hot.cached is True
    assert _canonical(hot.relation) == _canonical(cold.relation)
    assert _canonical(hot.relation) == _oracle(scenario, 0, query, "safe")


# ----------------------------------------------------------------------
# differential: every served payload against a fresh, uncached execution
# ----------------------------------------------------------------------
KEYS = ("x", "y", "z")
TAGS = ("p", "q")
#: σ on the leading attribute (keyed parts), on the other attribute, on
#: both, on two values of one store, and no selection at all.
DIFFERENTIAL_QUERIES = (
    "(r | s)[k='x']",
    "(r - s)[k='y']",
    "r[k='x'] & s[k='x']",
    "r[k='x'] | r[k='z']",
    "(r & s)[k='x'][v='p']",
    "(r | s)[v='q']",
    "r | s",
    "s - r",
)
LEVELS = ("off", "safe")


def _initial_rows(data, frontier: dict, name: str) -> list[tuple]:
    rows = []
    for k in KEYS:
        for v in TAGS:
            end = 0
            for interval in data.draw(disjoint_intervals(max_intervals=3)):
                rows.append((k, v, interval.start, interval.end, 0.5))
                end = interval.end
            frontier[name, k, v] = end
    return rows


def _commit(data, frontier: dict, live: dict, name: str) -> tuple[list, list]:
    """One transaction: deletes of stored tuples, inserts past the
    frontier of their fact (so the store stays duplicate-free)."""
    deletes = []
    if live[name] and data.draw(st.booleans()):
        deletes.append(data.draw(st.sampled_from(sorted(live[name]))))
    inserts = []
    for _ in range(data.draw(st.integers(0 if deletes else 1, 2))):
        k, v = data.draw(st.sampled_from(KEYS)), data.draw(st.sampled_from(TAGS))
        ts = frontier[name, k, v] + data.draw(st.integers(0, 2))
        te = ts + data.draw(st.integers(1, 3))
        frontier[name, k, v] = te
        inserts.append((k, v, ts, te, data.draw(st.sampled_from((0.2, 0.5, 0.9)))))
    live[name].difference_update(deletes)
    live[name].update(row[:4] for row in inserts)
    return inserts, deletes


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_served_payload_equals_a_fresh_uncached_execution(data):
    """Two sessions pinned at different epochs read through one cache
    while commits insert into and delete from the selected keys and the
    others.  Each payload must be the bytes a fresh execution of the
    parsed, unoptimized plan over that session's own pinned catalog
    renders — so no entry is ever served to a pin it does not belong to.

    An example reads one or two query texts at one level, so the same
    key is asked for again and again across commits and pins."""
    level = data.draw(st.sampled_from(LEVELS))
    texts = data.draw(
        st.lists(st.sampled_from(DIFFERENTIAL_QUERIES), min_size=1, max_size=2, unique=True)
    )
    frontier: dict = {}
    db = TPDatabase()
    live: dict = {}
    for name in ("r", "s"):
        rows = _initial_rows(data, frontier, name)
        db.create_relation(name, ("k", "v"), rows)
        live[name] = {row[:4] for row in rows}
    writable = ["r", "s"] if data.draw(st.booleans()) else ["r"]
    if data.draw(st.booleans()):  # else each becomes a store at its first commit
        for name in writable:
            db.store(name)
    service = QueryService(db, cache_size=data.draw(st.sampled_from((2, 256))))
    sessions = [service.open_session(), service.open_session()]
    for _ in range(data.draw(st.integers(1, 30))):
        session = data.draw(st.sampled_from(sessions))
        op = data.draw(st.sampled_from(("commit", "begin", "query", "query")))
        if op == "commit":
            name = data.draw(st.sampled_from(writable))
            inserts, deletes = _commit(data, frontier, live, name)
            service.commit(session, name, inserts=inserts, deletes=deletes)
        elif op == "begin":
            service.begin(session)
        else:
            text = data.draw(st.sampled_from(texts))
            served = service.execute(session, text, optimize=level)
            fresh = execute_plan(
                plan_query(parse_query(text)), service.session(session).catalog
            )
            assert served.result.fragment() == relation_fragment(fresh), (
                text, level, served.cached, served.epoch_key,
            )
