"""Property tests: incremental views ≡ full recompute ≡ possible worlds.

Random insert/delete sequences are applied to random duplicate-free
relations behind an incrementally maintained view; after every
transaction the view must be

* **tuple-equivalent** to a full recompute of its query over the current
  store snapshots (facts, intervals, syntactic lineage, probabilities),
  for every supported operator — ∪, ∩, −, inner/left/right/full outer
  and anti joins — and
* **numerically correct** against brute-force possible-worlds
  enumeration at sampled (fact, time-point) positions whenever the event
  space is small enough to enumerate.

The delta generator deliberately produces the awkward cases: empty
transactions, delete-everything sweeps, boundary-touching inserts
(intervals adjacent to survivors) and in-place replacements.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TPRelation, tp_join_operation, tp_set_operation
from repro.query.ast import relation_references
from repro.query.parser import parse_query
from repro.semantics.possible_worlds import (
    join_marginal_via_worlds,
    marginal_via_worlds,
    query_marginals_via_worlds,
)
from repro.store import MaterializedView, SegmentStore
from tests.strategies import tp_join_pair, tp_join_relation, tp_relation_pair

SET_OPS = ("union", "intersect", "except")
JOIN_KINDS = ("inner", "left_outer", "right_outer", "full_outer", "anti")
SET_QUERIES = {"union": "r | s", "intersect": "r & s", "except": "r - s"}
JOIN_QUERIES = {
    "inner": "r JOIN s ON k",
    "left_outer": "r LEFT OUTER JOIN s ON k",
    "right_outer": "r RIGHT OUTER JOIN s ON k",
    "full_outer": "r FULL OUTER JOIN s ON k",
    "anti": "r ANTI JOIN s ON k",
}

#: Above this many base events the 2^n worlds oracle is skipped.
MAX_WORLD_EVENTS = 10


@st.composite
def delta_script(draw, n_steps: int = 3, names: tuple = ("r", "s")):
    """A script of transaction *intents*, resolved against live stores.

    Each step draws, per store: how many existing tuples to delete
    (by index — resolved at apply time), whether to delete *everything*,
    and a few insert attempts described by (offset, length, p) relative
    to the store's current time span.  Insert attempts that would
    violate duplicate-freeness are dropped at resolution time, so every
    generated script is applicable; offsets deliberately include 0 so
    boundary-touching (adjacent) intervals occur often.
    """
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=n_steps))):
        step = {}
        for name in names:
            step[name] = {
                "wipe": draw(st.booleans()) and draw(st.booleans()),
                "delete_picks": draw(
                    st.lists(st.integers(min_value=0, max_value=30), max_size=3)
                ),
                "inserts": draw(
                    st.lists(
                        st.tuples(
                            st.integers(min_value=0, max_value=12),  # offset
                            st.integers(min_value=1, max_value=4),  # length
                            st.floats(min_value=0.05, max_value=0.95),
                        ),
                        max_size=3,
                    )
                ),
            }
        steps.append(step)
    return steps


def _resolve_and_apply(store: SegmentStore, intent: dict) -> None:
    tuples = list(store.iter_sorted())
    if intent["wipe"]:
        store.delete_where(lambda t: True)
        return
    deletes = []
    picked = set()
    for pick in intent["delete_picks"]:
        if tuples:
            index = pick % len(tuples)
            if index not in picked:
                picked.add(index)
                t = tuples[index]
                deletes.append((*t.fact, t.start, t.end))
    doomed = {(tuples[i].fact, tuples[i].start, tuples[i].end) for i in picked}
    survivors = [
        t for t in tuples if (t.fact, t.start, t.end) not in doomed
    ]
    hi = max((t.end for t in survivors), default=0)
    inserts = []
    taken: dict = {}
    for offset, length, p in intent["inserts"]:
        fact = (
            survivors[offset % len(survivors)].fact
            if survivors
            else tuple("x" for _ in range(store.schema.arity))
        )
        # Offset 0 starts exactly at the current frontier: adjacent to
        # (but, half-open, not overlapping) the latest survivor.
        ts = hi + offset
        te = ts + length
        spans = taken.setdefault(fact, [])
        if all(te <= lo or ts >= s_hi for lo, s_hi in spans) and all(
            not (t.fact == fact and ts < t.end and t.start < te)
            for t in survivors
        ):
            spans.append((ts, te))
            inserts.append((*fact, ts, te, round(p, 3)))
    store.apply(inserts=inserts, deletes=deletes)


def _check_worlds_setop(op: str, r, s, view_relation: TPRelation) -> None:
    events = {**dict(r.events), **dict(s.events)}
    if len(events) > MAX_WORLD_EVENTS:
        return
    for t in list(view_relation)[:4]:
        expected = marginal_via_worlds(op, r, s, t.fact, t.start)
        assert t.p == pytest.approx(expected, abs=1e-9)


def _check_worlds_join(kind: str, r, s, view_relation: TPRelation) -> None:
    events = {**dict(r.events), **dict(s.events)}
    if len(events) > MAX_WORLD_EVENTS:
        return
    for t in list(view_relation)[:3]:
        expected = join_marginal_via_worlds(kind, r, s, ("k",), t.fact, t.start)
        assert t.p == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("op", SET_OPS)
@given(pair=tp_relation_pair(max_facts=2, max_intervals=2), script=delta_script())
@settings(max_examples=25)
def test_setop_view_incremental_vs_recompute_vs_worlds(op, pair, script):
    r0, s0 = pair
    stores = {
        "r": SegmentStore.from_relation(r0),
        "s": SegmentStore.from_relation(s0),
    }
    view = MaterializedView(
        "v", parse_query(SET_QUERIES[op]), stores, policy="manual"
    )
    recompute = MaterializedView(
        "w", parse_query(SET_QUERIES[op]), stores,
        policy="manual", strategy="RECOMPUTE",
    )
    for step in script:
        for name in ("r", "s"):
            _resolve_and_apply(stores[name], step[name])
        view.refresh()
        recompute.refresh()
        incremental = view.relation()
        assert incremental.equivalent_to(recompute.relation())
        # Belt and braces: also against the batch kernel directly.
        reference = tp_set_operation(
            op, stores["r"].snapshot(), stores["s"].snapshot()
        )
        assert incremental.equivalent_to(reference)
        _check_worlds_setop(
            op, stores["r"].snapshot(), stores["s"].snapshot(), incremental
        )


@pytest.mark.parametrize("kind", JOIN_KINDS)
@given(pair=tp_join_pair(max_intervals=2), script=delta_script(n_steps=2))
@settings(max_examples=15)
def test_join_view_incremental_vs_recompute_vs_worlds(kind, pair, script):
    r0, s0 = pair
    stores = {
        "r": SegmentStore.from_relation(r0),
        "s": SegmentStore.from_relation(s0),
    }
    view = MaterializedView(
        "v", parse_query(JOIN_QUERIES[kind]), stores, policy="manual"
    )
    for step in script:
        for name in ("r", "s"):
            _resolve_and_apply(stores[name], step[name])
        view.refresh()
        incremental = view.relation()
        reference = tp_join_operation(
            kind, stores["r"].snapshot(), stores["s"].snapshot(), ("k",)
        )
        assert incremental.equivalent_to(reference)
        _check_worlds_join(
            kind, stores["r"].snapshot(), stores["s"].snapshot(), incremental
        )


@given(pair=tp_relation_pair(max_facts=2, max_intervals=2), script=delta_script())
@settings(max_examples=15)
def test_nested_query_view(pair, script):
    """Dirty regions propagate through operator trees, not just leaves."""
    r0, s0 = pair
    stores = {
        "r": SegmentStore.from_relation(r0),
        "s": SegmentStore.from_relation(s0),
    }
    view = MaterializedView(
        "v", parse_query("(r | s) - (r & s)"), stores, policy="manual"
    )
    for step in script:
        for name in ("r", "s"):
            _resolve_and_apply(stores[name], step[name])
        view.refresh()
        r, s = stores["r"].snapshot(), stores["s"].snapshot()
        reference = tp_set_operation(
            "except",
            tp_set_operation("union", r, s, materialize=False),
            tp_set_operation("intersect", r, s, materialize=False),
        )
        assert view.relation().equivalent_to(reference)


#: Operators over operators, over two-attribute schemas — a join key
#: holds several facts, null-padded facts flow into a set operation, a
#: selection sits above a join — the shapes whose range reads go through
#: an operator node's cache instead of a store.  The last three join an
#: outer-join output naturally on (k, a), so padded facts coincide and
#: the maintained runs must collapse exactly as the batch join does.
NESTED_QUERIES = (
    "(r - s) JOIN t ON k",
    "(r | s) JOIN (t - u) ON k",
    "(r FULL OUTER JOIN t ON k) - (r JOIN t ON k)",
    "(r JOIN t ON k)[k='k1']",
    "(r LEFT OUTER JOIN t ON k) RIGHT OUTER JOIN s",
    "s LEFT OUTER JOIN (r LEFT OUTER JOIN t ON k)",
    "(r LEFT OUTER JOIN t ON k) FULL OUTER JOIN s",
)
NESTED_SCHEMAS = {
    "r": (("k", "a"), ["a1", "a2"]),
    "s": (("k", "a"), ["a1", "a2"]),
    "t": (("k", "b"), ["b1", "b2"]),
    "u": (("k", "b"), ["b1", "b2"]),
}


@st.composite
def nested_scenario(draw, text: str):
    query = parse_query(text)
    names = tuple(sorted(relation_references(query)))
    relations = {
        name: draw(
            tp_join_relation(name, *NESTED_SCHEMAS[name], max_facts=3, max_intervals=2)
        )
        for name in names
    }
    return query, relations, draw(delta_script(n_steps=3, names=names))


@pytest.mark.parametrize("text", NESTED_QUERIES)
@given(data=st.data())
@settings(max_examples=20)
def test_nested_shapes_incremental_vs_recompute_vs_worlds(text, data):
    query, relations, script = data.draw(nested_scenario(text))
    # Two tuples per segment: every range read crosses segment bounds.
    stores = {
        name: SegmentStore.from_relation(relation, segment_capacity=2)
        for name, relation in relations.items()
    }
    view = MaterializedView("v", query, stores, policy="manual")
    recompute = MaterializedView(
        "w", query, stores, policy="manual", strategy="RECOMPUTE"
    )
    for step in script:
        for name, store in stores.items():
            _resolve_and_apply(store, step[name])
        view.refresh()
        recompute.refresh()
        incremental = view.relation()
        assert incremental.equivalent_to(recompute.relation())
        snapshots = {name: store.snapshot() for name, store in stores.items()}
        if sum(len(snap.events) for snap in snapshots.values()) > MAX_WORLD_EVENTS:
            continue
        oracle = query_marginals_via_worlds(query, snapshots)
        computed = {
            (t.fact, point): t.p
            for t in incremental
            for point in range(t.start, t.end)
        }
        # A contradictory lineage is a stored tuple of probability zero
        # and a position the oracle never lists.
        for position in computed.keys() | oracle.keys():
            assert computed.get(position, 0.0) == pytest.approx(
                oracle.get(position, 0.0), abs=1e-9
            ), position


@given(pair=tp_relation_pair(max_facts=2, max_intervals=2))
@settings(max_examples=10)
def test_empty_delta_is_observationally_silent(pair):
    r0, s0 = pair
    stores = {
        "r": SegmentStore.from_relation(r0),
        "s": SegmentStore.from_relation(s0),
    }
    view = MaterializedView("v", parse_query("r - s"), stores, policy="manual")
    before = view.relation()
    stores["r"].apply()  # empty transaction
    assert view.is_fresh()
    assert view.refresh() is False
    assert view.relation() is before  # not even rebuilt
