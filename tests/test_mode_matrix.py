"""One differential matrix: every mode of the engine gives the reference's answer.

A set operation can be reached many ways, and each must equal the
reference bit for bit.  Programs — relations, a query tree rooted at one
of ∪ ∩ −, and a delta script (``tests/strategies.programs``) — run
across these axes:

* the fused kernel against ``fused=False`` (LawaSweep, one batch);
* the root materialized or lineage-only;
* chunking: one chunk per side, one tuple per chunk (``stream_*``),
  random cuts with empty chunks (``sweep_chunks``);
* the default or a lowered ``exact_repeated_limit``;
* an event changed since loading, or a variable missing from the map
  (the same error, or no error);
* ``optimize`` off or safe, over relations or stores;
* durability off, batch or commit, replayed and then reopened;
* view policy eager, deferred or manual, maintained INCREMENTAL or by
  RECOMPUTE;
* the readers of a result's lineage — the wire fragment, the own event
  maps, the saved files and the table — against the node path.

Deterministic cases enumerate the nine operator pairs in both
associations and run six chain shapes over seeded 400-row relations.

One comparator (:func:`assert_same`) holds a mode to its reference:
facts and end points in order, ``repr(p)``, lineage ``is`` on the first
and the second read, ``valuation_cache_stats()`` of both against counts
made from the reference's rows, and ``==``, ``hash``,
``repr``, ``str``, pickle and deepcopy of each row of a result nobody has
read — so a row whose lineage node is still unbuilt (DESIGN.md §6.3) is
checked against its reference twin.  Operand event maps stay unchanged.
At possible-worlds size the reference itself is held to the oracle.
"""

from __future__ import annotations

import copy
import gc
import json
import pickle
import tempfile
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import TPError, TPRelation
from repro.algebra.join import JOIN_KINDS
from repro.algebra.streaming import stream_except, stream_intersect, stream_union
from repro.core.setops import OPERATIONS, _finish, sweep_chunks
from repro.core.sorting import null_safe_key
from repro.core.tuple import TPTuple
from repro.db import TPDatabase
from repro.db.io import save_csv, save_json
from repro.lineage.formula import intern_stats, referenced_variables
from repro.lineage.onef import check_one_occurrence_form
from repro.prob.valuation import (
    ProbabilityOptions,
    clear_valuation_cache,
    valuation_cache_stats,
)
from repro.query import RelationRef, SetOpNode
from repro.query.ast import relation_references
from repro.semantics import query_marginals_via_worlds
from repro.serve.protocol import relation_fragment

from .strategies import padded_join_programs, programs, tp_query_catalog, tp_relation
from .test_hot_path_budget import seeded_rows

OPS = tuple(OPERATIONS)
STREAMS = {"union": stream_union, "intersect": stream_intersect, "except": stream_except}
NONE = {"hits": 0, "misses": 0, "swept": 0}
#: Every window with a repeated variable goes to the batch, which
#: estimates it by Monte Carlo (seeded by the formula's text).
LOWERED = ProbabilityOptions(exact_repeated_limit=0, samples=64)
KERNEL_CATALOG = st.fixed_dictionaries({name: tp_relation(name) for name in "abc"})


def engine_catalog(**kwargs):
    return tp_query_catalog(max_relations=3, **kwargs)


def evaluate(tree, catalog, *, fused=True, materialize=True, options=None):
    """``tree`` as the executor runs it: interior nodes lineage-only."""
    if isinstance(tree, RelationRef):
        return catalog[tree.name]
    left = evaluate(tree.left, catalog, fused=fused, materialize=False)
    right = evaluate(tree.right, catalog, fused=fused, materialize=False)
    return OPERATIONS[tree.op](
        left, right, fused=fused, materialize=materialize, options=options
    )


def run(make):
    """A fresh result nobody has read and the counters it moved, or the
    error it raised."""
    clear_valuation_cache()
    try:
        rows = list(make())
    except TPError as exc:
        return (type(exc), str(exc)), valuation_cache_stats()
    return rows, valuation_cache_stats()


def batched(rows, pending) -> dict:
    """The counters of ``rows`` whose ``pending`` ones went to one batch
    (each distinct formula once) and the rest were valued in the sweep."""
    distinct = len({t.lineage for t in pending})
    return {"hits": len(pending) - distinct, "misses": distinct, "swept": len(rows) - len(pending)}


def none_moved(rows) -> dict:
    """A lineage-only result: no counter moves."""
    return NONE


def all_batched(rows) -> dict:
    """The reference path: every row to the batch."""
    return batched(rows, rows)


def all_swept(rows) -> dict:
    """The fused kernel at the default limit: every row valued in the sweep."""
    return batched(rows, [])


def repeated_batched(rows) -> dict:
    """The fused kernel at :data:`LOWERED`: windows with a repeated
    variable to the batch, the rest valued in the sweep."""
    return batched(rows, [t for t in rows if check_one_occurrence_form(t.lineage)])


def assert_same(
    make, make_reference, *, stats=None, reference_stats=None, ordered=True, may_raise=False
):
    """``make()`` equals ``make_reference()`` — each called afresh per
    check, so every check meets rows nobody has read.

    ``stats`` is the mode's expected counters and ``reference_stats``
    the reference's: a function of the reference's rows, ``"same"`` (the
    reference's counters, for ``stats``) or None (unchecked).
    ``ordered=False`` compares in ``(F, Ts, Te)`` order, for modes that
    may emit another row order."""
    reference, got_reference_stats = run(make_reference)
    rows, mode_stats = run(make)
    if isinstance(reference, tuple) or isinstance(rows, tuple):
        assert may_raise, rows if isinstance(rows, tuple) else reference
        assert rows == reference  # the same error, naming the same variable
        assert mode_stats == got_reference_stats == NONE
        return
    if reference_stats is not None:
        assert got_reference_stats == reference_stats(reference)
    if stats == "same":
        assert mode_stats == got_reference_stats
    elif stats is not None:
        assert mode_stats == stats(reference)

    def fresh():
        return list(make()) if ordered else sorted(make(), key=null_safe_key)

    if not ordered:
        rows = sorted(rows, key=null_safe_key)
        reference = sorted(reference, key=null_safe_key)
    assert [(t.fact, t.start, t.end, type(t.p), repr(t.p)) for t in rows] == [
        (u.fact, u.start, u.end, type(u.p), repr(u.p)) for u in reference
    ]
    lineages = [u.lineage for u in reference]
    rows = fresh()
    assert all(t.lineage is u for t, u in zip(rows, lineages))  # first read
    assert all(t.lineage is u for t, u in zip(rows, lineages))  # slot hit
    assert fresh() == reference
    assert [hash(t) for t in fresh()] == [hash(u) for u in reference]
    assert [repr(t) for t in fresh()] == [repr(u) for u in reference]
    assert [str(t) for t in fresh()] == [str(u) for u in reference]
    for round_trip in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
        copies = round_trip(fresh())
        assert copies == reference
        assert all(type(t) is TPTuple and t.lineage is u for t, u in zip(copies, lineages))


# ----------------------------------------------------------------------
# kernel axes: fused, materialize, chunking, exact limit, event map
# ----------------------------------------------------------------------
KERNEL_MODES = ("fused", "lineage-only", "stream", "cuts", "cuts-lineage-only",
                "lowered-limit", "changed-event", "missing-variable")
PAIRS = list(product(OPS, repeat=2))


def cut(tuples, points):
    bounds = [0, *sorted(min(p, len(tuples)) for p in points), len(tuples)]
    return [tuples[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def query(spec):
    """A query tree from ``(op, left, right)`` nested over relation names."""
    if isinstance(spec, str):
        return RelationRef(spec)
    op, left, right = spec
    return SetOpNode(op, query(left), query(right))


def assert_mode_agrees(tree, catalog, mode, cuts=((), ())) -> None:
    """``tree`` run in ``mode`` equals the ``fused=False`` reference, and
    leaves the operands' event maps as they were.  ``cuts`` are the
    chunk boundaries of the ``cuts`` modes, per side."""
    before = {name: dict(r.events) for name, r in catalog.items()}
    options = LOWERED if mode == "lowered-limit" else None
    materialize = mode not in ("lineage-only", "stream", "cuts-lineage-only")

    def children():
        return (evaluate(side, catalog, materialize=False) for side in (tree.left, tree.right))

    if mode == "stream":
        def make():
            left, right = children()
            return STREAMS[tree.op](iter(left.sorted_tuples()), iter(right.sorted_tuples()))
    elif mode.startswith("cuts"):
        def make():
            left, right = children()
            events = left.merged_events(right) if materialize else None
            out, pending = [], []
            for more, more_pending in sweep_chunks(
                iter(cut(left.sorted_tuples(), cuts[0])),
                iter(cut(right.sorted_tuples(), cuts[1])),
                tree.op,
                events,
            ):
                assert more  # a flush hands over rows, never an empty list
                out += more
                pending += more_pending
            if materialize:
                _finish(out, pending, events, None)
            return out
    else:
        def make():
            return evaluate(tree, catalog, materialize=materialize, options=options)

    if not materialize:
        stats = reference_stats = none_moved
    else:
        stats = repeated_batched if options else all_swept
        reference_stats = all_batched
    assert_same(
        make,
        lambda: evaluate(tree, catalog, fused=False, materialize=materialize, options=options),
        stats=stats,
        reference_stats=reference_stats,
        may_raise=mode == "missing-variable",
    )
    result = evaluate(tree, catalog, materialize=False)
    assert all(result.events is not r.events for r in catalog.values())
    assert {name: dict(r.events) for name, r in catalog.items()} == before


@pytest.mark.parametrize("mode", KERNEL_MODES)
@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("op", OPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_kernel_modes_equal_the_reference(op, depth, mode, data):
    catalog, tree, _ = data.draw(programs(op, KERNEL_CATALOG, depth=depth))
    if mode in ("changed-event", "missing-variable"):
        # One variable's event changed after loading, or is gone: both
        # paths read the map, not the input tuple.
        owner = catalog[data.draw(st.sampled_from(sorted(relation_references(tree))))]
        if owner.events:
            name = data.draw(st.sampled_from(sorted(owner.events)))
            if mode == "changed-event":
                owner.events[name] = 0.375
            else:
                del owner.events[name]
    cuts = ((), ())
    if mode.startswith("cuts"):
        cuts = [data.draw(st.lists(st.integers(0, 30), max_size=5)) for _ in range(2)]
    assert_mode_agrees(tree, catalog, mode, cuts)


@pytest.mark.parametrize("inner,outer", PAIRS)
@settings(max_examples=20, deadline=None)
@given(catalog=KERNEL_CATALOG)
def test_every_operator_pair_in_both_associations(inner, outer, catalog):
    assert_mode_agrees(query((outer, (inner, "a", "b"), "c")), catalog, "fused")
    assert_mode_agrees(query((inner, "a", (outer, "b", "c"))), catalog, "fused")


@pytest.mark.parametrize("inner,outer", PAIRS)
def test_seeded_chains_with_many_windows_of_every_shape(inner, outer):
    """Hundreds of windows per chain, probabilities on a 1/1000 grid:
    every row of the one-occurrence table occurs, with values whose
    products depend on the order they are taken in."""
    catalog = {
        name: TPRelation.from_rows(name, ("k",), seeded_rows(seed, n=400, keys=8))
        for name, seed in zip("abcd", (11, 12, 13, 14))
    }
    for spec in (
        (outer, (inner, "a", "b"), "c"),
        (inner, "a", (outer, "b", "c")),
        (outer, (inner, "a", "b"), (inner, "c", "d")),
        (outer, (inner, (outer, "a", "b"), "c"), "d"),
        (outer, (inner, "a", "b"), (inner, "b", "c")),
        (outer, (inner, "a", "b"), "b"),
    ):
        assert_mode_agrees(query(spec), catalog, "fused")
    # Empty chunks at both ends and between two cuts.
    cuts = ((0, 0, 37, 38, 250), (1, 399, 400, 400))
    assert_mode_agrees(query((outer, (inner, "a", "b"), "c")), catalog, "cuts", cuts)


def test_an_interior_row_spans_several_root_windows():
    """``a1∨b1`` over [2, 8) meets two ``c`` tuples: the root sees it
    alone, with ``c1``, alone, with ``c2`` and alone again — three
    copies of one formula and two windows over the row itself; ``a1``
    either side of it.  All seven are valued in the sweep."""
    catalog = {
        "a": TPRelation.from_rows("a", ("k",), [("x", 0, 10, 0.3)]),
        "b": TPRelation.from_rows("b", ("k",), [("x", 2, 8, 0.7)]),
        "c": TPRelation.from_rows("c", ("k",), [("x", 3, 4, 0.1), ("x", 5, 6, 0.9)]),
    }
    rows, stats = run(lambda: evaluate(query(("union", ("union", "a", "b"), "c")), catalog))
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
    for inner, outer in PAIRS:
        assert_mode_agrees(query((outer, (inner, "a", "b"), "c")), catalog, "fused")
        assert_mode_agrees(query((inner, "c", (outer, "a", "b"))), catalog, "fused")


# ----------------------------------------------------------------------
# reader axis: what reads a result's lineage without building its node
# ----------------------------------------------------------------------
def readers(relation: TPRelation) -> tuple:
    """Every reader's output over ``relation``: the wire fragment, the
    own event maps of ``with_own_events`` and ``restricted``, the
    ``save_json`` and ``save_csv`` files, and ``to_table``."""
    with tempfile.TemporaryDirectory() as tmp:
        save_json(relation, Path(tmp, "r.json"))
        save_csv(relation, Path(tmp, "r.csv"))
        files = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    restricted = TPRelation.restricted(
        relation.name, relation.schema, relation.sorted_tuples(), relation.events
    )
    return (
        relation_fragment(relation),
        dict(relation.with_own_events().events),
        dict(restricted.events),
        files,
        relation.to_table(),
    )


def reference_readers(relation: TPRelation) -> tuple:
    """:func:`readers` by the node path: the fragment and the event maps
    written here from ``str(t.lineage)`` and ``referenced_variables``,
    the files and the table over a twin whose rows hold their nodes."""
    events = relation.events
    own = {v: events[v] for v in referenced_variables(t.lineage for t in relation)}
    fragment = json.dumps(
        {
            "attributes": list(relation.schema.attributes),
            "rows": [
                [list(t.fact), t.start, t.end, str(t.lineage), t.p]
                for t in relation.sorted_tuples()
            ],
        },
        sort_keys=True, separators=(",", ":"), default=repr,
    ).encode("utf-8")
    twin = TPRelation._derived(
        relation.name, relation.schema,
        [TPTuple(t.fact, t.lineage, t.interval, t.p) for t in relation], events,
    )
    _, _, _, files, table = readers(twin)
    return fragment, own, own, files, table


def assert_readers_agree(make) -> None:
    """The readers over a result nobody has read build no node and equal
    the node path; so they do over a result half read (the unread rows'
    row operands resolved by their neighbours' reads), and a row read
    after the readers gets the reference's node."""
    fresh = make()
    gc.collect()  # no dead node of an earlier example may leave its table now
    before = intern_stats()
    got = readers(fresh)
    assert intern_stats() == before
    reference = make()
    assert got == reference_readers(reference)
    lineages = [t.lineage for t in reference]
    assert [t.lineage for t in fresh] == lineages
    assert all(t.lineage is u for t, u in zip(fresh, lineages))
    half = make()
    for t in list(half)[::2]:
        t.lineage
    assert readers(half) == got
    assert all(t.lineage is u for t, u in zip(half, lineages))


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("op", OPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_lineage_readers_equal_the_node_path(op, depth, data):
    catalog, tree, _ = data.draw(programs(op, KERNEL_CATALOG, depth=depth))
    assert_readers_agree(lambda: evaluate(tree, catalog))


@pytest.mark.parametrize("inner,outer", PAIRS)
def test_lineage_readers_over_seeded_chains(inner, outer):
    """Chains with interior rows spanning several root windows, and
    repeated variables, over the seeded 400-row relations."""
    catalog = {
        name: TPRelation.from_rows(name, ("k",), seeded_rows(seed, n=400, keys=8))
        for name, seed in zip("abc", (11, 12, 13))
    }
    for spec in (
        (outer, (inner, "a", "b"), "c"),
        (inner, "a", (outer, "b", "c")),
        (outer, (inner, "a", "b"), (inner, "b", "c")),
    ):
        assert_readers_agree(lambda: evaluate(query(spec), catalog))


# ----------------------------------------------------------------------
# engine axes: optimize, backend, durability, view policy and strategy
# ----------------------------------------------------------------------
def load(db: TPDatabase, catalog, *, stores: bool) -> TPDatabase:
    for relation in catalog.values():
        db.register(relation)
        if stores:
            db.store(relation.name)
    return db


def reference_db(db: TPDatabase, catalog) -> TPDatabase:
    """The relations ``db`` holds now, as plain catalog relations."""
    return load(TPDatabase(), {name: db.relation(name) for name in catalog}, stores=False)


def engine_programs(op):
    return programs(op, engine_catalog(), depth=1, joins=True, selections=True, batches=3)


@pytest.mark.parametrize(
    "backend,level", [("relation", "safe"), ("store", "off"), ("store", "safe")]
)
@pytest.mark.parametrize("op", OPS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_query_paths_equal_the_reference(op, backend, level, data):
    """After each transaction of the script, the query over stores (or
    over relations) at each level equals the unoptimized query over the
    relations the store holds — and over stores, the same level's query
    over those relations row for row: the plan chosen and its execution
    do not depend on the source (DESIGN.md §10)."""
    catalog, tree, script = data.draw(engine_programs(op))
    db = load(TPDatabase(), catalog, stores=True)
    for step in range(len(script) + 1):
        if step:
            db.apply(*script[step - 1])
        reference = reference_db(db, catalog)
        mode = db if backend == "store" else reference_db(db, catalog)
        assert_same(
            lambda: mode.query(tree, optimize=level),
            lambda: reference.query(tree),
            stats="same" if level == "off" else None,
            ordered=level == "off",
        )
        if backend == "store" and level == "safe":
            assert_same(
                lambda: db.query(tree, optimize=level),
                lambda: reference.query(tree, optimize=level),
                stats="same",
            )


@pytest.mark.parametrize("level", ["off", "safe"])
@pytest.mark.parametrize("durability", ["off", "batch", "commit"])
@pytest.mark.parametrize("op", OPS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_durable_replays_and_reopens_equal_memory(op, durability, level, data):
    catalog, tree, script = data.draw(engine_programs(op))
    memory = load(TPDatabase(), catalog, stores=True)
    with tempfile.TemporaryDirectory() as tmp:
        db = load(TPDatabase(data_dir=tmp, durability=durability), catalog, stores=True)
        for batch in script:
            memory.apply(*batch)
            db.apply(*batch)
            assert_same(
                lambda: db.query(tree, optimize=level),
                lambda: memory.query(tree, optimize=level),
                stats="same",
            )
        if durability != "off":
            db.close()
            db = TPDatabase(data_dir=tmp, durability=durability)
        for name in catalog:
            assert_same(lambda: db.relation(name), lambda: memory.relation(name), stats=None)
        assert_same(
            lambda: db.query(tree, optimize=level),
            lambda: memory.query(tree, optimize=level),
            stats="same",
        )
        db.close()


def assert_view_follows_its_query(catalog, tree, script, policy, strategy) -> None:
    """A view of ``tree`` under ``policy`` and ``strategy`` equals the
    query re-run over the stores it reads, after every transaction."""
    db = load(TPDatabase(), catalog, stores=True)
    view = db.create_view("v", tree, policy=policy, strategy=strategy)
    for batch in script:
        db.apply(*batch)
        if batch[0] in relation_references(tree):
            assert view.is_fresh() == (policy == "eager")
        if policy == "manual":
            db.refresh("v")
        assert_same(
            lambda: db.relation("v"), lambda: db.query(tree, use_views=False), stats=None
        )


@pytest.mark.parametrize("strategy", ["INCREMENTAL", "RECOMPUTE"])
@pytest.mark.parametrize("policy", ["eager", "deferred", "manual"])
@pytest.mark.parametrize("op", OPS + JOIN_KINDS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_views_equal_the_requery(op, policy, strategy, data):
    """A view read under each refresh policy equals the query re-run
    over the stores it reads, after every transaction — rooted at a set
    operation or at each join kind, whose root values its rows in its
    own sweep as the query's root does (DESIGN.md §9.3)."""
    assert_view_follows_its_query(*data.draw(engine_programs(op)), policy, strategy)


@pytest.mark.parametrize("strategy", ["INCREMENTAL", "RECOMPUTE"])
@pytest.mark.parametrize("policy", ["eager", "manual"])
@pytest.mark.parametrize("kind", JOIN_KINDS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_join_views_over_a_padding_outer_join_equal_the_requery(kind, policy, strategy, data):
    """A join root over an outer join that pads nulls: carried rows,
    coinciding facts merged, and the rows the root leaves to its batch."""
    assert_view_follows_its_query(*data.draw(padded_join_programs(kind, batches=3)), policy, strategy)


@pytest.mark.parametrize("op", OPS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_tiny_programs_equal_the_possible_worlds_oracle(op, data):
    catalog, tree, _ = data.draw(
        programs(op, engine_catalog(max_intervals=1), depth=1, joins=True, selections=True)
    )
    assume(sum(len(catalog[name]) for name in relation_references(tree)) <= 8)
    result = load(TPDatabase(), catalog, stores=False).query(tree)
    oracle = query_marginals_via_worlds(tree, catalog)
    computed = {(t.fact, point): t.p for t in result for point in range(t.start, t.end)}
    for key in set(oracle) | set(computed):
        assert computed.get(key, 0.0) == pytest.approx(oracle.get(key, 0.0), abs=1e-9), key
