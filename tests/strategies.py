"""Hypothesis strategies for random lineage formulas, random
duplicate-free TP relations, random TP query trees (the plan-space
metamorphic harness's generator) and programs — a catalog, a query tree
and a delta script — for the mode matrix and the serve stress tests."""

from __future__ import annotations

import random
from typing import Mapping, Sequence

from hypothesis import strategies as st

from repro import Interval, TPRelation, TPSchema, Var, base_tuple
from repro.lineage import land, lnot, lor
from repro.algebra.join import JOIN_KINDS, join_layout_from_schemas
from repro.query import JoinNode, RelationRef, SelectionNode, SetOpNode
from repro.query.analysis import infer_schema

FACT_POOL = [("x",), ("y",), ("z",)]

#: Fact pools for join-shaped relations: (key, rest) combinations.
JOIN_KEY_POOL = ["k1", "k2"]

#: Selection values drawn by the query-tree strategy: every fact value
#: the catalog relations can produce, plus one that never matches.
QUERY_VALUE_POOL = ["k1", "k2", "a1", "a2", "b1", "b2", "nope"]


@st.composite
def formulas(draw, *, names: Sequence[str], depth: int):
    """A random lineage formula over the variables ``names``: a variable,
    or ¬ / ∧ / ∨ of subformulas, at most ``depth`` connectives deep."""
    if depth == 0:
        return Var(draw(st.sampled_from(names)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return Var(draw(st.sampled_from(names)))
    if kind == 1:
        return lnot(draw(formulas(names=names, depth=depth - 1)))
    left = draw(formulas(names=names, depth=depth - 1))
    right = draw(formulas(names=names, depth=depth - 1))
    return land(left, right) if kind == 2 else lor(left, right)


@st.composite
def disjoint_intervals(draw, max_intervals: int = 5, max_len: int = 5, max_gap: int = 4):
    """A chain of disjoint (possibly adjacent) intervals."""
    count = draw(st.integers(min_value=0, max_value=max_intervals))
    cursor = draw(st.integers(min_value=0, max_value=5))
    intervals = []
    for _ in range(count):
        cursor += draw(st.integers(min_value=0, max_value=max_gap))
        length = draw(st.integers(min_value=1, max_value=max_len))
        intervals.append(Interval(cursor, cursor + length))
        cursor += length
    return intervals


@st.composite
def tp_relation(
    draw,
    name: str,
    max_facts: int = 3,
    max_intervals: int = 4,
    max_len: int = 5,
    max_gap: int = 4,
):
    """A random duplicate-free base relation over a tiny fact pool."""
    n_facts = draw(st.integers(min_value=1, max_value=max_facts))
    tuples = []
    events = {}
    counter = 0
    for fact in FACT_POOL[:n_facts]:
        for interval in draw(
            disjoint_intervals(max_intervals=max_intervals, max_len=max_len, max_gap=max_gap)
        ):
            counter += 1
            identifier = f"{name}{counter}"
            p = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
            tuples.append(base_tuple(fact, identifier, interval, p))
            events[identifier] = p
    return TPRelation(name, TPSchema(("fact",)), tuples, events)


@st.composite
def tp_relation_pair(draw, **kwargs):
    """Two independent duplicate-free relations over the same schema."""
    return draw(tp_relation("r", **kwargs)), draw(tp_relation("s", **kwargs))


@st.composite
def tp_join_relation(
    draw,
    name: str,
    attributes: tuple[str, ...],
    rest_pool: list,
    max_facts: int = 3,
    max_intervals: int = 2,
    max_len: int = 4,
    max_gap: int = 3,
):
    """A duplicate-free relation shaped for join tests.

    Facts combine a join key from :data:`JOIN_KEY_POOL` with a rest value
    from ``rest_pool`` (or are key-only for degenerate-layout tests, when
    ``rest_pool`` is empty).  Different facts may overlap in time — the
    concurrency the generalized windows must handle — while same-fact
    chains stay disjoint (duplicate-freeness).
    """
    candidates = (
        [(k,) for k in JOIN_KEY_POOL]
        if not rest_pool
        else [(k, v) for k in JOIN_KEY_POOL for v in rest_pool]
    )
    n_facts = draw(st.integers(min_value=0, max_value=min(max_facts, len(candidates))))
    facts = candidates[:n_facts]
    tuples = []
    events = {}
    counter = 0
    for fact in facts:
        for interval in draw(
            disjoint_intervals(max_intervals=max_intervals, max_len=max_len, max_gap=max_gap)
        ):
            counter += 1
            identifier = f"{name}{counter}"
            p = draw(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
            tuples.append(base_tuple(fact, identifier, interval, p))
            events[identifier] = p
    return TPRelation(name, TPSchema(attributes), tuples, events)


@st.composite
def tp_query_catalog(
    draw,
    max_relations: int = 4,
    max_intervals: int = 2,
    max_len: int = 3,
    max_gap: int = 2,
):
    """A catalog of small join-able relations over two schema families.

    Schemas are ``("k", "a")`` and ``("k", "b")``: every relation shares
    the join key ``k`` (so natural joins are always valid), set
    operations between families are arity-compatible, and joining the
    families produces the third schema ``("k", "a", "b")`` — the closure
    the query-tree strategy builds over.
    """
    n = draw(st.integers(min_value=2, max_value=max_relations))
    catalog: dict[str, TPRelation] = {}
    for i in range(n):
        name = f"q{i + 1}"
        family = draw(st.sampled_from(["a", "b"]))
        catalog[name] = draw(
            tp_join_relation(
                name,
                ("k", family),
                ["a1", "a2"] if family == "a" else ["b1", "b2"],
                max_facts=3,
                max_intervals=max_intervals,
                max_len=max_len,
                max_gap=max_gap,
            )
        )
    return catalog


@st.composite
def query_tree(
    draw,
    catalog,
    max_depth: int = 3,
    joins: bool = True,
    selections: bool = True,
):
    """A random, schema-correct TP query tree over ``catalog``.

    Composable by construction: selections, all five generalized joins
    (natural and explicit ``ON k``), and n-ary set-operation chains nest
    freely to ``max_depth``.  Set-operation operands are kept
    arity-compatible (positional semantics); when a drawn operand's
    arity differs, the left operand is repeated instead — which also
    exercises the repeated-subgoal (#P-hard) valuation path.  The
    returned tree parses/plans/executes without further assumptions —
    the metamorphic harness and the query-layer property tests share it.
    """
    names = sorted(catalog)

    def leaf():
        name = draw(st.sampled_from(names))
        return RelationRef(name), catalog[name].schema

    kinds = ["leaf", "setop", "setop"]
    if selections:
        kinds.append("select")
    if joins:
        kinds += ["join", "join"]

    def node(depth):
        kind = draw(st.sampled_from(kinds)) if depth > 0 else "leaf"
        if kind == "leaf":
            return leaf()
        if kind == "select":
            child, schema = node(depth - 1)
            attribute = draw(st.sampled_from(schema.attributes))
            value = draw(st.sampled_from(QUERY_VALUE_POOL))
            return SelectionNode(child, attribute, value), schema
        if kind == "join":
            join_kind = draw(st.sampled_from(JOIN_KINDS))
            left, left_schema = node(depth - 1)
            right, right_schema = node(depth - 1)
            on = draw(st.sampled_from([None, ("k",)]))
            layout = join_layout_from_schemas(
                join_kind, left_schema, right_schema, on
            )
            return JoinNode(join_kind, left, right, on), layout.out_schema
        # setop: a chain of 1-2 operators, left-associated as parsed.
        current, schema = node(depth - 1)
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            op = draw(st.sampled_from(["union", "intersect", "except"]))
            right, right_schema = node(depth - 1)
            if right_schema.arity != schema.arity:
                right = current  # repeat the left operand (same arity)
            current = SetOpNode(op, current, right)
        return current, schema

    tree, _ = node(max_depth)
    return tree


@st.composite
def query_scenario(
    draw,
    max_relations: int = 4,
    max_depth: int = 3,
    joins: bool = True,
    selections: bool = True,
    **catalog_kwargs,
):
    """A (catalog, query tree) pair — the metamorphic harness's input."""
    catalog = draw(
        tp_query_catalog(max_relations=max_relations, **catalog_kwargs)
    )
    tree = draw(
        query_tree(catalog, max_depth=max_depth, joins=joins, selections=selections)
    )
    return catalog, tree


@st.composite
def tp_join_pair(draw, s_rest: bool = True, **kwargs):
    """An (r, s) pair over ("k", "a") and ("k", "b") sharing key pool.

    ``s_rest=False`` makes the right side key-only — the degenerate
    layout in which outer-join matched and preserved facts coincide.
    """
    r = draw(tp_join_relation("r", ("k", "a"), ["a1", "a2"], **kwargs))
    s_attrs = ("k", "b") if s_rest else ("k",)
    s = draw(tp_join_relation("s", s_attrs, ["b1", "b2"] if s_rest else [], **kwargs))
    return r, s


def delta_script(
    relations: Mapping[str, TPRelation], seed: int, *, batches: int = 3, size: int = 3
) -> list[tuple[str, tuple, tuple]]:
    """``batches`` transactions of ``size`` row changes each, as
    ``(relation name, inserts, deletes)`` rows for ``TPDatabase.apply``,
    drawn from ``random.Random(seed)``.

    An insert extends one of the target's facts past the last end point
    that fact ever had, so it never overlaps; a delete names a live
    tuple that the same transaction did not insert (a transaction's
    deletes resolve against the state before it)."""
    rng = random.Random(seed)
    live = {name: [(t.fact, t.start, t.end) for t in r] for name, r in relations.items()}
    frontier: dict[tuple, int] = {}
    for name, rows in live.items():
        for fact, _, end in rows:
            frontier[name, fact] = max(end, frontier.get((name, fact), 0))
    script = []
    for _ in range(batches):
        name = rng.choice(sorted(relations))
        facts = sorted({fact for fact, _, _ in live[name]}) or [
            tuple(f"{a}1" for a in relations[name].schema.attributes)
        ]
        inserts: list[tuple] = []
        deletes: list[tuple] = []
        old = list(live[name])
        for _ in range(size):
            if old and rng.random() < 0.3:
                fact, start, end = row = old.pop(rng.randrange(len(old)))
                live[name].remove(row)
                deletes.append((*fact, start, end))
                continue
            fact = rng.choice(facts)
            start = frontier.get((name, fact), 0) + rng.randint(0, 2)
            end = frontier[name, fact] = start + rng.randint(1, 3)
            live[name].append((fact, start, end))
            inserts.append((*fact, start, end, rng.randrange(50, 951) / 1000))
        script.append((name, tuple(inserts), tuple(deletes)))
    return script


@st.composite
def programs(
    draw,
    op: str,
    catalog,
    *,
    depth: int = 1,
    joins: bool = False,
    selections: bool = False,
    batches: int = 0,
):
    """``(catalog, tree, script)``: relations drawn from ``catalog``, a
    query tree whose root is ``op`` over two :func:`query_tree`
    subtrees at most ``depth`` deep, and a :func:`delta_script` of
    ``batches`` transactions against the relations.  ``op`` is a set
    operation (the right subtree repeats the left when their arities
    differ) or one of :data:`JOIN_KINDS`, joined on ``k`` or naturally
    (the catalog's relations all hold ``k``)."""
    relations = draw(catalog)
    left, right = (
        draw(query_tree(relations, max_depth=depth, joins=joins, selections=selections))
        for _ in range(2)
    )
    script = delta_script(relations, draw(st.integers(0, 2**16)), batches=batches)
    if op in JOIN_KINDS:
        return relations, JoinNode(op, left, right, draw(st.sampled_from([None, ("k",)]))), script
    schemas = {name: r.schema for name, r in relations.items()}
    if infer_schema(left, schemas).arity != infer_schema(right, schemas).arity:
        right = left
    return relations, SetOpNode(op, left, right), script


@st.composite
def padded_join_programs(draw, kind: str, *, batches: int = 0):
    """``(catalog, tree, script)`` as :func:`programs` gives them, for
    ``(r LEFT OUTER JOIN t ON k) <kind> s``: ``r`` and ``s`` over
    ``("k", "a")``, ``t`` over ``("k", "b")``.  The inner outer join pads
    ``b`` with None, and the natural join above it on ``(k, a)`` finds
    ``s`` key-only — a degenerate layout whose carried and preserved
    facts coincide (DESIGN.md §8.4)."""
    relations = {
        name: draw(tp_join_relation(name, ("k", family), [f"{family}1", f"{family}2"],
                                    max_facts=3, max_intervals=2))
        for name, family in (("r", "a"), ("t", "b"), ("s", "a"))
    }
    inner = JoinNode("left_outer", RelationRef("r"), RelationRef("t"), ("k",))
    script = delta_script(relations, draw(st.integers(0, 2**16)), batches=batches)
    return relations, JoinNode(kind, inner, RelationRef("s"), None), script
