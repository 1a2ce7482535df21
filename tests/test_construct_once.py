"""Construct-once equivalence (DESIGN.md §6.3).

``execute_plan`` lets the *root* operator valuate its output lineages
and build every result tuple exactly once, with its final probability.
That must be indistinguishable from the two-pass form it replaced —
evaluate lineage-only, then ``materialize_probabilities()`` — for every
kind of root node and for nested queries: same facts, same intervals,
the *same* interned lineage objects, float-identical probabilities, same
order, same sortedness flag, same relation name.  Set-operation queries
are additionally pinned to the paper-shaped ``LawaSweep`` reference
(``fused=False``).
"""

from __future__ import annotations

from hypothesis import given, settings

from repro import TPRelation
from repro.algebra.join import JOIN_KINDS
from repro.core.setops import tp_set_operation
from repro.query import (
    JoinNode,
    RelationRef,
    SelectionNode,
    SetOpNode,
    execute_plan,
    plan_query,
)
from repro.query.optimize import MultiOpNode

from .strategies import query_scenario, tp_query_catalog

SET_OPS = ("union", "intersect", "except")


def assert_tuples_identical(x: TPRelation, y: TPRelation) -> None:
    assert len(x) == len(y)
    for t, u in zip(x, y):
        assert t.fact == u.fact
        assert t.interval == u.interval
        assert t.lineage is u.lineage  # interned: identity, not just equality
        assert t.p == u.p  # exact float equality, not approx


def assert_built_once_equals_two_pass(tree, catalog) -> TPRelation:
    plan = plan_query(tree)
    once = execute_plan(plan, catalog, materialize=True)
    lineage_only = execute_plan(plan, catalog, materialize=False)
    two_pass = lineage_only.materialize_probabilities()
    assert_tuples_identical(once, two_pass)
    assert all(t.p is not None for t in once)
    assert once.name == two_pass.name == lineage_only.name
    assert once.is_sorted_by_fact_ts == two_pass.is_sorted_by_fact_ts
    assert dict(once.events) == dict(two_pass.events)
    return once


def root_trees(names: list[str]) -> list:
    """One tree per kind of root plan node, over the first relations."""
    first, second = RelationRef(names[0]), RelationRef(names[1])
    trees = [
        first,
        SelectionNode(first, "k", "k1"),
        SelectionNode(SetOpNode("union", first, second), "k", "k1"),
        MultiOpNode("union", (first, second, first)),
        MultiOpNode("intersect", (first, second, second)),
    ]
    trees += [SetOpNode(op, first, second) for op in SET_OPS]
    trees += [JoinNode(kind, first, second, ("k",)) for kind in JOIN_KINDS]
    trees += [JoinNode(kind, first, second, None) for kind in JOIN_KINDS]
    return trees


def reference(tree, catalog) -> TPRelation:
    """Lineage-only evaluation of a selection / set-operation tree on
    the unfused ``LawaSweep`` path."""
    if isinstance(tree, RelationRef):
        return catalog[tree.name]
    if isinstance(tree, SelectionNode):
        return reference(tree.child, catalog).select(**{tree.attribute: tree.value})
    return tp_set_operation(
        tree.op,
        reference(tree.left, catalog),
        reference(tree.right, catalog),
        materialize=False,
        fused=False,
    )


class TestConstructOnce:
    @settings(max_examples=30, deadline=None)
    @given(tp_query_catalog(max_relations=2))
    def test_every_root_plan_type(self, catalog):
        for tree in root_trees(sorted(catalog)):
            assert_built_once_equals_two_pass(tree, catalog)

    @settings(max_examples=40, deadline=None)
    @given(query_scenario())
    def test_nested_queries(self, scenario):
        catalog, tree = scenario
        assert_built_once_equals_two_pass(tree, catalog)

    @settings(max_examples=40, deadline=None)
    @given(query_scenario(joins=False))
    def test_equals_unfused_reference(self, scenario):
        catalog, tree = scenario
        once = assert_built_once_equals_two_pass(tree, catalog)
        assert_tuples_identical(
            once, reference(tree, catalog).materialize_probabilities()
        )

    def test_interior_nodes_stay_lineage_only(self, rel_a, rel_b, rel_c):
        catalog = {"a": rel_a, "b": rel_b, "c": rel_c}
        seen: dict[tuple, TPRelation] = {}
        tree = SetOpNode(
            "except", RelationRef("c"),
            SetOpNode("union", RelationRef("a"), RelationRef("b")),
        )
        result = execute_plan(
            plan_query(tree), catalog,
            observe=lambda path, _node, rel: seen.__setitem__(path, rel),
        )
        assert seen[()] is result  # the observer sees the materialized root
        assert all(t.p is not None for t in result)
        assert all(t.p is None for t in seen[(1,)])  # a ∪ b: lineage only

    def test_root_scan_of_a_base_relation_is_the_relation(self, rel_a):
        # Nothing pending: no copy of the tuples or the event map.
        assert execute_plan(plan_query(RelationRef("a")), {"a": rel_a}) is rel_a
