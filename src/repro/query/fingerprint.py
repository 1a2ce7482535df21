"""Canonical plan keys — the serving cache's key material.

Two textual queries that differ only in association (``(a | b) | c``
vs. ``a | (b | c)``) flatten to the same n-ary tree
(:mod:`repro.query.optimize`, rule 1), and flattening is
*lineage-identical*: equal flattened trees produce syntactically
identical results.  That makes the flattened tree the correct unit of
result caching (DESIGN.md §13) — and anything *not* absorbed by it
(optimize level, physical algorithm, store epochs) must live in the key
beside it, never inside it.  The key consults no schemas, so selections
are not pushed: a selection written outside a set operation and one
written on each operand keep different keys, because which column the
attribute names depends on the operands' schemas.

:func:`canonical_key` encodes the tree's structure rather than its
pretty-printed string, so relation names, selection values and operator
arities can never collide by concatenation.
"""

from __future__ import annotations

from .ast import JoinNode, QueryNode, RelationRef, SelectionNode, SetOpNode
from .optimize import MultiOpNode, OptimizedNode, _flatten

__all__ = ["canonical_key"]


def _encode(node: OptimizedNode) -> tuple:
    """An injective, hashable encoding of a flattened plan tree."""
    if isinstance(node, RelationRef):
        return ("rel", node.name)
    if isinstance(node, SelectionNode):
        return ("sel", node.attribute, repr(node.value), _encode(node.child))
    if isinstance(node, SetOpNode):
        return ("op", node.op, _encode(node.left), _encode(node.right))
    if isinstance(node, MultiOpNode):
        return ("multi", node.op, tuple(_encode(c) for c in node.children))
    if isinstance(node, JoinNode):
        return ("join", node.kind, node.on, _encode(node.left), _encode(node.right))
    raise TypeError(f"cannot fingerprint query node {node!r}")


def canonical_key(query: QueryNode) -> tuple:
    """The structural key of ``query``'s flattened tree.

    Queries that are equal modulo association share a key; queries that
    could produce different results never do.  No schemas are consulted,
    so σ stays where it was written.
    """
    return _encode(_flatten(query))
