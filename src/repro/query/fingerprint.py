"""Canonical plan fingerprints — the serving cache's key material.

Two textual queries that differ only in shape (``(a | b) | c`` vs.
``a | (b | c)``, a selection written outside vs. pushed inside) rewrite
to the same canonical form under the safe rules of
:mod:`repro.query.optimize`, and safe rewrites are *lineage-identical*:
equal canonical forms produce syntactically identical results.  That
makes the canonical form the correct unit of result caching
(DESIGN.md §13) — and anything *not* absorbed by canonicalization
(optimize level, worker count, physical algorithm, store epochs) must
live in the key beside it, never inside it.

:func:`plan_fingerprint` hashes a structural encoding of the canonical
form rather than its pretty-printed string, so relation names, selection
values and operator arities can never collide by concatenation.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from .ast import JoinNode, QueryNode, RelationRef, SelectionNode, SetOpNode
from .optimize import MultiOpNode, OptimizedNode, Schemas, canonical_form

__all__ = ["canonical_key", "plan_fingerprint"]


def _encode(node: OptimizedNode) -> tuple:
    """An injective, hashable encoding of a canonical plan tree."""
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


def canonical_key(query: QueryNode, schemas: Optional[Schemas] = None) -> tuple:
    """The structural key of ``query``'s canonical form.

    Queries that are equal modulo the safe (lineage-identical) rewrites
    share a key; queries that could produce different results never do.
    ``schemas`` (leaf name → :class:`~repro.core.schema.TPSchema`)
    enables the guarded pushdown-through-joins rule, exactly as in view
    matching — callers must pass the same schemas they plan with, or the
    canonical forms (and therefore the keys) may legitimately differ.
    """
    return _encode(canonical_form(query, schemas))


def plan_fingerprint(query: QueryNode, schemas: Optional[Schemas] = None) -> str:
    """A stable hex digest of :func:`canonical_key` (log/record friendly)."""
    return hashlib.sha256(repr(canonical_key(query, schemas)).encode()).hexdigest()
