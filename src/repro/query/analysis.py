"""Static analysis of TP set queries (Section V-B of the paper).

Theorem 1: a *non-repeating* TP set query (every input relation occurs at
most once) over duplicate-free relations yields lineage formulas in
one-occurrence form, and therefore (Corollary 1) has PTIME data
complexity — probabilities of 1OF formulas factorize in linear time.

Queries with repeated subgoals remain #P-hard in general (Khanna, Roy,
Tannen, PVLDB'11); the analyzer flags them so the executor can switch the
valuation method, and reports which relations repeat.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional

from ..core.errors import SchemaMismatchError
from ..core.schema import TPSchema
from .ast import (
    JoinNode,
    QueryNode,
    RelationRef,
    SelectionNode,
    SetOpNode,
    relation_references,
)

__all__ = ["QueryAnalysis", "analyze", "infer_schema", "is_non_repeating"]


@dataclass(frozen=True, slots=True)
class QueryAnalysis:
    """Summary of the static properties of a TP set query."""

    #: Distinct relation names referenced by the query.
    relations: tuple[str, ...]
    #: Relations that occur more than once (break Theorem 1's premise).
    repeated_relations: tuple[str, ...]
    #: True iff every relation occurs at most once.
    non_repeating: bool
    #: Number of set-operation nodes.
    operation_count: int
    #: Operator multiset, e.g. {'union': 1, 'except': 1}.
    operations: dict
    #: Height of the operator tree (a single relation has depth 0).
    depth: int
    #: Human-readable complexity verdict.
    complexity: str

    def describe(self) -> str:
        """Multi-line report used by ``TPDatabase.explain``."""
        lines = [
            f"relations: {', '.join(self.relations)}",
            f"operations: {self.operation_count} "
            + "(" + ", ".join(f"{op}×{n}" for op, n in sorted(self.operations.items())) + ")"
            if self.operation_count
            else "operations: none (single relation scan)",
            f"non-repeating: {'yes' if self.non_repeating else 'no'}",
        ]
        if self.repeated_relations:
            lines.append(
                "repeated subgoals: " + ", ".join(self.repeated_relations)
            )
        lines.append(f"complexity: {self.complexity}")
        return "\n".join(lines)


def is_non_repeating(query: QueryNode) -> bool:
    """True iff every input relation occurs at most once in the query."""
    names = relation_references(query)
    return len(names) == len(set(names))


def analyze(query: QueryNode) -> QueryAnalysis:
    """Compute the full static analysis of a query tree."""
    names = relation_references(query)
    counts = Counter(names)
    repeated = tuple(sorted(name for name, n in counts.items() if n > 1))
    non_repeating = not repeated

    operations: Counter = Counter()
    depth = _depth(query)
    for node in _walk(query):
        if isinstance(node, SetOpNode):
            operations[node.op] += 1
        elif isinstance(node, JoinNode):
            operations[f"{node.kind}_join"] += 1
        else:
            children = getattr(node, "children", None)
            if children is not None:  # n-ary MultiOpNode ≙ n−1 binary ops
                operations[node.op] += len(children) - 1

    if non_repeating:
        complexity = (
            "PTIME — non-repeating query over duplicate-free relations; "
            "lineage is in 1OF (Theorem 1), probabilities factorize "
            "linearly (Corollary 1)"
        )
    else:
        complexity = (
            "#P-hard in general — repeated subgoals "
            f"({', '.join(repeated)}) entangle lineage variables; exact "
            "valuation falls back to Shannon expansion"
        )

    return QueryAnalysis(
        relations=tuple(dict.fromkeys(names)),
        repeated_relations=repeated,
        non_repeating=non_repeating,
        operation_count=sum(operations.values()),
        operations=dict(operations),
        depth=depth,
        complexity=complexity,
    )


def _walk(query: QueryNode):
    stack = [query]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (SetOpNode, JoinNode)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, SelectionNode):
            stack.append(node.child)
        else:
            children = getattr(node, "children", None)
            if children is not None:
                stack.extend(children)


def _depth(query: QueryNode) -> int:
    if isinstance(query, RelationRef):
        return 0
    if isinstance(query, SelectionNode):
        return _depth(query.child)
    children = getattr(query, "children", None)
    if children is not None:
        return 1 + max(_depth(child) for child in children)
    return 1 + max(_depth(query.left), _depth(query.right))


def infer_schema(
    query: QueryNode, leaf_schemas: Mapping[str, TPSchema]
) -> Optional[TPSchema]:
    """The output schema of a query tree, or ``None`` when underivable.

    ``leaf_schemas`` maps relation names to their schemas; a missing
    leaf, an invalid join (no shared attributes) or a selection on an
    attribute the subtree does not produce all yield ``None`` rather
    than raising — callers (the optimizer's schema-aware rewrites, the
    possible-worlds oracle) treat an unknown schema as "do not touch".

    Set operations use positional semantics, so the output schema is the
    first operand's (exactly what the executor produces); joins resolve
    through :func:`repro.algebra.join.join_layout_from_schemas`,
    including natural-join attribute resolution and output-name
    disambiguation.
    """
    from ..algebra.join import join_layout_from_schemas

    if isinstance(query, RelationRef):
        return leaf_schemas.get(query.name)
    if isinstance(query, SelectionNode):
        schema = infer_schema(query.child, leaf_schemas)
        if schema is None or query.attribute not in schema.attributes:
            return None
        return schema
    if isinstance(query, JoinNode):
        left = infer_schema(query.left, leaf_schemas)
        right = infer_schema(query.right, leaf_schemas)
        if left is None or right is None:
            return None
        try:
            return join_layout_from_schemas(
                query.kind, left, right, query.on
            ).out_schema
        except SchemaMismatchError:
            return None
    children = getattr(query, "children", None)
    if children is not None:  # MultiOpNode
        schemas = [infer_schema(child, leaf_schemas) for child in children]
        if any(s is None for s in schemas):
            return None
        if any(s.arity != schemas[0].arity for s in schemas[1:]):
            return None
        return schemas[0]
    assert isinstance(query, SetOpNode)
    left = infer_schema(query.left, leaf_schemas)
    right = infer_schema(query.right, leaf_schemas)
    if left is None or right is None or left.arity != right.arity:
        return None
    return left
