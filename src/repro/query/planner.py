"""Physical planning of TP set queries.

The planner lowers a Def. 4 query tree onto physical operators: scans of
catalog relations and set-operation nodes bound to a concrete algorithm
(LAWA by default; any Table-II baseline on request, subject to its
declared support).  Planning validates algorithm capabilities early so a
``TPDB`` plan containing a set difference fails at plan time, not at run
time — the same constraint Table II documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..baselines.interface import SetOpAlgorithm
from ..baselines.registry import JoinAlgorithm, get_algorithm, get_join_algorithm
from ..core.errors import UnsupportedOperationError
from .ast import JoinNode, QueryNode, RelationRef, SelectionNode, SetOpNode

__all__ = [
    "ScanPlan",
    "SelectPlan",
    "SetOpPlan",
    "JoinPlan",
    "MultiSetOpPlan",
    "PhysicalPlan",
    "plan_query",
    "substitute_views",
]


@dataclass(frozen=True, slots=True)
class ScanPlan:
    """Physical leaf: scan a named relation from the catalog."""

    relation: str

    def describe(self, indent: int = 0) -> str:
        return " " * indent + f"Scan[{self.relation}]"


@dataclass(frozen=True, slots=True)
class SetOpPlan:
    """Physical set operation bound to an algorithm."""

    op: str
    algorithm: SetOpAlgorithm
    left: "PhysicalPlan"
    right: "PhysicalPlan"

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        lines = [f"{pad}{self.op.capitalize()}[{self.algorithm.name}]"]
        lines.append(self.left.describe(indent + 2))
        lines.append(self.right.describe(indent + 2))
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class SelectPlan:
    """Physical selection σ[attribute=value] over a child plan."""

    attribute: str
    value: object
    child: "PhysicalPlan"

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        return (
            f"{pad}Select[{self.attribute}={self.value!r}]\n"
            + self.child.describe(indent + 2)
        )


@dataclass(frozen=True, slots=True)
class JoinPlan:
    """Physical TP join bound to a join algorithm."""

    kind: str
    on: Optional[tuple[str, ...]]
    algorithm: JoinAlgorithm
    left: "PhysicalPlan"
    right: "PhysicalPlan"

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        label = "".join(part.capitalize() for part in self.kind.split("_"))
        on_text = "" if self.on is None else " on(" + ", ".join(self.on) + ")"
        lines = [f"{pad}{label}Join[{self.algorithm.name}]{on_text}"]
        lines.append(self.left.describe(indent + 2))
        lines.append(self.right.describe(indent + 2))
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class MultiSetOpPlan:
    """n-ary union/intersection, run as a left fold of the binary LAWA
    kernel: children in order, only the last step valuating."""

    op: str
    children: tuple["PhysicalPlan", ...]

    def describe(self, indent: int = 0) -> str:
        pad = " " * indent
        lines = [f"{pad}{self.op.capitalize()}[LAWA×{len(self.children)}]"]
        lines.extend(child.describe(indent + 2) for child in self.children)
        return "\n".join(lines)


PhysicalPlan = Union[ScanPlan, SelectPlan, SetOpPlan, JoinPlan, MultiSetOpPlan]


def substitute_views(
    query: QueryNode,
    views: Mapping[QueryNode, str],
    *,
    canonical: bool = False,
    schemas: Optional[Mapping] = None,
) -> QueryNode:
    """Replace subtrees matching a materialized view's definition by scans.

    ``views`` maps defining query trees to view names (AST nodes are
    frozen and hashable, so the lookup is a dict probe per subtree).
    The planner then reads the maintained result from the catalog
    instead of recomputing the subquery — the serving-path payoff of
    :mod:`repro.store`.  Matching is outside-in: the largest matching
    subtree wins.

    ``canonical=True`` (the cost-based optimizer's mode, DESIGN.md §10)
    matches *modulo the safe rewrites*: a subtree and a view definition
    match when their :func:`repro.query.optimize.canonical_form` normal
    forms coincide — e.g. ``a[x=1] | b[x=1]`` reads a view defined as
    ``(a | b)[x=1]``.  Safe rewrites are lineage-identical, so the
    maintained result is syntactically the one the subquery would have
    computed.  ``schemas`` feeds the schema-aware rewrite guards.
    """
    if not canonical:
        return _substitute(query, views.get)
    from .optimize import canonical_form

    table: dict = {}
    for definition, view_name in views.items():
        table.setdefault(definition, view_name)
        table.setdefault(canonical_form(definition, schemas), view_name)

    def lookup(node: QueryNode) -> Optional[str]:
        name = table.get(node)
        if name is not None:
            return name
        return table.get(canonical_form(node, schemas))

    return _substitute(query, lookup)


def _substitute(query: QueryNode, lookup) -> QueryNode:
    name = lookup(query)
    if name is not None:
        return RelationRef(name)
    if isinstance(query, SelectionNode):
        child = _substitute(query.child, lookup)
        if child is query.child:
            return query
        return SelectionNode(child, query.attribute, query.value)
    if isinstance(query, SetOpNode):
        left = _substitute(query.left, lookup)
        right = _substitute(query.right, lookup)
        if left is query.left and right is query.right:
            return query
        return SetOpNode(query.op, left, right)
    if isinstance(query, JoinNode):
        left = _substitute(query.left, lookup)
        right = _substitute(query.right, lookup)
        if left is query.left and right is query.right:
            return query
        return JoinNode(query.kind, left, right, query.on)
    return query


def plan_query(
    query: QueryNode,
    *,
    algorithm: Union[str, SetOpAlgorithm, None] = None,
    per_op_algorithms: Optional[dict] = None,
    join_algorithm: Union[str, JoinAlgorithm, None] = None,
) -> PhysicalPlan:
    """Bind every operator of the query to a physical algorithm.

    Parameters
    ----------
    algorithm:
        Default set-operation algorithm (name or instance) for every
        operator; ``None`` selects LAWA.
    per_op_algorithms:
        Optional overrides per logical operator, e.g.
        ``{"intersect": "OIP"}`` — must still support the operation.
    join_algorithm:
        Algorithm (name or instance) for every join node; ``None``
        selects the generalized-window kernel (GTWINDOW).
    """
    default = _resolve(algorithm) if algorithm is not None else get_algorithm("LAWA")
    overrides = {
        op: _resolve(spec) for op, spec in (per_op_algorithms or {}).items()
    }
    join_default = (
        _resolve_join(join_algorithm)
        if join_algorithm is not None
        else get_join_algorithm("GTWINDOW")
    )
    return _lower(query, default, overrides, join_default)


def _resolve(spec: Union[str, SetOpAlgorithm]) -> SetOpAlgorithm:
    if isinstance(spec, SetOpAlgorithm):
        return spec
    return get_algorithm(spec)


def _resolve_join(spec: Union[str, JoinAlgorithm]) -> JoinAlgorithm:
    if isinstance(spec, JoinAlgorithm):
        return spec
    return get_join_algorithm(spec)


def _lower(
    query,
    default: SetOpAlgorithm,
    overrides: dict,
    join_default: JoinAlgorithm,
) -> PhysicalPlan:
    from .optimize import MultiOpNode

    if isinstance(query, RelationRef):
        return ScanPlan(query.name)
    if isinstance(query, SelectionNode):
        return SelectPlan(
            attribute=query.attribute,
            value=query.value,
            child=_lower(query.child, default, overrides, join_default),
        )
    if isinstance(query, MultiOpNode):
        return MultiSetOpPlan(
            op=query.op,
            children=tuple(
                _lower(child, default, overrides, join_default)
                for child in query.children
            ),
        )
    if isinstance(query, JoinNode):
        return JoinPlan(
            kind=query.kind,
            on=query.on,
            algorithm=join_default,
            left=_lower(query.left, default, overrides, join_default),
            right=_lower(query.right, default, overrides, join_default),
        )
    assert isinstance(query, SetOpNode)
    algorithm = overrides.get(query.op, default)
    if query.op not in algorithm.supports:
        raise UnsupportedOperationError(
            f"{algorithm.name} cannot compute TP set {query.op} "
            f"(Table II); choose another algorithm for this operator"
        )
    return SetOpPlan(
        op=query.op,
        algorithm=algorithm,
        left=_lower(query.left, default, overrides, join_default),
        right=_lower(query.right, default, overrides, join_default),
    )
