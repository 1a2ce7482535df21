"""Cost model and cost-based plan choice (DESIGN.md §11).

Plans are scored in **estimated sweep rows**: every operator of the
system is a sweep over its sorted inputs (set operations, generalized
joins; an n-ary ∪/∩ is a left fold of binary sweeps) or a filter pass
(selections), so the work of a plan is well approximated by the number
of tuples its sweeps read plus the matches its joins enumerate.
Flattening is therefore cost-neutral: a left-deep chain and its n-ary
node tie, and the earlier candidate — the chain — wins the tie.  An
n-ary node is chosen where its left-to-right fold beats the parsed
association (a right-nested chain, or operands reordered by
cardinality).  Estimates come from the
statistics catalog (:mod:`repro.query.stats`): cardinalities,
per-attribute distinct counts (selectivity, join fan-out) and covering
spans/histograms (temporal-overlap factors).

:func:`choose_plan` enumerates the bounded candidate space
(:func:`repro.query.optimize.enumerate_plans`), scores every candidate
and picks the cheapest (ties resolve to the earliest candidate, so the
choice is deterministic).  Correctness never rests on the estimates:
every candidate is result-equivalent by construction, which
``tests/test_optimizer_metamorphic.py`` proves by executing all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from ..core.errors import SchemaMismatchError
from ..core.schema import TPSchema
from .ast import JoinNode, QueryNode, RelationRef, SelectionNode, SetOpNode
from .optimize import (
    MultiOpNode,
    OptimizedNode,
    enumerate_plans,
    schemas_from_stats,
)
from .stats import RelationStats, StatsCatalog

__all__ = [
    "Estimate",
    "PlanChoice",
    "choose_plan",
    "estimate",
    "order_multiway_children",
]

#: Assumed cardinality of a relation without statistics.
DEFAULT_ROWS = 32.0
#: Assumed fact-group count of a relation without statistics.
DEFAULT_GROUPS = 8.0
#: Selectivity of σ[a=v] when the attribute's distinct count is unknown.
DEFAULT_SELECTIVITY = 0.25
#: Assumed distinct count of a join attribute without statistics.
DEFAULT_DISTINCT = 8.0


@dataclass(frozen=True)
class Estimate:
    """Bottom-up estimate for one (sub)plan.

    ``rows``/``groups`` describe the node's output; ``cost`` is the
    cumulative estimated sweep rows of the whole subtree (the quantity
    plans are ranked by); ``distinct``/``span`` propagate the statistics
    the parent operators need.  ``schema`` is ``None`` when leaf
    statistics were unavailable — estimates still flow, from defaults.
    """

    rows: float
    cost: float
    groups: float
    schema: Optional[TPSchema]
    distinct: Mapping[str, float]
    span: Optional[tuple[int, int]]
    histogram: Optional[tuple[float, ...]]


@dataclass(frozen=True)
class PlanChoice:
    """Outcome of a cost-based choice over the candidate space."""

    chosen: OptimizedNode
    estimate: Estimate
    candidates: tuple[tuple[OptimizedNode, Estimate], ...]
    chosen_index: int

    @property
    def n_candidates(self) -> int:
        return len(self.candidates)


def choose_plan(
    query: QueryNode,
    stats: StatsCatalog,
    *,
    aggressive: bool = False,
    limit: int = 24,
) -> PlanChoice:
    """Enumerate the candidate space and pick the cheapest plan."""
    schemas = schemas_from_stats(stats, query)
    candidates = enumerate_plans(
        query, schemas=schemas, stats=stats, aggressive=aggressive, limit=limit
    )
    scored = tuple((node, estimate(node, stats)) for node in candidates)
    best_index = min(
        range(len(scored)), key=lambda i: (scored[i][1].cost, i)
    )
    return PlanChoice(
        chosen=scored[best_index][0],
        estimate=scored[best_index][1],
        candidates=scored,
        chosen_index=best_index,
    )


def order_multiway_children(node: OptimizedNode, stats: StatsCatalog) -> OptimizedNode:
    """Order every n-ary ∪/∩'s children by estimated cardinality.

    An ``aggressive`` rewrite: ∨/∧ are commutative and window boundaries
    are order-blind, so facts, intervals and probabilities are
    preserved, but the lineage argument order changes.  The first
    operand names the output's attributes, so it stays first unless all
    operands carry the same names (positionally compatible operands may
    differ in them, and a selection above resolves its attribute by
    name).
    """
    if isinstance(node, RelationRef):
        return node
    if isinstance(node, SelectionNode):
        return SelectionNode(
            order_multiway_children(node.child, stats), node.attribute, node.value
        )
    if isinstance(node, JoinNode):
        return JoinNode(
            node.kind,
            order_multiway_children(node.left, stats),
            order_multiway_children(node.right, stats),
            node.on,
        )
    if isinstance(node, SetOpNode):
        return SetOpNode(
            node.op,
            order_multiway_children(node.left, stats),
            order_multiway_children(node.right, stats),
        )
    assert isinstance(node, MultiOpNode)
    children = [order_multiway_children(c, stats) for c in node.children]
    estimates = {child: estimate(child, stats) for child in children}
    names = {
        e.schema.attributes if e.schema is not None else None
        for e in estimates.values()
    }
    pinned = 0 if len(names) == 1 and None not in names else 1
    ordered = children[:pinned] + sorted(  # stable: equal estimates keep their order
        children[pinned:], key=lambda child: estimates[child].rows
    )
    return MultiOpNode(node.op, tuple(ordered))


# ----------------------------------------------------------------------
# the estimator
# ----------------------------------------------------------------------
def estimate(node: Union[QueryNode, OptimizedNode], stats: StatsCatalog) -> Estimate:
    """Bottom-up cost/cardinality estimate of a logical plan."""
    if isinstance(node, RelationRef):
        return _leaf_estimate(node.name, stats)
    if isinstance(node, SelectionNode):
        return _selection_estimate(node, stats)
    if isinstance(node, (SetOpNode, MultiOpNode)):
        return _setop_estimate(node, stats)
    assert isinstance(node, JoinNode)
    return _join_estimate(node, stats)


def _leaf_estimate(name: str, stats: StatsCatalog) -> Estimate:
    entry: Optional[RelationStats] = stats.get(name)
    if entry is None:
        return Estimate(
            rows=DEFAULT_ROWS,
            cost=0.0,
            groups=DEFAULT_GROUPS,
            schema=None,
            distinct={},
            span=None,
            histogram=None,
        )
    return Estimate(
        rows=float(entry.n_tuples),
        cost=0.0,  # scans read the epoch-cached snapshot
        groups=float(max(1, entry.n_facts)),
        schema=TPSchema(tuple(entry.attributes)) if entry.attributes else None,
        distinct={a: float(d) for a, d in entry.distinct.items()},
        span=entry.span,
        histogram=entry.histogram or None,
    )


def _selection_estimate(node: SelectionNode, stats: StatsCatalog) -> Estimate:
    child = estimate(node.child, stats)
    d = child.distinct.get(node.attribute, 0.0)
    selectivity = 1.0 / d if d >= 1.0 else DEFAULT_SELECTIVITY
    selectivity = min(1.0, selectivity)
    rows = child.rows * selectivity
    distinct = {
        a: (1.0 if a == node.attribute else min(dv, max(rows, 1.0)))
        for a, dv in child.distinct.items()
    }
    histogram = (
        tuple(c * selectivity for c in child.histogram)  # fractional: a
        # truncating scale would zero sparse buckets and kill overlap
        # estimates downstream
        if child.histogram
        else None
    )
    return Estimate(
        rows=rows,
        cost=child.cost + child.rows,  # one filter pass over the input
        groups=max(1.0, child.groups * selectivity),
        schema=child.schema,
        distinct=distinct,
        span=child.span,
        histogram=histogram,
    )


def _overlap_fraction(a: Estimate, b: Estimate) -> float:
    """Estimated fraction of ``a``'s tuples that temporally overlap
    ``b``'s coverage — spans coarse, histograms refining."""
    if a.span is None or b.span is None:
        return 1.0  # unknown: assume full overlap (conservative)
    lo = max(a.span[0], b.span[0])
    hi = min(a.span[1], b.span[1])
    if hi <= lo:
        return 0.0
    width_a = max(1, a.span[1] - a.span[0])
    fraction = (hi - lo) / width_a
    if a.histogram:
        # Mass of a's histogram inside the intersection window.
        bucket = width_a / len(a.histogram)
        total = sum(a.histogram)
        if total:
            mass = sum(
                count
                for i, count in enumerate(a.histogram)
                if a.span[0] + (i + 1) * bucket > lo
                and a.span[0] + i * bucket < hi
            )
            fraction = mass / total
    if b.histogram:
        # Occupancy of b inside the window: empty b-buckets cannot match.
        width_b = max(1, b.span[1] - b.span[0])
        bucket = width_b / len(b.histogram)
        inside = [
            count
            for i, count in enumerate(b.histogram)
            if b.span[0] + (i + 1) * bucket > lo and b.span[0] + i * bucket < hi
        ]
        if inside:
            fraction *= sum(1 for c in inside if c) / len(inside)
    return max(0.0, min(1.0, fraction))


def _span_hull(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (min(a[0], b[0]), max(a[1], b[1]))


def _span_intersection(a, b):
    if a is None or b is None:
        return None
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if hi > lo else None


def _setop_estimate(node, stats: StatsCatalog) -> Estimate:
    """A binary sweep, or an n-ary ∪/∩ priced as the left fold it runs:
    each step sweeps the running intermediate plus the next child, so an
    n-ary node costs exactly what its left-deep binary chain costs."""
    if isinstance(node, MultiOpNode):
        children = [estimate(c, stats) for c in node.children]
    else:
        children = [estimate(node.left, stats), estimate(node.right, stats)]
    result = children[0]
    for child in children[1:]:
        result = _sweep_estimate(node.op, result, child)
    return result


def _sweep_estimate(op: str, left: Estimate, right: Estimate) -> Estimate:
    sweep = left.rows + right.rows
    groups = max(left.groups, right.groups)
    cost = left.cost + right.cost + sweep
    if op == "union":
        rows = sweep
        distinct = dict(left.distinct)
        for a, d in right.distinct.items():
            distinct[a] = max(distinct.get(a, 0.0), d)
        span = _span_hull(left.span, right.span)
    elif op == "intersect":
        rows = min(left.rows, right.rows) * _overlap_fraction(left, right)
        distinct = {a: min(d, max(rows, 1.0)) for a, d in left.distinct.items()}
        span = _span_intersection(left.span, right.span)
    else:  # except: the minuend's coverage survives, split and filtered
        rows = left.rows
        distinct = dict(left.distinct)
        span = left.span
    return Estimate(
        rows=rows,
        cost=cost,
        groups=groups,
        schema=left.schema,
        distinct=distinct,
        span=span,
        histogram=None,
    )


def _join_estimate(node: JoinNode, stats: StatsCatalog) -> Estimate:
    from ..algebra.join import join_layout_from_schemas

    left = estimate(node.left, stats)
    right = estimate(node.right, stats)
    layout = None
    if left.schema is not None and right.schema is not None:
        try:
            layout = join_layout_from_schemas(
                node.kind, left.schema, right.schema, node.on
            )
        except SchemaMismatchError:
            layout = None
    if layout is not None:
        join_attrs = layout.join_attrs
        out_schema = layout.out_schema
    else:
        join_attrs = tuple(node.on) if node.on else ()
        out_schema = None
    dk_left = max(
        (left.distinct.get(a, 0.0) for a in join_attrs), default=0.0
    ) or min(DEFAULT_DISTINCT, max(left.groups, 1.0))
    dk_right = max(
        (right.distinct.get(a, 0.0) for a in join_attrs), default=0.0
    ) or min(DEFAULT_DISTINCT, max(right.groups, 1.0))
    pairs = (
        left.rows
        * right.rows
        / max(dk_left, dk_right, 1.0)
        * _overlap_fraction(left, right)
    )
    kind = node.kind
    if kind == "inner":
        rows = pairs
        span = _span_intersection(left.span, right.span)
    elif kind == "left_outer":
        rows = pairs + left.rows
        span = left.span
    elif kind == "right_outer":
        rows = pairs + right.rows
        span = right.span
    elif kind == "full_outer":
        rows = pairs + left.rows + right.rows
        span = _span_hull(left.span, right.span)
    else:  # anti
        rows = left.rows
        span = left.span
    key_groups = max(1.0, min(dk_left, dk_right))
    sweep = left.rows + right.rows + pairs
    cost = left.cost + right.cost + sweep
    distinct: dict[str, float] = {}
    if out_schema is not None and layout is not None:
        r_arity = left.schema.arity
        for pos, name in enumerate(out_schema.attributes):
            if pos < r_arity:
                source = left.distinct.get(left.schema.attributes[pos], 0.0)
            else:
                s_name = right.schema.attributes[layout.s_rest_idx[pos - r_arity]]
                source = right.distinct.get(s_name, 0.0)
            if source:
                distinct[name] = min(source, max(rows, 1.0))
    return Estimate(
        rows=rows,
        cost=cost,
        groups=key_groups,
        schema=out_schema,
        distinct=distinct,
        span=span,
        histogram=None,
    )
