"""``EXPLAIN`` rendering: the chosen plan with estimates vs. actuals.

The text layout is pinned by golden-file tests
(``tests/test_explain_golden.py``) so plan regressions — a rewrite that
stops firing, an estimate that drifts — show up as readable diffs::

    query: (c − (a ∪ b))
    optimizer: safe — plan 4/4, est cost 13
    Except[LAWA]  (est rows=9, cost=13, actual rows=6)
      Scan[c]  (est rows=4, cost=0, actual rows=4)
      Union[LAWA]  (est rows=5, cost=5, actual rows=5)
        Scan[a]  (est rows=3, cost=0, actual rows=3)
        Scan[b]  (est rows=2, cost=0, actual rows=2)
    --
    <static analysis report>

Estimates re-derive from the statistics catalog per node (the same
numbers the cost-based choice used); actual row counts come from the
executor's per-node observer and are present only under
``analyze=True`` (the plan must run to know them).
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from .analysis import QueryAnalysis
from .ast import JoinNode, QueryNode, RelationRef, SelectionNode, SetOpNode
from .cost import PlanChoice, estimate
from .optimize import MultiOpNode, OptimizedNode
from .planner import (
    JoinPlan,
    MultiSetOpPlan,
    PhysicalPlan,
    ScanPlan,
    SelectPlan,
    SetOpPlan,
)
from .stats import StatsCatalog

__all__ = ["render_explain"]


def _fmt(value: float) -> str:
    """Compact, platform-stable number rendering for the golden files."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.1f}"


def _label(plan: PhysicalPlan) -> str:
    if isinstance(plan, ScanPlan):
        return f"Scan[{plan.relation}]"
    if isinstance(plan, SelectPlan):
        return f"Select[{plan.attribute}={plan.value!r}]"
    if isinstance(plan, MultiSetOpPlan):
        return f"{plan.op.capitalize()}[LAWA×{len(plan.children)}]"
    if isinstance(plan, JoinPlan):
        label = "".join(part.capitalize() for part in plan.kind.split("_"))
        on_text = "" if plan.on is None else " on(" + ", ".join(plan.on) + ")"
        return f"{label}Join[{plan.algorithm.name}]{on_text}"
    assert isinstance(plan, SetOpPlan)
    return f"{plan.op.capitalize()}[{plan.algorithm.name}]"


def _children(
    node: OptimizedNode, plan: PhysicalPlan
) -> list[tuple[OptimizedNode, PhysicalPlan]]:
    """Matching child pairs — the planner lowers 1:1, so shapes match."""
    if isinstance(plan, ScanPlan):
        return []
    if isinstance(plan, SelectPlan):
        assert isinstance(node, SelectionNode)
        return [(node.child, plan.child)]
    if isinstance(plan, MultiSetOpPlan):
        assert isinstance(node, MultiOpNode)
        return list(zip(node.children, plan.children))
    assert isinstance(node, (SetOpNode, JoinNode))
    return [(node.left, plan.left), (node.right, plan.right)]


def _render_node(
    node: OptimizedNode,
    plan: PhysicalPlan,
    stats: StatsCatalog,
    actuals: Optional[Mapping[tuple, int]],
    path: tuple,
    indent: int,
    lines: list[str],
) -> None:
    est = estimate(node, stats)
    fields = [f"est rows={_fmt(est.rows)}", f"cost={_fmt(est.cost)}"]
    if actuals is not None and path in actuals:
        fields.append(f"actual rows={actuals[path]}")
    lines.append(" " * indent + _label(plan) + "  (" + ", ".join(fields) + ")")
    for i, (child_node, child_plan) in enumerate(_children(node, plan)):
        _render_node(
            child_node, child_plan, stats, actuals, path + (i,), indent + 2, lines
        )


def render_explain(
    node: Union[QueryNode, OptimizedNode],
    plan: PhysicalPlan,
    stats: StatsCatalog,
    *,
    level: str,
    analysis: QueryAnalysis,
    choice: Optional[PlanChoice] = None,
    actuals: Optional[Mapping[tuple, int]] = None,
) -> str:
    """The full ``EXPLAIN`` report for one (logical, physical) plan pair."""
    lines = [f"query: {node if not isinstance(node, RelationRef) else node.name}"]
    if choice is not None:
        lines.append(
            f"optimizer: {level} — plan {choice.chosen_index + 1}/"
            f"{choice.n_candidates}, est cost {_fmt(choice.estimate.cost)}"
        )
    else:
        lines.append(f"optimizer: {level}")
    _render_node(node, plan, stats, actuals, (), 0, lines)
    lines.append("--")
    lines.append(analysis.describe())
    return "\n".join(lines)
