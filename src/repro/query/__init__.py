"""TP set queries: Def. 4 grammar, parsing, analysis, planning, execution."""

from .analysis import QueryAnalysis, analyze, infer_schema, is_non_repeating
from .ast import (
    JOIN_NODE_SYMBOLS,
    JoinNode,
    OP_TOKENS,
    QueryNode,
    RelationRef,
    SelectionNode,
    SetOpNode,
    iter_nodes,
    relation_references,
)
from .cost import Estimate, PlanChoice, choose_plan, estimate
from .executor import execute_plan
from .explain import render_explain
from .fingerprint import canonical_key
from .optimize import (
    MultiOpNode,
    OPTIMIZE_LEVELS,
    OptimizedNode,
    canonical_form,
    enumerate_plans,
)
from .parser import parse_query, strip_explain_prefix
from .planner import (
    JoinPlan,
    MultiSetOpPlan,
    PhysicalPlan,
    ScanPlan,
    SelectPlan,
    SetOpPlan,
    plan_query,
)
from .stats import RelationStats, StatsCatalog, relation_stats

__all__ = [
    "JOIN_NODE_SYMBOLS",
    "Estimate",
    "JoinNode",
    "JoinPlan",
    "MultiOpNode",
    "MultiSetOpPlan",
    "OP_TOKENS",
    "OPTIMIZE_LEVELS",
    "OptimizedNode",
    "PhysicalPlan",
    "PlanChoice",
    "QueryAnalysis",
    "QueryNode",
    "RelationRef",
    "RelationStats",
    "ScanPlan",
    "SelectPlan",
    "SelectionNode",
    "SetOpNode",
    "SetOpPlan",
    "StatsCatalog",
    "analyze",
    "canonical_form",
    "canonical_key",
    "choose_plan",
    "enumerate_plans",
    "estimate",
    "execute_plan",
    "infer_schema",
    "is_non_repeating",
    "iter_nodes",
    "parse_query",
    "plan_query",
    "relation_references",
    "relation_stats",
    "render_explain",
    "strip_explain_prefix",
]
