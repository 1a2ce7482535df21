"""Execution of physical TP set-query plans.

The executor walks a physical plan bottom-up, computing every set
operation with its bound algorithm.  Probabilities are materialized once,
by the *root* operator — intermediate relations carry lineage only, which
mirrors how lineage-based probabilistic databases defer confidence
computation to the end of query evaluation (and keeps repeated-subgoal
queries correct: intermediate 1OF-based shortcuts are never taken).

Performance notes (DESIGN.md §5–§6): intermediate set-operation results
are emitted in ``(F, Ts)`` order and carry their sortedness flag, so a
chain of operations sorts each base relation at most once; the root
operator valuates its output lineages in a single batch — a formula
shared by many result tuples is valuated once — and only then builds its
output tuples, each exactly once, with the final probability.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..core.errors import UnknownRelationError
from ..core.relation import TPRelation
from ..core.setops import multi_intersect, multi_union
from .planner import (
    JoinPlan,
    MultiSetOpPlan,
    PhysicalPlan,
    ScanPlan,
    SelectPlan,
    SetOpPlan,
)

__all__ = ["execute_plan"]

#: Per-node observation callback: (path, plan node, result relation).
#: ``path`` addresses the node positionally — ``()`` is the root and
#: ``path + (i,)`` the i-th child — the scheme ``EXPLAIN``'s
#: estimates-vs-actuals rendering keys on.
Observer = Callable[[tuple, PhysicalPlan, TPRelation], None]


def execute_plan(
    plan: PhysicalPlan,
    catalog: Mapping[str, TPRelation],
    *,
    materialize: bool = True,
    observe: Optional[Observer] = None,
) -> TPRelation:
    """Evaluate a physical plan against a catalog of named relations.

    ``observe`` is called once per plan node with its result
    (``EXPLAIN`` uses this to report actual row counts): interior nodes
    are lineage-only; the root is what this call returns — materialized
    under ``materialize=True``.
    """
    return _run(plan, catalog, observe, (), materialize)


def _run(
    plan: PhysicalPlan,
    catalog: Mapping[str, TPRelation],
    observe: Optional[Observer],
    path: tuple,
    materialize: bool = False,
) -> TPRelation:
    result = _evaluate(plan, catalog, observe, path, materialize)
    if observe is not None:
        observe(path, plan, result)
    return result


def _evaluate(
    plan: PhysicalPlan,
    catalog: Mapping[str, TPRelation],
    observe: Optional[Observer],
    path: tuple,
    materialize: bool,
) -> TPRelation:
    """One plan node; only the root is asked to ``materialize``.

    Operators valuate and construct their own output in one pass; scans
    and selections hand on existing tuples, so a root of that kind
    materializes whatever is still pending (nothing, over base
    relations).

    A selection directly over a scan goes to the catalog's own
    ``select(name, **equalities)`` when it has one — the database's
    catalog answers it from a view's selected fact groups, without
    assembling the whole view.  Under ``observe`` the scan runs as a
    node of its own, so ``EXPLAIN ANALYZE`` still reports its full row
    count."""
    if isinstance(plan, ScanPlan):
        try:
            result = catalog[plan.relation]
        except KeyError as exc:
            raise _unknown(plan.relation) from exc
        return result.materialize_probabilities() if materialize else result
    if isinstance(plan, SelectPlan):
        equality = {plan.attribute: plan.value}
        child = plan.child
        if observe is None and isinstance(child, ScanPlan) and hasattr(catalog, "select"):
            if child.relation not in catalog:
                raise _unknown(child.relation)
            result = catalog.select(child.relation, **equality)
        else:
            result = _run(child, catalog, observe, path + (0,)).select(**equality)
        return result.materialize_probabilities() if materialize else result
    if isinstance(plan, MultiSetOpPlan):
        inputs = [
            _run(child, catalog, observe, path + (i,))
            for i, child in enumerate(plan.children)
        ]
        combine = multi_union if plan.op == "union" else multi_intersect
        return combine(*inputs, materialize=materialize)
    if isinstance(plan, JoinPlan):
        left = _run(plan.left, catalog, observe, path + (0,))
        right = _run(plan.right, catalog, observe, path + (1,))
        return plan.algorithm.compute(
            plan.kind, left, right, on=plan.on, materialize=materialize
        )
    assert isinstance(plan, SetOpPlan)
    left = _run(plan.left, catalog, observe, path + (0,))
    right = _run(plan.right, catalog, observe, path + (1,))
    return plan.algorithm.compute(plan.op, left, right, materialize=materialize)


def _unknown(name: str) -> UnknownRelationError:
    return UnknownRelationError(f"query references unknown relation {name!r}")
