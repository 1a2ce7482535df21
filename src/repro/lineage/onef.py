"""One-occurrence-form (1OF) detection.

A Boolean formula is in 1OF iff no variable occurs more than once
(paper, Section V-B).  Theorem 1 shows that any *non-repeating* TP set
query over duplicate-free relations yields lineages in 1OF, and
Corollary 1 exploits that marginal probabilities of 1OF formulas over
independent variables are computable in time linear in the formula size.

Both predicates walk the formula (DESIGN.md §4).  The valuation does not
call them: its walk (:mod:`repro.prob.shannon`) decides 1OF by leaf
identity as it values the formula.
"""

from __future__ import annotations

from .formula import And, Bottom, Lineage, Not, Or, Top, Var, variable_occurrences

__all__ = ["is_one_occurrence_form", "check_one_occurrence_form"]


def is_one_occurrence_form(formula: Lineage) -> bool:
    """True iff no variable occurs more than once in ``formula``.

    Linear in the formula size, aborting at the first repetition.
    """
    seen: set[str] = set()
    stack: list[Lineage] = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if node.name in seen:
                return False
            seen.add(node.name)
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        elif not isinstance(node, (Top, Bottom)):
            raise TypeError(f"not a lineage formula: {node!r}")
    return True


def check_one_occurrence_form(formula: Lineage) -> list[str]:
    """Return the variables that occur more than once (empty when in 1OF).

    Useful in diagnostics: the query analyzer reports exactly which
    repeated subgoals break the PTIME guarantee of Corollary 1.
    """
    return sorted(name for name, n in variable_occurrences(formula).items() if n > 1)
