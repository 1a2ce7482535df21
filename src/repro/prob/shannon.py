"""Exact probability valuation by Shannon expansion.

For general Boolean formulas (repeated variables allowed), the marginal
probability over independent variables is computed by recursively
expanding on a variable x::

    P(f) = p(x) · P(f|x) + (1 − p(x)) · P(f|¬x)

with memoization on the restricted formulas.  Independent subformulas
(sharing no variables with the rest of a conjunction/disjunction) are
factorized first, which makes the expansion collapse to the linear 1OF
computation whenever possible and keeps the exponential blow-up confined
to genuinely entangled variable groups.

This mirrors the "exact algorithms" route of the paper (Section III cites
Dalvi & Suciu); TP set queries with repeating
subgoals are #P-hard in general, so the worst case is unavoidable.
"""

from __future__ import annotations

from typing import Mapping

from ..core.errors import UnknownVariableError
from ..lineage.formula import (
    And,
    Bottom,
    Lineage,
    Not,
    Or,
    Top,
    Var,
    restrict,
    variable_occurrences,
)

__all__ = ["probability_shannon"]


def probability_shannon(
    formula: Lineage,
    probabilities: Mapping[str, float],
) -> float:
    """Exact marginal probability of an arbitrary lineage formula."""
    _check_variables(formula, probabilities)
    return _prob(formula, probabilities, {})


def _check_variables(formula: Lineage, probabilities: Mapping[str, float]) -> None:
    for name in variable_occurrences(formula):
        if name not in probabilities:
            raise UnknownVariableError(
                f"no probability registered for lineage variable {name!r}"
            )


def _prob(
    node: Lineage,
    probabilities: Mapping[str, float],
    memo: dict[Lineage, float],
) -> float:
    if isinstance(node, Top):
        return 1.0
    if isinstance(node, Bottom):
        return 0.0
    if isinstance(node, Var):
        return probabilities[node.name]
    cached = memo.get(node)
    if cached is not None:
        return cached

    if isinstance(node, Not):
        value = 1.0 - _prob(node.child, probabilities, memo)
        memo[node] = value
        return value

    occurrences = variable_occurrences(node)
    repeated = [name for name, count in occurrences.items() if count > 1]
    if not repeated:
        # The subformula is in 1OF: factorize directly.
        value = _prob_1of(node, probabilities)
        memo[node] = value
        return value

    # Expand on the most frequent repeated variable — heuristically the
    # biggest simplification per expansion step.
    pivot = max(repeated, key=lambda name: occurrences[name])
    p = probabilities[pivot]
    high = _prob(restrict(node, pivot, True), probabilities, memo)
    low = _prob(restrict(node, pivot, False), probabilities, memo)
    value = p * high + (1.0 - p) * low
    memo[node] = value
    return value


def _prob_1of(node: Lineage, probabilities: Mapping[str, float]) -> float:
    if isinstance(node, Var):
        return probabilities[node.name]
    if isinstance(node, Not):
        return 1.0 - _prob_1of(node.child, probabilities)
    if isinstance(node, And):
        product = 1.0
        for child in node.children:
            product *= _prob_1of(child, probabilities)
        return product
    if isinstance(node, Or):
        complement = 1.0
        for child in node.children:
            complement *= 1.0 - _prob_1of(child, probabilities)
        return 1.0 - complement
    if isinstance(node, Top):
        return 1.0
    if isinstance(node, Bottom):
        return 0.0
    raise TypeError(f"not a lineage formula: {node!r}")
