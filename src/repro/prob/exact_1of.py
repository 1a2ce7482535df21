"""Linear-time exact probability valuation for 1OF formulas.

For a Boolean formula in one-occurrence form over independent random
variables, marginal probabilities factorize over the AST:

* ``P(¬f) = 1 − P(f)``
* ``P(f₁ ∧ … ∧ fₙ) = ∏ P(fᵢ)``   (subformulas share no variables)
* ``P(f₁ ∨ … ∨ fₙ) = 1 − ∏ (1 − P(fᵢ))``

This is the PTIME evaluation behind Corollary 1 of the paper: every
non-repeating TP set query over duplicate-free relations yields 1OF
lineages (Theorem 1), so their answer probabilities are linear in the
lineage size.  The read path values them with the walk of
:mod:`repro.prob.shannon`, which decides 1OF as it goes; :func:`_prob`
is the independent node walk that ``Method.ONE_OCCURRENCE`` runs and the
tests check that walk against, float for float (DESIGN.md §6.3).
"""

from __future__ import annotations

from typing import Mapping

from ..core.errors import UnknownVariableError, ValuationError
from ..lineage.formula import And, Bottom, Lineage, Not, Or, Top, Var
from ..lineage.onef import is_one_occurrence_form

__all__ = ["probability_1of"]


def probability_1of(formula: Lineage, probabilities: Mapping[str, float]) -> float:
    """Exact marginal probability of a 1OF ``formula``.

    ``probabilities`` maps every variable of the formula to its marginal
    probability.  A formula with a repeated variable is refused with
    :class:`~repro.core.errors.ValuationError`: the factorized
    computation is *incorrect* for it.
    """
    if not is_one_occurrence_form(formula):
        raise ValuationError(
            "formula is not in one-occurrence form; "
            "use the Shannon valuation instead"
        )
    return _prob(formula, probabilities)


def _missing_variable(name: str) -> UnknownVariableError:
    """The canonical error for a lineage variable without a probability."""
    return UnknownVariableError(
        f"no probability registered for lineage variable {name!r}"
    )


def _prob(node: Lineage, probabilities: Mapping[str, float]) -> float:
    # Children that are plain variables — the shape Table-I concatenation
    # emits for every set-operation window — are folded inline, sparing
    # one recursive call per leaf.  One handler per call wraps the raw
    # KeyError of a direct lookup; UnknownVariableError subclasses
    # KeyError, so recursion's already-converted errors must pass through
    # unwrapped.
    kind = type(node)
    try:
        if kind is Var:
            return probabilities[node.name]
        if kind is Not:
            child = node.child
            if type(child) is Var:
                return 1.0 - probabilities[child.name]
            return 1.0 - _prob(child, probabilities)
        if kind is And:
            product = 1.0
            for child in node.children:
                if type(child) is Var:
                    product *= probabilities[child.name]
                else:
                    product *= _prob(child, probabilities)
            return product
        if kind is Or:
            complement = 1.0
            for child in node.children:
                if type(child) is Var:
                    complement *= 1.0 - probabilities[child.name]
                else:
                    complement *= 1.0 - _prob(child, probabilities)
            return 1.0 - complement
    except KeyError as exc:
        if isinstance(exc, UnknownVariableError):
            raise
        raise _missing_variable(exc.args[0]) from exc
    if kind is Top:
        return 1.0
    if kind is Bottom:
        return 0.0
    raise TypeError(f"not a lineage formula: {node!r}")
