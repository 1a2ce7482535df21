"""Exact probability valuation by Shannon expansion.

For general Boolean formulas (repeated variables allowed), the marginal
probability over independent variables is computed by recursively
expanding on a variable x::

    P(f) = p(x) · P(f|x) + (1 − p(x)) · P(f|¬x)

One walk serves the batch and the set-operation sweep (DESIGN.md §6.3).
It reads an interned node in place, or an *operand tree*: a variable,
⊤, ⊥, or a tuple ``(tag, child, …)`` read off a node
(:func:`operand_tree`) or assembled by the sweep (:func:`tree_connect`,
:func:`tree_not`).  The walk decides one-occurrence form by leaf
identity as it goes, and values such a formula in the float order of
``prob.exact_1of._prob``, the reference walk.  Only a formula with a
repeated variable is copied into an operand tree and expanded.  The
tree builders and the cofactor step do what ``land`` / ``lor`` /
``lnot`` do — same-op operands splice, ⊤/⊥ fold away or absorb, a
one-child connective collapses, ¬¬ cancels — so each cofactor is the
tree of the node ``restrict`` would intern, and no node is built.  The
pivot is the most frequent repeated variable, ties going to the first
in leaf order.  TP set queries with repeating subgoals are #P-hard in
general (Section III cites Dalvi & Suciu), so the worst case is
unavoidable.
"""

from __future__ import annotations

from typing import Mapping, Optional, Union

from ..core.errors import UnknownVariableError
from ..lineage.formula import (
    AND,
    FALSE,
    NOT,
    OR,
    TRUE,
    And,
    Lineage,
    Not,
    Or,
    Var,
    variable_occurrences,
)

__all__ = [
    "probability_shannon",
    "operand_tree",
    "tree_connect",
    "tree_not",
    "tree_probability",
    "NOT",
    "AND",
    "OR",
]

#: A variable, ⊤, ⊥, or ``(tag, child, …)``.
Tree = Union[Lineage, tuple]


def probability_shannon(
    formula: Lineage,
    probabilities: Mapping[str, float],
) -> float:
    """Exact marginal probability of an arbitrary lineage formula."""
    value = tree_probability(formula, probabilities, float("inf"))
    if value is None:
        for name in variable_occurrences(formula):
            if name not in probabilities:
                raise UnknownVariableError(
                    f"no probability registered for lineage variable {name!r}"
                )
    return value  # type: ignore[return-value]


def operand_tree(node: Lineage) -> Tree:
    """The operand tree of ``node`` as it stands: a connective the
    constructors did not flatten stays unflattened."""
    kind = type(node)
    if kind is Not:
        return (NOT, operand_tree(node.child))
    if kind is And:
        return (AND, *map(operand_tree, node.children))
    if kind is Or:
        return (OR, *map(operand_tree, node.children))
    return node


def tree_connect(tag: int, parts) -> Tree:
    """``land`` (tag :data:`AND`) or ``lor`` (:data:`OR`) over operand
    trees."""
    unit, zero = (TRUE, FALSE) if tag == AND else (FALSE, TRUE)
    flat: list = []
    for part in parts:
        if type(part) is tuple:
            if part[0] == tag:
                flat += part[1:]
                continue
        elif part is unit:
            continue
        elif part is zero:
            return zero
        flat += (part,)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return (tag, *flat)


def tree_not(part: Tree) -> Tree:
    """``lnot`` over an operand tree."""
    if type(part) is tuple:
        if part[0] == NOT:
            return part[1]
    elif part is TRUE:
        return FALSE
    elif part is FALSE:
        return TRUE
    return (NOT, part)


def tree_probability(
    tree: Tree,
    probabilities: Mapping[str, float],
    limit: float,
    memo: Optional[dict] = None,
) -> Optional[float]:
    """``p`` of ``tree`` — a node or an operand tree — 1OF, else
    Shannon, or None when ``probabilities`` lacks one of its variables
    or more than ``limit`` of them repeat (the batch's Monte-Carlo
    case)."""
    try:
        # One-occurrence form is decided by leaf identity on the way.
        return _value(tree, probabilities, {})
    except KeyError:
        return None
    except _Repeated:
        pass
    if type(tree) is not tuple:
        tree = operand_tree(tree)
    if tree[0] == NOT:  # type: ignore[index]
        value = tree_probability(tree[1], probabilities, limit, memo)  # type: ignore[index]
        return None if value is None else 1.0 - value
    if memo is not None and tree in memo:
        return memo[tree]
    counts: dict[Var, int] = {}  # in leaf order of first occurrence
    for var in _leaves(tree, []):
        if var.name not in probabilities:
            return None
        counts[var] = counts[var] + 1 if var in counts else 1
    pivot = None
    repeated = 0
    for var in counts:
        count = counts[var]
        if count > 1:
            repeated += 1
            if pivot is None or count > counts[pivot]:
                pivot = var
    if repeated > limit:
        return None
    p = probabilities[pivot.name]  # type: ignore[union-attr]
    high = _cofactor(tree, pivot, TRUE)  # type: ignore[arg-type]
    low = _cofactor(tree, pivot, FALSE)  # type: ignore[arg-type]
    if repeated == 1:  # both cofactors are in one-occurrence form
        return p * _value(high, probabilities, {}) + (1.0 - p) * _value(
            low, probabilities, {}
        )
    if memo is None:
        memo = {}
    value = memo[tree] = p * tree_probability(  # type: ignore[operator]
        high, probabilities, limit, memo
    ) + (1.0 - p) * tree_probability(low, probabilities, limit, memo)  # type: ignore[operator]
    return value


class _Repeated(Exception):
    """A variable occurs twice: the tree is not in one-occurrence form."""


def _leaves(tree: Tree, out: list) -> list:
    """The variables of ``tree`` in leaf order, appended to ``out``."""
    if type(tree) is Var:
        out += (tree,)
    elif type(tree) is tuple:
        for child in tree[1:]:
            if type(child) is Var:
                out += (child,)
            else:
                _leaves(child, out)
    return out


def _cofactor(tree: tuple, x: Var, value: Lineage) -> Tree:
    """The cofactor of ``tree`` at ``x = value``, shaped as ``restrict``
    shapes it: a subtree without ``x`` comes back as it is."""
    parts: list = []
    changed = False
    for child in tree[1:]:
        part = _cofactor(child, x, value) if type(child) is tuple else value if child is x else child
        changed = changed or part is not child
        parts += (part,)
    if not changed:
        return tree
    return tree_not(parts[0]) if tree[0] == NOT else tree_connect(tree[0], parts)


def _value(tree: Tree, probabilities: Mapping[str, float], seen: dict) -> float:
    """``p`` of a node or tree in one-occurrence form, in the float order
    of ``exact_1of._prob``; a variable, or a negated one, is read in
    place.  Each variable enters ``seen``, and one found there raises
    :class:`_Repeated`; one ``probabilities`` lacks raises ``KeyError``."""
    kind = type(tree)
    if kind is tuple:
        tag = tree[0]
        if tag == NOT:
            return 1.0 - _value(tree[1], probabilities, seen)
        children = tree[1:]
    elif kind is Var:
        if tree in seen:
            raise _Repeated
        seen[tree] = None
        return probabilities[tree.name]
    elif kind is And:
        tag = AND
        children = tree.children
    elif kind is Or:
        tag = OR
        children = tree.children
    elif kind is Not:
        return 1.0 - _value(tree.child, probabilities, seen)
    else:
        return 1.0 if tree is TRUE else 0.0
    product = 1.0  # of the children's values (∧) or of their complements (∨)
    for child in children:
        kind = type(child)
        if kind is Var:
            if child in seen:
                raise _Repeated
            seen[child] = None
            value = probabilities[child.name]
        elif kind is Not or kind is tuple and child[0] == NOT:
            child = child.child if kind is Not else child[1]
            if type(child) is Var:
                if child in seen:
                    raise _Repeated
                seen[child] = None
                value = 1.0 - probabilities[child.name]
            else:
                value = 1.0 - _value(child, probabilities, seen)
        else:
            value = _value(child, probabilities, seen)
        product *= value if tag == AND else 1.0 - value
    return product if tag == AND else 1.0 - product
