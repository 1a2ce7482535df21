"""Boolean lineage formulas — hash-consed nodes that hold their structure.

A lineage expression λ is a Boolean formula over tuple identifiers with the
connectives ¬, ∧ and ∨ (paper, Section III).  Tuple identifiers denote
independent Boolean random variables.  Base tuples carry the atomic formula
consisting of their own identifier; result tuples carry formulas assembled
by the lineage-concatenation functions of Table I.

Design notes
------------
* Formulas are immutable and hashable.  Equality is *syntactic* — the paper
  (footnote 1) explicitly resorts to syntactic comparison because logical
  equivalence of Boolean formulas is co-NP-complete.  The smart
  constructors :func:`land`, :func:`lor` and :func:`lnot` perform only
  cheap, order-preserving normalizations (flattening of directly nested
  conjunctions/disjunctions, double-negation elimination, constant
  folding), so two formulas built the same way compare equal while the
  printed form still matches the paper's examples (e.g. ``c2∧¬(a1∨b1)``).
* **Hash-consing** (DESIGN.md §4): every node is interned in a per-class
  weak table, so syntactically equal formulas are *identity*-equal and
  ``==`` / ``hash`` collapse to pointer comparisons.  The set-operation
  kernels exploit this heavily — adjacent LAWA windows reuse the same
  valid tuples, hence concatenate the identical lineage objects, and a
  batch valuation can deduplicate on node identity.
* **Structure only** (DESIGN.md §4): a node holds its name, child or
  children and nothing derived from them.  The structural queries
  :func:`formula_size`, :func:`variables`, :func:`variable_occurrences`
  and :func:`repro.lineage.onef.is_one_occurrence_form` walk the
  formula; the valuation walk (:mod:`repro.prob.shannon`) decides
  one-occurrence form by leaf identity as it goes.
* Interning is per-process.  Pickling round-trips through
  :meth:`__reduce__`, which rebuilds (and thereby re-interns) nodes, so
  identity equality survives serialization.  A new node enters its
  table by ``setdefault``, an atomic insert-if-absent under the GIL, so
  of two threads building one formula at once the second gets the
  first's node; replacing a dead entry takes a lock (DESIGN.md §4.3).
* ``Top`` and ``Bottom`` (true/false) never appear in lineage attached to
  tuples; they exist for the restriction step of Shannon expansion in
  :mod:`repro.prob`.
"""

from __future__ import annotations

import threading
import weakref
from operator import is_
from typing import Callable, Iterable, Mapping

__all__ = [
    "Lineage",
    "Var",
    "Not",
    "And",
    "Or",
    "Top",
    "Bottom",
    "TRUE",
    "FALSE",
    "land",
    "lor",
    "lnot",
    "variables",
    "variable_names",
    "referenced_variables",
    "variable_occurrences",
    "evaluate",
    "restrict",
    "formula_size",
    "intern_stats",
    "tree_text",
    "NOT",
    "AND",
    "OR",
]



class _NodeRef(weakref.ref):
    """Weak reference to an interned node that carries its table key.

    Deliberately defines neither ``__new__`` nor ``__init__``: the
    reference is created by the C-level ``weakref.ref`` constructor and
    the key is stored with one slot write, so interning a node costs no
    Python-level call (DESIGN.md §4).
    """

    __slots__ = ("key",)

    key: object


#: Guards the two table writes that read before they write: a dead
#: reference's removal and its replacement by a new node.  Reentrant, as
#: a node may die (and its callback run) on the thread that holds it.
_TABLE_LOCK = threading.RLock()


def _intern_table() -> tuple[dict, Callable[[_NodeRef], None]]:
    """A fresh intern table and the removal callback of its references."""
    table: dict = {}
    # Bound here, not read from the module at call time: callbacks still
    # run during interpreter shutdown, after module globals are cleared.
    lock = _TABLE_LOCK

    def drop(ref: _NodeRef) -> None:
        # Only if the entry is still *that* reference: a node re-created
        # under the same key after its predecessor died owns the entry
        # now, and the dead reference's late callback must not evict it.
        key = ref.key
        with lock:
            if table.get(key) is ref:
                del table[key]

    return table, drop


def _settle(table: dict, ref: _NodeRef) -> "Lineage":
    """The node interned under ``ref.key`` once ``setdefault`` found the
    key taken: the live winner of a race, or, over a dead predecessor
    whose callback has not run yet, ``ref``'s own node."""
    with _TABLE_LOCK:
        current = table.get(ref.key)
        node = current() if current is not None else None
        if node is None:
            table[ref.key] = ref
            node = ref()
    return node


# Per-class intern tables: key -> weak reference to the canonical node.
# Weak references let formulas that nothing retains be collected together
# with their table entries, so long-running services do not leak every
# lineage ever built.
_INTERN_VAR, _drop_var = _intern_table()  # name -> Var
_INTERN_NOT, _drop_not = _intern_table()  # child -> Not
_INTERN_AND, _drop_and = _intern_table()  # children -> And
_INTERN_OR, _drop_or = _intern_table()  # children -> Or

_new = object.__new__

#: The tags of an operand tree's connectives: a formula written as a
#: variable, ⊤, ⊥, or a tuple ``(tag, child, …)`` that mirrors a node
#: without interning one (the Shannon walk's and the renderer's input).
NOT, AND, OR = 0, 1, 2


class Lineage:
    """Abstract base class of all lineage formula nodes.

    Supports the Python operators ``&``, ``|`` and ``~`` as shorthands for
    the smart constructors, so tests and examples can write
    ``c1 & ~(a1 | b1)``.
    """

    __slots__ = ()

    def __and__(self, other: "Lineage") -> "Lineage":
        return land(self, other)

    def __or__(self, other: "Lineage") -> "Lineage":
        return lor(self, other)

    def __invert__(self) -> "Lineage":
        return lnot(self)

    def __str__(self) -> str:
        return _format(self, parent_prec=0)


class Var(Lineage):
    """An atomic lineage variable — the identifier of a base tuple."""

    __slots__ = ("name", "__weakref__")

    def __new__(cls, name: str) -> "Var":
        ref = _INTERN_VAR.get(name)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        self.name = name
        ref = _NodeRef(self, _drop_var)
        ref.key = name
        if _INTERN_VAR.setdefault(name, ref) is not ref:
            return _settle(_INTERN_VAR, ref)
        return self

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Not(Lineage):
    """Negation ¬λ."""

    __slots__ = ("child", "__weakref__")

    def __new__(cls, child: Lineage) -> "Not":
        ref = _INTERN_NOT.get(child)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        self.child = child
        ref = _NodeRef(self, _drop_not)
        ref.key = child
        if _INTERN_NOT.setdefault(child, ref) is not ref:
            return _settle(_INTERN_NOT, ref)
        return self

    def __reduce__(self):
        return (Not, (self.child,))

    def __repr__(self) -> str:
        return f"Not({self.child!r})"

    def __str__(self) -> str:
        return _format(self, parent_prec=0)


class And(Lineage):
    """Conjunction λ₁ ∧ … ∧ λₙ (n ≥ 2), flattened, order-preserving."""

    __slots__ = ("children", "__weakref__")

    def __new__(cls, children: tuple[Lineage, ...]) -> "And":
        if type(children) is not tuple:
            children = tuple(children)
        ref = _INTERN_AND.get(children)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        self.children = children
        ref = _NodeRef(self, _drop_and)
        ref.key = children
        if _INTERN_AND.setdefault(children, ref) is not ref:
            return _settle(_INTERN_AND, ref)
        return self

    def __reduce__(self):
        return (And, (self.children,))

    def __repr__(self) -> str:
        return f"And({self.children!r})"

    def __str__(self) -> str:
        return _format(self, parent_prec=0)


class Or(Lineage):
    """Disjunction λ₁ ∨ … ∨ λₙ (n ≥ 2), flattened, order-preserving."""

    __slots__ = ("children", "__weakref__")

    def __new__(cls, children: tuple[Lineage, ...]) -> "Or":
        if type(children) is not tuple:
            children = tuple(children)
        ref = _INTERN_OR.get(children)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        self.children = children
        ref = _NodeRef(self, _drop_or)
        ref.key = children
        if _INTERN_OR.setdefault(children, ref) is not ref:
            return _settle(_INTERN_OR, ref)
        return self

    def __reduce__(self):
        return (Or, (self.children,))

    def __repr__(self) -> str:
        return f"Or({self.children!r})"

    def __str__(self) -> str:
        return _format(self, parent_prec=0)


class Top(Lineage):
    """The constant *true* (internal use by probability valuations)."""

    __slots__ = ("__weakref__",)

    _instance: "Top | None" = None

    def __new__(cls) -> "Top":
        self = cls._instance
        if self is None:
            self = cls._instance = object.__new__(cls)
        return self

    def __reduce__(self):
        return (Top, ())

    def __repr__(self) -> str:
        return "Top()"

    def __str__(self) -> str:
        return "⊤"


class Bottom(Lineage):
    """The constant *false* (internal use by probability valuations)."""

    __slots__ = ("__weakref__",)

    _instance: "Bottom | None" = None

    def __new__(cls) -> "Bottom":
        self = cls._instance
        if self is None:
            self = cls._instance = object.__new__(cls)
        return self

    def __reduce__(self):
        return (Bottom, ())

    def __repr__(self) -> str:
        return "Bottom()"

    def __str__(self) -> str:
        return "⊥"


TRUE = Top()
FALSE = Bottom()


def intern_stats() -> dict[str, int]:
    """Sizes of the live intern tables (observability / leak tests)."""
    return {
        "var": len(_INTERN_VAR),
        "not": len(_INTERN_NOT),
        "and": len(_INTERN_AND),
        "or": len(_INTERN_OR),
    }


# ----------------------------------------------------------------------
# smart constructors
# ----------------------------------------------------------------------
def land(*parts: Lineage) -> Lineage:
    """Conjunction with flattening and constant folding.

    ``land(a, land(b, c))`` and ``land(land(a, b), c)`` build the identical
    node ``And((a, b, c))`` so that syntactic equality coincides for the
    formulas the set-operation algorithms produce.  Thanks to interning
    the two calls return the very same object.
    """
    flat: list[Lineage] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.children)
        elif isinstance(part, Top):
            continue
        elif isinstance(part, Bottom):
            return FALSE
        else:
            flat.append(part)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def lor(*parts: Lineage) -> Lineage:
    """Disjunction with flattening and constant folding (dual of land)."""
    flat: list[Lineage] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.children)
        elif isinstance(part, Bottom):
            continue
        elif isinstance(part, Top):
            return TRUE
        else:
            flat.append(part)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def lnot(part: Lineage) -> Lineage:
    """Negation with double-negation elimination and constant folding."""
    if isinstance(part, Not):
        return part.child
    if isinstance(part, Top):
        return FALSE
    if isinstance(part, Bottom):
        return TRUE
    return Not(part)


# ----------------------------------------------------------------------
# structural queries — walks of the formula
# ----------------------------------------------------------------------
def variables(formula: Lineage) -> frozenset[str]:
    """The set of variable names occurring in ``formula``."""
    return frozenset(variable_occurrences(formula))


def variable_names(formula: Lineage) -> Iterable[str]:
    """The distinct variable names of ``formula``, for iterating.

    An atomic variable — every base tuple's lineage — answers with its
    own name, so bookkeeping over base tuples (validation, the stores'
    event reference counts) walks nothing.
    """
    if type(formula) is Var:
        return (formula.name,)
    return variable_occurrences(formula)


def referenced_variables(formulas: Iterable["Lineage | tuple"]) -> set[str]:
    """The distinct variable names of many formulas — nodes or operand
    trees — by one walk of their shared DAG (each ∧/∨ node visited once).
    """
    names: set[str] = set()
    add = names.add
    seen: set[Lineage] = set()
    stack = list(formulas)
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        kind = type(node)
        if kind is Var:
            add(node.name)
        elif kind is Not:
            push(node.child)
        elif (kind is And or kind is Or) and node not in seen:
            seen.add(node)
            # Window lineages are connectives over (negated) base
            # variables: read those in place instead of stacking them.
            for child in node.children:
                kind = type(child)
                if kind is Var:
                    add(child.name)
                elif kind is Not and type(child.child) is Var:
                    add(child.child.name)
                else:
                    push(child)
        elif kind is tuple:
            for child in node[1:]:
                if type(child) is Var:
                    add(child.name)
                else:
                    push(child)
    return names


def variable_occurrences(formula: Lineage) -> dict[str, int]:
    """How many times each variable occurs, in leaf order of first
    occurrence."""
    counts: dict[str, int] = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            name = node.name
            counts[name] = counts[name] + 1 if name in counts else 1
        elif kind is Not:
            stack.append(node.child)
        elif kind is And or kind is Or:
            stack += reversed(node.children)
        # Top/Bottom contribute nothing
    return counts


def formula_size(formula: Lineage) -> int:
    """Number of AST nodes — the |λ| in the linear-time 1OF bound."""
    size = 0
    stack = [formula]
    while stack:
        node = stack.pop()
        size += 1
        kind = type(node)
        if kind is Not:
            stack.append(node.child)
        elif kind is And or kind is Or:
            stack += node.children
    return size


def evaluate(formula: Lineage, assignment: Mapping[str, bool]) -> bool:
    """Evaluate ``formula`` under a total truth assignment.

    Used by the possible-worlds oracle and the Monte-Carlo valuation.
    Raises ``KeyError`` when a variable has no assigned truth value.
    """
    if isinstance(formula, Var):
        return assignment[formula.name]
    if isinstance(formula, Not):
        return not evaluate(formula.child, assignment)
    if isinstance(formula, And):
        return all(evaluate(child, assignment) for child in formula.children)
    if isinstance(formula, Or):
        return any(evaluate(child, assignment) for child in formula.children)
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    raise TypeError(f"not a lineage formula: {formula!r}")


def restrict(formula: Lineage, name: str, value: bool) -> Lineage:
    """Substitute a truth value for variable ``name`` and simplify.

    This is the cofactor operation of Shannon expansion:
    ``restrict(f, x, True)`` is f|x and ``restrict(f, x, False)`` is f|¬x.
    Untouched subformulas are returned as-is, and interning makes equal
    cofactors identity-equal.  The valuation walk of
    :mod:`repro.prob.shannon` builds the same cofactors as operand trees;
    this node-building form is its test oracle.
    """
    kind = type(formula)
    if kind is Var:
        if formula.name != name:
            return formula
        return TRUE if value else FALSE
    if kind is Not:
        child = restrict(formula.child, name, value)
        return formula if child is formula.child else lnot(child)
    if kind is And or kind is Or:
        parts = [restrict(child, name, value) for child in formula.children]
        if all(map(is_, parts, formula.children)):
            return formula
        return land(*parts) if kind is And else lor(*parts)
    return formula


def map_variables(formula: Lineage, rename: Callable[[str], str]) -> Lineage:
    """Rewrite every variable name through ``rename`` (used by dataset tools)."""
    if isinstance(formula, Var):
        return Var(rename(formula.name))
    if isinstance(formula, Not):
        return lnot(map_variables(formula.child, rename))
    if isinstance(formula, And):
        return land(*(map_variables(child, rename) for child in formula.children))
    if isinstance(formula, Or):
        return lor(*(map_variables(child, rename) for child in formula.children))
    return formula


# ----------------------------------------------------------------------
# pretty printing — mirrors the paper's notation: c1∧¬(a1∨b1)
# ----------------------------------------------------------------------
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3


def _format(node: "Lineage | tuple", parent_prec: int) -> str:
    """The canonical text of a node or of an operand tree (a variable,
    or ``(tag, child, …)`` with the tags :data:`NOT`, :data:`AND`,
    :data:`OR`): a tree renders exactly as the node it mirrors."""
    kind = type(node)
    if kind is Var:
        return node.name
    if kind is tuple:
        tag = node[0]
        children = node[1:]
    elif kind is Not:
        tag = NOT
        children = (node.child,)
    elif kind is And:
        tag = AND
        children = node.children
    elif kind is Or:
        tag = OR
        children = node.children
    elif kind is Top:
        return "⊤"
    elif kind is Bottom:
        return "⊥"
    else:
        raise TypeError(f"not a lineage formula: {node!r}")
    if tag == NOT:
        return "¬" + _format(children[0], _PREC_NOT)
    if tag == AND:
        body = "∧".join([_format(child, _PREC_AND) for child in children])
        return f"({body})" if parent_prec > _PREC_AND else body
    body = "∨".join([_format(child, _PREC_OR) for child in children])
    return f"({body})" if parent_prec > _PREC_OR else body


def tree_text(tree: "Lineage | tuple") -> str:
    """``str`` of the node an operand tree mirrors, without building it."""
    return _format(tree, 0)
