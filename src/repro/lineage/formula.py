"""Boolean lineage formulas — hash-consed, with O(1) structural metadata.

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
  valid tuples, hence concatenate the identical lineage objects, and the
  probability-valuation memo can key on node identity.
* **Structural metadata** (DESIGN.md §4).  Computed at construction
  time from the children's metadata, in O(1) for the two-child nodes the
  sweeps emit: :attr:`Lineage.size` (AST node count),
  :attr:`Lineage.var_total` (total variable occurrences) and
  :attr:`Lineage.is_1of` (one-occurrence form) — the flag that lets
  :func:`repro.prob.valuation.probability` dispatch without re-walking
  formulas per result tuple.  Computed on first read and then stored:
  :attr:`Lineage.var_set` (free variables) and
  :meth:`Lineage.occurrences`.  A result tuple's root lineage is
  valuated, rendered and encoded without anyone asking for its variable
  set, so constructors do not build one frozenset per node; the classic
  traversal functions :func:`formula_size`, :func:`variables`,
  :func:`variable_occurrences` and
  :func:`repro.lineage.onef.is_one_occurrence_form` read the stored
  values.
* Interning is per-process.  Pickling round-trips through
  :meth:`__reduce__`, which rebuilds (and thereby re-interns) nodes, so
  identity equality survives serialization.  Construction is not guarded
  by a lock: under free-threaded interpreters a race can momentarily
  produce a duplicate node, of which exactly one wins the table — the
  CPython GIL makes this a non-issue today (DESIGN.md §4.3).
* ``Top`` and ``Bottom`` (true/false) never appear in lineage attached to
  tuples; they exist for the restriction step of Shannon expansion and BDD
  construction in :mod:`repro.prob`.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, Mapping

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


def _intern_table() -> tuple[dict, Callable[[_NodeRef], None]]:
    """A fresh intern table and the removal callback of its references."""
    table: dict = {}

    def drop(ref: _NodeRef) -> None:
        # Only if the entry is still *that* reference: a node re-created
        # under the same key after its predecessor died owns the entry
        # now, and the dead reference's late callback must not evict it.
        key = ref.key
        if table.get(key) is ref:
            del table[key]

    return table, drop


# Per-class intern tables: key -> weak reference to the canonical node.
# Weak references let formulas that nothing retains be collected together
# with their table entries, so long-running services do not leak every
# lineage ever built.
_INTERN_VAR, _drop_var = _intern_table()  # name -> Var
_INTERN_NOT, _drop_not = _intern_table()  # child -> Not
_INTERN_AND, _drop_and = _intern_table()  # children -> And
_INTERN_OR, _drop_or = _intern_table()  # children -> Or

_EMPTY_SET: frozenset[str] = frozenset()
_new = object.__new__


class Lineage:
    """Abstract base class of all lineage formula nodes.

    Every concrete node carries cached structural metadata:

    ``size``
        Number of AST nodes (the |λ| of the linear-time 1OF bound).
    ``var_total``
        Total number of variable occurrences (with multiplicity).
    ``is_1of``
        True iff no variable occurs more than once (one-occurrence form).
        Maintained incrementally: a connective is in 1OF exactly when
        its children are and no two of them share a variable.
    ``var_set``
        Frozen set of the distinct variable names — computed from the
        children's sets on first read, then stored in the node's slot.

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

    # ------------------------------------------------------------------
    # cached-metadata helpers
    # ------------------------------------------------------------------
    if TYPE_CHECKING:
        var_set: frozenset[str]
    else:

        def __getattr__(self, name: str) -> frozenset[str]:
            # Reached only while the ``var_set`` slot is unset (a set
            # slot is found before ``__getattr__`` is consulted), so a
            # read costs nothing extra from the second one on.
            if name != "var_set":
                raise AttributeError(
                    f"{type(self).__name__!r} object has no attribute {name!r}"
                )
            value = self.var_set = self._compute_var_set()
            return value

    def occurrences(self) -> Mapping[str, int]:
        """Per-variable occurrence counts, computed once and cached.

        The returned mapping is shared and must not be mutated; use
        :func:`variable_occurrences` for a private copy.
        """
        occ = self._occ  # type: ignore[attr-defined]
        if occ is None:
            occ = self._compute_occ()
            self._occ = occ  # type: ignore[attr-defined]
        return occ

    def repeated_count(self) -> int:
        """Number of distinct variables occurring more than once (O(1) when
        the formula is in 1OF, cached otherwise)."""
        if self.is_1of:  # type: ignore[attr-defined]
            return 0
        return sum(1 for count in self.occurrences().values() if count > 1)

    def _compute_occ(self) -> Dict[str, int]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _compute_var_set(self) -> frozenset[str]:  # pragma: no cover - abstract
        raise NotImplementedError


class Var(Lineage):
    """An atomic lineage variable — the identifier of a base tuple."""

    __slots__ = ("name", "size", "var_total", "var_set", "is_1of", "_occ", "__weakref__")

    def __new__(cls, name: str) -> "Var":
        ref = _INTERN_VAR.get(name)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        self.name = name
        self.size = 1
        self.var_total = 1
        self.is_1of = True
        self._occ = None
        ref = _NodeRef(self, _drop_var)
        ref.key = name
        _INTERN_VAR[name] = ref
        return self

    def _compute_occ(self) -> Dict[str, int]:
        return {self.name: 1}

    def _compute_var_set(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __reduce__(self):
        return (Var, (self.name,))

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


class Not(Lineage):
    """Negation ¬λ."""

    __slots__ = ("child", "size", "var_total", "var_set", "is_1of", "_occ", "__weakref__")

    def __new__(cls, child: Lineage) -> "Not":
        ref = _INTERN_NOT.get(child)
        if ref is not None:
            self = ref()
            if self is not None:
                return self
        self = _new(cls)
        self.child = child
        self.size = child.size + 1
        self.var_total = child.var_total
        self.is_1of = child.is_1of
        self._occ = None
        ref = _NodeRef(self, _drop_not)
        ref.key = child
        _INTERN_NOT[child] = ref
        return self

    def _compute_occ(self) -> Dict[str, int]:
        return dict(self.child.occurrences())

    def _compute_var_set(self) -> frozenset[str]:
        return self.child.var_set

    def __reduce__(self):
        return (Not, (self.child,))

    def __repr__(self) -> str:
        return f"Not({self.child!r})"

    def __str__(self) -> str:
        return _format(self, parent_prec=0)


def _init_nary(node: "And | Or", children: tuple[Lineage, ...]) -> None:
    """Metadata of a connective with other than two children.

    Such a node is in 1OF iff its children are and their variable sets
    are pairwise disjoint; deciding the latter builds the union anyway,
    so it is stored rather than recomputed on first read.
    """
    size = 1
    total = 0
    one = True
    for child in children:
        size += child.size
        total += child.var_total
        one = one and child.is_1of
    node.size = size
    node.var_total = total
    if one:
        node.var_set = _union_var_sets(children)
        one = total == len(node.var_set)
    node.is_1of = one


def _union_var_sets(children: tuple[Lineage, ...]) -> frozenset[str]:
    return _EMPTY_SET.union(*[child.var_set for child in children])


def _merge_occ(children: tuple[Lineage, ...]) -> Dict[str, int]:
    merged: Dict[str, int] = {}
    for child in children:
        for name, count in child.occurrences().items():
            merged[name] = merged.get(name, 0) + count
    return merged


class And(Lineage):
    """Conjunction λ₁ ∧ … ∧ λₙ (n ≥ 2), flattened, order-preserving."""

    __slots__ = ("children", "size", "var_total", "var_set", "is_1of", "_occ", "__weakref__")

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
        if len(children) == 2:
            # Every window the binary sweep kernels emit is two-child:
            # in 1OF iff both children are and they share no variable —
            # an identity test when both are (negated) variables, so no
            # variable set is built for the node or asked of its leaves.
            left, right = children
            self.size = 1 + left.size + right.size
            self.var_total = left.var_total + right.var_total
            if left.is_1of and right.is_1of:
                a = left.child if type(left) is Not else left
                b = right.child if type(right) is Not else right
                if type(a) is Var and type(b) is Var:
                    self.is_1of = a is not b
                else:
                    self.is_1of = left.var_set.isdisjoint(right.var_set)
            else:
                self.is_1of = False
        else:
            _init_nary(self, children)
        self._occ = None
        ref = _NodeRef(self, _drop_and)
        ref.key = children
        _INTERN_AND[children] = ref
        return self

    def _compute_occ(self) -> Dict[str, int]:
        return _merge_occ(self.children)

    def _compute_var_set(self) -> frozenset[str]:
        return _union_var_sets(self.children)

    def __reduce__(self):
        return (And, (self.children,))

    def __repr__(self) -> str:
        return f"And({self.children!r})"

    def __str__(self) -> str:
        return _format(self, parent_prec=0)


class Or(Lineage):
    """Disjunction λ₁ ∨ … ∨ λₙ (n ≥ 2), flattened, order-preserving."""

    __slots__ = ("children", "size", "var_total", "var_set", "is_1of", "_occ", "__weakref__")

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
        if len(children) == 2:
            # Every window the binary sweep kernels emit is two-child:
            # in 1OF iff both children are and they share no variable —
            # an identity test when both are (negated) variables, so no
            # variable set is built for the node or asked of its leaves.
            left, right = children
            self.size = 1 + left.size + right.size
            self.var_total = left.var_total + right.var_total
            if left.is_1of and right.is_1of:
                a = left.child if type(left) is Not else left
                b = right.child if type(right) is Not else right
                if type(a) is Var and type(b) is Var:
                    self.is_1of = a is not b
                else:
                    self.is_1of = left.var_set.isdisjoint(right.var_set)
            else:
                self.is_1of = False
        else:
            _init_nary(self, children)
        self._occ = None
        ref = _NodeRef(self, _drop_or)
        ref.key = children
        _INTERN_OR[children] = ref
        return self

    def _compute_occ(self) -> Dict[str, int]:
        return _merge_occ(self.children)

    def _compute_var_set(self) -> frozenset[str]:
        return _union_var_sets(self.children)

    def __reduce__(self):
        return (Or, (self.children,))

    def __repr__(self) -> str:
        return f"Or({self.children!r})"

    def __str__(self) -> str:
        return _format(self, parent_prec=0)


class Top(Lineage):
    """The constant *true* (internal use by probability valuations)."""

    __slots__ = ("size", "var_total", "var_set", "is_1of", "_occ", "__weakref__")

    _instance: "Top | None" = None

    def __new__(cls) -> "Top":
        self = cls._instance
        if self is None:
            self = object.__new__(cls)
            self.size = 1
            self.var_total = 0
            self.var_set = _EMPTY_SET
            self.is_1of = True
            self._occ = {}
            cls._instance = self
        return self

    def _compute_occ(self) -> Dict[str, int]:
        return {}

    def __reduce__(self):
        return (Top, ())

    def __repr__(self) -> str:
        return "Top()"

    def __str__(self) -> str:
        return "⊤"


class Bottom(Lineage):
    """The constant *false* (internal use by probability valuations)."""

    __slots__ = ("size", "var_total", "var_set", "is_1of", "_occ", "__weakref__")

    _instance: "Bottom | None" = None

    def __new__(cls) -> "Bottom":
        self = cls._instance
        if self is None:
            self = object.__new__(cls)
            self.size = 1
            self.var_total = 0
            self.var_set = _EMPTY_SET
            self.is_1of = True
            self._occ = {}
            cls._instance = self
        return self

    def _compute_occ(self) -> Dict[str, int]:
        return {}

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
# structural queries — reads of the metadata stored on the nodes
# ----------------------------------------------------------------------
def variables(formula: Lineage) -> frozenset[str]:
    """The set of variable names occurring in ``formula`` (stored on the
    node once computed)."""
    return formula.var_set


def variable_names(formula: Lineage) -> Iterable[str]:
    """The distinct variable names of ``formula``, for iterating.

    An atomic variable — every base tuple's lineage — answers with its
    own name, so bookkeeping over base tuples (validation, the stores'
    event reference counts) does not store one single-element set per
    tuple.
    """
    if type(formula) is Var:
        return (formula.name,)
    return formula.var_set


def referenced_variables(formulas: Iterable[Lineage]) -> set[str]:
    """The distinct variable names of many formulas, by one walk of their
    shared DAG (each ∧/∨ node visited once).

    Reads no node's ``var_set`` and so stores none: a read that copies a
    few hundred result tuples out of a large relation must not leave a
    frozenset on every base variable and node it touches.
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
    return names


def variable_occurrences(formula: Lineage) -> dict[str, int]:
    """Count how many times each variable occurs (for 1OF detection).

    Returns a private copy; the shared cached mapping is available via
    :meth:`Lineage.occurrences` for read-only hot paths.
    """
    return dict(formula.occurrences())


def _iter_var_names(formula: Lineage) -> Iterator[str]:
    """Traversal-based occurrence iterator (kept as the oracle the cached
    metadata is property-tested against)."""
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            yield node.name
        elif isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
        # Top/Bottom contribute nothing


def formula_size(formula: Lineage) -> int:
    """Number of AST nodes — the |λ| in the linear-time 1OF bound (O(1))."""
    return formula.size


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
    cofactors identity-equal — which is what lets the Shannon memo in
    :mod:`repro.prob.shannon` hit across expansion branches.
    """
    if name not in formula.var_set:
        return formula
    if isinstance(formula, Var):
        return TRUE if value else FALSE
    if isinstance(formula, Not):
        return lnot(restrict(formula.child, name, value))
    if isinstance(formula, And):
        return land(*(restrict(child, name, value) for child in formula.children))
    if isinstance(formula, Or):
        return lor(*(restrict(child, name, value) for child in formula.children))
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


def _format(node: Lineage, parent_prec: int) -> str:
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Top):
        return "⊤"
    if isinstance(node, Bottom):
        return "⊥"
    if isinstance(node, Not):
        inner = _format(node.child, _PREC_NOT)
        return f"¬{inner}"
    if isinstance(node, And):
        body = "∧".join(_format(child, _PREC_AND) for child in node.children)
        return f"({body})" if parent_prec > _PREC_AND else body
    if isinstance(node, Or):
        body = "∨".join(_format(child, _PREC_OR) for child in node.children)
        return f"({body})" if parent_prec > _PREC_OR else body
    raise TypeError(f"not a lineage formula: {node!r}")
