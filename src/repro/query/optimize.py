"""Logical rewrites for TP set queries (DESIGN.md §11).

The LAWA papers prove the kernels change-preserving for any equivalent
expression shape; this module exploits that with a rule set the
cost-based planner (:mod:`repro.query.cost`) enumerates over:

1. **Associative flattening** (always sound): ``(a ∪ b) ∪ c`` and
   ``(a ∩ b) ∩ c`` chains collapse into n-ary nodes, executed as a left
   fold of the binary kernel over the children in order
   (:func:`repro.core.setops.multi_union`).  Because the lineage
   smart-constructors flatten nested ∧/∨, the output lineage is
   *syntactically identical* to the binary chain's, whatever the
   association; the cost model prices the fold, so an n-ary node wins
   only where folding left to right is the cheaper association.
2. **Selection pushdown** (always sound): σ filters whole facts and TP
   set operations only combine positionally-equal facts, so σ commutes
   with ∪/∩/− and is cheapest at the scans.  With leaf schemas available
   (the statistics catalog carries them) the rule is *guarded* — it
   pushes only when the attribute resolves to the same position in every
   operand — and extends **through joins**: to a side whose values
   survive into the selected column unpadded (see
   ``_join_push_sides`` for the per-kind soundness table).
3. **Inner natural-join reassociation** (safe): natural join is
   associative on named relations, so a chain ``r ⋈ s ⋈ t`` may execute
   in any association whose intermediate joins are valid and whose final
   attribute layout is unchanged.  Matched lineages are ∧-concatenations
   in leaf order and ∧ flattens, so every association emits identical
   interned lineage objects; matched intervals are per-combination
   interval intersections, which are associative.  Candidates that would
   need output-name disambiguation anywhere are discarded (positional
   facts stop modelling named tuples there).
4. **Difference fusion** (``aggressive``): ``(a − b) − c → a − (b ∪ c)``.
   Facts, intervals and probabilities are preserved, but lineage changes
   *form* (``(λa∧¬λb)∧¬λc`` becomes ``λa∧¬(λb∨λc)``).
5. **Multiway reordering by cardinality** (``aggressive``): children of
   an n-ary ∪/∩ sort by estimated cardinality.  ∨/∧ are commutative, so
   probabilities (and intervals — window boundaries are order-blind) are
   preserved, but the lineage argument order changes.

Every *safe* rewrite is lineage-identical; ``aggressive`` rewrites are
probability-identical.  ``tests/test_optimizer_metamorphic.py`` holds
the system to that: it enumerates the full candidate space for random
query trees and proves every plan tuple/interval/probability-equal to
the unoptimized plan and the possible-worlds oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Union

from ..core.errors import SchemaMismatchError
from ..core.schema import TPSchema
from .analysis import infer_schema
from .ast import JoinNode, OP_TOKENS, QueryNode, RelationRef, SelectionNode, SetOpNode

__all__ = [
    "MultiOpNode",
    "OPTIMIZE_LEVELS",
    "OptimizedNode",
    "canonical_form",
    "enumerate_plans",
    "optimize_query",
    "resolve_level",
    "schemas_from_stats",
]

#: Optimization levels accepted by ``TPDatabase`` and the CLI.
OPTIMIZE_LEVELS = ("off", "safe", "aggressive")

#: Upper bound on inner-join chain length considered for reassociation
#: (Catalan(4) = 14 shapes for 5 leaves keeps enumeration bounded).
_MAX_CHAIN = 5


@dataclass(frozen=True, slots=True)
class MultiOpNode:
    """An n-ary associative set operation (union or intersect)."""

    op: str  # 'union' | 'intersect'
    children: tuple["OptimizedNode", ...]

    def __post_init__(self) -> None:
        if self.op not in ("union", "intersect"):
            raise ValueError("only union/intersect are associative")
        if len(self.children) < 2:
            raise ValueError("an n-ary node needs at least two children")

    def __str__(self) -> str:
        token = OP_TOKENS[self.op]
        return "(" + f" {token} ".join(str(c) for c in self.children) + ")"


OptimizedNode = Union[RelationRef, SelectionNode, SetOpNode, JoinNode, MultiOpNode]

Schemas = Mapping[str, TPSchema]


def resolve_level(
    optimize: Union[bool, str, None] = False, aggressive: bool = False
) -> str:
    """Normalize the ``optimize``/``aggressive`` knobs to one level name.

    ``optimize`` accepts a level name (``'off'``, ``'safe'``,
    ``'aggressive'``), a bool (``True`` ≙ ``'safe'``) or ``None``
    (≙ ``'off'``); ``aggressive=True`` raises the result to
    ``'aggressive'`` (backwards compatibility with the PR-1 API).
    """
    if optimize is None or optimize is False:
        level = "off"
    elif optimize is True:
        level = "safe"
    elif isinstance(optimize, str) and optimize in OPTIMIZE_LEVELS:
        level = optimize
    else:
        raise ValueError(
            f"optimize must be one of {', '.join(OPTIMIZE_LEVELS)} "
            f"(or a bool), got {optimize!r}"
        )
    if aggressive and level != "aggressive":
        level = "aggressive"
    return level


def optimize_query(
    query: QueryNode,
    *,
    aggressive: bool = False,
    schemas: Optional[Schemas] = None,
) -> OptimizedNode:
    """Apply the deterministic rewrite pipeline to a parsed query tree.

    This is the *normalization* entry point: pushdown, optional
    difference fusion, flattening.  The cost-based planner
    (:func:`repro.query.cost.choose_plan`) additionally enumerates
    reassociations and scores every candidate; without statistics this
    pipeline is the safe default it falls back to.

    >>> from repro.query import parse_query
    >>> str(optimize_query(parse_query("a | b | c")))
    '(a ∪ b ∪ c)'
    >>> str(optimize_query(parse_query("a - b - c"), aggressive=True))
    '(a − (b ∪ c))'
    """
    node: OptimizedNode = query
    node = _push_selections(node, schemas)
    if aggressive:
        node = _fuse_differences(node)
    node = _flatten(node)
    return node


def canonical_form(
    query: QueryNode, schemas: Optional[Schemas] = None
) -> OptimizedNode:
    """The safe-rewrite normal form used for view matching.

    Two query trees with the same canonical form produce syntactically
    identical results (safe rewrites are lineage-identical), so a
    materialized view whose definition canonicalizes like a query
    subtree can serve that subtree.
    """
    return _flatten(_push_selections(query, schemas))


# ----------------------------------------------------------------------
# plan-space enumeration
# ----------------------------------------------------------------------
def enumerate_plans(
    query: QueryNode,
    *,
    schemas: Optional[Schemas] = None,
    stats=None,
    aggressive: bool = False,
    limit: int = 24,
) -> list[OptimizedNode]:
    """Distinct result-equivalent candidate plans, unrewritten first.

    The candidate space is the closure of the rule set over the parsed
    tree, bounded by ``limit``: the original shape, selection pushdown,
    flattening, their composition, every valid reassociation of inner
    natural-join chains, and — under ``aggressive`` — difference fusion
    and cardinality-ordered multiway operands (``stats`` required for
    the ordering rule).  Every returned plan is executable and
    result-equivalent to the first; the metamorphic harness asserts
    exactly that over random trees.
    """
    if schemas is None and stats is not None:
        schemas = schemas_from_stats(stats, query)
    seen: dict = {}
    out: list[OptimizedNode] = []

    def add(node: OptimizedNode) -> None:
        if len(out) < limit and node not in seen:
            seen[node] = True
            out.append(node)

    add(query)
    pushed = _push_selections(query, schemas)
    add(pushed)
    add(_flatten(query))
    flat = _flatten(pushed)
    add(flat)
    for variant in _reassociations(flat, schemas, cap=max(2, limit - len(out))):
        add(variant)
    if aggressive:
        fused = _flatten(_fuse_differences(pushed))
        add(fused)
        for variant in _reassociations(fused, schemas, cap=2):
            add(variant)
        if stats is not None:
            from .cost import order_multiway_children

            add(order_multiway_children(flat, stats))
            add(order_multiway_children(fused, stats))
    return out


def schemas_from_stats(stats, query: QueryNode) -> Schemas:
    """Leaf schemas recoverable from a statistics catalog."""
    from .ast import relation_references

    schemas: dict[str, TPSchema] = {}
    for name in relation_references(query):
        if name in schemas:
            continue
        entry = stats.get(name)
        if entry is not None:
            schemas[name] = TPSchema(tuple(entry.attributes))
    return schemas


# ----------------------------------------------------------------------
# rule: selection pushdown
# ----------------------------------------------------------------------
def _push_selections(
    node: OptimizedNode, schemas: Optional[Schemas] = None
) -> OptimizedNode:
    """σ(a op b) → σ(a) op σ(b), recursively, down to the scans.

    Without ``schemas`` the rule keeps its legacy behavior: it pushes
    through set operations unconditionally by attribute name (compatible
    relations are expected to share attribute names) and never through
    joins.  With schemas it is guarded — the attribute must resolve to
    the same position in every operand — and extends through joins to
    every side the per-kind soundness table allows.
    """
    if isinstance(node, RelationRef):
        return node
    if isinstance(node, SelectionNode):
        child = _push_selections(node.child, schemas)
        pushed = _push_into(child, node.attribute, node.value, schemas)
        if pushed is not None:
            return pushed
        return SelectionNode(child, node.attribute, node.value)
    if isinstance(node, MultiOpNode):
        return MultiOpNode(
            node.op, tuple(_push_selections(c, schemas) for c in node.children)
        )
    if isinstance(node, JoinNode):
        return JoinNode(
            node.kind,
            _push_selections(node.left, schemas),
            _push_selections(node.right, schemas),
            node.on,
        )
    assert isinstance(node, SetOpNode)
    return SetOpNode(
        node.op,
        _push_selections(node.left, schemas),
        _push_selections(node.right, schemas),
    )


def _push_into(
    child: OptimizedNode, attribute: str, value: object, schemas: Optional[Schemas]
) -> Optional[OptimizedNode]:
    """σ[attribute=value](child) pushed one level, or ``None`` to keep σ."""
    if isinstance(child, (SetOpNode, MultiOpNode)):
        operands = (
            child.children
            if isinstance(child, MultiOpNode)
            else (child.left, child.right)
        )
        if schemas is not None and not _setop_push_sound(
            operands, attribute, schemas
        ):
            return None
        pushed = tuple(
            _push_selections(SelectionNode(op_child, attribute, value), schemas)
            for op_child in operands
        )
        if isinstance(child, MultiOpNode):
            return MultiOpNode(child.op, pushed)
        return SetOpNode(child.op, pushed[0], pushed[1])
    if isinstance(child, JoinNode) and schemas is not None:
        return _push_into_join(child, attribute, value, schemas)
    return None


def _setop_push_sound(
    operands, attribute: str, schemas: Schemas
) -> bool:
    """Set operations combine facts positionally: σ may distribute only
    when the attribute occupies the same position in every operand."""
    indexes = []
    for operand in operands:
        schema = infer_schema(operand, schemas)
        if schema is None or attribute not in schema.attributes:
            return False
        indexes.append(schema.index_of(attribute))
    return len(set(indexes)) == 1


def _join_push_sides(
    kind: str, pos: int, r_arity: int, is_join_attr: bool, is_s_rest: bool
) -> tuple[bool, bool]:
    """Which join sides σ may be pushed into — the soundness table.

    A side is eligible when the selected column's values come from that
    side *unpadded* in every output row it could influence, and removing
    that side's non-matching tuples cannot change the preservation
    status of any surviving tuple (partners always agree on join
    attributes, so a join-attribute filter never removes a partner of a
    surviving tuple):

    ===========  ===============  ===========  ==========
    kind         join attribute   left column  right rest
    ===========  ===============  ===========  ==========
    inner        both             left         right
    left outer   both             left         —  (padded)
    right outer  both             —  (padded)  right
    full outer   both             —            —
    anti         both             left         n/a
    ===========  ===============  ===========  ==========
    """
    if is_join_attr:
        return True, True
    if is_s_rest:
        return False, kind in ("inner", "right_outer")
    if pos < r_arity:
        return kind in ("inner", "left_outer", "anti"), False
    return False, False


def _push_into_join(
    join: JoinNode, attribute: str, value: object, schemas: Schemas
) -> Optional[OptimizedNode]:
    from ..algebra.join import join_layout_from_schemas

    left_schema = infer_schema(join.left, schemas)
    right_schema = infer_schema(join.right, schemas)
    if left_schema is None or right_schema is None:
        return None
    try:
        layout = join_layout_from_schemas(
            join.kind, left_schema, right_schema, join.on
        )
    except SchemaMismatchError:
        return None
    out_schema = layout.out_schema
    if attribute not in out_schema.attributes:
        return None
    pos = out_schema.index_of(attribute)
    is_s_rest = pos >= left_schema.arity
    if is_s_rest:
        # Map the (possibly disambiguated) output name back to the
        # right side's own attribute name.
        side_name = right_schema.attributes[
            layout.s_rest_idx[pos - left_schema.arity]
        ]
        is_join_attr = False
    else:
        side_name = left_schema.attributes[pos]
        is_join_attr = side_name in layout.join_attrs
    push_left, push_right = _join_push_sides(
        join.kind, pos, left_schema.arity, is_join_attr, is_s_rest
    )
    if not push_left and not push_right:
        return None
    left = join.left
    right = join.right
    if push_left:
        left = _push_selections(SelectionNode(left, side_name, value), schemas)
    if push_right:
        right = _push_selections(SelectionNode(right, side_name, value), schemas)
    return JoinNode(join.kind, left, right, join.on)


# ----------------------------------------------------------------------
# rule: associative flattening
# ----------------------------------------------------------------------
def _flatten(node: OptimizedNode) -> OptimizedNode:
    if isinstance(node, RelationRef):
        return node
    if isinstance(node, SelectionNode):
        return SelectionNode(_flatten(node.child), node.attribute, node.value)
    if isinstance(node, MultiOpNode):
        children = tuple(_flatten(c) for c in node.children)
        return MultiOpNode(node.op, _absorb(node.op, children))
    if isinstance(node, JoinNode):
        return JoinNode(node.kind, _flatten(node.left), _flatten(node.right), node.on)
    assert isinstance(node, SetOpNode)
    left = _flatten(node.left)
    right = _flatten(node.right)
    if node.op in ("union", "intersect"):
        children = _absorb(node.op, (left, right))
        if len(children) > 2:
            return MultiOpNode(node.op, children)
        # Plain binary operation with no nested chain: keep as-is.
        return SetOpNode(node.op, left, right)  # type: ignore[arg-type]
    return SetOpNode(node.op, left, right)  # type: ignore[arg-type]


def _absorb(op: str, children: tuple) -> tuple:
    """Splice children of same-op nodes into one argument list."""
    out: list = []
    for child in children:
        if isinstance(child, MultiOpNode) and child.op == op:
            out.extend(child.children)
        elif isinstance(child, SetOpNode) and child.op == op:
            out.extend(_absorb(op, (child.left, child.right)))
        else:
            out.append(child)
    return tuple(out)


# ----------------------------------------------------------------------
# rule: difference fusion (aggressive)
# ----------------------------------------------------------------------
def _fuse_differences(node: OptimizedNode) -> OptimizedNode:
    """(a − b) − c → a − (b ∪ c), recursively, bottom-up."""
    if isinstance(node, RelationRef):
        return node
    if isinstance(node, SelectionNode):
        return SelectionNode(
            _fuse_differences(node.child), node.attribute, node.value
        )
    if isinstance(node, MultiOpNode):
        return MultiOpNode(node.op, tuple(_fuse_differences(c) for c in node.children))
    if isinstance(node, JoinNode):
        return JoinNode(
            node.kind,
            _fuse_differences(node.left),
            _fuse_differences(node.right),
            node.on,
        )
    assert isinstance(node, SetOpNode)
    left = _fuse_differences(node.left)
    right = _fuse_differences(node.right)
    if node.op == "except" and isinstance(left, SetOpNode) and left.op == "except":
        # left = (a − b); this node = (a − b) − c  →  a − (b ∪ c).
        fused_subtrahend = SetOpNode("union", left.right, right)  # type: ignore[arg-type]
        return _fuse_differences(SetOpNode("except", left.left, fused_subtrahend))  # type: ignore[arg-type]
    return SetOpNode(node.op, left, right)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# rule: inner natural-join reassociation
# ----------------------------------------------------------------------
def _is_chain_join(node: OptimizedNode) -> bool:
    return isinstance(node, JoinNode) and node.kind == "inner" and node.on is None


def _chain_leaves(node: OptimizedNode) -> list[OptimizedNode]:
    if _is_chain_join(node):
        return _chain_leaves(node.left) + _chain_leaves(node.right)
    return [node]


def _associations(leaves: list) -> Iterator[OptimizedNode]:
    """Every binary association over ``leaves`` in their given order."""
    if len(leaves) == 1:
        yield leaves[0]
        return
    for split in range(1, len(leaves)):
        for left in _associations(leaves[:split]):
            for right in _associations(leaves[split:]):
                yield JoinNode("inner", left, right, None)


def _assoc_schema(
    node: OptimizedNode, schemas: Schemas, allowed: frozenset
) -> Optional[TPSchema]:
    """Schema of an association candidate, ``None`` when any join step is
    invalid or needs disambiguated output names (positional facts stop
    modelling named tuples there, so associativity no longer holds)."""
    from ..algebra.join import join_layout_from_schemas

    if _is_chain_join(node):
        left = _assoc_schema(node.left, schemas, allowed)
        right = _assoc_schema(node.right, schemas, allowed)
        if left is None or right is None:
            return None
        try:
            out = join_layout_from_schemas("inner", left, right, None).out_schema
        except SchemaMismatchError:
            return None
        if not set(out.attributes) <= allowed:
            return None
        return out
    return infer_schema(node, schemas)


def _reassociations(
    node: OptimizedNode, schemas: Optional[Schemas], cap: int
) -> list[OptimizedNode]:
    """Alternative trees for every inner natural-join chain in ``node``.

    Leaf order is preserved (so ∧-flattened lineages stay identical);
    only associations whose intermediate joins are valid and whose final
    attribute layout equals the original's are kept.
    """
    if schemas is None or cap <= 0:
        return []
    variants = _subtree_variants(node, schemas, cap + 1)
    return [v for v in variants if v != node][:cap]


def _subtree_variants(
    node: OptimizedNode, schemas: Schemas, cap: int
) -> list[OptimizedNode]:
    """Up to ``cap`` variants of ``node`` (the original shape first)."""
    if isinstance(node, RelationRef):
        return [node]
    if isinstance(node, SelectionNode):
        return [
            SelectionNode(child, node.attribute, node.value)
            for child in _subtree_variants(node.child, schemas, cap)
        ]
    if isinstance(node, MultiOpNode):
        combos = _combine(
            [_subtree_variants(c, schemas, cap) for c in node.children], cap
        )
        return [MultiOpNode(node.op, tuple(children)) for children in combos]
    if _is_chain_join(node):
        leaves = _chain_leaves(node)
        if 2 < len(leaves) <= _MAX_CHAIN:
            allowed = frozenset(
                name
                for leaf in leaves
                for name in (
                    (infer_schema(leaf, schemas) or TPSchema(("?",))).attributes
                )
            )
            original_schema = _assoc_schema(node, schemas, allowed)
            if original_schema is None:
                return [node]
            out = [node]
            for candidate in _associations(leaves):
                if len(out) >= cap:
                    break
                if candidate == node:
                    continue
                if _assoc_schema(candidate, schemas, allowed) == original_schema:
                    out.append(candidate)
            return out
        # Plain binary join: recurse into the sides.
    if isinstance(node, JoinNode):
        combos = _combine(
            [
                _subtree_variants(node.left, schemas, cap),
                _subtree_variants(node.right, schemas, cap),
            ],
            cap,
        )
        return [JoinNode(node.kind, left, right, node.on) for left, right in combos]
    assert isinstance(node, SetOpNode)
    combos = _combine(
        [
            _subtree_variants(node.left, schemas, cap),
            _subtree_variants(node.right, schemas, cap),
        ],
        cap,
    )
    return [SetOpNode(node.op, left, right) for left, right in combos]


def _combine(variant_lists: list[list], cap: int) -> list[tuple]:
    """Bounded cartesian combination, original-first, varying one child
    at a time before mixing (keeps the candidate list diverse under a
    small cap)."""
    original = tuple(variants[0] for variants in variant_lists)
    out = [original]
    for i, variants in enumerate(variant_lists):
        for variant in variants[1:]:
            if len(out) >= cap:
                return out
            combo = list(original)
            combo[i] = variant
            out.append(tuple(combo))
    return out
