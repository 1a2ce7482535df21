"""TP joins — inner, outer and anti, on generalized lineage-aware windows.

The base paper's §VIII outlook ("support for full relational algebra")
is answered by its follow-up, *Generalized Lineage-Aware Temporal
Windows* (arXiv:1902.04379): the same single-scan window machinery that
drives the set operations extends to left/right/full outer joins and
anti joins.  All five operators here follow the two principles the set
operations are built on:

* **snapshot reducibility** — at each time point, apply the
  deterministic join to the probabilistic snapshots: a matched output
  pairs key-matching tuples with lineage ``λr ∧ λs``; a preserved output
  keeps a tuple of the surviving side with the *negated disjunction* of
  its valid matches, ``λp ∧ ¬(λo₁ ∨ … ∨ λoₖ)`` — the probabilistic "no
  partner exists" event (plain ``λp`` when no partner is valid at all);
* **change preservation** — output intervals are maximal periods of
  constant lineage: pairwise overlaps for matches,
  :class:`~repro.core.gtwindow.PreservedWindow` segments (constant match
  set) for the preserved sides.

The temporal work is delegated to
:func:`repro.core.gtwindow.generalized_windows`, run per join-key group
(hash partitioning on the join attributes).  A match over two distinct
base variables is valued where its window is built, as the product
Theorem 1 gives for ``λr ∧ λs``, and its lineage node is deferred to the
first read, as the set-operation kernel defers ∩ (DESIGN.md §8.2); every
other row goes to one batch, which values each distinct interned lineage
once.

Degenerate layouts collapse (DESIGN.md §8.4): when the non-preserved
side contributes no non-join attributes, its matched and preserved
output facts coincide and their lineages merge to the preserved tuple's
own lineage — e.g. a left outer join against a key-only relation *is*
the left relation.  A full outer join of two key-only relations is
exactly the TP union of the key projections and is delegated to the
fused LAWA kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence

from ..core.errors import SchemaMismatchError, UnsupportedOperationError
from ..core.gtwindow import (
    LEFT,
    MatchWindow,
    WINDOW_POLICIES,
    WindowPolicy,
    generalized_windows,
)
from ..core.relation import TPRelation
from ..core.schema import Fact, TPSchema
from ..core.setops import _fused_sweep, limit_of, value_pending
from ..core.sorting import null_safe_key
from ..core.tuple import DEFER_AND, TPTuple, _TupleDraft, tuples_from_rows
from ..lineage.formula import Lineage, Var, land, lnot, lor
from ..prob.valuation import ProbabilityOptions, count_swept

__all__ = [
    "JOIN_KINDS",
    "JOIN_OPERATIONS",
    "JOIN_SYMBOLS",
    "JoinLayout",
    "join_layout",
    "join_layout_from_schemas",
    "group_emits",
    "join_group",
    "merge_fact_overlaps",
    "preserved_lineage",
    "tp_join",
    "tp_left_outer_join",
    "tp_right_outer_join",
    "tp_full_outer_join",
    "tp_anti_join",
    "tp_join_operation",
    "value_join_rows",
]

JOIN_SYMBOLS = {
    "inner": "⋈",
    "left_outer": "⟕",
    "right_outer": "⟖",
    "full_outer": "⟗",
    "anti": "▷",
}
JOIN_KINDS = tuple(JOIN_SYMBOLS)


# ----------------------------------------------------------------------
# schema layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinLayout:
    """Index plumbing shared by the kernel, the naive baseline and the
    possible-worlds oracle — one definition of the output fact layout."""

    kind: str
    join_attrs: tuple[str, ...]
    r_key_idx: tuple[int, ...]
    s_key_idx: tuple[int, ...]
    r_rest_idx: tuple[int, ...]
    s_rest_idx: tuple[int, ...]
    r_arity: int
    out_schema: TPSchema

    @property
    def s_degenerate(self) -> bool:
        """True when the right side has no non-join attributes."""
        return not self.s_rest_idx

    @property
    def r_degenerate(self) -> bool:
        """True when the left side has no non-join attributes."""
        return not self.r_rest_idx

    def key_of_left(self, fact: Fact) -> tuple:
        return tuple(fact[i] for i in self.r_key_idx)

    def key_of_right(self, fact: Fact) -> tuple:
        return tuple(fact[i] for i in self.s_key_idx)

    def matched_fact(self, left_fact: Fact, right_fact: Fact) -> Fact:
        return left_fact + tuple(right_fact[i] for i in self.s_rest_idx)

    def left_fact(self, left_fact: Fact) -> Fact:
        """Preserved-left output fact (anti joins keep the left schema)."""
        if self.kind == "anti":
            return left_fact
        return left_fact + (None,) * len(self.s_rest_idx)

    def right_fact(self, right_fact: Fact) -> Fact:
        """Preserved-right output fact: key values land in the left
        side's key positions, the left rest positions are null-padded."""
        head: list = [None] * self.r_arity
        for k, r_pos in enumerate(self.r_key_idx):
            head[r_pos] = right_fact[self.s_key_idx[k]]
        return tuple(head) + tuple(right_fact[i] for i in self.s_rest_idx)


def join_layout(
    kind: str, r: TPRelation, s: TPRelation, on: Optional[Sequence[str]]
) -> JoinLayout:
    """Resolve join attributes and build the output-fact layout."""
    return join_layout_from_schemas(kind, r.schema, s.schema, on)


def join_layout_from_schemas(
    kind: str, r_schema: TPSchema, s_schema: TPSchema, on: Optional[Sequence[str]]
) -> JoinLayout:
    """Schema-level :func:`join_layout` — no relations required.

    Used by the incremental view maintenance of :mod:`repro.store`,
    which knows its inputs' schemas before any tuples exist.
    """
    join_attrs = _resolve_join_attributes(r_schema, s_schema, on)
    r_key_idx = tuple(r_schema.index_of(a) for a in join_attrs)
    s_key_idx = tuple(s_schema.index_of(a) for a in join_attrs)
    r_rest_idx = tuple(i for i in range(r_schema.arity) if i not in r_key_idx)
    s_rest_idx = tuple(
        i for i, name in enumerate(s_schema.attributes) if name not in join_attrs
    )
    if kind == "anti":
        out_schema = r_schema
    else:
        out_attributes = tuple(r_schema.attributes) + tuple(
            s_schema.attributes[i] for i in s_rest_idx
        )
        out_schema = TPSchema(_disambiguate(out_attributes))
    return JoinLayout(
        kind=kind,
        join_attrs=join_attrs,
        r_key_idx=r_key_idx,
        s_key_idx=s_key_idx,
        r_rest_idx=r_rest_idx,
        s_rest_idx=s_rest_idx,
        r_arity=r_schema.arity,
        out_schema=out_schema,
    )


def _resolve_join_attributes(
    r_schema: TPSchema, s_schema: TPSchema, on: Optional[Sequence[str]]
) -> tuple[str, ...]:
    if on is None:
        shared = tuple(
            name for name in r_schema.attributes if name in s_schema.attributes
        )
        if not shared:
            raise SchemaMismatchError(
                f"natural join needs shared attributes; "
                f"{r_schema.attributes!r} vs {s_schema.attributes!r} share none"
            )
        return shared
    attrs = tuple(on)
    for name in attrs:
        r_schema.index_of(name)
        s_schema.index_of(name)
    if not attrs:
        raise SchemaMismatchError("join attribute list must not be empty")
    return attrs


def _disambiguate(names: tuple[str, ...]) -> tuple[str, ...]:
    """Suffix repeated attribute names so the output schema stays valid.

    Deterministic for any number of collisions: the n-th occurrence of a
    name gets the first free ``name_<k>`` suffix, skipping suffixes that
    are themselves taken by literal attribute names (``a, a_2, a`` →
    ``a, a_2, a_3``).
    """
    used = set(names)
    counts: dict[str, int] = {}
    out: list[str] = []
    for name in names:
        count = counts.get(name, 0)
        counts[name] = count + 1
        if count == 0:
            out.append(name)
            continue
        suffix = count + 1
        candidate = f"{name}_{suffix}"
        while candidate in used:
            suffix += 1
            candidate = f"{name}_{suffix}"
        used.add(candidate)
        out.append(candidate)
    return tuple(out)


# ----------------------------------------------------------------------
# lineage concatenation (Table I of the generalized paper)
# ----------------------------------------------------------------------
def preserved_lineage(lam: Lineage, others: Sequence[Lineage]) -> Lineage:
    """``λp ∧ ¬(λo₁ ∨ … ∨ λoₖ)`` — plain ``λp`` for an empty match set."""
    if not others:
        return lam
    return land(lam, lnot(lor(*others)))


# ----------------------------------------------------------------------
# public operators
# ----------------------------------------------------------------------
def tp_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """Sequenced TP equi-join of ``r`` and ``s``.

    Parameters
    ----------
    on:
        Join attributes, present in both schemas.  ``None`` joins on all
        shared attribute names (natural join); at least one attribute
        must be shared.

    The output schema is r's attributes followed by s's non-join
    attributes; the output fact concatenates the corresponding values.

    >>> from repro import TPRelation
    >>> r = TPRelation.from_rows("r", ("item", "store"),
    ...     [("milk", "hb", 1, 5, 0.5)])
    >>> s = TPRelation.from_rows("s", ("item", "price"),
    ...     [("milk", 2, 3, 8, 0.8)])
    >>> result = tp_join(r, s, on=("item",))
    >>> [str(t) for t in result]
    ["('milk', 'hb', 2, r1∧s1, [3,5), 0.4)"]
    """
    return _generalized_join("inner", r, s, on, materialize, options)


def tp_left_outer_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ⟕ᵀᵖ s — every left tuple survives.

    Matched outputs carry ``λr ∧ λs`` over the pair overlap; for each
    left tuple, null-padded outputs carry ``λr ∧ ¬(λs₁ ∨ … ∨ λsₖ)`` over
    every maximal subinterval with a constant set of valid key matches —
    the probability that the left tuple exists *and* none of its
    potential partners does.
    """
    return _generalized_join("left_outer", r, s, on, materialize, options)


def tp_right_outer_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ⟖ᵀᵖ s — every right tuple survives (mirror of ⟕)."""
    return _generalized_join("right_outer", r, s, on, materialize, options)


def tp_full_outer_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ⟗ᵀᵖ s — both sides survive."""
    return _generalized_join("full_outer", r, s, on, materialize, options)


def tp_anti_join(
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ▷ᵀᵖ s — left tuples with no key match, under r's schema.

    The output keeps the probability that the left tuple exists while
    *no* matching right tuple does: ``λr ∧ ¬(λs₁ ∨ … ∨ λsₖ)``.  Joining
    on all attributes of compatible schemas coincides with −ᵀᵖ.
    """
    return _generalized_join("anti", r, s, on, materialize, options)


#: Dispatch table, consumed by the query executor and the registry.
JOIN_OPERATIONS: dict[str, Callable[..., TPRelation]] = {
    "inner": tp_join,
    "left_outer": tp_left_outer_join,
    "right_outer": tp_right_outer_join,
    "full_outer": tp_full_outer_join,
    "anti": tp_anti_join,
}


def tp_join_operation(
    kind: str,
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]] = None,
    *,
    materialize: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """Compute ``r <kind> s`` where kind names a JOIN_OPERATIONS entry."""
    try:
        func = JOIN_OPERATIONS[kind]
    except KeyError as exc:
        raise UnsupportedOperationError(f"unknown TP join kind {kind!r}") from exc
    return func(r, s, on, materialize=materialize, options=options)


# ----------------------------------------------------------------------
# the generalized-window driver
# ----------------------------------------------------------------------
def _generalized_join(
    kind: str,
    r: TPRelation,
    s: TPRelation,
    on: Optional[Sequence[str]],
    materialize: bool,
    options: Optional[ProbabilityOptions],
) -> TPRelation:
    layout = join_layout(kind, r, s, on)
    name = f"({r.name} {JOIN_SYMBOLS[kind]} {s.name})"
    events = r.merged_events(s)
    valued = events if materialize else None

    policy = WINDOW_POLICIES[kind]
    r_groups = _group_by_key(r.sorted_tuples(), layout.r_key_idx)
    s_groups = _group_by_key(s.sorted_tuples(), layout.s_key_idx)
    empty: tuple[TPTuple, ...] = ()
    built: list[TPTuple] = []
    carried: list[TPTuple] = []
    for key in {**r_groups, **s_groups}:
        group_built, group_carried = join_group(
            layout, policy, r_groups.get(key, empty), s_groups.get(key, empty),
            valued, options,
        )
        built += group_built
        carried += group_carried
    out = built + carried
    _sort_output(out)
    if policy.matches and (policy.preserve_left or policy.preserve_right):
        out = merge_fact_overlaps(out)
    if materialize:
        value_join_rows(built, out, events, options)
    return TPRelation._derived(
        name, layout.out_schema, out, events, assume_sorted=True
    )


_p_of = attrgetter("p")
_fact_of = attrgetter("fact")


def value_join_rows(
    built: list[TPTuple],
    out: Iterable[TPTuple],
    events: Mapping[str, float],
    options: Optional[ProbabilityOptions],
) -> int:
    """Value what a join's group steps left at ``p=None`` in one batch,
    and count the rows they valued in the sweep (DESIGN.md §8.2).

    ``built`` are the tuples :func:`join_group` built for an ``events``
    map; those holding ``p`` count as ``swept``, after the batch, as
    :func:`repro.core.setops._finish` counts.  ``out`` is the output
    they went into, carried tuples and any
    :func:`merge_fact_overlaps` included: every tuple of it still at
    ``p=None`` is the caller's and gets its ``p`` in place.  Returns the
    rows valued, in the sweep or in the batch.
    """
    swept = len(built) - list(map(_p_of, built)).count(None)
    pending = [t for t in out if t.p is None]
    value_pending(pending, events, options)
    count_swept(swept)
    return swept + len(pending)


def _sort_output(out: list[TPTuple]) -> None:
    """Sort into the null-safe ``(F, Ts, Te)`` order.

    Equivalent to sorting by :func:`repro.core.sorting.null_safe_key`,
    but the per-value null wrapping is computed once per *distinct* fact
    — join outputs repeat each fact across many windows.
    """
    fact_keys: dict = {}

    def key(t: TPTuple, _cache=fact_keys) -> tuple:
        fact = t.fact
        wrapped = _cache.get(fact)
        if wrapped is None:
            wrapped = tuple((v is None, v) for v in fact)
            _cache[fact] = wrapped
        return (wrapped, t.start, t.end)

    out.sort(key=key)


def merge_fact_overlaps(tuples: list[TPTuple]) -> list[TPTuple]:
    """Collapse tuples of one fact that overlap in time (DESIGN.md §8.4).

    An outer join's null-padded fact coincides with a matched fact, or
    with the other side's padded fact, when the source tuple already
    holds nulls in the padded positions — its operand is itself an
    outer join.  Set semantics make them one fact (as in the
    possible-worlds oracle): at each point it exists iff any of the
    coinciding tuples does.  Each cluster of overlapping tuples is split
    at its end points; a segment carries the disjunction of the
    lineages valid there, and contiguous segments of the same lineage
    are re-joined.  Merged tuples are lineage-only.

    ``tuples`` is ordered by fact, then start (facts contiguous); the
    same list is returned when no two tuples of a fact overlap.
    """
    out: Optional[list[TPTuple]] = None
    i, n = 0, len(tuples)
    while i < n:
        t = tuples[i]
        fact = t.fact
        end = t.end
        j = i + 1
        while j < n and tuples[j].fact == fact and tuples[j].start < end:
            end = max(end, tuples[j].end)
            j += 1
        if j - i > 1:
            if out is None:
                out = tuples[:i]
            out.extend(_merge_cluster(fact, tuples[i:j]))
        elif out is not None:
            out.append(t)
        i = j
    return tuples if out is None else out


def _merge_cluster(fact: Fact, run: list[TPTuple]) -> list[TPTuple]:
    run = sorted(run, key=lambda t: (t.start, t.end))
    points = sorted({p for t in run for p in (t.start, t.end)})
    segments: list[list] = []
    for lo, hi in zip(points, points[1:]):
        valid = [
            t.lineage for t in run if t.start <= lo and hi <= t.end
        ]
        lam = valid[0] if len(valid) == 1 else lor(*valid)
        if segments and segments[-1][2] is lam:
            segments[-1][1] = hi
        else:
            segments.append([lo, hi, lam])
    return tuples_from_rows((fact, lam, lo, hi) for lo, hi, lam in segments)


def group_emits(policy: WindowPolicy, has_left: bool, has_right: bool) -> bool:
    """Can a join-key group with tuples on these sides emit anything?

    A match needs both sides, a preserved side its own; sweeping any
    other group is provably empty work, which the batch driver and the
    view maintenance of :mod:`repro.store` both skip."""
    return (
        (policy.preserve_left and has_left)
        or (policy.preserve_right and has_right)
        or (policy.matches and has_left and has_right)
    )


def join_group(
    layout: JoinLayout,
    policy: WindowPolicy,
    group_l: Sequence[TPTuple],
    group_s: Sequence[TPTuple],
    events: Optional[Mapping[str, float]] = None,
    options: Optional[ProbabilityOptions] = None,
) -> tuple[list[TPTuple], list[TPTuple]]:
    """One join-key group's output: the tuples its sweep builds, and the
    tuples it carries through unswept.

    The one group step of the batch driver and of the incremental view
    maintenance of :mod:`repro.store`, which re-runs it over dirty
    regions.  ``group_l`` / ``group_s`` are the group's tuples in their
    relations' ``(F, Ts)`` order.  Degenerate layouts collapse here
    (DESIGN.md §8.4), and only for policies that emit matches — never
    for the anti join, whose negated lineage must survive even when the
    layouts coincide:

    * a key-only right side makes matched and preserved-left facts
      coincide, and their lineages merge to the left tuple's own: the
      left tuples are carried;
    * mirrored, a key-only left side carries the right tuples under
      their key-ordered projection;
    * both key-only, a full outer join is the TP union of the key
      projections, which the set-operation kernel sweeps.

    The built tuples are the group's own.  Without ``events`` they are
    lineage-only.  With ``events`` — the root of a query or a view —
    the sweep values what it can (:func:`_match_tuples`, the kernel's
    union), and every tuple still at ``p=None``, carried ones included,
    is the caller's to fill in place (:func:`value_join_rows`): a
    carried tuple without ``p`` is handed out as a copy.
    """
    if not group_emits(policy, bool(group_l), bool(group_s)):
        return [], []
    sweep = policy
    carried: list[TPTuple] = []
    if policy.matches:
        s_collapse = policy.preserve_left and layout.s_degenerate
        r_collapse = policy.preserve_right and layout.r_degenerate
        if s_collapse and r_collapse:
            projected = [u.with_fact(layout.right_fact(u.fact)) for u in group_s]
            # The projection may reorder key columns, and null-padded
            # facts (the operand may itself be an outer join) only sort
            # in the null-safe order.
            projected.sort(key=null_safe_key)
            return _fused_sweep(group_l, projected, "union", events, limit_of(options))[0], []
        if s_collapse:
            if events is None:
                carried += group_l
            else:
                carried += [u if u.p is not None else u.with_fact(u.fact) for u in group_l]
            sweep = WindowPolicy(False, False, policy.preserve_right)
        elif r_collapse:
            carried += [u.with_fact(layout.right_fact(u.fact)) for u in group_s]
            sweep = WindowPolicy(False, policy.preserve_left, False)
    if not (sweep.matches or sweep.preserve_left or sweep.preserve_right):
        return [], carried
    return _match_tuples(layout, sweep, group_l, group_s, events), carried


def _match_tuples(
    layout: JoinLayout,
    policy: WindowPolicy,
    group_l: Sequence[TPTuple],
    group_s: Sequence[TPTuple],
    events: Optional[Mapping[str, float]],
) -> list[TPTuple]:
    """Sweep one join-key group under ``policy`` and build its tuples —
    the sweep half of :func:`join_group`, which decides the policy a
    group is swept under.

    A match of two distinct base variables is deferred as the ∩ kernel
    defers it: the tuple holds ``λl`` and ``λr`` as operands under
    ``DEFER_AND`` and builds no node until its lineage is read (DESIGN.md
    §6.3); with both variables in ``events`` it gets ``p = p_l * p_r``,
    the value the kernel writes.  A self-match, a match over any other
    operand and a preserved window get their node and ``p=None``.
    """
    matched_fact = layout.matched_fact
    left_fact = layout.left_fact
    right_fact = layout.right_fact
    probability_of = {}.get if events is None else events.get
    out: list[TPTuple] = []
    append = out.append
    match_window = MatchWindow
    # Each tuple is built as a draft and published by its last write.
    for w in generalized_windows(group_l, group_s, policy):
        t = _TupleDraft()
        t.start = w.win_ts
        t.end = w.win_te
        if type(w) is match_window:
            left = w.left
            right = w.right
            t.fact = matched_fact(left.fact, right.fact)
            lam_l = left._lineage
            lam_r = right._lineage
            if type(lam_l) is Var and type(lam_r) is Var and lam_l is not lam_r:
                t._lineage = None
                t._left = lam_l
                t._right = lam_r
                t._op = DEFER_AND
                p_l = probability_of(lam_l.name)
                p_r = probability_of(lam_r.name)
                t.p = None if p_l is None or p_r is None else p_l * p_r
            else:
                t._lineage = land(left.lineage, right.lineage)
                t.p = None
        else:
            preserved = w.tuple
            t.fact = left_fact(preserved.fact) if w.side == LEFT else right_fact(preserved.fact)
            t._lineage = preserved_lineage(preserved.lineage, w.others)
            t.p = None
        t.__class__ = TPTuple
        append(t)
    return out


def _group_by_key(
    tuples_sorted: Sequence[TPTuple], key_idx: tuple[int, ...]
) -> dict[tuple, list[TPTuple]]:
    # One itemgetter reads every key; over one attribute it returns the
    # value itself, which zip wraps into the key's 1-tuple.
    facts = map(_fact_of, tuples_sorted)
    keys = map(itemgetter(*key_idx), facts)
    groups: dict[tuple, list[TPTuple]] = {}
    for key, u in zip(keys if len(key_idx) > 1 else zip(keys), tuples_sorted):
        groups.setdefault(key, []).append(u)
    return groups
