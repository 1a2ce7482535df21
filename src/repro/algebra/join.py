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
(hash partitioning on the join attributes); probabilities are
materialized through the batched valuation path, so each
distinct interned lineage is valuated once per batch.

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
from typing import Callable, Optional, Sequence

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
from ..core.setops import tp_union
from ..core.tuple import TPTuple, tuples_from_rows
from ..lineage.formula import Lineage, land, lnot, lor
from ..prob.valuation import ProbabilityOptions, probability_batch

__all__ = [
    "JOIN_KINDS",
    "JOIN_OPERATIONS",
    "JOIN_SYMBOLS",
    "JoinLayout",
    "join_layout",
    "join_layout_from_schemas",
    "join_group_rows",
    "merge_fact_overlaps",
    "preserved_lineage",
    "tp_join",
    "tp_left_outer_join",
    "tp_right_outer_join",
    "tp_full_outer_join",
    "tp_anti_join",
    "tp_join_operation",
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

    policy = WINDOW_POLICIES[kind]
    do_matches = policy.matches
    preserve_left = policy.preserve_left
    preserve_right = policy.preserve_right
    carried: list[TPTuple] = []

    # Degenerate collapses (see module docstring / DESIGN.md §8.4).
    # They merge matched with preserved output, so they only apply to
    # policies that emit matches — never to the anti join, whose negated
    # lineage must survive even when the layouts coincide.
    if (
        do_matches
        and preserve_left
        and layout.s_degenerate
        and preserve_right
        and layout.r_degenerate
    ):
        return _degenerate_full_outer(name, layout, r, s, events, materialize, options)
    if do_matches and preserve_left and layout.s_degenerate:
        # Matched and preserved-left facts coincide; lineages merge to λr.
        carried.extend(r.tuples)
        do_matches = preserve_left = False
    if policy.matches and preserve_right and layout.r_degenerate:
        # Mirror: the right side collapses to its key-ordered projection.
        carried.extend(
            TPTuple(layout.right_fact(u.fact), u.lineage, u.interval, u.p) for u in s
        )
        do_matches = preserve_right = False

    rows: list = []
    if do_matches or preserve_left or preserve_right:
        sweep_policy = WindowPolicy(do_matches, preserve_left, preserve_right)
        rows = _sweep_rows(layout, r, s, sweep_policy)

    probs = None
    if materialize:
        # One batch over the interned lineages: each distinct formula is
        # valuated once, however many output tuples carry it.
        probs = probability_batch(
            [row[1] for row in rows], events, options=options
        )
        carried_pending = [t for t in carried if t.p is None]
        carried_values = iter(
            probability_batch(
                (t.lineage for t in carried_pending), events, options=options
            )
        )
        carried = [
            t if t.p is not None else t.with_probability(next(carried_values))
            for t in carried
        ]

    out = tuples_from_rows(rows, probs)
    out.extend(carried)
    _sort_output(out)
    if policy.matches and (policy.preserve_left or policy.preserve_right):
        merged = merge_fact_overlaps(out)
        if merged is not out:
            result = TPRelation._derived(
                name, layout.out_schema, merged, events, assume_sorted=True
            )
            if materialize:
                result = result.materialize_probabilities(options=options)
            return result
    return TPRelation._derived(
        name, layout.out_schema, out, events, assume_sorted=True
    )


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
        interval = t.interval
        return (wrapped, interval.start, interval.end)

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
        end = t.interval.end
        j = i + 1
        while j < n and tuples[j].fact == fact and tuples[j].interval.start < end:
            end = max(end, tuples[j].interval.end)
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
    run = sorted(run, key=lambda t: (t.interval.start, t.interval.end))
    points = sorted({p for t in run for p in (t.interval.start, t.interval.end)})
    segments: list[list] = []
    for lo, hi in zip(points, points[1:]):
        valid = [
            t.lineage for t in run if t.interval.start <= lo and hi <= t.interval.end
        ]
        lam = valid[0] if len(valid) == 1 else lor(*valid)
        if segments and segments[-1][2] is lam:
            segments[-1][1] = hi
        else:
            segments.append([lo, hi, lam])
    return tuples_from_rows((fact, lam, lo, hi) for lo, hi, lam in segments)


def _sweep_rows(
    layout: JoinLayout, r: TPRelation, s: TPRelation, policy: WindowPolicy
) -> list:
    """Partition on the join key, sweep each group, assemble output rows."""
    r_groups = _group_by_key(r.sorted_tuples(), layout.r_key_idx)
    s_groups = _group_by_key(s.sorted_tuples(), layout.s_key_idx)

    if policy.preserve_left and policy.preserve_right:
        keys = list(r_groups) + [k for k in s_groups if k not in r_groups]
    elif policy.preserve_left:
        keys = list(r_groups)
    elif policy.preserve_right:
        keys = list(s_groups)
    else:  # matches only: other groups cannot contribute
        keys = [k for k in r_groups if k in s_groups]

    empty: tuple[TPTuple, ...] = ()
    rows = []
    for key in keys:
        rows.extend(
            join_group_rows(
                layout, policy, r_groups.get(key, empty), s_groups.get(key, empty)
            )
        )
    return rows


def join_group_rows(
    layout: JoinLayout,
    policy: WindowPolicy,
    group_l: Sequence[TPTuple],
    group_s: Sequence[TPTuple],
) -> list:
    """Sweep one join-key group and assemble output rows.

    ``group_l`` / ``group_s`` are the group's tuples in their relations'
    ``(F, Ts)`` order.  Like :func:`repro.core.setops.sweep_rows`, this
    is the per-group seam the incremental view maintenance re-sweeps
    dirty regions through: returned rows ``(fact, λ, winTs, winTe)`` are
    exactly what :func:`tp_join_operation` emits before materialization.
    """
    matched_fact = layout.matched_fact
    left_fact = layout.left_fact
    right_fact = layout.right_fact
    rows: list = []
    append = rows.append
    match_window = MatchWindow
    for w in generalized_windows(group_l, group_s, policy):
        if type(w) is match_window:
            append(
                (
                    matched_fact(w.left.fact, w.right.fact),
                    land(w.left.lineage, w.right.lineage),
                    w.win_ts,
                    w.win_te,
                )
            )
        elif w.side == LEFT:
            append(
                (
                    left_fact(w.tuple.fact),
                    preserved_lineage(w.tuple.lineage, w.others),
                    w.win_ts,
                    w.win_te,
                )
            )
        else:
            append(
                (
                    right_fact(w.tuple.fact),
                    preserved_lineage(w.tuple.lineage, w.others),
                    w.win_ts,
                    w.win_te,
                )
            )
    return rows


def _group_by_key(
    tuples_sorted: Sequence[TPTuple], key_idx: tuple[int, ...]
) -> dict[tuple, list[TPTuple]]:
    groups: dict[tuple, list[TPTuple]] = {}
    for u in tuples_sorted:
        groups.setdefault(tuple(u.fact[i] for i in key_idx), []).append(u)
    return groups


def _degenerate_full_outer(
    name: str,
    layout: JoinLayout,
    r: TPRelation,
    s: TPRelation,
    events,
    materialize: bool,
    options: Optional[ProbabilityOptions],
) -> TPRelation:
    """Full outer join of two key-only relations ≡ TP union of the key
    projections — delegated to the fused LAWA kernel."""
    projected = [
        TPTuple(layout.right_fact(u.fact), u.lineage, u.interval, u.p) for u in s
    ]
    # The projection may reorder key columns, and null-padded facts (the
    # operand may itself be an outer join) only sort in the null-safe order.
    _sort_output(projected)
    s_projected = TPRelation._derived(
        s.name, layout.out_schema, projected, s.events, assume_sorted=True
    )
    union = tp_union(r, s_projected, materialize=materialize, options=options)
    return TPRelation._derived(
        name, layout.out_schema, union.tuples, events, assume_sorted=True
    )
