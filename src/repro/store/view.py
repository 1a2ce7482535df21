"""Materialized TP views with incremental maintenance.

A :class:`MaterializedView` is defined by a parsed query (set operations,
selections and the generalized joins) over :class:`SegmentStore` base
relations, and keeps its result relation continuously consistent under
base-table mutations without recomputing from scratch.

Why incremental maintenance is sound here (DESIGN.md §9): LAWA windows —
and their generalized join cousins — are determined *purely locally* by
the ``(F, Ts)``-sorted neighborhood (arXiv:1910.00474).  A window never
spans a time point at which no input tuple of its fact group (join-key
group for joins) is valid, so the output restricted to a maximal covered
span is a function of the input tuples inside that span alone.  A
mutation therefore perturbs the result only inside **dirty regions**:

1. each committed transaction yields per-fact-group dirty time ranges
   (the spans of the inserted and deleted tuples);
2. every operator node **widens** a dirty range until no tuple of its
   current input runs crosses an end — a predecessor test per run and
   end, the runs being duplicate-free — after which no input tuple, old
   or new, crosses the widened boundaries;
3. the node re-runs the kernel sweep (:func:`repro.core.setops.sweep_rows`
   / :func:`repro.algebra.join.join_group`) over the widened range
   only and **splices** the kernel's tuples into its cached output as
   they come, reusing an old tuple object (and its probability)
   whenever the regenerated window is identical in interval and
   formula — a question answered from the rows' operands, so no
   refresh builds a lineage node;
4. changed regions propagate upward, so an operator above an unchanged
   subresult does no work at all.

The view's topmost operator node values the rows it builds in its own
sweep, as a query's root does: the kernel writes ``p`` where it builds
a window and one batch takes what it leaves pending.  Every node below
the root is lineage-only, and nothing values the root's rows a second
time (DESIGN.md §9.3).

Three refresh policies: ``eager`` (the database refreshes the view after
every transaction), ``deferred`` (refresh on read — the default), and
``manual`` (only an explicit :meth:`MaterializedView.refresh`).  The
``RECOMPUTE`` maintenance strategy (:mod:`repro.store.maintenance`) runs
the same view by full re-evaluation — the cross-checking oracle the
property suite holds the incremental engine against.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from itertools import chain
from typing import Iterable, Mapping, Optional, Sequence

from ..algebra.join import (
    JoinLayout,
    group_emits,
    join_group,
    join_layout_from_schemas,
    merge_fact_overlaps,
    tp_join_operation,
    value_join_rows,
)
from ..core.errors import SchemaMismatchError, UnsupportedOperationError
from ..core.gtwindow import WINDOW_POLICIES
from ..core.relation import TPRelation, selection_name
from ..core.schema import Fact, operand_kind_clash
from ..core.setops import sweep_rows, tp_set_operation
from ..core.sorting import null_safe_fact_key
from ..core.tuple import TPTuple
from ..prob.valuation import ProbabilityOptions
from ..query.ast import JoinNode, QueryNode, RelationRef, SelectionNode, SetOpNode
from .segment import Region, SegmentStore

__all__ = ["MaterializedView", "REFRESH_POLICIES"]

#: Supported refresh policies, in "how automatic" order.
REFRESH_POLICIES = ("eager", "deferred", "manual")

#: What a view counts while it is maintained and read (``MaterializedView.stats``).
STAT_NAMES = (
    "refreshes", "ranges_reswept", "rows_reswept",
    "rows_spliced", "rows_reused", "rows_valuated",
    "reads", "rows_read",
)

_interval_start = operator.attrgetter("start")


# ----------------------------------------------------------------------
# dirty-range geometry
# ----------------------------------------------------------------------
def _merge_ranges(ranges: Iterable[Sequence[int]]) -> list[list[int]]:
    """Merge overlapping or adjacent ``[lo, hi)`` ranges (sorted output).

    Only overlapping/adjacent ranges merge, so a merged range is always a
    *contiguous* union of its inputs — the property that keeps the
    no-tuple-crosses-the-boundary invariant through merging.
    """
    ordered = sorted([lo, hi] for lo, hi in ranges)
    if not ordered:
        return []
    out = [ordered[0]]
    for lo, hi in ordered[1:]:
        if lo > out[-1][1]:
            out.append([lo, hi])
        elif hi > out[-1][1]:
            out[-1][1] = hi
    return out


def _run_between(run: list[TPTuple], lo: int, hi: int) -> list[TPTuple]:
    """The tuples of a ``Ts``-sorted run that start inside ``[lo, hi)``."""
    i = bisect_left(run, lo, key=_interval_start)
    return run[i:bisect_left(run, hi, i, key=_interval_start)]


def _widen_run(run: Sequence[TPTuple], lo: int, hi: int) -> tuple[int, int]:
    """Grow ``[lo, hi)`` until no tuple of a duplicate-free run crosses it.

    In a duplicate-free ``Ts``-sorted run the ends are sorted too, so the
    only tuple that can reach past a point is the last one starting
    before it — one predecessor test per end, exact in a single step.
    """
    i = bisect_left(run, lo, key=_interval_start)
    if i and run[i - 1].end > lo:
        lo = run[i - 1].start
    i = bisect_left(run, hi, i, key=_interval_start)
    if i and run[i - 1].end > hi:
        hi = run[i - 1].end
    return lo, hi


def _widen(inputs: Sequence[tuple], lo: int, hi: int) -> list[int]:
    """Widen ``[lo, hi)`` until no tuple of any input run crosses an end.

    ``inputs`` are the ``(child node, fact)`` runs a node's kernel reads
    for one group.  This is the minimal sound widening (DESIGN.md §9.2):
    every window — old or new — lies inside some input tuple's interval,
    so boundaries no input tuple crosses are points no output window
    crosses either, and the kernel sweep over the tuples inside the range
    reproduces exactly the windows a full sweep emits there.  Each run's
    answer is exact for that run, so the fixpoint is reached once every
    *other* run has confirmed the ends the last mover set.
    """
    confirmed = i = 0
    while confirmed < len(inputs):
        node, fact = inputs[i]
        ends = node.widen(fact, lo, hi)
        if ends == (lo, hi):
            confirmed += 1
        else:
            lo, hi = ends
            confirmed = 1
        i = (i + 1) % len(inputs)
    return [lo, hi]


def _formula(t: TPTuple) -> object:
    """The identity of a row's formula, read without interning a node
    (DESIGN.md §9.3): the operands and operator of a deferred row — read
    or not, for as long as it holds them — and otherwise its node.

    Two rows with equal identities stand for one formula: the operands
    are compared by identity (interned lineage, or one row object of a
    child node), so the key never reads a row operand's lineage.
    """
    lineage = t._lineage
    if lineage is None:
        return id(t._left), id(t._right), t._op
    op = getattr(t, "_op", None)  # a row built with its node has no operands
    if op is not None and t._left is not None and t._right is not None:
        return id(t._left), id(t._right), op
    return lineage


def _splice(
    cache: dict,
    fact: Fact,
    parts: list[tuple[Sequence[int], list[TPTuple]]],
    stats: dict,
) -> list[tuple[int, int]]:
    """Replace the cached tuples of ``fact`` inside each dirty range.

    ``parts`` pairs every widened range (sorted, disjoint) with the
    regenerated tuples for that range.  Cached tuples lie entirely
    inside or outside every range (the widening invariant), so the
    replacement is slice surgery on the bisected run — no per-tuple
    scan, no re-sort.  Old tuple objects are reused whenever a
    regenerated window is identical in interval and formula
    (:func:`_formula`), and a range whose every window kept its old
    tuple is unchanged: neither question reads a lineage.

    Returns the ranges whose content actually changed (empty: no-op).
    """
    run = cache.get(fact, [])
    changed_ranges: list[tuple[int, int]] = []
    for (lo, hi), fresh in parts:
        i = bisect_left(run, lo, key=_interval_start)
        j = bisect_left(run, hi, i, key=_interval_start)
        removed = run[i:j]
        if removed and fresh:
            reuse = {(t.start, t.end, _formula(t)): t for t in removed}
            kept = [reuse.get((t.start, t.end, _formula(t)), t) for t in fresh]
            stats["rows_reused"] += len(kept) - sum(map(operator.is_, kept, fresh))
            fresh = kept
        if len(removed) != len(fresh) or not all(map(operator.is_, removed, fresh)):
            run[i:j] = fresh
            changed_ranges.append((lo, hi))
            stats["rows_spliced"] += len(fresh)
    if run:
        cache[fact] = run
    else:
        cache.pop(fact, None)
    return changed_ranges


def _count_sweep(stats: dict, lt: Sequence[TPTuple], rt: Sequence[TPTuple]) -> None:
    """Count one kernel sweep over ``lt`` and ``rt`` in the view's stats."""
    stats["ranges_reswept"] += 1
    stats["rows_reswept"] += len(lt) + len(rt)


# ----------------------------------------------------------------------
# operator nodes
# ----------------------------------------------------------------------
# Every node answers three range questions about one fact's run — has /
# run / widen, each O(log n + k) — besides handing out whole groups for
# full builds and relation().
class _BaseNode:
    """A scan of a :class:`SegmentStore`, replaying its change log."""

    __slots__ = ("store", "schema", "seen_epoch", "_events", "__weakref__")

    def __init__(self, store: SegmentStore, events: dict) -> None:
        self.store = store
        self.schema = store.schema
        self.seen_epoch = store.epoch
        self._events = events
        events.update(store.events)
        store.register_consumer(self)

    def pull(self) -> list[Region]:
        changesets = self.store.changes_since(self.seen_epoch)
        if not changesets:
            return []
        self.seen_epoch = self.store.epoch
        regions: list[Region] = []
        for cs in changesets:
            self._events.update(cs.events)
            for name in cs.removed_events:
                self._events.pop(name, None)
            regions.extend(cs.regions())
        return regions

    def has(self, fact: Fact) -> bool:
        return fact in self.store

    def run(self, fact: Fact, lo: int, hi: int) -> list[TPTuple]:
        return self.store.run_of(fact, lo, hi)

    def widen(self, fact: Fact, lo: int, hi: int) -> tuple[int, int]:
        return self.store.widen_of(fact, lo, hi)

    def group(self, fact: Fact) -> Sequence[TPTuple]:
        return self.store.tuples_of(fact)

    def facts(self) -> Iterable[Fact]:
        return self.store.facts()


class _SelectNode:
    """σ[attribute=value] — filters whole fact groups, no cache needed."""

    __slots__ = ("child", "schema", "_index", "_value")

    def __init__(self, child, attribute: str, value: object) -> None:
        self.child = child
        self.schema = child.schema
        self._index = self.schema.index_of(attribute)
        self._value = value

    def _passes(self, fact: Fact) -> bool:
        return fact[self._index] == self._value

    def pull(self) -> list[Region]:
        return [r for r in self.child.pull() if self._passes(r[0])]

    def has(self, fact: Fact) -> bool:
        return self._passes(fact) and self.child.has(fact)

    def run(self, fact: Fact, lo: int, hi: int) -> list[TPTuple]:
        return self.child.run(fact, lo, hi) if self._passes(fact) else []

    def widen(self, fact: Fact, lo: int, hi: int) -> tuple[int, int]:
        return self.child.widen(fact, lo, hi) if self._passes(fact) else (lo, hi)

    def group(self, fact: Fact) -> Sequence[TPTuple]:
        return self.child.group(fact) if self._passes(fact) else []

    def facts(self) -> Iterable[Fact]:
        # Lazy: a kind check reads the first kept fact only.
        return (f for f in self.child.facts() if self._passes(f))


class _CachedNode:
    """What the operator nodes share: range reads over ``cache``, the
    node's output per fact as ``Ts``-sorted, duplicate-free runs.

    ``events`` is the engine's event map on the view's root operator
    and None below it: the root values the rows it builds under it and
    ``options`` as a query's root does — in its sweep, and the rest in
    one batch — and every interior node builds lineage-only rows
    (DESIGN.md §9.3)."""

    __slots__ = ("schema", "cache", "stats", "events", "options")
    cache: dict[Fact, list[TPTuple]]
    stats: dict[str, int]
    events: Optional[dict[str, float]]
    options: Optional[ProbabilityOptions]

    def has(self, fact: Fact) -> bool:
        return fact in self.cache

    def run(self, fact: Fact, lo: int, hi: int) -> list[TPTuple]:
        run = self.cache.get(fact)
        return _run_between(run, lo, hi) if run else []

    def widen(self, fact: Fact, lo: int, hi: int) -> tuple[int, int]:
        return _widen_run(self.cache.get(fact, ()), lo, hi)

    def group(self, fact: Fact) -> Sequence[TPTuple]:
        return self.cache.get(fact, [])

    def facts(self) -> Iterable[Fact]:
        # A live view: nothing iterates it across a change to the cache.
        return self.cache.keys()


class _SetOpNode(_CachedNode):
    """∪/∩/− maintained per fact group via the fused-kernel seam.

    Each fact group is swept alone, so nothing here compares the facts
    of two groups: operands that hold two kinds in one fact column are
    caught by :meth:`kind_clash` before a read instead (DESIGN.md §9.4).
    """

    __slots__ = ("op", "left", "right", "names")

    def __init__(
        self,
        op: str,
        left,
        right,
        stats: dict,
        names: tuple[str, str],
        events: Optional[dict[str, float]],
        options: Optional[ProbabilityOptions],
    ) -> None:
        left.schema.check_compatible(right.schema)
        self.op = op
        self.left = left
        self.right = right
        self.names = names
        self.schema = left.schema
        self.cache = {}
        self.stats = stats
        self.events = events
        self.options = options
        for fact in set(left.facts()) | set(right.facts()):
            tuples = self._sweep(left.group(fact), right.group(fact))
            if tuples:
                self.cache[fact] = tuples

    def _sweep(self, lt: Sequence[TPTuple], rt: Sequence[TPTuple]) -> list[TPTuple]:
        _count_sweep(self.stats, lt, rt)
        out = sweep_rows(lt, rt, self.op, self.events, self.options)
        if self.events is not None:
            self.stats["rows_valuated"] += len(out)
        return out

    def kind_clash(self) -> Optional[SchemaMismatchError]:
        """The error the query's own set operation would raise over the
        operands as they stand (:func:`~repro.core.schema
        .operand_kind_clash`), or None: one value per column and side."""
        return operand_kind_clash(*self.names, self.left.facts(), self.right.facts())

    def pull(self) -> list[Region]:
        left, right = self.left, self.right
        child_regions = left.pull() + right.pull()
        if not child_regions:
            return []
        dirty: dict[Fact, list[list[int]]] = {}
        for fact, lo, hi in child_regions:
            dirty.setdefault(fact, []).append([lo, hi])
        out: list[Region] = []
        for fact, ranges in dirty.items():
            inputs = ((left, fact), (right, fact))
            widened = _merge_ranges(
                _widen(inputs, lo, hi) for lo, hi in _merge_ranges(ranges)
            )
            # The kernel's lineage-only tuples are spliced in as they are.
            parts = [
                ((lo, hi), self._sweep(left.run(fact, lo, hi), right.run(fact, lo, hi)))
                for lo, hi in widened
            ]
            out.extend(
                (fact, lo, hi)
                for lo, hi in _splice(self.cache, fact, parts, self.stats)
            )
        return out


class _JoinNode(_CachedNode):
    """Generalized join maintained per join-key group.

    Each group runs the batch driver's own group step,
    :func:`repro.algebra.join.join_group` (the degenerate-layout
    collapses of DESIGN.md §8.4 included), so the incrementally
    maintained output is lineage-identical to a full recompute.
    """

    __slots__ = (
        "kind", "on", "left", "right", "layout", "policy",
        "_left_facts", "_right_facts", "_out_facts",
    )

    def __init__(
        self,
        kind: str,
        on,
        left,
        right,
        stats: dict,
        events: Optional[dict[str, float]],
        options: Optional[ProbabilityOptions],
    ) -> None:
        self.kind = kind
        self.on = on
        self.left = left
        self.right = right
        self.layout: JoinLayout = join_layout_from_schemas(
            kind, left.schema, right.schema, on
        )
        self.policy = WINDOW_POLICIES[kind]
        self.schema = self.layout.out_schema
        self.cache = {}
        self.stats = stats
        self.events = events
        self.options = options
        self._left_facts: dict[tuple, set[Fact]] = {}
        self._right_facts: dict[tuple, set[Fact]] = {}
        self._out_facts: dict[tuple, set[Fact]] = {}
        for fact in left.facts():
            self._left_facts.setdefault(self._left_key(fact), set()).add(fact)
        for fact in right.facts():
            self._right_facts.setdefault(self._right_key(fact), set()).add(fact)
        for key in set(self._left_facts) | set(self._right_facts):
            if not self._can_emit(key):
                continue
            by_fact = self._group_runs(
                self._gather(left, self._key_facts(self._left_facts, key)),
                self._gather(right, self._key_facts(self._right_facts, key)),
            )
            if by_fact:
                self._out_facts[key] = set(by_fact)
                self.cache.update(by_fact)

    def _left_key(self, fact: Fact) -> tuple:
        return tuple(fact[i] for i in self.layout.r_key_idx)

    def _right_key(self, fact: Fact) -> tuple:
        return tuple(fact[i] for i in self.layout.s_key_idx)

    def _can_emit(self, key: tuple) -> bool:
        """Can this key group produce any output (:func:`group_emits`)?"""
        return group_emits(
            self.policy,
            bool(self._left_facts.get(key)),
            bool(self._right_facts.get(key)),
        )

    @staticmethod
    def _key_facts(index: dict, key: tuple) -> Sequence[Fact]:
        """One side's facts of a join key, in the ``(F, Ts)`` fact order."""
        return sorted(index.get(key, ()), key=null_safe_fact_key)

    @staticmethod
    def _gather(
        node, facts: Sequence[Fact], lo: Optional[int] = None, hi: int = 0
    ) -> list[TPTuple]:
        """A key group's tuples — given ``lo``, those starting inside
        ``[lo, hi)`` — in the child's ``(F, Ts)`` order (fact-major)."""
        out: list[TPTuple] = []
        for fact in facts:
            out += node.group(fact) if lo is None else node.run(fact, lo, hi)
        return out

    def _group_runs(
        self, group_l: list[TPTuple], group_s: list[TPTuple]
    ) -> dict[Fact, list[TPTuple]]:
        """One key group's output through the shared group step, as runs
        by fact: each ordered by start and, for the outer joins, with
        coinciding facts collapsed as the batch driver does
        (:func:`repro.algebra.join.merge_fact_overlaps`).  At the root
        the step values its matches over two base variables, and the
        rows it leaves at ``p=None`` — merged ones too — go to one
        batch (:func:`repro.algebra.join.value_join_rows`)."""
        _count_sweep(self.stats, group_l, group_s)
        events = self.events
        built, carried = join_group(
            self.layout, self.policy, group_l, group_s, events, self.options
        )
        by_fact: dict[Fact, list[TPTuple]] = {}
        for t in built:
            by_fact.setdefault(t.fact, []).append(t)
        for t in carried:
            by_fact.setdefault(t.fact, []).append(t)
        policy = self.policy
        merges = policy.matches and (policy.preserve_left or policy.preserve_right)
        for fact, run in by_fact.items():
            run.sort(key=_interval_start)
            if merges:
                by_fact[fact] = merge_fact_overlaps(run)
        if events is not None:
            self.stats["rows_valuated"] += value_join_rows(
                built, chain.from_iterable(by_fact.values()), events, self.options
            )
        return by_fact

    def pull(self) -> list[Region]:
        dirty: dict[tuple, list[list[int]]] = {}
        for child, key_of, index in (
            (self.left, self._left_key, self._left_facts),
            (self.right, self._right_key, self._right_facts),
        ):
            for fact, lo, hi in child.pull():
                key = key_of(fact)
                dirty.setdefault(key, []).append([lo, hi])
                facts = index.setdefault(key, set())
                if child.has(fact):
                    facts.add(fact)
                else:
                    facts.discard(fact)
        if not dirty:
            return []

        # Widen each dirty key's ranges over every fact run of the key on
        # both sides and re-sweep each widened range (gathered sub-groups
        # stay in (F, Ts) order — fact-major).
        left, right = self.left, self.right
        out: list[Region] = []
        for key, ranges in dirty.items():
            if not self._can_emit(key) and not self._out_facts.get(key):
                # The group can emit nothing and holds no stale cache to
                # splice away — skip the gather/widen/sweep entirely.
                continue
            left_facts = self._key_facts(self._left_facts, key)
            right_facts = self._key_facts(self._right_facts, key)
            inputs = [(left, fact) for fact in left_facts]
            inputs += [(right, fact) for fact in right_facts]
            widened = _merge_ranges(
                _widen(inputs, lo, hi) for lo, hi in _merge_ranges(ranges)
            )
            buckets = [
                self._group_runs(
                    self._gather(left, left_facts, lo, hi),
                    self._gather(right, right_facts, lo, hi),
                )
                for lo, hi in widened
            ]
            out_index = self._out_facts.setdefault(key, set())
            affected = set(out_index)
            for bucket in buckets:
                affected.update(bucket)
            empty: list[TPTuple] = []
            for fact in affected:
                parts = [
                    ((lo, hi), bucket.get(fact, empty))
                    for (lo, hi), bucket in zip(widened, buckets)
                ]
                out.extend(
                    (fact, lo, hi)
                    for lo, hi in _splice(self.cache, fact, parts, self.stats)
                )
                if fact in self.cache:
                    out_index.add(fact)
                else:
                    out_index.discard(fact)
        return out


# ----------------------------------------------------------------------
# maintenance engines
# ----------------------------------------------------------------------
class IncrementalEngine:
    """Delta-scoped maintenance: dirty regions, widening, splicing."""

    def __init__(
        self,
        query: QueryNode,
        stores: Mapping[str, SegmentStore],
        options: Optional[ProbabilityOptions] = None,
    ) -> None:
        self.events: dict[str, float] = {}
        self.stats = dict.fromkeys(STAT_NAMES, 0)
        self._options = options
        self._base_nodes: list[_BaseNode] = []
        # Inner before outer, so the innermost clash is the one raised.
        self._set_ops: list[_SetOpNode] = []
        self.root = self._build(query, stores, root=True)
        self.schema = self.root.schema
        # The assembled result, until a refresh changes it: a stale copy
        # (its tuple of rows, its event-map snapshot) is dropped at once,
        # not kept until the next read replaces it.
        self._cached: Optional[TPRelation] = None
        # An operator root values the rows it builds in its own sweep,
        # into lists the engine owns (its caches).  A base/selection root
        # serves the *store's* flat-cache lists, which no view may write:
        # such roots valuate at relation() time, on a copy, instead.
        owner = self.root
        while isinstance(owner, _SelectNode):
            owner = owner.child
        self._root_owns_cache = isinstance(owner, (_SetOpNode, _JoinNode))
        # Where a read takes its probabilities: the map that is current
        # for the runs it copies — the store's own for a root that reads
        # the store's lists (this engine's map catches up with those
        # only when it refreshes, which a manual view may not have).
        self._live_events = self.events if self._root_owns_cache else owner.store.events

    def _build(self, node: QueryNode, stores: Mapping[str, SegmentStore], root: bool = False):
        """The node tree of ``node``; the event map goes to its topmost
        operator node (through σ), which values its rows, and to no node
        below it."""
        if isinstance(node, RelationRef):
            base = _BaseNode(stores[node.name], self.events)
            self._base_nodes.append(base)
            return base
        if isinstance(node, SelectionNode):
            return _SelectNode(
                self._build(node.child, stores, root), node.attribute, node.value
            )
        if isinstance(node, SetOpNode):
            set_node = _SetOpNode(
                node.op,
                self._build(node.left, stores),
                self._build(node.right, stores),
                self.stats,
                (str(node.left), str(node.right)),
                self.events if root else None,
                self._options,
            )
            self._set_ops.append(set_node)
            return set_node
        if isinstance(node, JoinNode):
            return _JoinNode(
                node.kind,
                node.on,
                self._build(node.left, stores),
                self._build(node.right, stores),
                self.stats,
                self.events if root else None,
                self._options,
            )
        raise UnsupportedOperationError(
            f"incremental maintenance does not support query node {node!r}"
        )

    def is_fresh(self) -> bool:
        return all(b.store.epoch == b.seen_epoch for b in self._base_nodes)

    def refresh(self) -> bool:
        if self.is_fresh():
            return False
        self.stats["refreshes"] += 1
        if not self.root.pull():
            return False
        self._cached = None
        return True

    def _check_kinds(self) -> None:
        """Refuse a read as the query would: a store emptied by deletes
        takes a fact of a new kind, so a set-operation node's operands
        can come to hold two kinds in one column while each is valid."""
        for set_node in self._set_ops:
            clash = set_node.kind_clash()
            if clash is not None:
                raise clash

    def relation(self, name: str) -> TPRelation:
        if self._cached is not None:
            return self._cached
        self._check_kinds()
        tuples: list[TPTuple] = []
        for fact in sorted(self.root.facts(), key=null_safe_fact_key):
            tuples.extend(self.root.group(fact))
        relation = TPRelation(
            name,
            self.schema,
            tuples,
            self._live_events,
            validate=False,
            assume_sorted=True,
        )
        if not self._root_owns_cache:
            # Base/selection roots: store tuples are usually materialized
            # already (no-op); seeded p=None tuples valuate on a *copy*.
            relation = relation.materialize_probabilities(options=self._options)
        self._cached = relation
        return relation

    def select(self, name: str, equalities: dict[str, object]) -> TPRelation:
        """``relation(name).select(**equalities)`` from the fact groups
        the selection keeps (DESIGN.md §9.4): a result assembled at this
        revision is bisected; otherwise their runs are copied (splicing
        rewrites them in place) under an event map restricted to what
        they reference, read from the live one.  A selection on fact
        attributes keeps or drops whole fact groups; the kept ones are
        copied in ``null_safe_fact_key`` order, which is the ``(F, Ts)``
        order."""
        if self._cached is not None:
            return self._cached.select(**equalities)
        self._check_kinds()
        pairs = [(self.schema.index_of(a), value) for a, value in equalities.items()]
        facts = sorted(
            (f for f in self.root.facts() if all(f[i] == v for i, v in pairs)),
            key=null_safe_fact_key,
        )
        relation = TPRelation.restricted(
            selection_name(name, equalities),
            self.schema,
            [t for fact in facts for t in self.root.group(fact)],
            self._live_events,
        )
        if not self._root_owns_cache:
            relation = relation.materialize_probabilities(options=self._options)
        return relation


class RecomputeEngine:
    """Full re-evaluation on every refresh — the cross-checking fallback.

    Runs the view's query through the same batch operators the executor
    uses (set operations via the fused LAWA kernel, joins via GTWINDOW),
    with probabilities materialized at the root.  Registered beside the
    incremental strategy so tests and benchmarks can hold the two
    against each other on identical stores.
    """

    def __init__(
        self,
        query: QueryNode,
        stores: Mapping[str, SegmentStore],
        options: Optional[ProbabilityOptions] = None,
    ) -> None:
        self._query = query
        self._stores = dict(stores)
        self._options = options
        self._seen: dict[str, int] = {}
        self._relation: Optional[TPRelation] = None
        # What a read raises while the stores' operands clash in kind.
        self._clash: Optional[SchemaMismatchError] = None
        self.stats = dict.fromkeys(STAT_NAMES, 0)
        self.refresh()
        self.schema = self._relation.schema

    def is_fresh(self) -> bool:
        return all(
            store.epoch == self._seen.get(name)
            for name, store in self._stores.items()
        )

    def refresh(self) -> bool:
        built = self._relation is not None
        if built and self.is_fresh():
            return False
        # Pin the epochs first, then evaluate every scan through the
        # public epoch-pinned snapshot API: the recompute reads one
        # consistent cut of the stores even if a scan is revisited.
        self._seen = {name: store.epoch for name, store in self._stores.items()}
        try:
            result = self._evaluate(self._query)
        except SchemaMismatchError as clash:
            if not built:
                raise
            # The commit stands (each store holds one kind); the view
            # refuses reads, as its query does, until a change mends it.
            self._clash = clash
            return True
        self._clash = None
        self._relation = result.materialize_probabilities(options=self._options)
        # A recompute re-derives, re-installs and re-valuates every row
        # (the build is no refresh and splices nothing, as in stats()).
        if built:
            self.stats["refreshes"] += 1
            self.stats["rows_spliced"] += len(result)
        self.stats["rows_valuated"] += sum(t.p is None for t in result)
        return True

    def _evaluate(self, node: QueryNode) -> TPRelation:
        if isinstance(node, RelationRef):
            store = self._stores[node.name]
            return store.snapshot(epoch=self._seen[node.name])
        if isinstance(node, SelectionNode):
            child = self._evaluate(node.child)
            return child.select(**{node.attribute: node.value})
        if isinstance(node, (SetOpNode, JoinNode)):
            left, right = self._evaluate(node.left), self._evaluate(node.right)
            self.stats["ranges_reswept"] += 1
            self.stats["rows_reswept"] += len(left) + len(right)
            if isinstance(node, SetOpNode):
                return tp_set_operation(node.op, left, right, materialize=False)
            return tp_join_operation(
                node.kind, left, right, node.on, materialize=False
            )
        raise UnsupportedOperationError(
            f"view recomputation does not support query node {node!r}"
        )

    def relation(self, name: str) -> TPRelation:
        if self._clash is not None:
            raise self._clash
        assert self._relation is not None
        if self._relation.name == name:
            return self._relation
        self._relation = self._relation.rename(name)
        return self._relation

    def select(self, name: str, equalities: dict[str, object]) -> TPRelation:
        """A bisect of the relation the last recompute built."""
        return self.relation(name).select(**equalities)


# ----------------------------------------------------------------------
# the view object
# ----------------------------------------------------------------------
class MaterializedView:
    """A named, continuously maintained query result.

    Parameters
    ----------
    query:
        The defining query AST (any :mod:`repro.query.ast` tree whose
        leaves name entries of ``stores``).
    stores:
        The mutable base relations the view reads, by name.
    policy:
        ``eager`` | ``deferred`` | ``manual`` — who triggers refreshes.
    strategy:
        Maintenance strategy name (:func:`repro.store.maintenance
        .maintenance_strategies`): ``INCREMENTAL`` (default) or
        ``RECOMPUTE``.
    """

    def __init__(
        self,
        name: str,
        query: QueryNode,
        stores: Mapping[str, SegmentStore],
        *,
        policy: str = "deferred",
        strategy: str = "INCREMENTAL",
        options: Optional[ProbabilityOptions] = None,
    ) -> None:
        if policy not in REFRESH_POLICIES:
            raise ValueError(
                f"unknown refresh policy {policy!r}; choose from {REFRESH_POLICIES}"
            )
        from .maintenance import get_maintenance_strategy

        self.name = name
        self.query = query
        self.policy = policy
        self.strategy = get_maintenance_strategy(strategy)
        self._engine = self.strategy.build(query, stores, options)

    def refresh(self) -> bool:
        """Bring the view up to date; True when anything changed."""
        return self._engine.refresh()

    def is_fresh(self) -> bool:
        """True when every base store's changes have been applied."""
        return self._engine.is_fresh()

    def relation(self) -> TPRelation:
        """The view's current result relation.

        ``deferred`` views refresh on read; ``eager`` views are normally
        refreshed at write time by the database, but re-check here (a
        per-store epoch comparison) so writes that bypassed the
        notification path — e.g. direct ``store.apply`` calls — can
        never serve stale data as if fresh.  ``manual`` views serve
        their cached state by contract."""
        if self.policy != "manual":
            self._engine.refresh()
        return self._engine.relation(self.name)

    def select(self, **equalities: object) -> TPRelation:
        """``relation().select(**equalities)``, read from the fact groups
        the selection keeps: a keyed read costs its answer, not the view
        (DESIGN.md §9.4).  Refreshes by policy, like :meth:`relation`."""
        if self.policy != "manual":
            self._engine.refresh()
        return self._engine.select(self.name, equalities)

    def read(self, **equalities: object) -> TPRelation:
        """A query's read of the view — :meth:`select` when ``equalities``
        are given, else :meth:`relation` — counted in :meth:`stats`.
        The planner's statistics and a server session's pins call
        :meth:`relation` and are not counted."""
        result = self.select(**equalities) if equalities else self.relation()
        stats = self._engine.stats
        stats["reads"] += 1
        stats["rows_read"] += len(result)
        return result

    def stats(self) -> dict[str, int]:
        """Maintenance counters: ``refreshes`` that found base changes,
        ``ranges_reswept`` and ``rows_reswept`` (kernel sweeps run and
        their input rows), ``rows_spliced`` into a node's output,
        ``rows_reused`` (regenerated windows that kept their old tuple),
        ``rows_valuated`` — every row the root's sweeps built and
        valued, in the sweep or in its batch, whether or not the splice
        then kept an old tuple in its place (``RECOMPUTE``: the rows
        each recompute valued) — the build's sweeps and valuations
        included; it is no refresh and splices nothing — and the
        query ``reads`` (:meth:`read`, whole or keyed) with the
        ``rows_read`` they returned."""
        return dict(self._engine.stats)

    @property
    def schema(self):
        return self._engine.schema

    def __repr__(self) -> str:
        state = "fresh" if self.is_fresh() else "stale"
        return (
            f"MaterializedView({self.name!r} := {self.query}, "
            f"{self.policy}/{self.strategy.name}, {state})"
        )
