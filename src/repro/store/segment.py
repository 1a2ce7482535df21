"""Mutable TP storage: fact-group-keyed, time-partitioned segments.

The batch operators consume immutable :class:`~repro.core.relation.TPRelation`
objects; under a write-heavy workload every base-fact change would force a
full re-sort and re-sweep of every downstream query.  :class:`SegmentStore`
is the mutable counterpart the serving layer stands on:

* tuples are partitioned first by **fact group** (the unit LAWA windows
  are local to) and then by **time** into bounded segments, each segment a
  born-sorted run ordered by ``Ts``;
* an **interval index** — the sorted start boundaries of each fact
  group's segments — locates the segment responsible for a time point
  with one bisect, so point inserts/deletes cost ``O(log n + capacity)``
  instead of an ``O(n)`` list shift;
* mutations are **batched transactions**: :meth:`apply` validates
  duplicate-freeness, applies deletes-then-inserts atomically (rolling
  back on violation), bumps the store's epoch and appends a
  :class:`ChangeSet` to the change log that materialized views replay
  (:mod:`repro.store.view`);
* :meth:`snapshot` produces an immutable relation in ``(F, Ts)`` order
  with ``assume_sorted=True`` — cached per epoch, so read-mostly phases
  pay the assembly once.  ``snapshot(epoch=...)`` additionally pins an
  *older* epoch-consistent view: snapshots handed out are retained per
  epoch via weak references for as long as anyone (a serving session)
  holds them, and an unretained historical epoch is reconstructed by
  reverse-replaying the change log — the MVCC read side of DESIGN.md
  §14, where readers never block the writer.

The duplicate-freeness invariant of the paper (Section III) is enforced
at the transaction boundary: a batch whose net effect would overlap two
same-fact intervals is rejected wholesale and the store is left exactly
as it was.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ..core.errors import DuplicateFactError, InvalidIntervalError, SnapshotUnavailableError
from ..core.relation import TPRelation
from ..core.schema import Fact, TPSchema, make_fact
from ..core.sorting import null_safe_fact_key
from ..core.tuple import TPTuple, base_tuples, time_point
from ..lineage.formula import Var, variable_names

__all__ = [
    "ChangeSet",
    "Region",
    "SegmentStore",
    "SnapshotUnavailableError",
    "DEFAULT_SEGMENT_CAPACITY",
]

#: A dirty region: changes to ``fact`` are confined to ``[lo, hi)``.
Region = tuple  # (Fact, int, int)

#: Tuples per segment before a split.  Large enough that the per-segment
#: constant work is amortized, small enough that a point mutation's list
#: shift stays cheap.
DEFAULT_SEGMENT_CAPACITY = 256

#: Bisect keys: runs are kept in ``Ts`` order and the change log in epoch
#: order, so neither column is ever copied out to be searched.
_start_of = attrgetter("start")
_epoch_of = attrgetter("epoch")
_fact_of = attrgetter("fact")
_lineage_of = attrgetter("lineage")

#: Change-log retention while *no* consumer is registered: enough for
#: ad-hoc ``changes_since`` polling, bounded so a store mutated outside
#: any view does not grow its log forever.
UNCONSUMED_LOG_CAP = 1024


def _time_points(values: Sequence[object], arity: int) -> tuple[int, int]:
    """The ``(Ts, Te)`` of a transaction row as integer time points
    (:func:`repro.core.tuple.time_point`), refused unless ``Ts < Te``."""
    start = time_point(values[arity], values)
    end = time_point(values[arity + 1], values)
    if not start < end:
        raise InvalidIntervalError(
            f"row {values}: interval requires start < end, got [{start}, {end})"
        )
    return start, end


@dataclass(frozen=True)
class ChangeSet:
    """One committed transaction: what changed, and where.

    ``events`` holds the marginal probabilities of the *newly created*
    base-tuple variables; ``removed_events`` names the variables no
    surviving tuple's lineage references any more.  Consumers (views)
    apply both, so neither the store's nor any view's event map grows
    with dead variables under a sustained update workload.

    ``counter`` records the store's identifier counter *after* the
    transaction committed, so a write-ahead-log replay
    (:mod:`repro.store.recovery`) restores identifier minting exactly:
    inserts after recovery can never collide with identifiers a lost
    transaction had already handed out.
    """

    epoch: int
    inserted: tuple[TPTuple, ...]
    deleted: tuple[TPTuple, ...]
    events: dict = field(default_factory=dict)
    removed_events: tuple[str, ...] = ()
    counter: int = 0

    def __bool__(self) -> bool:
        return bool(self.inserted or self.deleted)

    def regions(self) -> list[Region]:
        """Per-fact dirty regions: merged spans of the changed tuples."""
        spans: dict[Fact, list[list[int]]] = {}
        for t in self.inserted + self.deleted:
            spans.setdefault(t.fact, []).append([t.start, t.end])
        regions: list[Region] = []
        for fact, ranges in spans.items():
            ranges.sort()
            lo, hi = ranges[0]
            for nlo, nhi in ranges[1:]:
                if nlo > hi:
                    regions.append((fact, lo, hi))
                    lo, hi = nlo, nhi
                else:
                    hi = max(hi, nhi)
            regions.append((fact, lo, hi))
        return regions


class _FactGroup:
    """One fact's tuples: time-partitioned segments plus their index.

    ``segments`` is a list of born-sorted runs (sorted by ``Ts``);
    ``bounds[i]`` is the start point of ``segments[i][0]`` — the interval
    index bisected to locate the segment owning a time point.
    """

    __slots__ = ("segments", "bounds", "capacity", "_flat")

    def __init__(self, capacity: int) -> None:
        self.segments: list[list[TPTuple]] = []
        self.bounds: list[int] = []
        self.capacity = capacity
        self._flat: Optional[list[TPTuple]] = None

    # -- reads ---------------------------------------------------------
    def tuples(self) -> list[TPTuple]:
        flat = self._flat
        if flat is None:
            if len(self.segments) == 1:
                flat = list(self.segments[0])
            else:
                flat = [t for segment in self.segments for t in segment]
            self._flat = flat
        return flat

    def __len__(self) -> int:
        return sum(len(segment) for segment in self.segments)

    def _locate(self, start: int) -> int:
        """Index of the segment whose range owns ``start``."""
        return max(0, bisect_right(self.bounds, start) - 1)

    def _before(self, point: int) -> Optional[TPTuple]:
        """The last tuple starting before ``point`` — in a duplicate-free
        run, where ends are sorted like starts, the only tuple starting
        before ``point`` that can reach past it."""
        si = bisect_left(self.bounds, point) - 1
        if si < 0:
            return None
        segment = self.segments[si]
        return segment[bisect_left(segment, point, key=_start_of) - 1]

    def find(self, start: int, end: int) -> Optional[TPTuple]:
        """The tuple with exactly this interval, if present."""
        if not self.segments:
            return None
        segment = self.segments[self._locate(start)]
        i = bisect_left(segment, start, key=_start_of)
        if i < len(segment):
            t = segment[i]
            if t.start == start and t.end == end:
                return t
        return None

    def overlapping(self, start: int, end: int) -> Optional[TPTuple]:
        """The first stored tuple (in ``Ts`` order) overlapping ``[start, end)``."""
        last = self._before(end)
        if last is None or last.end <= start:
            return None
        first = self._before(start)
        if first is not None and first.end > start:
            return first
        return self.run(start, end)[0]

    def run(self, lo: int, hi: int) -> list[TPTuple]:
        """The tuples starting inside ``[lo, hi)``, in ``Ts`` order."""
        first = self._locate(lo)
        stop = bisect_left(self.bounds, hi)  # segments[stop:] start at or after hi
        if first >= stop:
            return []
        segment = self.segments[first]
        i = bisect_left(segment, lo, key=_start_of)
        if stop - first == 1:
            return segment[i:bisect_left(segment, hi, i, key=_start_of)]
        out = segment[i:]
        for segment in self.segments[first + 1:stop - 1]:
            out += segment
        segment = self.segments[stop - 1]
        out += segment[:bisect_left(segment, hi, key=_start_of)]
        return out

    def widen(self, lo: int, hi: int) -> tuple[int, int]:
        """Grow ``[lo, hi)`` until no stored tuple crosses either end."""
        t = self._before(lo)
        if t is not None and t.end > lo:
            lo = t.start
        t = self._before(hi)
        if t is not None and t.end > hi:
            hi = t.end
        return lo, hi

    # -- writes --------------------------------------------------------
    def insert(self, t: TPTuple) -> None:
        self._flat = None
        if not self.segments:
            self.segments.append([t])
            self.bounds.append(t.start)
            return
        start = t.start
        si = self._locate(start)
        segment = self.segments[si]
        i = bisect_left(segment, start, key=_start_of)
        segment.insert(i, t)
        if i == 0:
            self.bounds[si] = start
        if len(segment) > self.capacity:
            self._split(si)

    def remove(self, t: TPTuple) -> None:
        self._flat = None
        start = t.start
        si = self._locate(start)
        segment = self.segments[si]
        i = bisect_left(segment, start, key=_start_of)
        assert i < len(segment) and segment[i].start == start, "tuple not stored"
        del segment[i]
        if not segment:
            del self.segments[si]
            del self.bounds[si]
        elif i == 0:
            self.bounds[si] = segment[0].start

    def _split(self, si: int) -> None:
        segment = self.segments[si]
        mid = len(segment) // 2
        tail = segment[mid:]
        del segment[mid:]
        self.segments.insert(si + 1, tail)
        self.bounds.insert(si + 1, tail[0].start)


class SegmentStore:
    """A mutable TP relation stored as interval-partitioned segments."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        *,
        segment_capacity: int = DEFAULT_SEGMENT_CAPACITY,
    ) -> None:
        if segment_capacity < 2:
            raise ValueError("segment_capacity must be at least 2")
        self.name = name
        self.schema = TPSchema(tuple(attributes))
        self.segment_capacity = segment_capacity
        self.events: dict[str, float] = {}
        self.epoch = 0
        self._groups: dict[Fact, _FactGroup] = {}
        self._facts_sorted: list[Fact] = []
        self._log: list[ChangeSet] = []
        self._consumers: "weakref.WeakSet" = weakref.WeakSet()
        # How many stored tuples' lineages reference each variable; an
        # event whose count drops to zero is removed from the event map
        # (sustained delete + re-insert workloads would otherwise grow
        # it without bound).  Sidecar-only variables — referenced by no
        # stored lineage, e.g. seeded alongside a derived relation — are
        # never counted and therefore never dropped.
        self._var_refs: dict[str, int] = {}
        # Leading-attribute value → epoch of the last transaction that
        # inserted or deleted a tuple with that value (absent: none since
        # this object was built).  The serving layer keys cached results
        # of σ on the leading attribute on these versions (DESIGN.md §14.2).
        self._changed_at: dict[object, int] = {}
        self._counter = 0
        self._snapshot: Optional[tuple[int, TPRelation]] = None
        # Epoch → snapshot relation, weakly referenced: a snapshot stays
        # retrievable for exactly as long as some reader still holds it
        # (a pinned serving session), and costs nothing once released.
        self._retained: "weakref.WeakValueDictionary[int, TPRelation]" = (
            weakref.WeakValueDictionary()
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_relation(
        cls,
        relation: TPRelation,
        *,
        segment_capacity: int = DEFAULT_SEGMENT_CAPACITY,
    ) -> "SegmentStore":
        """Seed a store from an existing (typically base) relation.

        Tuples and the event map are carried over verbatim; future
        inserts mint fresh identifiers under a ``<name>_n<k>`` scheme
        that cannot collide with the relation's own ``<name><k>`` ids.
        """
        store = cls(
            relation.name,
            relation.schema.attributes,
            segment_capacity=segment_capacity,
        )
        store._load_sorted(relation.sorted_tuples())
        store.events.update(relation.events)
        return store

    @classmethod
    def restore(
        cls,
        name: str,
        attributes: Sequence[str],
        tuples: Iterable[TPTuple],
        events: dict,
        *,
        epoch: int,
        counter: int,
        segment_capacity: int = DEFAULT_SEGMENT_CAPACITY,
    ) -> "SegmentStore":
        """Rebuild a store from persisted state (DESIGN.md §12).

        Unlike :meth:`from_relation` this restores the *full* mutable
        state — the epoch and the identifier counter — so a recovered
        store is indistinguishable from the one that crashed: subsequent
        inserts mint the identifiers the old store would have minted,
        and consumers registered afterwards see a consistent epoch.
        ``tuples`` come in ``(F, Ts)`` order, as :meth:`iter_sorted`
        wrote them.  ``events`` is carried verbatim (it may hold
        sidecar-only variables no stored lineage references).
        """
        store = cls(name, attributes, segment_capacity=segment_capacity)
        store._load_sorted(tuples)
        store.events.update(events)
        store.epoch = epoch
        store._counter = counter
        return store

    def _load_sorted(self, tuples: Iterable[TPTuple]) -> None:
        """Bulk-build this empty store from an ``(F, Ts)``-sorted run
        (DESIGN.md §9.1): each fact's consecutive tuples are cut into
        segments of ``segment_capacity``, the bounds are their first
        starts, and every ``Var`` lineage adds one to its reference
        count — no per-tuple bisect, no per-tuple call beyond the count.
        A fact seen out of order is refused: the groups and the sorted
        fact list would disagree."""
        capacity = self.segment_capacity
        groups, facts, refs = self._groups, self._facts_sorted, self._var_refs
        count_of = refs.get
        for fact, same_fact in groupby(tuples, _fact_of):
            if facts and not facts[-1] < fact:
                raise ValueError(
                    f"store {self.name!r} loaded out of (F, Ts) order at fact {fact!r}"
                )
            run = list(same_fact)
            group = _FactGroup(capacity)
            group.segments = [run[i:i + capacity] for i in range(0, len(run), capacity)]
            group.bounds = [segment[0].start for segment in group.segments]
            groups[fact] = group
            facts.append(fact)
            for lineage in map(_lineage_of, run):
                if type(lineage) is Var:
                    var = lineage.name
                    refs[var] = count_of(var, 0) + 1
                else:
                    for var in lineage.var_set:
                        refs[var] = count_of(var, 0) + 1

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def apply(
        self,
        inserts: Iterable[Sequence[object]] = (),
        deletes: Iterable[Sequence[object]] = (),
    ) -> ChangeSet:
        """Apply one batched transaction; returns the committed change set.

        ``inserts`` rows are ``(*fact_values, ts, te, p)`` (as in
        :meth:`TPRelation.from_rows`); ``deletes`` rows are
        ``(*fact_values, ts, te)`` naming stored tuples by fact and
        exact interval.  Deletes are applied before inserts, so a batch
        may atomically replace a tuple in place.  On any violation —
        unknown delete target, duplicate-free conflict — the store is
        rolled back to its pre-transaction state and the error raised.

        An empty transaction is a no-op: the epoch does not move and no
        change set is logged.
        """
        arity = self.schema.arity
        delete_specs = [self._parse_delete(row, arity) for row in deletes]
        insert_rows = [self._parse_insert(row, arity) for row in inserts]
        if not delete_specs and not insert_rows:
            return ChangeSet(self.epoch, (), (), counter=self._counter)

        removed: list[TPTuple] = []
        added: list[TPTuple] = []
        new_events: dict[str, float] = {}
        try:
            for fact, start, end in delete_specs:
                group = self._groups.get(fact)
                target = group.find(start, end) if group is not None else None
                if target is None:
                    raise KeyError(
                        f"no tuple {fact!r} @ [{start},{end}) in store {self.name!r}"
                    )
                group.remove(target)
                removed.append(target)
            for fact, start, end, p in insert_rows:
                group = self._group_for(fact)
                clash = group.overlapping(start, end)
                if clash is not None:
                    raise DuplicateFactError(
                        f"store {self.name!r} rejects insert {fact!r} @ "
                        f"[{start},{end}): overlaps stored interval {clash.interval}"
                    )
                self._counter += 1
                identifier = f"{self.name}_n{self._counter}"
                (t,), _ = base_tuples(((*fact, start, end, p),), arity, (identifier,))
                group.insert(t)
                added.append(t)
                new_events[identifier] = p
        except Exception:
            # Roll back: the store must be exactly as before the batch.
            for t in added:
                self._groups[t.fact].remove(t)
            for t in removed:
                self._group_for(t.fact).insert(t)
            self._prune_empty_groups()
            raise

        self._prune_empty_groups()
        self.events.update(new_events)
        # Commit-time reference counting (the rollback path above never
        # touches counts): drop events no surviving lineage references.
        refs = self._var_refs
        for t in added:
            for var in variable_names(t.lineage):
                refs[var] = refs.get(var, 0) + 1
        dropped: list[str] = []
        for t in removed:
            for var in variable_names(t.lineage):
                count = refs.get(var, 0) - 1
                if count > 0:
                    refs[var] = count
                else:
                    refs.pop(var, None)
                    if self.events.pop(var, None) is not None:
                        dropped.append(var)
        self.epoch += 1
        self._mark_changed(added, removed)
        changeset = ChangeSet(
            self.epoch,
            tuple(added),
            tuple(removed),
            new_events,
            tuple(dropped),
            self._counter,
        )
        self._log.append(changeset)
        self._snapshot = None
        self.prune_consumed()
        return changeset

    def insert(self, rows: Iterable[Sequence[object]]) -> ChangeSet:
        """Insert a batch of ``(*fact_values, ts, te, p)`` rows."""
        return self.apply(inserts=rows)

    def delete(self, rows: Iterable[Sequence[object]]) -> ChangeSet:
        """Delete a batch of tuples named by ``(*fact_values, ts, te)``."""
        return self.apply(deletes=rows)

    def delete_where(self, predicate: Callable[[TPTuple], bool]) -> ChangeSet:
        """Delete every stored tuple matching ``predicate``, as one batch."""
        doomed = [
            (*t.fact, t.start, t.end) for t in self.iter_sorted() if predicate(t)
        ]
        return self.apply(deletes=doomed)

    def replay_changeset(self, changeset: ChangeSet) -> None:
        """Re-apply a logged transaction *verbatim* (WAL replay, §12).

        Unlike :meth:`apply` nothing is re-validated, re-minted or
        re-logged: the tuples, their identifiers, the event updates and
        the removals are taken exactly as committed, so a replayed store
        is bit-identical to the one that produced the change set.  The
        change set must be the immediate successor of the store's
        current epoch — recovery feeds them in order.
        """
        if changeset.epoch != self.epoch + 1:
            raise ValueError(
                f"cannot replay epoch {changeset.epoch} onto store "
                f"{self.name!r} at epoch {self.epoch} (not contiguous)"
            )
        refs = self._var_refs
        for t in changeset.deleted:
            group = self._groups.get(t.fact)
            target = group.find(t.start, t.end) if group is not None else None
            if target is None:
                raise ValueError(
                    f"replay of epoch {changeset.epoch} deletes unknown "
                    f"tuple {t.fact!r} @ {t.interval} in store {self.name!r}"
                )
            group.remove(target)
            for var in variable_names(target.lineage):
                count = refs.get(var, 0) - 1
                if count > 0:
                    refs[var] = count
                else:
                    refs.pop(var, None)
        for t in changeset.inserted:
            self._group_for(t.fact).insert(t)
            for var in variable_names(t.lineage):
                refs[var] = refs.get(var, 0) + 1
        self._prune_empty_groups()
        self.events.update(changeset.events)
        for name in changeset.removed_events:
            self.events.pop(name, None)
        self.epoch = changeset.epoch
        self._mark_changed(changeset.inserted, changeset.deleted)
        if changeset.counter > self._counter:
            self._counter = changeset.counter
        self._snapshot = None

    def _parse_delete(self, row: Sequence[object], arity: int):
        values = list(row)
        if len(values) != arity + 2:
            raise ValueError(
                f"delete row {values!r} has {len(values)} fields, expected "
                f"{arity} fact values followed by ts, te"
            )
        start, end = _time_points(values, arity)
        return make_fact(values[:arity]), start, end

    def _parse_insert(self, row: Sequence[object], arity: int):
        values = list(row)
        if len(values) != arity + 3:
            raise ValueError(
                f"insert row {values!r} has {len(values)} fields, expected "
                f"{arity} fact values followed by ts, te, p"
            )
        start, end = _time_points(values, arity)
        return make_fact(values[:arity]), start, end, float(values[arity + 2])

    def _mark_changed(
        self, inserted: Sequence[TPTuple], deleted: Sequence[TPTuple]
    ) -> None:
        """Stamp the leading values of a committed transaction's tuples
        with the epoch it produced — O(changed rows)."""
        if self.schema.arity:
            changed_at, epoch = self._changed_at, self.epoch
            for t in inserted:
                changed_at[t.fact[0]] = epoch
            for t in deleted:
                changed_at[t.fact[0]] = epoch

    def _group_for(self, fact: Fact) -> _FactGroup:
        group = self._groups.get(fact)
        if group is None:
            group = _FactGroup(self.segment_capacity)
            self._groups[fact] = group
            insort(self._facts_sorted, fact)
        return group

    def _prune_empty_groups(self) -> None:
        empty = [fact for fact, group in self._groups.items() if not group.segments]
        for fact in empty:
            del self._groups[fact]
            i = bisect_left(self._facts_sorted, fact)
            del self._facts_sorted[i]

    # ------------------------------------------------------------------
    # change log
    # ------------------------------------------------------------------
    def changes_since(self, epoch: int) -> list[ChangeSet]:
        """The change sets committed after ``epoch``, oldest first.

        Raises when the log no longer reaches back to ``epoch`` (pruned
        too aggressively) — a consumer must never silently miss changes.
        """
        if epoch >= self.epoch:
            return []
        if not self._log or self._log[0].epoch > epoch + 1:
            raise ValueError(
                f"change log of store {self.name!r} was pruned past epoch {epoch}"
            )
        return self._log[bisect_right(self._log, epoch, key=_epoch_of):]

    def prune_log(self, up_to_epoch: int) -> None:
        """Drop change sets at or below ``up_to_epoch`` (consumed by all views)."""
        del self._log[:bisect_right(self._log, up_to_epoch, key=_epoch_of)]

    def register_consumer(self, consumer: object) -> None:
        """Track a change-log consumer (anything with a ``seen_epoch``).

        Consumers are weakly referenced; the log is pruned up to the
        minimum ``seen_epoch`` of the live consumers after every
        transaction, so a serving workload retains only the change sets
        some view still has to replay.  (A never-refreshed ``manual``
        view therefore pins the log by design — it needs those changes.)
        With no live consumers the log is merely capped
        (:data:`UNCONSUMED_LOG_CAP`) to keep ad-hoc ``changes_since``
        polling working without unbounded growth.
        """
        self._consumers.add(consumer)

    def prune_consumed(self) -> None:
        """Drop change sets every registered live consumer has replayed."""
        consumers = list(self._consumers)
        if consumers:
            self.prune_log(min(c.seen_epoch for c in consumers))
        elif len(self._log) > UNCONSUMED_LOG_CAP:
            del self._log[: len(self._log) - UNCONSUMED_LOG_CAP]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def facts(self) -> list[Fact]:
        """The stored fact groups, in sorted order (shared list — do not mutate)."""
        return self._facts_sorted

    def tuples_of(self, fact: Fact) -> list[TPTuple]:
        """The fact's tuples in ``Ts`` order (cached until the fact mutates)."""
        group = self._groups.get(fact)
        return group.tuples() if group is not None else []

    def run_of(self, fact: Fact, lo: int, hi: int) -> list[TPTuple]:
        """The fact's tuples starting inside ``[lo, hi)`` — ``O(log n + k)``."""
        group = self._groups.get(fact)
        return group.run(lo, hi) if group is not None else []

    def widen_of(self, fact: Fact, lo: int, hi: int) -> tuple[int, int]:
        """``[lo, hi)`` grown until none of the fact's tuples crosses an end."""
        group = self._groups.get(fact)
        return group.widen(lo, hi) if group is not None else (lo, hi)

    def changed_at(self, value: object) -> int:
        """The epoch of the last transaction that inserted or deleted a
        tuple whose leading attribute equals ``value`` — 0 when none has
        since this store object was built.  The fact groups led by
        ``value`` hold the same tuples at every epoch from that one to
        the current one."""
        return self._changed_at.get(value, 0)

    def iter_sorted(self) -> Iterator[TPTuple]:
        """All tuples in ``(F, Ts)`` order, lazily, segment by segment.

        This is the constant-space feed for the streaming operators
        (:mod:`repro.algebra.streaming`): nothing is materialized beyond
        the segment currently being walked.
        """
        for fact in self._facts_sorted:
            for segment in self._groups[fact].segments:
                yield from segment

    def __len__(self) -> int:
        return sum(len(group) for group in self._groups.values())

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._groups

    def snapshot(self, epoch: Optional[int] = None) -> TPRelation:
        """An immutable, epoch-consistent relation of the store's contents.

        Without ``epoch`` (or at the current epoch) this is the cached
        current view: repeated calls between transactions return the
        *same* relation object, so downstream caches keyed on relation
        identity (optimizer statistics, merged event maps) stay warm.

        With an older ``epoch`` it is the MVCC read path (DESIGN.md
        §14): the exact relation the store would have snapshotted right
        after that epoch's transaction committed.  Snapshots are
        retained per epoch through weak references — as long as any
        reader holds one (a pinned serving session), re-requesting that
        epoch is a dictionary hit and the writer never copies anything.
        An unretained historical epoch is reconstructed by
        reverse-replaying the change log (inserts removed, deletes
        re-added, dropped event probabilities recovered from anywhere in
        the retained log — mint records or deleted base tuples);
        :class:`SnapshotUnavailableError` is raised when the epoch lies
        in the future, the log no longer reaches back, or a dropped
        event was seeded outside the log (see :meth:`_reconstruct`).
        """
        if epoch is None or epoch == self.epoch:
            cached = self._snapshot
            if cached is not None and cached[0] == self.epoch:
                return cached[1]
            relation = TPRelation(
                self.name,
                self.schema,
                list(self.iter_sorted()),
                self.events,
                validate=False,
                assume_sorted=True,
            )
            self._snapshot = (self.epoch, relation)
            self._retained[self.epoch] = relation
            return relation
        if epoch > self.epoch:
            raise SnapshotUnavailableError(
                f"store {self.name!r} is at epoch {self.epoch}; "
                f"epoch {epoch} has not happened yet"
            )
        retained = self._retained.get(epoch)
        if retained is not None:
            return retained
        relation = self._reconstruct(epoch)
        self._retained[epoch] = relation
        return relation

    def _event_probability_index(self) -> dict[str, float]:
        """Every event probability recoverable from the retained log.

        Event identifiers are never reused and a probability never
        changes after mint, so *any* record of an event in the log is
        authoritative: the ``events`` dict of the change set that minted
        it, or the ``p`` of any deleted base tuple whose lineage is that
        single variable.  Built on demand by :meth:`_reconstruct` — one
        linear scan of the log instead of a per-event search.
        """
        index: dict[str, float] = {}
        for cs in self._log:
            index.update(cs.events)
            for t in cs.deleted:
                lineage = t.lineage
                if isinstance(lineage, Var):
                    index.setdefault(lineage.name, t.p)
        return index

    def _reconstruct(self, epoch: int) -> TPRelation:
        """Rebuild the relation at a past ``epoch`` from the change log.

        Walks the change sets committed after ``epoch`` newest-first,
        undoing each: inserted tuples are dropped, deleted tuples are
        restored (the very objects the log holds, so the rebuilt state
        is bit-identical to the original), minted events are removed and
        dropped events recovered from the log-wide probability index
        (:meth:`_event_probability_index`).  An event may be dropped by
        a change set that deletes only *derived*-lineage tuples — the
        last reference to a variable need not be the base tuple that
        minted it — so recovery must consult the whole retained log, not
        just the dropping change set.

        :class:`SnapshotUnavailableError` is raised exactly when a
        dropped event's probability appears nowhere in the retained
        log: the event was seeded outside it (:meth:`from_relation` /
        :meth:`restore`) and no logged change set deleted its base
        tuple.  Such epochs are unrecoverable by construction — the
        probability existed only in the seeded event map.
        """
        try:
            changesets = self.changes_since(epoch)
        except ValueError as exc:
            raise SnapshotUnavailableError(
                f"store {self.name!r} cannot reconstruct epoch {epoch}: {exc}"
            ) from exc
        tuples = {(t.fact, t.start, t.end): t for t in self.iter_sorted()}
        events = dict(self.events)
        recovery: Optional[dict[str, float]] = None
        for cs in reversed(changesets):
            for t in cs.inserted:
                tuples.pop((t.fact, t.start, t.end), None)
            for t in cs.deleted:
                tuples[(t.fact, t.start, t.end)] = t
            for name in cs.events:
                events.pop(name, None)
            for name in cs.removed_events:
                if recovery is None:
                    recovery = self._event_probability_index()
                recovered = recovery.get(name)
                if recovered is None:
                    raise SnapshotUnavailableError(
                        f"store {self.name!r} cannot reconstruct epoch "
                        f"{epoch}: dropped event {name!r} was seeded "
                        f"outside the change log and has no recoverable "
                        f"probability in it"
                    )
                events[name] = recovered
        ordered = sorted(
            tuples.values(), key=lambda t: (null_safe_fact_key(t.fact), t.start)
        )
        return TPRelation(
            self.name,
            self.schema,
            ordered,
            events,
            validate=False,
            assume_sorted=True,
        )

    def retained_epochs(self) -> tuple[int, ...]:
        """Epochs whose snapshots are currently alive (monitoring/tests)."""
        return tuple(sorted(self._retained.keys()))

    def segment_stats(self) -> dict[str, int]:
        """Shape of the physical layout, for tests and monitoring."""
        counts = [len(g.segments) for g in self._groups.values()]
        return {
            "facts": len(self._groups),
            "segments": sum(counts),
            "max_segments_per_fact": max(counts, default=0),
            "tuples": len(self),
            "log_entries": len(self._log),
        }

    def __repr__(self) -> str:
        return (
            f"SegmentStore({self.name!r}, {len(self)} tuples, "
            f"{len(self._groups)} facts, epoch {self.epoch})"
        )
