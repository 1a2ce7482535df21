"""Duplicate-free temporal-probabilistic relations.

A TP relation is a finite set of TP tuples over a schema (F, λ, T, p).
Following the paper (Section III) we assume *duplicate-free* input and
output relations: the intervals of any two tuples with the same fact must
not overlap.  The constructor validates this invariant (can be switched
off for benchmark-scale data that is duplicate-free by construction).

A relation also carries its *event map*: the marginal probabilities of the
base-tuple variables its lineages mention.  Base relations populate the
map from their own tuples; set operations merge the maps of their inputs,
so derived relations remain self-contained and can valuate lineage
probabilities without access to the original database.  A relation built
through the public constructor owns a copy of the map it was given;
relations *derived* from relations (selections, renames, operator
results) share their parent's map or the operands' cached merged map by
reference — a served result costs its rows, not its operands' events
(DESIGN.md §5).  A relation read out of a *live* structure — a keyed read
of a view's fact groups (:meth:`TPRelation.restricted`) — and a result
kept in the serving cache (:meth:`TPRelation.with_own_events`) hold a
fresh map restricted to the variables their tuples reference.

Sortedness propagation (DESIGN.md §6): a relation remembers whether its
tuples are already in the ``(F, Ts)`` order the sweep algorithms require.
Set-operation outputs are emitted in exactly that order, so they are
constructed with ``assume_sorted=True`` and chained operations skip the
redundant re-sort; for any other relation the first :meth:`sorted_tuples`
call sorts once and caches (relations are immutable).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import count
from operator import is_
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..lineage.formula import Lineage, Var, variable_names
from ..prob.valuation import (
    EventMap,
    Method,
    ProbabilityOptions,
    probability,
    probability_batch,
)
from .errors import DuplicateFactError, UnknownVariableError
from .interval import Interval
from .schema import Fact, TPSchema
from .sorting import null_safe_key, sort_comparison
from .tuple import TPTuple, base_tuples, lineage_text, referenced_names

__all__ = ["TPRelation", "selection_name"]


def _leading_value(t: TPTuple) -> object:
    return t.fact[0]


def _own_events(
    tuples: Sequence[TPTuple], events: Mapping[str, float]
) -> EventMap:
    """A new map of the variables ``tuples`` reference, read from
    ``events``; a deferred row's node stays unbuilt (DESIGN.md §6.3)."""
    return EventMap({var: events[var] for var in referenced_names(tuples)})


def selection_name(name: str, equalities: Mapping[str, object]) -> str:
    """The name ``σ[a=v,…](name)`` of a selection's result."""
    label = ",".join(f"{k}={v!r}" for k, v in equalities.items())
    return f"σ[{label}]({name})"


class TPRelation:
    """An immutable, duplicate-free TP relation.

    Iteration yields tuples in insertion order; :meth:`sorted_tuples`
    yields them in the ``(F, Ts)`` order the sweep algorithms require.
    """

    __slots__ = (
        "name", "schema", "_tuples", "events",
        "_sorted_cache", "_in_fact_ts_order", "_leading_index",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        schema: TPSchema,
        tuples: Iterable[TPTuple],
        events: Mapping[str, float],
        *,
        validate: bool = True,
        assume_sorted: bool = False,
    ) -> None:
        # The public constructor owns a private copy of the event map
        # (EventMap self-invalidates the merged maps cached on it).
        self._init(name, schema, tuples, EventMap(events), assume_sorted)
        if validate:
            self._validate()

    def _init(
        self,
        name: str,
        schema: TPSchema,
        tuples: Iterable[TPTuple],
        events: EventMap,
        assume_sorted: bool,
    ) -> None:
        self.name = name
        self.schema = schema
        self._tuples: tuple[TPTuple, ...] = tuple(tuples)
        self.events: EventMap = events
        self._sorted_cache: Optional[list[TPTuple]] = None
        # Whether insertion order is the (F, Ts) order: declared here,
        # or discovered by the first sorted_tuples() call.
        self._in_fact_ts_order = assume_sorted
        # Leading value -> its tuples in insertion order; built by the
        # first selection the (F, Ts) order cannot answer.
        self._leading_index: Optional[dict[object, list[TPTuple]]] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def _derived(
        cls,
        name: str,
        schema: TPSchema,
        tuples: Iterable[TPTuple],
        events: EventMap,
        *,
        assume_sorted: bool = False,
    ) -> "TPRelation":
        """A relation computed *from relations*: it takes ``events`` —
        an operand's event map, or the operands' shared merged map — by
        reference instead of copying it (DESIGN.md §5), and skips
        validation.  Only for maps that already belong to a relation;
        a map somebody else keeps mutating (a store's live map) must go
        through the copying public constructor.
        """
        relation = object.__new__(cls)
        relation._init(name, schema, tuples, events, assume_sorted)
        return relation

    @classmethod
    def restricted(
        cls,
        name: str,
        schema: TPSchema,
        tuples: Iterable[TPTuple],
        live_events: Mapping[str, float],
    ) -> "TPRelation":
        """A relation over tuples copied, in ``(F, Ts)`` order, out of a
        structure that keeps changing — a view's cached runs.  Its event
        map holds exactly the variables those tuples reference, with
        their probabilities read from ``live_events``; it never aliases
        ``live_events``, which the next transaction mutates (DESIGN.md
        §5).  Unvalidated: the source is duplicate-free by construction.
        """
        tuples = tuple(tuples)
        return cls._derived(
            name, schema, tuples, _own_events(tuples, live_events),
            assume_sorted=True,
        )

    def with_own_events(self) -> "TPRelation":
        """This relation under a fresh event map holding exactly the
        variables its tuples reference — what a result kept past the
        epoch it was computed at carries, instead of pinning its
        operands' whole (merged) map (DESIGN.md §12.2).  Sortedness and
        the sort cache carry over."""
        relation = TPRelation._derived(
            self.name, self.schema, self._tuples,
            _own_events(self._tuples, self.events),
            assume_sorted=self._in_fact_ts_order,
        )
        relation._sorted_cache = self._sorted_cache
        return relation

    @classmethod
    def from_rows(
        cls,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]],
        *,
        id_prefix: Optional[str] = None,
    ) -> "TPRelation":
        """Build a base relation from ``(*fact_values, ts, te, p)`` rows.

        Tuple identifiers are generated as ``<prefix>1, <prefix>2, …`` in
        row order (the paper's a1, a2, …); the prefix defaults to the
        relation name.  Every row is validated while its tuple is built
        (:func:`~repro.core.tuple.base_tuples`) — which also refuses a
        column whose facts do not order against each other (``'x'`` and
        ``1.5``) with :class:`~repro.core.errors.InvalidFactError` — and
        duplicate-freeness by one pass over one sort.

        >>> a = TPRelation.from_rows(
        ...     "a", ("product",),
        ...     [("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8)])
        >>> len(a)
        2
        """
        prefix = id_prefix if id_prefix is not None else name
        schema = TPSchema(tuple(attributes))
        tuples, events = base_tuples(
            rows, schema.arity, map(prefix.__add__, map(str, count(1)))
        )
        relation = cls._derived(name, schema, tuples, EventMap(events))
        relation._check_duplicate_free()
        return relation

    # ------------------------------------------------------------------
    # invariant checking
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        arity, events = self.schema.arity, self.events
        for t in self._tuples:
            if len(t.fact) != arity:
                raise ValueError(
                    f"tuple {t} has fact arity {len(t.fact)}, "
                    f"schema expects {arity}"
                )
            for var in variable_names(t.lineage):
                if var not in events:
                    raise UnknownVariableError(
                        f"tuple {t} references unknown event {var!r}"
                    )
            # A variable's probability is its event's, in (0, 1]; a derived
            # lineage may be a contradiction, of probability 0.
            p = t.p
            if p is not None and not (
                0.0 < p <= 1.0 or (p == 0.0 and type(t.lineage) is not Var)
            ):
                raise ValueError(f"tuple {t} has probability outside (0, 1]")
        self._check_duplicate_free()

    def _check_duplicate_free(self) -> None:
        """Duplicate-freeness: same-fact intervals must not overlap.

        One pass over the ``(F, Ts, Te)`` order of :func:`sort_comparison`.
        The sort is thrown away, not kept for the first read: kept, it
        made that read's collections slower than the sort it saved
        (DESIGN.md §6.3).  Only null-padded facts, which the raw order
        cannot compare, take the null-safe key.
        """
        ordered = sort_comparison(self._tuples)
        for prev, curr in zip(ordered, ordered[1:]):
            if curr.start < prev.end and prev.fact == curr.fact:
                raise DuplicateFactError(
                    f"relation {self.name!r} is not duplicate-free: fact "
                    f"{prev.fact!r} valid over overlapping intervals "
                    f"{prev.interval} and {curr.interval} "
                    f"({prev.lineage} and {curr.lineage})"
                )

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TPTuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    @property
    def tuples(self) -> tuple[TPTuple, ...]:
        return self._tuples

    def sorted_tuples(self) -> list[TPTuple]:
        """Tuples in ``(F, Ts)`` order — the input order for LAWA.

        The result is computed once and cached (relations are immutable);
        treat the returned list as read-only.  Relations constructed with
        ``assume_sorted=True`` — every set-operation output — never sort
        at all.
        """
        cache = self._sorted_cache
        if cache is None:
            if self._in_fact_ts_order:
                cache = list(self._tuples)
            else:
                # The explicit strategies' own sort, so the default path
                # and they order raw-stream ties identically (DESIGN.md
                # §6.2).
                cache = sort_comparison(self._tuples)
                self._in_fact_ts_order = all(map(is_, cache, self._tuples))
            self._sorted_cache = cache
        return cache

    def __getstate__(self) -> dict:
        # The caches are pure derived state — rebuilt lazily after
        # unpickling.
        return {
            "name": self.name,
            "schema": self.schema,
            "tuples": self._tuples,
            "events": dict(self.events),
        }

    def __setstate__(self, state: dict) -> None:
        self._init(
            state["name"], state["schema"], state["tuples"],
            EventMap(state["events"]), False,
        )

    def merged_events(self, other: "TPRelation") -> EventMap:
        """The merged event map ``{**self.events, **other.events}``.

        Cached per *pair of event maps* (:meth:`EventMap.merged_with`),
        not per relation: selections and renames share their parent's
        map, so every operation over one operand pair at one epoch —
        benchmark rounds, chained queries, each pushed-down selection of
        a served query — valuates against the *same* mapping object, and
        its results hold that object instead of a copy.  Treat the
        returned mapping as read-only.
        """
        return self.events.merged_with(other.events)

    @property
    def is_sorted_by_fact_ts(self) -> bool:
        """True when the insertion order is known to be the ``(F, Ts)``
        order (either declared via ``assume_sorted`` or discovered by a
        sort) — decided once, O(1) to read."""
        return self._in_fact_ts_order

    # ------------------------------------------------------------------
    # simple algebra needed by examples and datasets
    # ------------------------------------------------------------------
    def select(self, **equalities: object) -> "TPRelation":
        """Selection σ by attribute equality, e.g. ``r.select(product='milk')``.

        The result shares this relation's event map; lineage is unchanged
        (selection never merges or splits intervals).  Sortedness
        propagates: filtering a ``(F, Ts)``-ordered relation keeps the
        order, so downstream sweeps over the selection never re-sort —
        which also keeps null-padded outer-join outputs (born sorted in
        the null-safe order) sortable at all.

        An equality on the leading attribute — every pushed-down
        selection over the ``("k", …)`` schemas — narrows first
        (:meth:`_led_by`: a bisect or an index lookup, not a scan); the
        other equalities filter what is left.
        """
        pairs = [
            (self.schema.index_of(attribute), value)
            for attribute, value in equalities.items()
        ]
        leading = [value for index, value in pairs if index == 0]
        kept: Sequence[TPTuple] = (
            self._led_by(leading[0]) if leading else self._tuples
        )
        rest = [(index, value) for index, value in pairs if index != 0]
        if len(rest) == 1:
            ((index, wanted),) = rest
            kept = [t for t in kept if t.fact[index] == wanted]
        elif rest:
            kept = [t for t in kept if all(t.fact[i] == v for i, v in rest)]
        return TPRelation._derived(
            selection_name(self.name, equalities),
            self.schema,
            kept,
            self.events,
            assume_sorted=self.is_sorted_by_fact_ts,
        )

    def _led_by(self, wanted: object) -> Sequence[TPTuple]:
        """The tuples whose first attribute equals ``wanted``, in
        insertion order.

        When the insertion order is the ``(F, Ts)`` order this is an
        equal-range bisect — unless the order does not decide the
        question (a null-padded or mixed-type column, a value equal to
        nothing it is ordered with).  Otherwise the first call builds a
        leading value → tuples index in one pass, and this and every
        later call is a dictionary lookup (relations are immutable, so
        the index never goes stale)."""
        tuples = self._tuples
        if self._in_fact_ts_order:
            try:
                i = bisect_left(tuples, wanted, key=_leading_value)
                j = bisect_right(tuples, wanted, i, key=_leading_value)
            except TypeError:
                pass
            else:
                if i == j or tuples[i].fact[0] == wanted == tuples[j - 1].fact[0]:
                    return tuples[i:j]
        index = self._leading_index
        if index is None:
            index = {}
            for t in tuples:
                index.setdefault(t.fact[0], []).append(t)
            self._leading_index = index
        try:
            return index.get(wanted, ())
        except TypeError:  # an unhashable value: compare it the long way
            return [t for t in tuples if t.fact[0] == wanted]

    def where(self, predicate: Callable[[TPTuple], bool]) -> "TPRelation":
        """Selection by arbitrary tuple predicate (sortedness propagates)."""
        kept = [t for t in self._tuples if predicate(t)]
        return TPRelation._derived(
            f"σ({self.name})", self.schema, kept, self.events,
            assume_sorted=self.is_sorted_by_fact_ts,
        )

    def rename(self, name: str) -> "TPRelation":
        """The same relation under a new catalog name (sort cache and
        selection index kept)."""
        renamed = TPRelation._derived(
            name, self.schema, self._tuples, self.events,
            assume_sorted=self._in_fact_ts_order,
        )
        renamed._sorted_cache = self._sorted_cache
        renamed._leading_index = self._leading_index
        return renamed

    # ------------------------------------------------------------------
    # probabilities
    # ------------------------------------------------------------------
    def materialize_probabilities(
        self, *, method: Method = Method.AUTO,
        options: Optional[ProbabilityOptions] = None,
    ) -> "TPRelation":
        """This relation with every tuple's ``p`` computed from its lineage
        — ``self`` when no tuple is pending (relations are immutable).

        Valuation is batched: interning makes repeated lineages
        identity-equal, so each distinct formula is valuated once
        (see :func:`repro.prob.valuation.probability_batch`).  Insertion
        order and its sortedness flag carry over; a sort order
        *discovered* for differently-ordered tuples does not (the copies
        would need re-mapping) — the result re-sorts on demand.
        """
        pending = [t.lineage for t in self._tuples if t.p is None]
        if not pending:
            return self
        values = iter(
            probability_batch(pending, self.events, method=method, options=options)
        )
        materialized = [
            t if t.p is not None else t.with_probability(next(values))
            for t in self._tuples
        ]
        return TPRelation._derived(
            self.name, self.schema, materialized, self.events,
            assume_sorted=self._in_fact_ts_order,
        )

    def probability_of(self, t: TPTuple, *, method: Method = Method.AUTO) -> float:
        """Marginal probability of one tuple's lineage under this relation."""
        return probability(t.lineage, self.events, method=method)

    # ------------------------------------------------------------------
    # statistics (used by Table IV and Proposition 1 tests)
    # ------------------------------------------------------------------
    def facts(self) -> set[Fact]:
        """The distinct facts appearing in the relation."""
        return {t.fact for t in self._tuples}

    def distinct_points(self) -> set[int]:
        """All distinct start/end points (the TI index keys)."""
        points: set[int] = set()
        for t in self._tuples:
            points.add(t.start)
            points.add(t.end)
        return points

    def endpoint_count(self) -> int:
        """nr of Proposition 1: total number of start and end points."""
        return 2 * len(self._tuples)

    def time_span(self) -> Optional[Interval]:
        """The smallest interval covering every tuple, or None when empty."""
        if not self._tuples:
            return None
        lo = min(t.start for t in self._tuples)
        hi = max(t.end for t in self._tuples)
        return Interval(lo, hi)

    # ------------------------------------------------------------------
    # comparison & display
    # ------------------------------------------------------------------
    def contents(self) -> frozenset[tuple[Fact, int, int, Lineage]]:
        """Hashable summary of (fact, Ts, Te, lineage) entries."""
        return frozenset((t.fact, t.start, t.end, t.lineage) for t in self._tuples)

    def equivalent_to(self, other: "TPRelation", *, tol: float = 1e-9) -> bool:
        """Set equality on (fact, interval, lineage), probabilities within tol.

        Lineage comparison is syntactic, mirroring the paper's footnote 1.
        """
        if self.contents() != other.contents():
            return False
        mine = {(t.fact, t.start, t.end): t.p for t in self._tuples}
        theirs = {(t.fact, t.start, t.end): t.p for t in other._tuples}
        for key, p in mine.items():
            q = theirs[key]
            if p is None or q is None:
                if p is not q:
                    return False
            elif abs(p - q) > tol:
                return False
        return True

    def to_table(self) -> str:
        """Render the relation in the paper's tabular layout."""
        header = list(self.schema.attributes) + ["λ", "T", "p"]
        rows = [
            [
                *(repr(v) for v in t.fact),
                lineage_text(t),
                str(t.interval),
                "?" if t.p is None else f"{t.p:.6g}",
            ]
            for t in sorted(self._tuples, key=null_safe_key)
        ]
        widths = [
            max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TPRelation({self.name!r}, {len(self._tuples)} tuples, "
            f"{len(self.facts())} facts)"
        )
