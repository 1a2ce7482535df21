"""The query service: pinned-session execution with two-tier caching.

This is the serving layer's brain (DESIGN.md §14), deliberately free of
any I/O so tests and benchmarks can drive it in-process:

- **Sessions** pin an epoch-consistent snapshot catalog at open (and on
  every ``begin``/``commit``), so readers never block the writer and
  never observe a half-applied transaction.
- **Writes** go through :meth:`TPDatabase.apply` — the store-transaction
  and durability path — then re-pin the committing session to the state
  it just produced.
- **Caching** is two-tier.  The *plan cache* maps canonical form (plus
  optimize level) to a physical plan; plans for one
  canonical form are result-equivalent, so entries survive commits.  The
  *result cache* additionally keys on the session's epoch signature
  restricted to the query's referenced names — a commit changes the
  signature, so stale results can never be served, and a sweep retires
  entries once no live session pins their epochs.  A store the plan
  reads only through σ on its leading attribute is keyed on the versions
  of the fact groups selected instead of on its epoch, so a commit to
  other keys leaves the entry hot.  An entry is the relation, under an
  event map of its own variables, plus its wire encoding, rendered once
  (:class:`CachedResult`).
- **Statistics** are pinned with the snapshot: each store's
  incrementally maintained summary (``db.stats_of``) is captured at pin
  time, so planning after a commit costs the change set, not a rescan.

Thread model: **not** thread-safe.  Lineage interning is process-global
and unlocked, so the server funnels every call here through one
dedicated executor thread (DESIGN.md §14.2); in-process callers (tests,
benchmarks) are single-threaded already.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from ..core.errors import QueryParseError, UnknownRelationError
from ..core.relation import TPRelation
from ..db.database import TPDatabase
from ..lineage.formula import intern_stats
from ..query.analysis import analyze
from ..query.ast import QueryNode, relation_references
from ..query.cost import choose_plan
from ..query.executor import execute_plan
from ..query.explain import render_explain
from ..query.fingerprint import canonical_key
from ..query.optimize import resolve_level
from ..query.parser import parse_query, strip_explain_prefix
from ..query.planner import (
    MultiSetOpPlan,
    PhysicalPlan,
    ScanPlan,
    SelectPlan,
    plan_query,
)
from ..query.stats import RelationStats, relation_stats
from ..store import ChangeSet, SegmentStore
from .cache import CachedResult, LRUCache
from .session import EpochPart, Session

__all__ = ["QueryResponse", "QueryService"]

#: Name → ``(attribute, values)``: what a plan reads of that relation.
Footprint = dict[str, tuple[str, tuple]]


def _footprint(plan: PhysicalPlan) -> Footprint:
    """The relations ``plan`` reads only through a selection.

    A name maps to ``(attribute, values)`` when every scan of it sits
    directly under σ[attribute=value] on one attribute: the result then
    depends only on that relation's rows with those values.  A name
    scanned any other way — bare, under selections on two attributes, or
    with an unhashable value — is absent: the whole relation is read.
    """
    reads: dict[str, Optional[dict]] = {}
    attributes: dict[str, str] = {}
    stack: list[tuple[PhysicalPlan, Optional[SelectPlan]]] = [(plan, None)]
    while stack:
        node, above = stack.pop()
        if isinstance(node, ScanPlan):
            name = node.relation
            values = reads.setdefault(name, {})
            if values is None:
                continue
            if (
                above is None
                or attributes.setdefault(name, above.attribute) != above.attribute
            ):
                reads[name] = None
                continue
            try:
                values[above.value] = None
            except TypeError:
                reads[name] = None
        elif isinstance(node, SelectPlan):
            stack.append((node.child, node))
        elif isinstance(node, MultiSetOpPlan):
            stack.extend((child, None) for child in node.children)
        else:
            stack += [(node.left, None), (node.right, None)]
    return {
        name: (attributes[name], tuple(values))
        for name, values in reads.items()
        if values is not None
    }


def _keyed(session: Session, part: EpochPart, reads: Optional[tuple]) -> EpochPart:
    """``part`` as the versions of the fact groups a result reads.

    Only a store read through σ on its leading attribute qualifies, and
    only while every selected value's last change is no later than the
    epoch the session pinned: the pinned groups are then the ones at that
    version.  Anything else keeps the whole-store part.
    """
    if reads is None or part[0] != "store":
        return part
    name, epoch = part[1], part[2]
    store = session.stores[name]
    attribute, values = reads
    if store.schema.attributes[:1] != (attribute,):
        return part
    versions = []
    for value in values:
        changed = store.changed_at(value)
        if changed > epoch:
            return part
        versions.append((value, changed))
    return ("keyed", name, part[3], tuple(versions))


def _older(born: tuple[EpochPart, ...], pinned: tuple[EpochPart, ...]) -> bool:
    """Whether a store in ``born`` (wire parts) is at an earlier epoch
    than in ``pinned`` — both signatures of one result key's names."""
    return any(
        b[0] == "store" and b[2] < p[2] for b, p in zip(born, pinned)
    )


@dataclass(frozen=True)
class QueryResponse:
    """One query's outcome: a result or an EXPLAIN report, plus cache facts.

    ``result`` is the result-cache entry itself — the wire layer takes
    its encoded fragment from there, so a hit never re-encodes.
    """

    result: Optional[CachedResult]
    explain: Optional[str]
    cached: bool
    epoch_key: tuple[EpochPart, ...]

    @property
    def relation(self) -> Optional[TPRelation]:
        """The result relation (``None`` for an EXPLAIN request)."""
        return None if self.result is None else self.result.relation


class QueryService:
    """Sessions, caches and the pinned execution path over a ``TPDatabase``."""

    def __init__(self, db: TPDatabase, *, cache_size: int = 256) -> None:
        self.db = db
        self.results = LRUCache(cache_size)
        self.plans = LRUCache(cache_size)
        #: Result-cache hits served from an entry computed at an older
        #: store epoch than the reader's pin (keyed parts only).
        self.cross_epoch_hits = 0
        self._sessions: dict[int, Session] = {}
        self._ids = itertools.count(1)
        # Relation, store or view object → its incarnation token: drawn
        # from ``_ids`` on first sight, so never reused, unlike ``id()``.
        self._incarnations: "weakref.WeakKeyDictionary[object, int]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(self) -> int:
        """Open a session pinned to the current epochs; returns its id."""
        session = Session(next(self._ids))
        self._pin(session)
        self._sessions[session.session_id] = session
        return session.session_id

    def session(self, session_id: int) -> Session:
        """The live session with this id (KeyError when closed/unknown)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise KeyError(f"no open session #{session_id}") from None

    def begin(self, session_id: int) -> tuple[EpochPart, ...]:
        """Re-pin a session to the current state; returns its new signature."""
        session = self.session(session_id)
        self._pin(session)
        self.sweep()
        return session.signature()

    def close_session(self, session_id: int) -> None:
        """Release a session's pins (idempotent) and retire dead cache epochs."""
        if self._sessions.pop(session_id, None) is not None:
            self.sweep()

    def close(self) -> None:
        """Release every session and drop both caches."""
        self._sessions.clear()
        self.results.clear()
        self.plans.clear()

    def _pin(self, session: Session) -> None:
        """Capture an epoch-consistent snapshot of every resolvable name.

        Views are refreshed first (their content is then a pure function
        of the base epochs recorded in their part); a ``manual`` view's
        cached state is *not* such a function, so it gets a fresh unique
        part each pin — correct, merely uncacheable across pins.

        Each store's statistics are pinned beside its snapshot: the
        database maintains them from the change log, so this costs the
        transactions since the last pin, and the session plans with the
        summary of exactly the epoch it reads.  So is the store object,
        whose per-value versions keyed result parts are built from.
        """
        db = self.db
        catalog: dict[str, TPRelation] = {}
        epochs: dict[str, EpochPart] = {}
        for name in db.view_names():
            view = db.view(name)
            catalog[name] = view.relation()
            if view.policy == "manual":
                token = next(self._ids)  # unique per pin
                epochs[name] = ("view-manual", name, token, self._incarnation(view))
            else:
                epochs[name] = self._view_part(name)
        stores = {name: db.store(name) for name in db.store_names()}
        for name, store in stores.items():
            catalog[name] = store.snapshot()
            epochs[name] = self._store_part(name, store)
        for name, relation in db.catalog.items():
            catalog[name] = relation
            epochs[name] = ("const", name, self._incarnation(relation))
        session.catalog = catalog
        session.epochs = epochs
        session.stats = {name: db.stats_of(name) for name in stores}
        session.stores = stores

    def _incarnation(self, obj: object) -> int:
        """The token of one registered relation, store or view object."""
        token = self._incarnations.get(obj)
        if token is None:
            token = self._incarnations[obj] = next(self._ids)
        return token

    def _store_part(self, name: str, store: SegmentStore) -> EpochPart:
        return ("store", name, store.epoch, self._incarnation(store))

    def _view_part(self, name: str) -> EpochPart:
        """An auto-refreshed view's part: its content is a function of
        its base stores' epochs."""
        db = self.db
        bases = tuple(
            (base, db.store(base).epoch) for base in db.view_base_stores(name)
        )
        return ("view", name, bases, self._incarnation(db.view(name)))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def execute(
        self,
        session_id: int,
        text_or_ast: Union[str, QueryNode],
        *,
        optimize: Union[bool, str, None] = False,
        aggressive: bool = False,
    ) -> QueryResponse:
        """Run a query (or ``EXPLAIN`` request) against the session's snapshot.

        Accepts the same grammar and optimize levels as
        :meth:`TPDatabase.query`; reads only the session's pinned
        relations, so concurrent commits are invisible until the session
        re-pins.  Results are cached keyed on (canonical form, level,
        epoch signature of the referenced names) — a repeated
        query at a fixed epoch is served from cache, bit-identically.

        At levels ``off`` and ``safe`` the plan is looked up first: a
        store its plan reads only through σ on the leading attribute is
        keyed on the versions of the selected fact groups (:func:`_keyed`),
        so the entry is served across commits to other keys.
        """
        session = self.session(session_id)
        ast, explained = self._parse(text_or_ast)
        level = resolve_level(optimize, aggressive)
        references = relation_references(ast)
        missing = [n for n in references if n not in session.catalog]
        if missing:
            raise UnknownRelationError(
                f"no relation named {missing[0]!r} in this session's snapshot"
            )
        if explained:
            return QueryResponse(None, self._explain(session, ast, level), False, ())
        key_base = canonical_key(ast)
        parts = session.parts(references)
        epoch_key = tuple(part[:-1] for part in parts)  # the wire form
        plan = None
        if level != "aggressive":
            plan, footprint = self._plan(session, ast, level, key_base, parts)
            if footprint:
                parts = tuple(
                    _keyed(session, part, footprint.get(part[1])) for part in parts
                )
        result_key = (key_base, level, parts)
        cached = self.results.get(result_key)
        if cached is not None:
            if cached.epochs != epoch_key and _older(cached.epochs, epoch_key):
                self.cross_epoch_hits += 1
            return QueryResponse(cached, None, True, epoch_key)
        if plan is None:
            plan, _ = self._plan(session, ast, level, key_base, parts)
        relation = execute_plan(plan, session.catalog, materialize=True)
        result = CachedResult(relation.with_own_events(), epoch_key)
        self.results.put(result_key, result)
        return QueryResponse(result, None, False, epoch_key)

    def _parse(
        self, text_or_ast: Union[str, QueryNode]
    ) -> tuple[QueryNode, bool]:
        """Parse, honoring the EXPLAIN prefix with PR 2's keyword rules."""
        if not isinstance(text_or_ast, str):
            return text_or_ast, False
        stripped = strip_explain_prefix(text_or_ast)
        if stripped is None:
            return parse_query(text_or_ast), False
        # Keywords are not reserved as relation names: when the remainder
        # is not a query but the whole text is, run the whole text.
        try:
            return parse_query(stripped), True
        except QueryParseError:
            try:
                return parse_query(text_or_ast), False
            except QueryParseError:
                raise QueryParseError(
                    f"EXPLAIN target does not parse: {stripped!r}"
                ) from None

    def _plan(
        self,
        session: Session,
        ast: QueryNode,
        level: str,
        key_base: tuple,
        parts: tuple[EpochPart, ...],
    ) -> tuple[PhysicalPlan, Footprint]:
        """The physical plan for ``ast`` and its footprint, through the
        plan cache — so the footprint is derived once per plan.

        Key shape per level: ``off`` executes the raw parsed tree, so the
        tree itself is the key; ``safe`` rewrites are lineage-identical,
        so any cached plan for the canonical form answers bit-identically
        regardless of the epoch its statistics came from; ``aggressive``
        rewrites may change the lineage *form*, so the key pins the
        epochs too — equal keys must imply bit-identical results — and
        its results are keyed on whole epochs (empty footprint).
        """
        plan_key: tuple
        if level == "off":
            plan_key = ("off", ast)
        elif level == "aggressive":
            plan_key = (level, key_base, parts)
        else:
            plan_key = (level, key_base)
        entry = self.plans.get(plan_key)
        if entry is not None:
            return entry
        lowered: QueryNode = ast
        if level != "off":
            choice = choose_plan(
                ast, self._stats(session, ast), aggressive=level == "aggressive"
            )
            lowered = choice.chosen
        plan = plan_query(lowered)
        entry = (plan, {} if level == "aggressive" else _footprint(plan))
        self.plans.put(plan_key, entry)
        return entry

    def _stats(self, session: Session, ast: QueryNode) -> dict[str, RelationStats]:
        """Optimizer statistics of what the session reads, as pinned.

        Stores answer from the summary captured at pin time — the one
        ``TPDatabase.query`` plans with, maintained from the change log
        rather than rescanned.  Views and constant relations are
        immutable once pinned, and :func:`relation_stats` caches per
        relation identity, so they are summarized at most once.
        """
        stats: dict[str, RelationStats] = {}
        for name in relation_references(ast):
            if name in session.stats:
                stats[name] = session.stats[name]
            elif name in session.catalog:
                stats[name] = relation_stats(session.catalog[name])
        return stats

    def _explain(self, session: Session, ast: QueryNode, level: str) -> str:
        """The EXPLAIN ANALYZE report, over the session's pinned catalog."""
        analysis = analyze(ast)
        stats = self._stats(session, ast)
        choice = None
        lowered: QueryNode = ast
        if level != "off":
            choice = choose_plan(ast, stats, aggressive=level == "aggressive")
            lowered = choice.chosen
        plan = plan_query(lowered)
        counts: dict[tuple, int] = {}
        execute_plan(
            plan,
            session.catalog,
            materialize=False,
            observe=lambda path, _node, result: counts.__setitem__(
                path, len(result)
            ),
        )
        return render_explain(
            lowered,
            plan,
            stats,
            level=level,
            analysis=analysis,
            choice=choice,
            actuals=counts,
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def commit(
        self,
        session_id: int,
        name: str,
        inserts: Iterable[Sequence[object]] = (),
        deletes: Iterable[Sequence[object]] = (),
    ) -> ChangeSet:
        """One transaction through the store/durability path.

        The committing session is re-pinned to the state it produced (it
        reads its own writes); other sessions keep their snapshots until
        they ``begin`` anew.  Cache entries whose epochs are no longer
        pinned by anyone are swept.
        """
        session = self.session(session_id)
        changeset = self.db.apply(name, inserts=inserts, deletes=deletes)
        self._pin(session)
        self.sweep()
        return changeset

    def create_relation(
        self,
        session_id: int,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]],
    ) -> TPRelation:
        """Create and register a base relation; the session re-pins to see it."""
        session = self.session(session_id)
        relation = self.db.create_relation(name, attributes, rows)
        self._pin(session)
        return relation

    # ------------------------------------------------------------------
    # maintenance and introspection
    # ------------------------------------------------------------------
    def sweep(self) -> int:
        """Retire result-cache entries no live session (nor the present) pins.

        A keyed part is retired once one of its versions is no longer
        current: a session pinned before that change falls back to the
        whole-store part, and every later pin sees the new version, so
        nobody can produce the key again.
        """
        live = self._current_parts()
        for session in self._sessions.values():
            live.update(session.epochs.values())
        stores = {name: self.db.store(name) for name in self.db.store_names()}

        def alive(part: EpochPart) -> bool:
            if part[0] != "keyed":
                return part in live
            store = stores.get(part[1])
            return (
                store is not None
                and self._incarnation(store) == part[2]
                and all(store.changed_at(value) == at for value, at in part[3])
            )

        return self.results.sweep(lambda key: all(map(alive, key[2])))

    def _current_parts(self) -> set[EpochPart]:
        """The epoch parts a session pinned right now would hold."""
        db = self.db
        parts = {self._store_part(name, db.store(name)) for name in db.store_names()}
        parts.update(
            self._view_part(name)
            for name in db.view_names()
            if db.view(name).policy != "manual"
        )
        parts.update(
            ("const", name, self._incarnation(relation))
            for name, relation in db.catalog.items()
        )
        return parts

    def stats(self) -> dict:
        """Introspection snapshot: sessions, cache counters, store epochs,
        per-view maintenance counters.

        ``results.bytes`` is the encoded fragments the result cache
        holds right now — a reading, not a cap.  ``results.cross_epoch_hits``
        counts the hits served from an entry computed at an older store
        epoch than the reader's pin.  ``memory`` is what this
        process's object graph costs to keep: the cyclic collector's runs
        per generation since start and the live interned lineage nodes —
        readings too, nothing is bounded by them.
        """
        results = self.results.stats()
        results["bytes"] = sum(
            entry.encoded_bytes for entry in self.results.values()
        )
        results["cross_epoch_hits"] = self.cross_epoch_hits
        return {
            "sessions": len(self._sessions),
            "results": results,
            "plans": self.plans.stats(),
            "epochs": {
                name: self.db.store(name).epoch for name in self.db.store_names()
            },
            "views": self.db.stats()["views"],
            "memory": {
                "gc_collections": [
                    generation["collections"] for generation in gc.get_stats()
                ],
                "lineage_nodes": intern_stats(),
            },
        }

    def __repr__(self) -> str:
        return (
            f"QueryService({self.db!r}, {len(self._sessions)} sessions, "
            f"results={self.results!r})"
        )
