"""``TPDatabase`` — the user-facing facade.

Bundles a catalog with the query pipeline so applications can work at the
level of the paper's examples::

    db = TPDatabase()
    db.create_relation("a", ("product",), [("milk", 2, 10, 0.3), ...])
    result = db.query("c - (a | b)")
    print(db.explain("c - (a | b)"))

Mutability and views (the :mod:`repro.store` subsystem)::

    db.insert("a", [("beer", 3, 8, 0.5)])        # converts a to a store
    db.create_view("q", "c - (a | b)")           # incrementally maintained
    db.query("q")                                 # reads the view
    db.query("c - (a | b)")                       # planner reads q, too
    db.delete("a", [("beer", 3, 8)])
    db.refresh()                                  # deferred/manual views

A relation becomes mutable on its first write: the immutable catalog
entry is seeded into a :class:`~repro.store.SegmentStore`, and query
scans read the store's epoch-cached snapshot from then on.  Views
resolve by name like relations, and queries whose subtrees match a fresh
view's definition are rewritten to read the maintained result instead of
recomputing it.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from ..baselines.interface import SetOpAlgorithm
from ..core.errors import (
    QueryParseError,
    UnknownRelationError,
    UnsupportedOperationError,
)
from ..core.relation import TPRelation
from ..query.analysis import QueryAnalysis, analyze
from ..query.ast import QueryNode, relation_references
from ..query.cost import PlanChoice, choose_plan
from ..query.executor import execute_plan
from ..query.explain import render_explain
from ..query.optimize import resolve_level, schemas_from_stats
from ..query.parser import parse_query, strip_explain_prefix
from ..query.planner import plan_query, substitute_views
from ..query.stats import RelationStats, relation_stats
from ..store import ChangeSet, Delta, MaterializedView, SegmentStore, StoreStatistics
from ..store import RecoveryError, RecoveryReport, StorePersistence, parse_durability
from ..store.recovery import DEFAULT_CHECKPOINT_EVERY
from .catalog import Catalog

__all__ = ["TPDatabase"]


class _RuntimeCatalog(Mapping[str, TPRelation]):
    """Name resolution for the executor: views, then stores, then catalog.

    Stores resolve to their epoch-cached snapshots; views resolve through
    their refresh policy (``deferred`` views refresh on read) and count
    the read in their ``stats()``.  A selection over a scan asks
    :meth:`select` instead, which views answer from the selected fact
    groups alone."""

    def __init__(self, db: "TPDatabase") -> None:
        self._db = db

    def __getitem__(self, name: str) -> TPRelation:
        db = self._db
        view = db._views.get(name)
        if view is not None:
            return view.read()
        store = db._stores.get(name)
        if store is not None:
            return store.snapshot()
        return db.catalog[name]

    def select(self, name: str, /, **equalities: object) -> TPRelation:
        """``self[name].select(**equalities)``, without assembling a
        view's whole relation first."""
        view = self._db._views.get(name)
        if view is not None:
            return view.read(**equalities)
        return self[name].select(**equalities)

    def __contains__(self, name: object) -> bool:
        db = self._db
        return name in db._views or name in db._stores or name in db.catalog

    def __iter__(self) -> Iterator[str]:
        seen = set(self._db._views) | set(self._db._stores) | set(self._db.catalog)
        return iter(seen)

    def __len__(self) -> int:
        return len(set(self._db._views) | set(self._db._stores) | set(self._db.catalog))


class TPDatabase:
    """An in-memory temporal-probabilistic database.

    ``data_dir`` turns on durability (DESIGN.md §12): every store-backed
    relation gets a subdirectory holding a checksummed write-ahead log
    plus periodic checkpoints, and opening a database on an existing
    ``data_dir`` recovers all stores — including after a crash mid-write.
    ``durability`` selects the level: ``'commit'`` (the default whenever
    ``data_dir`` is given) fsyncs the WAL on every transaction,
    ``'batch'`` appends without fsync (crash may lose the OS-buffered
    tail, never corrupt it), ``'off'`` disables persistence entirely.
    Without ``data_dir`` durability is ``'off'`` and the hot paths are
    byte-for-byte those of an in-memory database.
    """

    def __init__(
        self,
        *,
        data_dir: Union[str, Path, None] = None,
        durability: Optional[str] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        if durability is not None:
            durability = parse_durability(durability)
        if data_dir is None:
            if durability not in (None, "off"):
                raise ValueError(
                    f"durability {durability!r} requires data_dir: there is "
                    f"nowhere to write the log"
                )
            durability = "off"
        elif durability is None:
            durability = "commit"
        self.durability = durability
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.checkpoint_every = checkpoint_every
        self.catalog = Catalog()
        self._stores: dict[str, SegmentStore] = {}
        self._views: dict[str, MaterializedView] = {}
        self._store_stats: dict[str, StoreStatistics] = {}
        self._persistence: dict[str, StorePersistence] = {}
        #: Per-store :class:`~repro.store.RecoveryReport` from opening an
        #: existing ``data_dir`` — what was recovered, replayed, repaired.
        self.recovery_reports: dict[str, RecoveryReport] = {}
        if self._durable:
            assert self.data_dir is not None
            self.data_dir.mkdir(parents=True, exist_ok=True)
            self._recover_all()

    @property
    def _durable(self) -> bool:
        return self.data_dir is not None and self.durability != "off"

    def _recover_all(self) -> None:
        """Reopen every store directory under ``data_dir``.

        A directory with no recoverable state (a crash before the very
        first durable write) is treated as "this store never existed"
        and skipped; everything else recovers to its committed prefix.
        """
        assert self.data_dir is not None
        for sub in sorted(self.data_dir.iterdir()):
            if not sub.is_dir():
                continue
            try:
                persistence, report = StorePersistence.open(
                    sub,
                    durability=self.durability,
                    checkpoint_every=self.checkpoint_every,
                )
            except RecoveryError:
                continue
            store = persistence.store
            self._stores[store.name] = store
            self._persistence[store.name] = persistence
            self.recovery_reports[store.name] = report

    # ------------------------------------------------------------------
    # data definition
    # ------------------------------------------------------------------
    def create_relation(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[object]],
        *,
        id_prefix: Optional[str] = None,
        replace: bool = False,
    ) -> TPRelation:
        """Create and register a base relation from value rows.

        Rows are ``(*fact_values, ts, te, p)``; tuple identifiers are
        generated as ``<name>1, <name>2, …`` unless ``id_prefix`` is set.
        """
        relation = TPRelation.from_rows(
            name, attributes, rows, id_prefix=id_prefix
        )
        self.register(relation, replace=replace)
        return relation

    def register(self, relation: TPRelation, *, replace: bool = False) -> None:
        """Register an existing relation (e.g. loaded from disk)."""
        name = relation.name
        if name in self._views:
            raise ValueError(f"{name!r} names a view; drop it first")
        if name in self._stores:
            if not replace:
                raise ValueError(
                    f"relation {name!r} already registered (pass replace=True)"
                )
            # A view holds the store behind its base relations; silently
            # swapping the store out from under it would leave the view
            # (and view-substituted queries) serving the old data forever.
            dependents = [
                view.name
                for view in self._views.values()
                if name in relation_references(view.query)
            ]
            if dependents:
                raise ValueError(
                    f"cannot replace {name!r}: referenced by view(s) "
                    f"{', '.join(sorted(dependents))} — drop them first"
                )
            del self._stores[name]
            self._store_stats.pop(name, None)
            self._drop_persistence(name)
        self.catalog.register(relation, replace=replace)

    def _drop_persistence(self, name: str) -> None:
        """Close and erase the on-disk state of a replaced store."""
        persistence = self._persistence.pop(name, None)
        if persistence is not None:
            persistence.close()
            shutil.rmtree(persistence.directory, ignore_errors=True)

    def relation(self, name: str) -> TPRelation:
        """Look a relation (or store snapshot, or view result) up by name."""
        return _RuntimeCatalog(self)[name]

    def relation_names(self) -> tuple[str, ...]:
        """Every resolvable name — views, stores and catalog relations."""
        return tuple(sorted(set(self._views) | set(self._stores) | set(self.catalog)))

    def store_names(self) -> tuple[str, ...]:
        """The names currently backed by a mutable :class:`SegmentStore`."""
        return tuple(sorted(self._stores))

    def view_names(self) -> tuple[str, ...]:
        """The names of the registered materialized views."""
        return tuple(sorted(self._views))

    def view_base_stores(self, name: str) -> tuple[str, ...]:
        """The store names a view's defining query reads (sorted)."""
        return tuple(sorted(relation_references(self.view(name).query)))

    # ------------------------------------------------------------------
    # mutation (the repro.store subsystem)
    # ------------------------------------------------------------------
    def store(self, name: str) -> SegmentStore:
        """The mutable store behind ``name``, converting on first access.

        A plain catalog relation is seeded into a
        :class:`~repro.store.SegmentStore` (its tuples and event map are
        carried over); from then on scans read the store's snapshot.
        """
        store = self._stores.get(name)
        if store is not None:
            return store
        if name in self._views:
            raise UnsupportedOperationError(
                f"{name!r} is a materialized view; mutate its base relations"
            )
        store = SegmentStore.from_relation(self.catalog[name])
        self._stores[name] = store
        self.catalog.drop(name)
        if self._durable:
            assert self.data_dir is not None
            # The attach protocol checkpoints the seeded content before
            # the WAL exists, so a crash at any point of the conversion
            # recovers either the full seed or no store at all.
            self._persistence[name] = StorePersistence.attach(
                store,
                self.data_dir / name,
                durability=self.durability,
                checkpoint_every=self.checkpoint_every,
            )
        return store

    def apply(
        self,
        name: str,
        inserts: Iterable[Sequence[object]] = (),
        deletes: Iterable[Sequence[object]] = (),
    ) -> ChangeSet:
        """One batched transaction against relation ``name``.

        ``inserts`` rows are ``(*fact_values, ts, te, p)``; ``deletes``
        rows are ``(*fact_values, ts, te)``.  Eager views refresh before
        this returns."""
        changeset = self.store(name).apply(inserts=inserts, deletes=deletes)
        persistence = self._persistence.get(name)
        if persistence is not None:
            persistence.on_commit()
        if changeset:
            self._notify_views()
        return changeset

    def insert(self, name: str, rows: Iterable[Sequence[object]]) -> ChangeSet:
        """Insert rows into relation ``name`` (one transaction)."""
        return self.apply(name, inserts=rows)

    def delete(self, name: str, rows: Iterable[Sequence[object]]) -> ChangeSet:
        """Delete tuples named by ``(*fact_values, ts, te)`` rows."""
        return self.apply(name, deletes=rows)

    def apply_delta(self, name: str, delta: Delta) -> ChangeSet:
        """Apply a loaded :class:`~repro.store.Delta` file as one transaction."""
        return self.apply(name, inserts=delta.inserts, deletes=delta.deletes)

    def _notify_views(self) -> None:
        for view in self._views.values():
            if view.policy == "eager":
                view.refresh()

    # ------------------------------------------------------------------
    # durability (DESIGN.md §12)
    # ------------------------------------------------------------------
    def checkpoint(self, name: Optional[str] = None) -> dict[str, Path]:
        """Checkpoint one durable store (or all), rotating its WAL.

        Returns the checkpoint file path per store name.  A no-op (empty
        dict) on a database opened without ``data_dir``."""
        if name is not None:
            if name not in self._persistence:
                raise UnknownRelationError(f"no durable store named {name!r}")
            targets = [name]
        else:
            targets = list(self._persistence)
        return {n: self._persistence[n].checkpoint() for n in targets}

    def flush(self) -> None:
        """Drain every durable store's pending commits and fsync its WAL.

        Under ``durability='batch'`` this is the explicit sync point;
        under ``'commit'`` every transaction already synced."""
        for persistence in self._persistence.values():
            persistence.flush()

    def close(self) -> None:
        """Flush and release all durability resources (log file handles).

        The database remains usable in memory afterwards, but stops
        persisting; idempotent."""
        for persistence in self._persistence.values():
            persistence.close()
        self._persistence.clear()

    def __enter__(self) -> "TPDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # materialized views
    # ------------------------------------------------------------------
    def create_view(
        self,
        name: str,
        text_or_ast: Union[str, QueryNode],
        *,
        policy: str = "deferred",
        strategy: str = "INCREMENTAL",
    ) -> MaterializedView:
        """Create a materialized view defined by a TP query.

        Every base relation the query references becomes store-backed
        (views over views are not supported).  ``policy`` is ``eager``,
        ``deferred`` (default) or ``manual``; ``strategy`` selects the
        maintenance engine (``INCREMENTAL`` or the full-``RECOMPUTE``
        fallback it is cross-checked against).
        """
        if name in self._views:
            raise ValueError(f"view {name!r} already exists")
        if name in self._stores or name in self.catalog:
            raise ValueError(f"{name!r} already names a relation")
        query = self._to_ast(text_or_ast)
        stores: dict[str, SegmentStore] = {}
        for ref in relation_references(query):
            if ref in self._views:
                raise UnsupportedOperationError(
                    f"view {name!r} references view {ref!r}: views over "
                    f"views are not supported — inline its definition"
                )
            stores[ref] = self.store(ref)
        view = MaterializedView(
            name, query, stores, policy=policy, strategy=strategy
        )
        self._views[name] = view
        return view

    def view(self, name: str) -> MaterializedView:
        """Look a materialized view up by name."""
        try:
            return self._views[name]
        except KeyError as exc:
            raise UnknownRelationError(f"no view named {name!r}") from exc

    def drop_view(self, name: str) -> None:
        """Remove a materialized view."""
        self.view(name)
        del self._views[name]

    def refresh(self, name: Optional[str] = None) -> dict[str, bool]:
        """Refresh one view (or all); returns per-view "anything changed"."""
        views = [self.view(name)] if name is not None else self._views.values()
        return {view.name: view.refresh() for view in views}

    def stats(self) -> dict:
        """Introspection snapshot: per view, what maintaining it has cost
        so far (:meth:`~repro.store.MaterializedView.stats`)."""
        return {"views": {name: view.stats() for name, view in self._views.items()}}

    def _view_substitutions(self) -> dict[QueryNode, str]:
        """Defining ASTs of the views a query may transparently read.

        A view is substitutable when reading it yields fresh data:
        ``eager`` and ``deferred`` views always (they refresh by policy),
        ``manual`` views only while they happen to be fresh."""
        return {
            view.query: view.name
            for view in self._views.values()
            if view.policy != "manual" or view.is_fresh()
        }

    # ------------------------------------------------------------------
    # statistics (the optimizer's input, DESIGN.md §11)
    # ------------------------------------------------------------------
    def stats_of(self, name: str) -> RelationStats:
        """Statistics of a relation, store or view, by name.

        Plain catalog relations are summarized lazily (cached per
        relation object — relations are immutable); store-backed
        relations are maintained incrementally from the change log
        (:class:`~repro.store.StoreStatistics`); views are summarized
        from their current materialized result.
        """
        if name in self._views:
            return relation_stats(self._views[name].relation())
        store = self._stores.get(name)
        if store is not None:
            maintainer = self._store_stats.get(name)
            if maintainer is None or maintainer._store is not store:
                maintainer = StoreStatistics(store)
                self._store_stats[name] = maintainer
            return maintainer.current()
        return relation_stats(self.catalog[name])

    def _stats_catalog(self, ast: QueryNode) -> dict[str, RelationStats]:
        """Statistics for every relation a query references (best effort:
        unknown names are simply absent — the estimator uses defaults,
        and execution reports the error with its usual message)."""
        stats: dict[str, RelationStats] = {}
        for name in relation_references(ast):
            if name in stats:
                continue
            try:
                stats[name] = self.stats_of(name)
            except KeyError:
                continue
        return stats

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def query(
        self,
        text_or_ast: Union[str, QueryNode],
        *,
        algorithm: Union[str, SetOpAlgorithm, None] = None,
        join_algorithm: Optional[str] = None,
        materialize: bool = True,
        optimize: Union[bool, str, None] = False,
        aggressive: bool = False,
        use_views: bool = True,
    ) -> Union[TPRelation, str]:
        """Parse, plan and execute a TP set query.

        ``algorithm`` selects the physical operator for every set
        operation (default LAWA); Table-II capability violations raise at
        planning time.  ``join_algorithm`` selects the operator for every
        join node (default GTWINDOW, the generalized-window kernel;
        NAIVE-SWEEP runs the sweepline reference).

        ``optimize`` selects the optimization level: ``'off'`` (default)
        runs the plan the parser produced; ``'safe'`` (or ``True``) runs
        the cost-based optimizer over the lineage-identical rewrites —
        selection pushdown to the scans (through set operations and
        joins), associative flattening of ∪/∩ chains into n-ary nodes
        (run as a left fold of the binary sweep), and inner natural-join
        reassociation, scored by estimated sweep rows from the
        statistics catalog; ``'aggressive'`` (or ``aggressive=True``)
        additionally considers difference fusion ``(a − b) − c →
        a − (b ∪ c)`` and n-ary operands ordered by cardinality, which
        preserve facts, intervals and probabilities but may change the
        lineage *form*.

        ``use_views=True`` (default) lets the planner replace subqueries
        matching a fresh materialized view's definition by a read of the
        maintained result; under the optimizer the match is modulo the
        safe rewrites.

        A textual query may carry an ``EXPLAIN`` prefix; the plan is
        then executed once and the report — the chosen plan annotated
        with estimated vs. actual row counts — is returned as a string
        instead of a relation.
        """
        if isinstance(text_or_ast, str):
            stripped = strip_explain_prefix(text_or_ast)
            if stripped is not None:
                # Keywords are not reserved as relation names (PR 2's
                # convention): when the remainder is not a query but the
                # whole text is — e.g. ``explain | a`` over a relation
                # named ``explain`` — run the whole text as the query.
                # Plain juxtaposition is never valid syntax, so the two
                # readings cannot both parse.
                try:
                    explained = parse_query(stripped)
                except QueryParseError:
                    try:
                        text_or_ast = parse_query(text_or_ast)
                    except QueryParseError:
                        raise QueryParseError(
                            f"EXPLAIN target does not parse: {stripped!r}"
                        ) from None
                else:
                    return self.explain(
                        explained,
                        algorithm=algorithm,
                        join_algorithm=join_algorithm,
                        optimize=optimize,
                        aggressive=aggressive,
                        use_views=use_views,
                        analyze=True,
                    )
        level = resolve_level(optimize, aggressive)
        ast, _, _ = self._optimize(self._to_ast(text_or_ast), level, use_views)
        plan = plan_query(ast, algorithm=algorithm, join_algorithm=join_algorithm)
        return execute_plan(plan, _RuntimeCatalog(self), materialize=materialize)

    def _optimize(
        self, ast: QueryNode, level: str, use_views: bool
    ) -> tuple[QueryNode, Optional[PlanChoice], dict[str, RelationStats]]:
        """The shared front half of ``query`` and ``explain``: view
        substitution plus the cost-based (or no-op) rewrite."""
        stats = self._stats_catalog(ast) if level != "off" else {}
        if use_views and self._views:
            ast = substitute_views(
                ast,
                self._view_substitutions(),
                canonical=level != "off",
                schemas=schemas_from_stats(stats, ast) if stats else None,
            )
        if level == "off":
            return ast, None, stats
        # View substitution may have replaced subtrees by view scans the
        # original reference walk did not see — top the stats up.
        for name, entry in self._stats_catalog(ast).items():
            stats.setdefault(name, entry)
        choice = choose_plan(ast, stats, aggressive=level == "aggressive")
        return choice.chosen, choice, stats

    def analyze(self, text_or_ast: Union[str, QueryNode]) -> QueryAnalysis:
        """Static analysis: Theorem-1 safety, complexity class, shape."""
        return analyze(self._to_ast(text_or_ast))

    def explain(
        self,
        text_or_ast: Union[str, QueryNode],
        *,
        algorithm: Union[str, SetOpAlgorithm, None] = None,
        join_algorithm: Optional[str] = None,
        optimize: Union[bool, str, None] = False,
        aggressive: bool = False,
        use_views: bool = True,
        analyze: bool = False,
    ) -> str:
        """Render the chosen plan with estimates, plus the static analysis.

        Every plan node is annotated with the cost model's estimated
        output rows and cumulative cost (in sweep rows); under
        ``analyze=True`` the plan is executed once and each node
        additionally reports its *actual* row count, making estimate
        drift visible.  ``optimize`` accepts the same levels as
        :meth:`query`.
        """
        from ..query.analysis import analyze as _analyze

        ast = self._to_ast(text_or_ast)
        analysis = _analyze(ast)
        level = resolve_level(optimize, aggressive)
        lowered, choice, stats = self._optimize(ast, level, use_views)
        if not stats:
            stats = self._stats_catalog(lowered)
        plan = plan_query(lowered, algorithm=algorithm, join_algorithm=join_algorithm)
        actuals: Optional[dict[tuple, int]] = None
        if analyze:
            counts: dict[tuple, int] = {}
            execute_plan(
                plan,
                _RuntimeCatalog(self),
                materialize=False,
                observe=lambda path, _node, result: counts.__setitem__(
                    path, len(result)
                ),
            )
            actuals = counts
        return render_explain(
            lowered,
            plan,
            stats,
            level=level,
            analysis=analysis,
            choice=choice,
            actuals=actuals,
        )

    @staticmethod
    def _to_ast(text_or_ast: Union[str, QueryNode]) -> QueryNode:
        if isinstance(text_or_ast, str):
            return parse_query(text_or_ast)
        return text_or_ast

    def __repr__(self) -> str:
        n = len(self.catalog) + len(self._stores)
        durable = (
            f", durable[{self.durability}]@{self.data_dir}" if self._durable else ""
        )
        return (
            f"TPDatabase({n} relations, {len(self._views)} views{durable})"
        )
