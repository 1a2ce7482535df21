"""Snapshot sessions: an epoch-consistent view of the whole database.

A session is what MVCC promises a reader (DESIGN.md §12.1): the moment
it opens (or re-pins via ``begin``), every store is captured through
:meth:`repro.store.SegmentStore.snapshot` and every view through its
refreshed result, and from then on the session's queries read *those*
immutable relations — writers never block it and its answers never
tear across a concurrent commit.

Alongside the pinned catalog the session records an *epoch signature*:
one hashable part per name, precise enough that two sessions share a
part exactly when they see the same bytes for that name —

- a store pins ``("store", name, epoch, incarnation)``;
- a view pins ``("view", name, ((base, epoch), …), incarnation)`` — its
  content is a pure function of its base stores' epochs;
- a ``manual`` view pins ``("view-manual", name, token, incarnation)``
  with a token unique to the pin;
- an immutable catalog relation pins ``("const", name, incarnation)``.

The trailing *incarnation* is a token unique to the registered relation,
store or view object the part was read from, so a relation replaced
under the same name (or a store re-created at an epoch its predecessor
also reached) never shares a part with what it replaced.  ``part[2]`` is
a store's epoch.

The signature restricted to a query's referenced names is the epoch
component of the result-cache key, and the set of parts pinned by live
sessions is what the cache sweep keeps alive.  A result that reads a
store only through σ on its leading attribute is keyed more finely, on
``("keyed", name, incarnation, ((value, changed_at), …))`` — the
versions of the fact groups it reads (DESIGN.md §12.2); the service
builds those parts from the pinned store objects in ``stores``.

On the wire (``epochs`` in replies, ``begin`` and ``commit``) a part is
shown without its incarnation, as :meth:`Session.signature` returns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.relation import TPRelation
from ..query.stats import RelationStats
from ..store import SegmentStore

__all__ = ["EpochPart", "Session"]

#: One name's contribution to a session's epoch signature.
EpochPart = tuple

@dataclass
class Session:
    """One client's pinned, epoch-consistent view of the database.

    ``catalog`` maps every resolvable name to the immutable relation the
    session reads for it; ``epochs`` maps the same names to their
    :data:`EpochPart`, and ``stats`` maps each store to the statistics
    pinned with its snapshot.  Holding the relations is what keeps the
    store's weakly-retained historical snapshots alive (DESIGN.md §12.1).
    """

    session_id: int
    catalog: dict[str, TPRelation] = field(default_factory=dict)
    epochs: dict[str, EpochPart] = field(default_factory=dict)
    #: Each pinned store's optimizer statistics as of its pinned epoch
    #: (views and constants are summarized from ``catalog`` on demand).
    stats: dict[str, RelationStats] = field(default_factory=dict)
    #: The store object behind each pinned store name: its per-value
    #: versions are what a keyed result part is built from.
    stores: dict[str, SegmentStore] = field(default_factory=dict)
    #: A view that refused its read at the pin (its operands hold two
    #: kinds in one column): the error a query naming it raises.
    refused: dict[str, Exception] = field(default_factory=dict)

    def parts(self, names: Iterable[str]) -> tuple[EpochPart, ...]:
        """The signature restricted to ``names`` (sorted, unknowns skipped).

        Unknown names are left out rather than raised on: execution will
        report the missing relation with its usual error, and a key that
        can never be produced twice caches nothing by construction.
        """
        return tuple(
            self.epochs[name] for name in sorted(set(names)) if name in self.epochs
        )

    def signature(self) -> tuple[EpochPart, ...]:
        """The full epoch signature in wire form, sorted by name."""
        return tuple(part[:-1] for _, part in sorted(self.epochs.items()))

    def __repr__(self) -> str:
        return f"Session(#{self.session_id}, {len(self.catalog)} relations)"
