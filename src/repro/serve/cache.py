"""LRU caches with introspection counters (DESIGN.md §14.3).

One generic building block backs both serving caches: the *plan cache*
(canonical key → physical plan, epoch-free — every plan for a canonical
form is result-equivalent) and the *result cache* (canonical key +
optimize level + epoch signature → materialized relation).  The epoch signature inside the result key **is** the
invalidation mechanism: a commit bumps the store's epoch, so every
subsequent lookup misses naturally and the stale entry ages out of the
LRU.  :meth:`LRUCache.sweep` additionally lets the service drop entries
eagerly once no live session pins their epochs (a cache full of
unreachable history is wasted memory, not a correctness problem).

Counters (``hits`` / ``misses`` / ``evictions``) are the observable the
acceptance tests key on: a hot query at a fixed epoch must bump ``hits``.

A result-cache value is a :class:`CachedResult` — the relation plus its
wire encoding, rendered at most once (DESIGN.md §14.2).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterator, Optional

from ..core.relation import TPRelation
from .protocol import relation_fragment

__all__ = ["CachedResult", "LRUCache"]


class CachedResult:
    """One query result: the relation and, lazily, its wire fragment.

    The fragment (:func:`~repro.serve.protocol.relation_fragment`) is
    rendered by the first reply that puts the result on the wire and
    kept, so every later hit splices bytes instead of walking rows; a
    result only ever read in-process never pays for it.
    """

    __slots__ = ("relation", "epochs", "_fragment")

    def __init__(self, relation: TPRelation, epochs: tuple = ()) -> None:
        self.relation = relation
        #: The wire epoch signature of the session that computed it.
        self.epochs = epochs
        self._fragment: Optional[bytes] = None

    def fragment(self) -> bytes:
        """The relation's canonical JSON encoding (rendered once)."""
        fragment = self._fragment
        if fragment is None:
            fragment = self._fragment = relation_fragment(self.relation)
        return fragment

    @property
    def encoded_bytes(self) -> int:
        """Bytes of encoding held (0 until some reply has rendered it)."""
        return 0 if self._fragment is None else len(self._fragment)


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Not thread-safe by design: the serving layer funnels every
    state-touching call through one executor thread (DESIGN.md §14.2),
    so locking here would buy nothing.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, refreshed to most-recently-used; None on miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def values(self) -> Iterator[Any]:
        """The cached values, least recently used first (no refresh)."""
        return iter(self._entries.values())

    def sweep(self, keep: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key fails ``keep``; returns the count.

        Swept entries are not counted as evictions — eviction measures
        capacity pressure, sweeping measures epoch retirement.
        """
        dead = [key for key in self._entries if not keep(key)]
        for key in dead:
            del self._entries[key]
        return len(dead)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counter snapshot: entries, capacity, hits, misses, evictions."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:
        return (
            f"LRUCache({len(self._entries)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
