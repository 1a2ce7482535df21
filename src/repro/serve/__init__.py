"""Concurrent query serving (DESIGN.md §12).

Three layers, separately testable:

- :mod:`repro.serve.service` — MVCC snapshot sessions over a
  :class:`~repro.db.TPDatabase`, with an epoch-invalidated plan/result
  cache.  Pure compute, no I/O: tpbench and the stress tests drive it
  in-process.
- :mod:`repro.serve.server` — the asyncio socket front-end speaking
  newline-delimited JSON (:mod:`repro.serve.protocol`), with
  per-request timeouts and graceful SIGTERM shutdown.  Run it with
  ``python -m repro.serve --data-dir DIR --port N``.
- :mod:`repro.serve.client` — a small synchronous client.

Only the compute layer is imported eagerly; the server pulls in asyncio
machinery on demand.
"""

from __future__ import annotations

from .cache import CachedResult, LRUCache
from .service import QueryResponse, QueryService
from .session import Session

__all__ = [
    "CachedResult",
    "LRUCache",
    "QueryResponse",
    "QueryService",
    "Session",
]
