"""Deterministic fault injection for the durability layer (DESIGN.md §11).

Every write/fsync/rename boundary of the persistence code — the WAL
appender, the checkpoint writer, the atomic relation saves — announces
itself by calling :func:`trip` with a stable, documented name.  In
production no hook is installed and the call is a dict lookup plus a
``None`` check: effectively free.  Under test, a hook simulates a crash
at exactly one boundary by raising :class:`SimulatedCrash`; the process
survives (unlike a real crash) but the code past the boundary never
runs, so the on-disk state is byte-for-byte what a power loss at that
instant would leave behind — a torn record, a missing rename, a stale
checkpoint.

The crash-recovery harness (``tests/test_crash_recovery.py``) first
dry-runs a workload counting the boundaries it crosses, then replays it
once per boundary with a crash injected there, recovering after each and
holding the result against a committed-prefix oracle.  Determinism of
the enumeration is what makes the sweep exhaustive rather than sampled.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional

__all__ = ["SimulatedCrash", "fault_hook", "set_fault_hook", "trip"]


class SimulatedCrash(BaseException):
    """Raised by a test hook to cut execution at a fault point.

    Derives from ``BaseException`` so ordinary ``except Exception``
    cleanup code cannot accidentally swallow the "crash" and keep
    writing — exactly as a real crash would not be caught.
    """


_HOOK: Optional[Callable[[str], None]] = None


def set_fault_hook(hook: Optional[Callable[[str], None]]) -> None:
    """Install (or with ``None`` remove) the process-wide fault hook."""
    global _HOOK
    _HOOK = hook


def trip(name: str) -> None:
    """Announce a fault point; the installed hook may raise to 'crash'.

    ``name`` identifies the boundary just *crossed* (or, for ``*.begin``
    names, about to be crossed): hooks can therefore count completed
    writes before deciding to crash, which is how the harness knows the
    exact committed prefix a recovery must reproduce.
    """
    if _HOOK is not None:
        _HOOK(name)


@contextmanager
def fault_hook(hook: Callable[[str], None]) -> Iterator[None]:
    """Scoped :func:`set_fault_hook` — always uninstalls, even on crash."""
    set_fault_hook(hook)
    try:
        yield
    finally:
        set_fault_hook(None)
