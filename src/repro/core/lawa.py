"""LAWA — the lineage-aware window advancer (Algorithm 1 of the paper).

LAWA sweeps two duplicate-free TP relations, sorted by ``(F, Ts)``, and
emits a stream of lineage-aware temporal windows.  Each call advances the
sweep by exactly one window; the per-call work is O(1), so producing all
windows is linear in the input size, and by Proposition 1 the number of
windows is at most ``nr + ns − fd`` (start/end points of both relations
minus the number of distinct facts).

This class is the paper-shaped *reference path*: one window object per
``advance()`` call, state in an explicit status record.  The production
set operations run the fused kernel in :mod:`repro.core.setops`
(DESIGN.md §6), which inlines this exact state machine into one loop;
``tests/test_mode_matrix.py`` pins the two bit-identical.  Keep both in
sync when touching either.

The published pseudocode contains editorial glitches that this
implementation corrects (documented in DESIGN.md §3 and pinned by tests
against the snapshot-semantics oracle):

* the termination guard of line 3 must test both relations for exhaustion;
* choosing the start of a fresh window must respect the ``(F, Ts)`` sort
  order, preferring cursor tuples that continue the current fact group;
* only cursor tuples carrying the *current* fact may bound ``winTe`` —
  otherwise a long-lived tuple of fact f would be truncated by unrelated
  facts (the paper's single-fact experiments never exercise this).

The sweep state corresponds 1:1 to the paper's ``status`` record:
``prevWinTe``, ``currFact``, ``rValid``, ``sValid`` and the two cursors.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .sorting import sort_key_le
from .tuple import TPTuple
from .window import LineageWindow

__all__ = ["LawaSweep", "lawa_windows"]

_UNSET = object()  # currFact sentinel distinct from any real fact


class LawaSweep:
    """Stateful window advancer over two sorted tuple sequences.

    ``advance()`` performs one LAWA call and returns the next
    lineage-aware temporal window, or ``None`` once both inputs are fully
    swept.  The properties :attr:`r_exhausted` / :attr:`s_exhausted` let
    the set-operation drivers stop early (e.g. set difference needs no
    windows once the left relation is exhausted).
    """

    __slots__ = (
        "_r",
        "_s",
        "_ri",
        "_si",
        "_r_valid",
        "_s_valid",
        "_prev_win_te",
        "_curr_fact",
        "windows_produced",
    )

    def __init__(self, r_sorted: Sequence[TPTuple], s_sorted: Sequence[TPTuple]) -> None:
        self._r = r_sorted
        self._s = s_sorted
        self._ri = 0
        self._si = 0
        self._r_valid: Optional[TPTuple] = None
        self._s_valid: Optional[TPTuple] = None
        self._prev_win_te: int = -1
        self._curr_fact: object = _UNSET
        #: Number of windows produced so far (Proposition 1 accounting).
        self.windows_produced = 0

    # ------------------------------------------------------------------
    # cursor helpers
    # ------------------------------------------------------------------
    @property
    def r_exhausted(self) -> bool:
        """True when the left relation can contribute no further lineage."""
        return self._r_valid is None and self._ri >= len(self._r)

    @property
    def s_exhausted(self) -> bool:
        """True when the right relation can contribute no further lineage."""
        return self._s_valid is None and self._si >= len(self._s)

    # ------------------------------------------------------------------
    # one LAWA call
    # ------------------------------------------------------------------
    def advance(self) -> Optional[LineageWindow]:
        """Produce the next lineage-aware temporal window (Algorithm 1).

        The body is a hand-optimized transliteration of the pseudocode:
        cursor state is pulled into locals (attribute access dominates the
        per-call cost in CPython) and written back once at the end.
        """
        tuples_r, tuples_s = self._r, self._s
        ri, si = self._ri, self._si
        r = tuples_r[ri] if ri < len(tuples_r) else None
        s = tuples_s[si] if si < len(tuples_s) else None
        r_valid = self._r_valid
        s_valid = self._s_valid
        fact = self._curr_fact

        if r_valid is None and s_valid is None:
            # No tuple spans the previous boundary: open a fresh window.
            # Cursor tuples continuing the current fact group take
            # precedence; otherwise the sweep moves to the smallest
            # (F, Ts) key, keeping fact groups contiguous and the output
            # sorted.
            r_continues = r is not None and r.fact == fact
            s_continues = s is not None and s.fact == fact
            if r_continues and s_continues:
                win_ts = min(r.start, s.start)
            elif r_continues:
                win_ts = r.start
            elif s_continues:
                win_ts = s.start
            elif r is None and s is None:
                return None
            else:
                if s is None or (r is not None and sort_key_le(r, s)):
                    opener = r
                else:
                    opener = s
                fact = self._curr_fact = opener.fact
                win_ts = opener.start
        else:
            # Continuation: the new window is adjacent to the previous one.
            win_ts = self._prev_win_te

        # Absorb cursor tuples that become valid exactly at winTs.
        if r is not None and r.fact == fact and r.start == win_ts:
            r_valid = r
            ri += 1
            r = tuples_r[ri] if ri < len(tuples_r) else None
        if s is not None and s.fact == fact and s.start == win_ts:
            s_valid = s
            si += 1
            s = tuples_s[si] if si < len(tuples_s) else None

        # winTe: the earliest among (a) end points of the valid tuples and
        # (b) start points of upcoming same-fact tuples — a start marks a
        # change in the set of valid tuples and therefore a new window.
        win_te: Optional[int] = None
        if r is not None and r.fact == fact:
            win_te = r.start
        if s is not None and s.fact == fact:
            start = s.start
            if win_te is None or start < win_te:
                win_te = start
        lam_r = lam_s = None
        if r_valid is not None:
            lam_r = r_valid.lineage
            end = r_valid.end
            if win_te is None or end < win_te:
                win_te = end
        if s_valid is not None:
            lam_s = s_valid.lineage
            end = s_valid.end
            if win_te is None or end < win_te:
                win_te = end
        assert win_te is not None and win_te > win_ts, "LAWA produced an empty window"

        window = LineageWindow(fact, win_ts, win_te, lam_r, lam_s)

        # Expire valid tuples that end exactly at the window boundary.
        if r_valid is not None and r_valid.end == win_te:
            r_valid = None
        if s_valid is not None and s_valid.end == win_te:
            s_valid = None

        self._ri, self._si = ri, si
        self._r_valid, self._s_valid = r_valid, s_valid
        self._prev_win_te = win_te
        self.windows_produced += 1
        return window

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[LineageWindow]:
        return self

    def __next__(self) -> LineageWindow:
        window = self.advance()
        if window is None:
            raise StopIteration
        return window


def lawa_windows(
    r_sorted: Sequence[TPTuple], s_sorted: Sequence[TPTuple]
) -> Iterator[LineageWindow]:
    """Iterate over every lineage-aware temporal window of the two inputs."""
    return iter(LawaSweep(r_sorted, s_sorted))
