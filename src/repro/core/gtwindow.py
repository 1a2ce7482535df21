"""Generalized lineage-aware temporal windows (outer & anti joins).

The follow-up paper *Generalized Lineage-Aware Temporal Windows*
(Papaioannou et al., arXiv:1902.04379) extends the LAWA window machinery
of the base paper from set operations to outer and anti joins.  The key
generalization: a window no longer pairs *the* left tuple with *the*
right tuple of one fact (duplicate-freeness guarantees at most one each),
but pairs one tuple of a **preserved side** with the *set* of join-key
matching tuples of the other side that are valid throughout the window.

Two window shapes cover the whole workload class:

* :class:`MatchWindow` — the maximal interval over which a concrete
  (left, right) pair of key-matching tuples is valid together.  Inner
  and outer joins turn these into matched output tuples with lineage
  ``λl ∧ λr``.
* :class:`PreservedWindow` — a maximal subinterval of one tuple of the
  preserved side over which the *set* of valid matching tuples on the
  other side is constant.  Outer joins turn these into null-padded
  output tuples, anti joins into plain ones; both concatenate the
  negated disjunction of the other side's lineages:
  ``λp ∧ ¬(λo₁ ∨ … ∨ λoₖ)`` (plain ``λp`` when the set is empty).

Which shapes a sweep emits is parameterized by :class:`WindowPolicy` —
the "which side's lineage survives" knob of the generalized paper:
matches only (inner join), matches plus one preserved side (left/right
outer join), matches plus both (full outer join), or one preserved side
alone (anti join).

The sweep processes one join-key group (where arbitrary many tuples per
side may be valid concurrently — duplicate-freeness only constrains equal
*facts*) in a single pass over its 2·(nl + nr) interval endpoints,
following the journal formulation's corrected termination rule: a
preserved tuple closes its final window at its own end point even when
the other side is already exhausted.  Per event the work is linear in the
number of concurrently valid tuples, so the total cost is
O(n log n + output) per group.

``tests/test_join_generalized.py`` pins the windows (via the join
operators built on them) against an independent naive sweepline baseline
and against brute-force possible-worlds enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from ..lineage.formula import Lineage
from .tuple import TPTuple

__all__ = [
    "LEFT",
    "RIGHT",
    "MatchWindow",
    "PreservedWindow",
    "GeneralizedWindow",
    "WindowPolicy",
    "WINDOW_POLICIES",
    "generalized_windows",
]

#: Side markers of a :class:`PreservedWindow`.
LEFT, RIGHT = 0, 1


@dataclass(frozen=True, slots=True)
class MatchWindow:
    """Maximal interval over which one key-matching pair is valid together."""

    left: TPTuple
    right: TPTuple
    win_ts: int
    win_te: int


@dataclass(frozen=True, slots=True)
class PreservedWindow:
    """Maximal subinterval of a preserved tuple with a constant match set.

    ``others`` holds the lineages of the other side's key-matching tuples
    valid throughout ``[win_ts, win_te)``, in the canonical order of the
    other side's input sequence (the ``(F, Ts)`` relation order) — the
    order in which the join operators build the negated disjunction, so
    both implementations produce syntactically identical lineage.
    """

    side: int  # LEFT or RIGHT
    tuple: TPTuple
    win_ts: int
    win_te: int
    others: tuple[Lineage, ...]


GeneralizedWindow = Union[MatchWindow, PreservedWindow]


@dataclass(frozen=True, slots=True)
class WindowPolicy:
    """Which windows a generalized sweep emits — the survival parameter."""

    matches: bool
    preserve_left: bool
    preserve_right: bool


#: The canonical policies of the generalized-windows paper, by join kind.
WINDOW_POLICIES: dict[str, WindowPolicy] = {
    "inner": WindowPolicy(matches=True, preserve_left=False, preserve_right=False),
    "left_outer": WindowPolicy(matches=True, preserve_left=True, preserve_right=False),
    "right_outer": WindowPolicy(matches=True, preserve_left=False, preserve_right=True),
    "full_outer": WindowPolicy(matches=True, preserve_left=True, preserve_right=True),
    "anti": WindowPolicy(matches=False, preserve_left=True, preserve_right=False),
}


def generalized_windows(
    left: Sequence[TPTuple],
    right: Sequence[TPTuple],
    policy: WindowPolicy,
) -> Iterator[GeneralizedWindow]:
    """Sweep one join-key group and emit its generalized windows.

    ``left`` and ``right`` are the group's tuples in their relations'
    ``(F, Ts)`` order; that order defines the canonical indices used for
    the ``others`` snapshots.  The sweep walks the endpoint events once,
    in time order with end events before start events at equal time
    (half-open intervals do not touch):

    * any event on side X closes the current window of every valid
      preserved tuple of the *other* side (its match set changes at X's
      boundary) — snapshots are taken before the event is applied;
    * a preserved tuple's own end closes its final window (corrected
      termination: the other side being exhausted does not truncate it);
    * a starting tuple opens match windows against every tuple currently
      valid on the other side, ``[t, min(ends))`` each.
    """
    events: list[tuple[int, int, int, int]] = []  # (time, phase, side, idx)
    for idx, u in enumerate(left):
        events.append((u.start, 1, LEFT, idx))
        events.append((u.end, 0, LEFT, idx))
    for idx, u in enumerate(right):
        events.append((u.start, 1, RIGHT, idx))
        events.append((u.end, 0, RIGHT, idx))
    # Ends (phase 0) before starts (phase 1) at equal time.  The events
    # went in left side first, each side in index order, so ordering the
    # whole tuple keeps that order among equal (time, phase).
    events.sort()

    tuples = (left, right)
    preserve = (policy.preserve_left, policy.preserve_right)
    matches = policy.matches
    active: tuple[dict[int, TPTuple], dict[int, TPTuple]] = ({}, {})
    seg_start: tuple[dict[int, int], dict[int, int]] = ({}, {})

    i, n = 0, len(events)
    while i < n:
        t = events[i][0]
        j = i
        left_here = right_here = False  # whether the side has an event at t
        while j < n and events[j][0] == t:
            if events[j][2] == LEFT:
                left_here = True
            else:
                right_here = True
            j += 1
        group = events[i:j]

        # 1. Close preserved windows, snapshotting pre-event state.
        for side in (LEFT, RIGHT):
            if not preserve[side]:
                continue
            other = 1 - side
            if right_here if side == LEFT else left_here:
                # The match set of every valid preserved tuple changes.
                to_close = list(seg_start[side])
            else:
                # Only tuples ending here close (their final window).
                to_close = [
                    idx
                    for (_, phase, sd, idx) in group
                    if sd == side and phase == 0 and idx in seg_start[side]
                ]
            if not to_close:
                continue
            other_active = active[other]
            others = tuple(other_active[k].lineage for k in sorted(other_active))
            starts = seg_start[side]
            for idx in to_close:
                if t > starts[idx]:
                    yield PreservedWindow(side, tuples[side][idx], starts[idx], t, others)
                starts[idx] = t

        # 2. Apply end events.
        for (_, phase, side, idx) in group:
            if phase == 0:
                active[side].pop(idx, None)
                seg_start[side].pop(idx, None)

        # 3. Apply start events; pair each starter with the (updated)
        #    other-side active set, so same-time cross starts pair once.
        for (_, phase, side, idx) in group:
            if phase != 1:
                continue
            u = tuples[side][idx]
            if matches:
                # Emission order across pairs is irrelevant (the join
                # driver re-sorts); no need to order the active set.
                u_end = u.end
                for v in active[1 - side].values():
                    v_end = v.end
                    te = u_end if u_end < v_end else v_end
                    if side == LEFT:
                        yield MatchWindow(u, v, t, te)
                    else:
                        yield MatchWindow(v, u, t, te)
            active[side][idx] = u
            if preserve[side]:
                seg_start[side][idx] = t

        i = j
