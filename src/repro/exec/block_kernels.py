"""Serial sweep kernels over columnar blocks (DESIGN.md §15).

The columnar twins of the scalar kernels: where the tuple path walks
:class:`~repro.core.tuple.TPTuple` objects and the pool workers walk wire
rows, these kernels walk the packed integer columns of
:class:`~repro.core.blocks.ColumnarBlock` — fact codes unified into one
joint space by :func:`~repro.core.blocks.unify_fact_codes` (so every
fact comparison is a machine-int compare), interval end points as
``array('q')`` entries.  They emit exactly the **index codes** of
:mod:`repro.exec.kernels`, and the codes are resolved by the *same*
parent-side decodes the parallel engine uses
(:func:`repro.exec.engine._decode_setop_codes` /
:func:`~repro.exec.engine._decode_join_codes`) — every output lineage is
built by the identical constructor calls the serial tuple kernels make,
so the columnar path is `is`-identical by the same argument that proves
the pool path (DESIGN.md §10.3).

``setop_block_codes`` mirrors :func:`repro.exec.kernels.sweep_codes`
(itself in lockstep with ``repro.core.setops._fused_sweep``) with fact
codes for facts; ``join_block_codes`` mirrors
:func:`repro.core.gtwindow.generalized_windows` with row indexes for
tuples and end-point ints for intervals — identical event ordering,
snapshot rules and emission order.  The differential suite
(``tests/test_columnar_differential.py``) holds all of them together.

Entry points return ``None`` to mean "stay on the tuple path" — the
columnar layout requires int64 time points, so inputs outside that
domain simply fall back rather than fail.
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence

from ..core.blocks import ColumnarBlock, unify_fact_codes
from ..core.gtwindow import WindowPolicy
from ..core.tuple import TPTuple

__all__ = [
    "columnar_join_group_rows",
    "columnar_setop_rows",
    "join_block_codes",
    "setop_block_codes",
]


def setop_block_codes(
    fr: Sequence[int],
    r_starts: Sequence[int],
    r_ends: Sequence[int],
    fs: Sequence[int],
    s_starts: Sequence[int],
    s_ends: Sequence[int],
    opcode: int,
) -> list[tuple]:
    """LAWA sweep + λ-filter over integer columns, emitting index codes.

    ``fr``/``fs`` are joint fact codes (:func:`unify_fact_codes`), so
    ``==`` is fact equality and ``<`` is ``fact_lt``.  Keep in lockstep
    with :func:`repro.exec.kernels.sweep_codes`: identical control flow
    with the fact sentinel ``-1`` (joint codes are non-negative) instead
    of a fresh object.
    """
    nr, ns = len(fr), len(fs)
    ri = si = 0
    if nr:
        r_more = True
        rt_fact = fr[0]
        rt_start = r_starts[0]
    else:
        r_more = False
        rt_fact = rt_start = -1
    if ns:
        s_more = True
        st_fact = fs[0]
        st_start = s_starts[0]
    else:
        s_more = False
        st_fact = st_start = -1

    r_idx = -1  # index of the valid left row (-1: none)
    r_end = 0
    s_idx = -1  # index of the valid right row (-1: none)
    s_end = 0
    prev_te = -1
    fact = -1  # currFact sentinel: joint codes are >= 0

    codes: list[tuple] = []
    append = codes.append
    union = opcode == 0
    intersect = opcode == 1
    diff = opcode == 2

    while True:
        if intersect:
            if (r_idx < 0 and not r_more) or (s_idx < 0 and not s_more):
                break
        elif diff and r_idx < 0 and not r_more:
            break

        if r_idx < 0 and s_idx < 0:
            r_cont = r_more and rt_fact == fact
            s_cont = s_more and st_fact == fact
            if r_cont:
                if s_cont and st_start < rt_start:
                    win_ts = st_start
                else:
                    win_ts = rt_start
            elif s_cont:
                win_ts = st_start
            elif not r_more:
                if not s_more:
                    break
                fact = st_fact
                win_ts = st_start
            elif not s_more or (
                rt_fact == st_fact and rt_start <= st_start
            ) or rt_fact < st_fact:
                fact = rt_fact
                win_ts = rt_start
            else:
                fact = st_fact
                win_ts = st_start
        else:
            win_ts = prev_te

        if r_more and rt_fact == fact and rt_start == win_ts:
            r_idx = ri
            r_end = r_ends[ri]
            ri += 1
            if ri < nr:
                rt_fact = fr[ri]
                rt_start = r_starts[ri]
            else:
                r_more = False
        if s_more and st_fact == fact and st_start == win_ts:
            s_idx = si
            s_end = s_ends[si]
            si += 1
            if si < ns:
                st_fact = fs[si]
                st_start = s_starts[si]
            else:
                s_more = False

        win_te = None
        if r_more and rt_fact == fact:
            win_te = rt_start
        if s_more and st_fact == fact and (win_te is None or st_start < win_te):
            win_te = st_start
        if r_idx >= 0 and (win_te is None or r_end < win_te):
            win_te = r_end
        if s_idx >= 0 and (win_te is None or s_end < win_te):
            win_te = s_end
        assert win_te is not None and win_te > win_ts, "LAWA produced an empty window"

        if union:
            append((r_idx, s_idx, win_ts, win_te))
        elif intersect:
            if r_idx >= 0 and s_idx >= 0:
                append((r_idx, s_idx, win_ts, win_te))
        else:
            if r_idx >= 0:
                append((r_idx, s_idx, win_ts, win_te))

        if r_idx >= 0 and r_end == win_te:
            r_idx = -1
        if s_idx >= 0 and s_end == win_te:
            s_idx = -1
        prev_te = win_te

    return codes


def join_block_codes(
    starts_l: Sequence[int],
    ends_l: Sequence[int],
    starts_r: Sequence[int],
    ends_r: Sequence[int],
    policy: WindowPolicy,
) -> list[tuple]:
    """Generalized windows of one join-key group over end-point columns.

    A pure-index rewrite of :func:`repro.core.gtwindow
    .generalized_windows`: identical event list construction and
    ``(time, ends-before-starts)`` stable sort, identical snapshot rules
    (``others`` in ascending input-index order — the canonical
    ``PreservedWindow`` order), identical match pairing against the
    other side's active set in insertion order.  Emits the code format
    of :func:`repro.exec.kernels.join_window_codes`:
    ``(0, l_idx, r_idx, winTs, winTe)`` for matches,
    ``(1|2, p_idx, others_idx, winTs, winTe)`` for preserved left/right.
    """
    events: list[tuple[int, int, int, int]] = []  # (time, phase, side, idx)
    for idx in range(len(starts_l)):
        events.append((starts_l[idx], 1, 0, idx))
        events.append((ends_l[idx], 0, 0, idx))
    for idx in range(len(starts_r)):
        events.append((starts_r[idx], 1, 1, idx))
        events.append((ends_r[idx], 0, 1, idx))
    events.sort(key=lambda e: (e[0], e[1]))

    ends = (ends_l, ends_r)
    preserve = (policy.preserve_left, policy.preserve_right)
    matches = policy.matches
    active: tuple[dict[int, int], dict[int, int]] = ({}, {})  # idx -> end
    seg_start: tuple[dict[int, int], dict[int, int]] = ({}, {})

    codes: list[tuple] = []
    append = codes.append
    i, n = 0, len(events)
    while i < n:
        t = events[i][0]
        j = i
        while j < n and events[j][0] == t:
            j += 1
        group = events[i:j]
        sides_here = {e[2] for e in group}

        # 1. Close preserved windows, snapshotting pre-event state.
        for side in (0, 1):
            if not preserve[side]:
                continue
            other = 1 - side
            if other in sides_here:
                to_close = list(seg_start[side])
            else:
                to_close = [
                    idx
                    for (_, phase, sd, idx) in group
                    if sd == side and phase == 0 and idx in seg_start[side]
                ]
            if not to_close:
                continue
            others = tuple(sorted(active[other]))
            starts = seg_start[side]
            tag = side + 1
            for idx in to_close:
                if t > starts[idx]:
                    append((tag, idx, others, starts[idx], t))
                starts[idx] = t

        # 2. Apply end events.
        for (_, phase, side, idx) in group:
            if phase == 0:
                active[side].pop(idx, None)
                seg_start[side].pop(idx, None)

        # 3. Apply start events against the updated other-side set.
        for (_, phase, side, idx) in group:
            if phase != 1:
                continue
            u_end = ends[side][idx]
            if matches:
                if side == 0:
                    for v_idx, v_end in active[1].items():
                        te = u_end if u_end < v_end else v_end
                        append((0, idx, v_idx, t, te))
                else:
                    for v_idx, v_end in active[0].items():
                        te = u_end if u_end < v_end else v_end
                        append((0, v_idx, idx, t, te))
            active[side][idx] = u_end
            if preserve[side]:
                seg_start[side][idx] = t

        i = j
    return codes


# ----------------------------------------------------------------------
# the seams the serial operators call (None = stay on the tuple path)
# ----------------------------------------------------------------------
def columnar_setop_rows(
    tr: list[TPTuple],
    ts: list[TPTuple],
    opcode: int,
    block_r: Optional[ColumnarBlock] = None,
    block_s: Optional[ColumnarBlock] = None,
) -> Optional[list[TPTuple]]:
    """One set-operation sweep over blocks; decodes via the engine path."""
    try:
        if block_r is None:
            block_r = ColumnarBlock.from_tuples(tr)
        if block_s is None:
            block_s = ColumnarBlock.from_tuples(ts)
    except OverflowError:
        return None
    map_r, map_s = unify_fact_codes(block_r.facts, block_s.facts)
    fr = [map_r[c] for c in block_r.fact_codes]
    fs = [map_s[c] for c in block_s.fact_codes]
    codes = setop_block_codes(
        fr, block_r.starts, block_r.ends, fs, block_s.starts, block_s.ends, opcode
    )
    from .engine import _decode_setop_codes

    rows: list[TPTuple] = []
    _decode_setop_codes(codes, tr, 0, ts, 0, opcode, rows)
    return rows


def columnar_join_group_rows(
    layout: object,
    policy: WindowPolicy,
    group_l: Sequence[TPTuple],
    group_s: Sequence[TPTuple],
) -> Optional[list[tuple]]:
    """One join-key group swept over end-point columns; engine decode."""
    try:
        starts_l = array("q", [t.interval.start for t in group_l])
        ends_l = array("q", [t.interval.end for t in group_l])
        starts_r = array("q", [t.interval.start for t in group_s])
        ends_r = array("q", [t.interval.end for t in group_s])
    except OverflowError:
        return None
    codes = join_block_codes(starts_l, ends_l, starts_r, ends_r, policy)
    from .engine import _decode_join_codes

    rows: list[tuple] = []
    _decode_join_codes(layout, codes, group_l, group_s, rows)
    return rows
