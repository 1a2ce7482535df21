"""Worker-side sweep kernels over index-coded rows (DESIGN.md §10.3).

Lineage interning is per-process, so shipping lineage trees between the
pool and the parent would force a (de)serialization per window.  The
workers avoid it entirely: they receive **wire rows** — ``(fact, Ts,
Te)`` triples for set operations, ``(Ts, Te)`` pairs for join groups —
and return **window codes** that reference input rows *by index*.  The
parent, which still holds the real tuples, resolves the indexes against
its own interned lineages and runs the exact λ-concatenation code of the
serial kernels (:mod:`repro.exec.engine`), so every output lineage is
built in the parent process by the same constructor calls the serial
path makes — identity-equality is preserved trivially.

``sweep_codes`` mirrors :func:`repro.core.setops._fused_sweep` line for
line, with the opaque per-side lineage replaced by the input row index
(``-1`` = no valid tuple).  The two must stay in lockstep; the
differential suite (``tests/test_parallel_differential.py``) holds them
together over every operator and adversarial chunkings.

``join_window_codes`` reuses :func:`repro.core.gtwindow
.generalized_windows` unchanged: the sweep treats lineage opaquely (it
only copies it into ``others`` snapshots), so stand-in tuples carrying
the input index *as* their lineage turn its windows into codes for free.
"""

from __future__ import annotations

from ..core.gtwindow import LEFT, MatchWindow, WindowPolicy, generalized_windows
from ..core.sorting import fact_lt
from ..core.tuple import TPTuple, tuples_from_rows

__all__ = ["OPCODES", "join_window_codes", "sweep_codes"]

#: Operation codes, aligned with repro.core.setops._OPCODES.
OP_UNION, OP_INTERSECT, OP_EXCEPT = 0, 1, 2
OPCODES = {"union": OP_UNION, "intersect": OP_INTERSECT, "except": OP_EXCEPT}

#: Wire row of a set-operation input: (fact, Ts, Te).
SetopRow = tuple
#: Window code: (r_idx, s_idx, winTs, winTe), -1 for an absent side.
SetopCode = tuple


def sweep_codes(
    rows_r: list[SetopRow], rows_s: list[SetopRow], opcode: int
) -> list[SetopCode]:
    """LAWA sweep + λ-filter over wire rows, emitting index codes.

    Keep in lockstep with ``repro.core.setops._fused_sweep``: identical
    window computation and filter conditions, with lineage values
    replaced by row indexes and the λ-concatenation deferred to the
    parent-side decode.
    """
    nr, ns = len(rows_r), len(rows_s)
    ri = si = 0
    if nr:
        rt = rows_r[0]
        rt_fact = rt[0]
        rt_start = rt[1]
    else:
        rt = None
        rt_fact = rt_start = None
    if ns:
        st = rows_s[0]
        st_fact = st[0]
        st_start = st[1]
    else:
        st = None
        st_fact = st_start = None

    r_idx = -1  # index of the valid left tuple (-1: none)
    r_end = 0
    s_idx = -1  # index of the valid right tuple (-1: none)
    s_end = 0
    prev_te = -1
    fact: object = object()  # currFact sentinel distinct from any real fact

    codes: list[SetopCode] = []
    append = codes.append
    union = opcode == OP_UNION
    intersect = opcode == OP_INTERSECT
    diff = opcode == OP_EXCEPT

    while True:
        if intersect:
            if (r_idx < 0 and rt is None) or (s_idx < 0 and st is None):
                break
        elif diff and r_idx < 0 and rt is None:
            break

        if r_idx < 0 and s_idx < 0:
            r_cont = rt is not None and rt_fact == fact
            s_cont = st is not None and st_fact == fact
            if r_cont:
                if s_cont and st_start < rt_start:
                    win_ts = st_start
                else:
                    win_ts = rt_start
            elif s_cont:
                win_ts = st_start
            elif rt is None:
                if st is None:
                    break
                fact = st_fact
                win_ts = st_start
            elif st is None or (
                rt_fact == st_fact and rt_start <= st_start
            ) or (rt_fact != st_fact and fact_lt(rt_fact, st_fact)):
                fact = rt_fact
                win_ts = rt_start
            else:
                fact = st_fact
                win_ts = st_start
        else:
            win_ts = prev_te

        if rt is not None and rt_fact == fact and rt_start == win_ts:
            r_idx = ri
            r_end = rt[2]
            ri += 1
            if ri < nr:
                rt = rows_r[ri]
                rt_fact = rt[0]
                rt_start = rt[1]
            else:
                rt = None
        if st is not None and st_fact == fact and st_start == win_ts:
            s_idx = si
            s_end = st[2]
            si += 1
            if si < ns:
                st = rows_s[si]
                st_fact = st[0]
                st_start = st[1]
            else:
                st = None

        win_te = None
        if rt is not None and rt_fact == fact:
            win_te = rt_start
        if st is not None and st_fact == fact and (win_te is None or st_start < win_te):
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


def _standins(rows: list[tuple]) -> list[TPTuple]:
    """Stand-in tuples whose lineage slot carries the input row index.

    ``generalized_windows`` reads only ``interval.start``,
    ``interval.end`` and (opaquely) ``lineage``, so trusted construction
    with ``lineage=index`` turns its windows into index codes.
    """
    return tuples_from_rows(
        (None, index, start, end) for index, (start, end) in enumerate(rows)
    )


def join_window_codes(
    rows_l: list[tuple], rows_s: list[tuple], policy: WindowPolicy
) -> list[tuple]:
    """Generalized windows of one join-key group, as index codes.

    Wire rows are ``(Ts, Te)`` pairs in the group's ``(F, Ts)`` order.
    Codes are ``(0, l_idx, r_idx, winTs, winTe)`` for match windows and
    ``(1|2, p_idx, others_idx, winTs, winTe)`` for preserved-left /
    preserved-right windows, with ``others_idx`` in the canonical order
    :class:`~repro.core.gtwindow.PreservedWindow` defines.
    """
    left = _standins(rows_l)
    right = _standins(rows_s)
    codes: list[tuple] = []
    append = codes.append
    match_window = MatchWindow
    for w in generalized_windows(left, right, policy):
        if type(w) is match_window:
            append((0, w.left.lineage, w.right.lineage, w.win_ts, w.win_te))
        elif w.side == LEFT:
            append((1, w.tuple.lineage, w.others, w.win_ts, w.win_te))
        else:
            append((2, w.tuple.lineage, w.others, w.win_ts, w.win_te))
    return codes
