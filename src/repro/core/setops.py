"""TP set operations via LAWA (Algorithms 2–4 of the paper).

All three operations follow the same four-step pipeline (paper, Fig. 5)::

    sort  →  LAWA  →  λ-filter  →  λ-function

The inputs are sorted by ``(F, Ts)``; LAWA produces lineage-aware temporal
windows; a per-operation filter decides which windows yield output tuples;
and the Table-I concatenation function assembles the output lineage.
Filtering and concatenation are O(1) per window, so the total cost is
O(|r|·log|r| + |s|·log|s|) — linear once sorting is done (Section VI-B).

Termination conditions follow the corrected form (DESIGN.md §3): a side
may still emit windows while it has either an unread cursor tuple or a
tuple spanning the current boundary, so

* intersection stops once *either* side is exhausted,
* difference stops once the *left* side is exhausted,
* union runs until both sides are exhausted.

∪ᵀᵖ and ∩ᵀᵖ are associative and the lineage constructors flatten nested
∨/∧, so the n-ary :func:`multi_union` / :func:`multi_intersect` are left
folds of the binary kernel: lineage-identical to the left-deep chain,
with only the last step valuating.

Two execution paths produce bit-identical results (pinned by
``tests/test_setops_fused.py``):

* the **fused kernel** (default, DESIGN.md §6), :func:`sweep_chunks`,
  the one set-operation sweep (the streams of
  :mod:`repro.algebra.streaming` run it too), runs sort → LAWA →
  λ-filter → λ-concat → tuple construction → valuation as one loop over
  plain local state — no per-window
  :class:`~repro.core.window.LineageWindow` allocation, no intermediate
  row, no per-call sweep-state write-back, cached ``(F, Ts)`` sort
  order via :meth:`TPRelation.sorted_tuples`.  A window over base
  variables, or over an unread row of an earlier result that is over
  two of them, defers its lineage node to the first read and gets its
  probability in the loop — so a chain such as ``(r1 ∪ r2) ∪ r3``
  builds no node and runs no batch; one batch valuation computes each
  *distinct* interned lineage of whatever else is left (repeated
  variables, deeper chains) once and fills its probability;
* the **unfused reference path** (``fused=False``) drives the
  single-step :class:`~repro.core.lawa.LawaSweep` exactly as the paper's
  pseudocode reads, window objects and all, and valuates every row in
  one batch — the oracle the kernel is verified against, and the hook
  for window-level instrumentation.
"""

from __future__ import annotations

from itertools import compress, filterfalse, repeat
from operator import attrgetter, is_, lshift, not_, or_
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ..lineage.concat import concat_and, concat_and_not, concat_or
from ..lineage.formula import And, Lineage, Not, Or, Var, land, lnot, lor
from ..prob.valuation import ProbabilityOptions, probability_batch, record_valuations
from .errors import UnsupportedOperationError
from .lawa import LawaSweep
from .relation import TPRelation
from .sorting import fact_lt
from .tuple import (
    DEFER_AND,
    DEFER_AND_NOT,
    DEFER_OR,
    TPTuple,
    deferred_node,
    fill_probabilities,
    new_object,
    set_end,
    set_fact,
    set_left,
    set_lineage,
    set_op,
    set_p,
    set_right,
    set_start,
)
from .window import LineageWindow

__all__ = [
    "tp_union",
    "tp_intersect",
    "tp_except",
    "tp_set_operation",
    "multi_union",
    "multi_intersect",
    "sweep_rows",
    "sweep_chunks",
    "OPERATIONS",
]

_SYMBOLS = {"union": "∪", "intersect": "∩", "except": "−"}
_lineage_of = attrgetter("lineage")
_lineage_slot_of = attrgetter("_lineage")  # None on a deferred row
_left_of = attrgetter("_left")
_right_of = attrgetter("_right")
_p_of = attrgetter("p")
#: The value of a deferred operand row that cannot be valued from two
#: variables of the event map (see :func:`_row_value`).
_UNVALUED: tuple = (None, None, None)


def tp_intersect(
    r: TPRelation,
    s: TPRelation,
    *,
    materialize: bool = True,
    fused: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ∩ᵀᵖ s — facts with non-zero probability to be in r *and* in s.

    A window contributes an output tuple iff tuples of both relations are
    valid over it (λr ≠ null ∧ λs ≠ null); the output lineage is
    ``and(λr, λs)``.
    """
    return _dispatch("intersect", r, s, materialize, fused, options)


def tp_union(
    r: TPRelation,
    s: TPRelation,
    *,
    materialize: bool = True,
    fused: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ∪ᵀᵖ s — facts with non-zero probability to be in r *or* in s.

    Every window yields an output tuple (by construction at least one side
    is valid); the output lineage is ``or(λr, λs)``.
    """
    return _dispatch("union", r, s, materialize, fused, options)


def tp_except(
    r: TPRelation,
    s: TPRelation,
    *,
    materialize: bool = True,
    fused: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r −ᵀᵖ s — facts with non-zero probability to be in r and not in s.

    A window contributes an output tuple iff a tuple of the left relation
    is valid over it (λr ≠ null); the output lineage is ``andNot(λr, λs)``
    — plain λr when the right side is absent, λr ∧ ¬λs otherwise (the
    probabilistic dimension keeps such tuples with reduced probability,
    unlike purely temporal difference).
    """
    return _dispatch("except", r, s, materialize, fused, options)


def multi_union(*relations: TPRelation, materialize: bool = True) -> TPRelation:
    """r1 ∪ᵀᵖ r2 ∪ᵀᵖ … ∪ᵀᵖ rm, the left fold of :func:`tp_union`."""
    return _fold(tp_union, relations, materialize)


def multi_intersect(*relations: TPRelation, materialize: bool = True) -> TPRelation:
    """r1 ∩ᵀᵖ r2 ∩ᵀᵖ … ∩ᵀᵖ rm, the left fold of :func:`tp_intersect`."""
    return _fold(tp_intersect, relations, materialize)


def _fold(
    operation: Callable[..., TPRelation],
    relations: tuple[TPRelation, ...],
    materialize: bool,
) -> TPRelation:
    """Intermediate results stay lineage-only; the last step valuates."""
    if len(relations) < 2:
        raise UnsupportedOperationError("n-ary set operations need at least two relations")
    result = relations[0]
    for i, other in enumerate(relations[1:], start=2):
        result = operation(result, other, materialize=materialize and i == len(relations))
    return result


def _dispatch(
    op: str,
    r: TPRelation,
    s: TPRelation,
    materialize: bool,
    fused: bool,
    options: Optional[ProbabilityOptions],
) -> TPRelation:
    r.schema.check_compatible(s.schema)
    # Cached on the relation; set-operation outputs carry their
    # sortedness flag, so chained operations never re-sort.
    r_sorted = r.sorted_tuples()
    s_sorted = s.sorted_tuples()
    events = r.merged_events(s)
    if fused:
        out, pending = _fused_sweep(
            r_sorted, s_sorted, op, events if materialize else None
        )
    else:
        # The reference path leaves every row to the batch.
        out = pending = _unfused_sweep(r_sorted, s_sorted, op)
    if materialize:
        _finish(out, pending, events, options)
    return TPRelation._derived(
        f"({r.name} {_SYMBOLS[op]} {s.name})", r.schema, out, events, assume_sorted=True
    )


# ----------------------------------------------------------------------
# the fused kernel
# ----------------------------------------------------------------------
def _fused_sweep(
    tr: Sequence[TPTuple],
    ts: Sequence[TPTuple],
    op: str,
    events: Optional[Mapping[str, float]] = None,
) -> tuple[list[TPTuple], list[TPTuple]]:
    """The kernel over two in-memory runs, one chunk each: the tuples it
    builds and those of them ``_finish`` still owes something, concatenated
    from its flushes (at most three: one per side's end, one at the
    end)."""
    out: Optional[list[TPTuple]] = None
    for more, more_pending in sweep_chunks(iter((tr,)), iter((ts,)), op, events):
        if out is None:
            out, pending = more, more_pending
        else:
            out += more
            pending += more_pending
    if out is None:
        return [], []
    return out, pending


def sweep_chunks(
    r_chunks: Iterator[Sequence[TPTuple]],
    s_chunks: Iterator[Sequence[TPTuple]],
    op: str,
    events: Optional[Mapping[str, float]] = None,
) -> Iterator[tuple[list[TPTuple], list[TPTuple]]]:
    """sort → LAWA → λ-filter → λ-concat → tuple → ``p`` in one loop
    (DESIGN.md §6) — the one set-operation sweep of the engine.

    Each side is an iterator of *chunks*: sequences of tuples which,
    read one after the other, form that side's ``(F, Ts)``-sorted,
    duplicate-free run.  The in-memory operators pass one chunk per side
    (the relation's sorted list), the streams of
    :mod:`repro.algebra.streaming` one tuple per chunk.  Inside a chunk
    the cursor is a plain index; when a side's chunk runs out the kernel
    first yields ``(out, pending)`` built so far (when it built any),
    then pulls that side's next chunk — so a stream gets every row as
    soon as the inputs decide it, and reads each input at most one tuple
    past the point where the operation's termination rule stops the
    sweep (DESIGN.md §3.1).  The kernel trusts the order of its inputs;
    the streams check theirs.

    Semantically identical to driving :class:`LawaSweep` step by step; the
    sweep state lives in local variables (cursor tuple, its fact and start
    point, the valid tuples' lineage, end point and probability per side)
    and windows are never materialized — each output window becomes its
    :class:`TPTuple` right here, its ``winTs``/``winTe`` written straight
    into the tuple's slots through the trusted writers of
    :mod:`repro.core.tuple`.

    A window over two distinct base variables builds no node: its tuple
    holds the two variables and the operator, and builds its node on the
    first read of ``lineage`` (DESIGN.md §6.3).  An input row that holds
    no node yet — an unread row of an earlier result, say the interior
    node of ``(r1 ∪ r2) ∪ r3`` — is read as an operand as it stands: a
    window over it is deferred the same way, its operand the row, and a
    window over it alone copies the row's operands.

    With ``events`` the kernel also valuates what it builds in the float
    order of the batch's own 1OF valuation, reading each variable from
    ``events``: ``x``, ``x∨y``, ``x∧y``, ``x∧¬y`` with ``x is not y``
    — the one-occurrence forms of Theorem 1 — and the windows over an
    unread row over two such variables that :func:`_nested_p`'s table
    covers.  ``pending`` holds what ``_finish`` still owes: the tuples
    left at ``p=None`` for a batch (a repeated variable, a variable
    missing from ``events``, a deeper chain), which intern their node
    now, and the valued windows over an unread row, whose formulas it
    counts by their variables.  Without ``events`` every tuple is
    lineage-only and none is pending.
    """
    if op not in _SYMBOLS:
        raise UnsupportedOperationError(f"unknown TP set operation {op!r}")
    # A side's next chunk is its next non-empty one; ``()`` once the
    # side is exhausted.
    for tr in r_chunks:
        if tr:
            break
    else:
        tr = ()
    nr = len(tr)
    for ts in s_chunks:
        if ts:
            break
    else:
        ts = ()
    ns = len(ts)
    ri = si = 0
    if nr:
        rt = tr[0]
        rt_fact = rt.fact
        rt_start = rt.start
    else:
        rt = None
        rt_fact = rt_start = None
    if ns:
        st = ts[0]
        st_fact = st.fact
        st_start = st.start
    else:
        st = None
        st_fact = st_start = None

    # The valid tuple per side: its lineage or, for an unread deferred
    # row, the row itself (None: no valid tuple), its end point, its
    # variable's probability (None: not a variable, or one ``events``
    # lacks), and a row's value (:func:`_row_value`).
    r_lam: Lineage | TPTuple | None = None
    r_end = 0
    r_p: Optional[float] = None
    r_v = _UNVALUED
    s_lam: Lineage | TPTuple | None = None
    s_end = 0
    s_p: Optional[float] = None
    s_v = _UNVALUED
    nested: Optional[int] = None  # the operator of a window over a row
    prev_te = -1
    fact: object = object()  # currFact sentinel distinct from any real fact

    out: list[TPTuple] = []
    append = out.append
    pending: list[TPTuple] = []
    pend = pending.append
    valuate = events is not None
    probability_of = events.get if events is not None else {}.get
    union = op == "union"
    intersect = op == "intersect"
    diff = op == "except"

    while True:
        # Early termination (corrected rules, DESIGN.md §3): a side is
        # exhausted when it has neither an unread cursor tuple nor a
        # tuple spanning the boundary.
        if intersect:
            if (r_lam is None and rt is None) or (s_lam is None and st is None):
                break
        elif diff and r_lam is None and rt is None:
            break

        if r_lam is None and s_lam is None:
            # No tuple spans the previous boundary: open a fresh window.
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
            # Continuation: the new window is adjacent to the previous one.
            win_ts = prev_te

        # Absorb cursor tuples that become valid exactly at winTs.  The
        # lineage slot is read directly; a deferred row of an earlier
        # result (its slot None) is the operand itself, its node unbuilt,
        # and with events it is valued from its two variables.
        if rt is not None and rt_fact == fact and rt_start == win_ts:
            r_lam = rt._lineage
            if r_lam is None:
                r_lam = rt
                r_p = None
                if valuate:
                    r_v = _row_value(rt, probability_of)
            else:
                r_p = probability_of(r_lam.name) if type(r_lam) is Var else None
            r_end = rt.end
            ri += 1
            if ri < nr:
                rt = tr[ri]
                rt_fact = rt.fact
                rt_start = rt.start
            else:
                # Flush before the pull (DESIGN.md §6).
                if out:
                    yield out, pending
                    out = []
                    append = out.append
                    pending = []
                    pend = pending.append
                for tr in r_chunks:
                    if tr:
                        break
                else:
                    tr = ()
                nr = len(tr)
                ri = 0
                if nr:
                    rt = tr[0]
                    rt_fact = rt.fact
                    rt_start = rt.start
                else:
                    rt = None
        if st is not None and st_fact == fact and st_start == win_ts:
            s_lam = st._lineage
            if s_lam is None:
                s_lam = st
                s_p = None
                if valuate:
                    s_v = _row_value(st, probability_of)
            else:
                s_p = probability_of(s_lam.name) if type(s_lam) is Var else None
            s_end = st.end
            si += 1
            if si < ns:
                st = ts[si]
                st_fact = st.fact
                st_start = st.start
            else:
                if out:
                    yield out, pending
                    out = []
                    append = out.append
                    pending = []
                    pend = pending.append
                for ts in s_chunks:
                    if ts:
                        break
                else:
                    ts = ()
                ns = len(ts)
                si = 0
                if ns:
                    st = ts[0]
                    st_fact = st.fact
                    st_start = st.start
                else:
                    st = None

        # winTe: the earliest among end points of the valid tuples and
        # start points of upcoming same-fact tuples.
        win_te = None
        if rt is not None and rt_fact == fact:
            win_te = rt_start
        if st is not None and st_fact == fact and (win_te is None or st_start < win_te):
            win_te = st_start
        if r_lam is not None and (win_te is None or r_end < win_te):
            win_te = r_end
        if s_lam is not None and (win_te is None or s_end < win_te):
            win_te = s_end
        assert win_te is not None and win_te > win_ts, "LAWA produced an empty window"

        # λ-filter + λ-concat (Table I), inlined per operation; ``lam``
        # stays None for a window the filter drops.  Base lineages are
        # atomic variables — for those the smart-constructor
        # normalizations (flattening, constant folding) cannot fire, so
        # the interned node is built directly; anything else goes through
        # land/lor/lnot and stays bit-identical to the reference path.
        # Two distinct base variables (``r_lam is not s_lam``: the node
        # is 1OF) defer the node: the row keeps the two variables and the
        # operator, and its first ``lineage`` read interns ``x∨y`` /
        # ``x∧y`` / ``x∧¬y`` (DESIGN.md §6.3).  With two known
        # probabilities the row gets ``p`` as the batch's _prob computes
        # it.  A window over an unread row of an earlier result sets
        # ``nested`` to its operator instead, and is built below.
        p = None
        defer = None
        if union:
            if r_lam is None:
                lam = s_lam
                p = s_p
            elif s_lam is None:
                lam = r_lam
                p = r_p
            elif r_p is not None and s_p is not None and r_lam is not s_lam:
                defer = DEFER_OR
                p = 1.0 - (1.0 - r_p) * (1.0 - s_p)
            elif type(r_lam) is Var and type(s_lam) is Var:
                if valuate or r_lam is s_lam:
                    lam = Or((r_lam, s_lam))
                else:
                    defer = DEFER_OR
            elif type(r_lam) is TPTuple or type(s_lam) is TPTuple:
                lam = None
                nested = DEFER_OR
            else:
                lam = lor(r_lam, s_lam)
        elif intersect:
            if r_lam is None or s_lam is None:
                lam = None
            elif r_p is not None and s_p is not None and r_lam is not s_lam:
                defer = DEFER_AND
                p = r_p * s_p
            elif type(r_lam) is Var and type(s_lam) is Var:
                if valuate or r_lam is s_lam:
                    lam = And((r_lam, s_lam))
                else:
                    defer = DEFER_AND
            elif type(r_lam) is TPTuple or type(s_lam) is TPTuple:
                lam = None
                nested = DEFER_AND
            else:
                lam = land(r_lam, s_lam)
        elif r_lam is None:
            lam = None
        elif s_lam is None:
            lam = r_lam
            p = r_p
        elif r_p is not None and s_p is not None and r_lam is not s_lam:
            defer = DEFER_AND_NOT
            p = r_p * (1.0 - s_p)
        elif type(r_lam) is Var and type(s_lam) is Var:
            if valuate or r_lam is s_lam:
                lam = And((r_lam, Not(s_lam)))
            else:
                defer = DEFER_AND_NOT
        elif type(r_lam) is TPTuple or type(s_lam) is TPTuple:
            lam = None
            nested = DEFER_AND_NOT
        else:
            lam = land(r_lam, lnot(s_lam))

        if defer is not None:
            t = new_object(TPTuple)
            set_fact(t, fact)
            set_lineage(t, None)
            set_left(t, r_lam)
            set_right(t, s_lam)
            set_op(t, defer)
            set_start(t, win_ts)
            set_end(t, win_te)
            set_p(t, p)
            append(t)
        elif lam is not None:
            t = new_object(TPTuple)
            set_fact(t, fact)
            set_start(t, win_ts)
            set_end(t, win_te)
            set_p(t, p)
            append(t)
            if p is not None:
                set_lineage(t, lam)
            elif type(lam) is not TPTuple:
                set_lineage(t, lam)
                if valuate:
                    pend(t)
            else:
                # One unread row alone (∪, or − without a right tuple):
                # the window stands for the row's formula, so it copies
                # the row's operands — one level of nesting, not two.
                left = lam._left
                right = lam._right
                if valuate:
                    p = (r_v if lam is r_lam else s_v)[0]
                    set_p(t, p)
                if valuate and p is None:
                    set_lineage(t, lam.lineage)  # deeper, or unvalued
                    pend(t)
                elif left is None or right is None:
                    # A row operand dropped: a reader stored the node.
                    set_lineage(t, lam._lineage)
                else:
                    set_lineage(t, None)
                    set_left(t, left)
                    set_right(t, right)
                    set_op(t, lam._op)
        elif nested is not None:
            # A window over an unread row is deferred too: the row is its
            # operand.  With events, it is valued when the table of
            # :func:`_nested_p` covers it; any other window interns its
            # node and waits for the batch.  ``pending`` gets both kinds:
            # ``_finish`` counts a valued one by its variables.
            if valuate:
                p = _nested_p(nested, r_lam, r_p, r_v, s_lam, s_p, s_v)
            t = new_object(TPTuple)
            set_fact(t, fact)
            set_start(t, win_ts)
            set_end(t, win_te)
            set_p(t, p)
            append(t)
            if p is None and valuate:
                set_lineage(t, deferred_node(
                    nested,
                    r_lam.lineage if type(r_lam) is TPTuple else r_lam,
                    s_lam.lineage if type(s_lam) is TPTuple else s_lam,
                ))
            else:
                set_lineage(t, None)
                set_left(t, r_lam)
                set_right(t, s_lam)
                set_op(t, nested)
            if valuate:
                pend(t)
            nested = None

        # Expire valid tuples that end exactly at the window boundary.
        if r_lam is not None and r_end == win_te:
            r_lam = None
        if s_lam is not None and s_end == win_te:
            s_lam = None
        prev_te = win_te

    if out:
        yield out, pending


def _row_value(
    row: TPTuple, probability_of: Callable[[str], Optional[float]]
) -> tuple:
    """``(p, pa, pb)`` of an unread deferred row over variables ``a`` and
    ``b``, read from the event map: ``p`` in the float order of the batch's
    1OF walk (``prob.exact_1of._prob``), ``pa`` and ``pb`` for the windows
    that flatten the row into theirs.  :data:`_UNVALUED` when an operand
    is not a variable (a deeper chain) or is one the map lacks."""
    a = row._left
    b = row._right
    if type(a) is not Var or type(b) is not Var:
        return _UNVALUED
    pa = probability_of(a.name)
    pb = probability_of(b.name)
    if pa is None or pb is None:
        return _UNVALUED
    op = row._op
    if op == DEFER_OR:
        return 1.0 - (1.0 - pa) * (1.0 - pb), pa, pb
    if op == DEFER_AND:
        return pa * pb, pa, pb
    return pa * (1.0 - pb), pa, pb


def _nested_p(
    op: int,
    r: Lineage | TPTuple,
    r_p: Optional[float],
    r_v: tuple,
    s: Lineage | TPTuple,
    s_p: Optional[float],
    s_v: tuple,
) -> Optional[float]:
    """``p`` of a window whose operand is an unread row, or None.

    ``R`` and ``S`` are deferred rows over two variables the event map
    holds (``r_v`` / ``s_v`` from :func:`_row_value`), ``z`` a variable
    with a known probability.  The window's node is in one-occurrence
    form exactly when its leaf variables are pairwise distinct objects
    (interned: one object per name), and then its ``p`` is the batch's
    ``_prob`` over the node the constructors flatten — ``lor(a∨b, z)``
    is ``a∨b∨z``, ``land(a∧¬b, z)`` is ``a∧¬b∧z`` — in that walk's float
    order (DESIGN.md §6.3):

    * ``R ∪ z``: ``1 − ((1−pa)(1−pb))(1−pz)`` when R is ∨, else
      ``1 − (1−pR)(1−pz)``; ``z ∪ S``: ``1 − ((1−pz)(1−pa))(1−pb)``
      when S is ∨, else ``1 − (1−pz)(1−pS)``;
    * ``R ∩ z``: ``pR·pz``; ``z ∩ S``: ``(pz·pa)·pb`` when S is ∧,
      ``(pz·pa)·(1−pb)`` when S is ∧¬, ``pz·pS`` when S is ∨;
    * ``R − z``, ``z − S``, ``R − S``: ``pR(1−pz)``, ``pz(1−pS)``,
      ``pR(1−pS)``.

    None — the window is interned and batched — for anything else: a
    repeated variable, a value the map lacks, a deeper chain, an eager
    compound operand, and ``R ∪ S`` / ``R ∩ S``.
    """
    if type(s) is Var:  # R op z
        pr, pa, pb = r_v
        if pr is None or s_p is None or s is r._left or s is r._right:
            return None
        if op == DEFER_OR:
            if r._op == DEFER_OR:
                return 1.0 - (1.0 - pa) * (1.0 - pb) * (1.0 - s_p)
            return 1.0 - (1.0 - pr) * (1.0 - s_p)
        if op == DEFER_AND:
            return pr * s_p
        return pr * (1.0 - s_p)
    if type(r) is Var:  # z op S
        ps, pa, pb = s_v
        if ps is None or r_p is None or r is s._left or r is s._right:
            return None
        kind = s._op
        if op == DEFER_OR:
            if kind == DEFER_OR:
                return 1.0 - (1.0 - r_p) * (1.0 - pa) * (1.0 - pb)
            return 1.0 - (1.0 - r_p) * (1.0 - ps)
        if op == DEFER_AND:
            if kind == DEFER_AND:
                return r_p * pa * pb
            if kind == DEFER_AND_NOT:
                return r_p * pa * (1.0 - pb)
            return r_p * ps
        return r_p * (1.0 - ps)
    if op == DEFER_AND_NOT and type(r) is TPTuple and type(s) is TPTuple:  # R − S
        pr = r_v[0]
        ps = s_v[0]
        if pr is None or ps is None:
            return None
        a, b, c, d = r._left, r._right, s._left, s._right
        if c is a or c is b or d is a or d is b:
            return None
        return pr * (1.0 - ps)
    return None


def sweep_rows(
    tr: list[TPTuple], ts: list[TPTuple], op: str
) -> list[TPTuple]:
    """LAWA + λ-filter + λ-concat over two already-sorted tuple runs.

    The public per-group seam of the fused kernel, consumed by the
    incremental view maintenance of :mod:`repro.store`: windows are
    determined purely locally by the ``(F, Ts)``-sorted neighborhood, so
    a dirty region of a relation can be re-swept in isolation by feeding
    only the tuples of that region.  Returns the kernel's lineage-only
    tuples (``p`` is None) — exactly what the full operators build
    before valuation, so splicing a re-swept region into a cached result
    is lineage-identical to a full recompute.
    """
    return _fused_sweep(tr, ts, op)[0]


# ----------------------------------------------------------------------
# the unfused reference path (paper-shaped, window objects and all)
# ----------------------------------------------------------------------
def _unfused_sweep(
    r_sorted: list[TPTuple], s_sorted: list[TPTuple], op: str
) -> list[TPTuple]:
    sweep = LawaSweep(r_sorted, s_sorted)
    out: list[TPTuple] = []
    if op == "union":
        while True:
            window = sweep.advance()
            if window is None:
                break
            if window.lam_r is not None or window.lam_s is not None:
                out.append(_tuple(window, concat_or(window.lam_r, window.lam_s)))
    elif op == "intersect":
        while not (sweep.r_exhausted or sweep.s_exhausted):
            window = sweep.advance()
            if window is None:
                break
            if window.lam_r is not None and window.lam_s is not None:
                out.append(_tuple(window, concat_and(window.lam_r, window.lam_s)))
    else:
        while not sweep.r_exhausted:
            window = sweep.advance()
            if window is None:
                break
            if window.lam_r is not None:
                out.append(_tuple(window, concat_and_not(window.lam_r, window.lam_s)))
    return out


def _tuple(window: LineageWindow, lineage: Lineage) -> TPTuple:
    # The reference path builds through the validating constructors.
    return TPTuple(window.fact, lineage, window.interval)


# ----------------------------------------------------------------------
# shared plumbing
# ----------------------------------------------------------------------
def _finish(
    out: list[TPTuple],
    pending: list[TPTuple],
    events: Mapping[str, float],
    options: Optional[ProbabilityOptions],
) -> None:
    """Valuate what the sweep left at ``p=None`` in one batch, and count.

    ``out`` holds the tuples a sweep has just built and nobody else has
    seen; the fused kernel valued all but the ``pending`` rows still at
    ``p=None`` as it built them.  Those are computed in one batch over the
    interned lineages — each distinct formula is valuated once, however
    many windows emitted it (see :func:`repro.prob.valuation
    .probability_batch`) — against the operand pair's cached merged
    event map, and written into the tuples before the relation exists,
    so every tuple is still built exactly once and a published tuple
    never changes (DESIGN.md §6.3).

    The valuation counters then read as one batch over all of ``out``
    would have read them: its misses are the distinct formulas, the
    pending batch's included, and its hits the repeats.  A deferred row
    (its ``_lineage`` slot ``None``) is counted without building its
    node.  One over two variables is keyed by its operand pair: within
    one operation two of them share a formula exactly when they share
    the pair — a derived operand can repeat one — and a deferred formula
    is no other row's (those hold a variable, or a node over a compound
    operand, a repeated variable or one ``events`` lacks; only a ⊤/⊥
    operand lineage, which no loader or operator builds, could fold into
    one).  C-level set builds count them, not a call per row, and the
    pair keys are untracked integers.  A valued row over an earlier
    result's unread row — the kernel also hands those in ``pending`` —
    is keyed by its variables instead (:func:`_nested_formulas`): two
    such operand rows can be distinct objects with one formula.  The
    counting runs after the batch, so a batch that raises counts
    nothing, as one over all rows would not.
    """
    batch = pending
    nested: list[TPTuple] = []
    if pending:
        unvalued = list(map(is_, map(_p_of, pending), repeat(None)))
        if not all(unvalued):
            batch = list(compress(pending, unvalued))
            nested = list(compress(pending, map(not_, unvalued)))
    if batch:
        fill_probabilities(
            batch,
            probability_batch(list(map(_lineage_of, batch)), events, options=options),
        )
    inline = len(out) - len(batch)
    if inline:
        misses = len(set(filter(None, map(_lineage_slot_of, out))))
        if batch:
            misses -= len(set(map(_lineage_of, batch)))
        deferred = list(filterfalse(_lineage_slot_of, out))
        if deferred:
            misses += len(_operand_pairs(deferred))
            if nested:
                misses += _nested_formulas(nested) - len(_operand_pairs(nested))
        record_valuations(misses, inline - misses)


def _operand_pairs(rows: list[TPTuple]) -> set[int]:
    """Deferred rows' operand pairs, each as ``id(left) << 64 | id(right)``:
    the rows keep both operands alive, and an int is not GC-tracked."""
    return set(map(
        or_,
        map(lshift, map(id, map(_left_of, rows)), repeat(64)),
        map(id, map(_right_of, rows)),
    ))


def _nested_formulas(rows: list[TPTuple]) -> int:
    """How many distinct formulas the valued rows over an unread operand
    row stand for, read off their variables without building a node.

    Such a row is ``R op z``, ``z op S`` or ``R − S`` (:func:`_nested_p`),
    each operand row over two variables.  Its formula is fixed by the
    shape, each operand row's variables and operator, and ``z`` — the
    operation's own operator is one per result — so the key is that
    tuple, its length telling the shapes apart.  Operand row objects do
    not key it: an earlier result copies one row's operands into every
    window that row spans alone, so one formula can reach a later
    operation through several rows.
    """
    return len({
        (
            (left._left, left._right, left._op, right._left, right._right, right._op)
            if right.__class__ is TPTuple
            else (left._left, left._right, left._op, right)
        )
        if left.__class__ is TPTuple
        else (left, right._left, right._right, right._op, None)
        for left, right in zip(map(_left_of, rows), map(_right_of, rows))
    })


#: Dispatch table, also consumed by the query executor and the benchmarks.
OPERATIONS: dict[str, Callable[..., TPRelation]] = {
    "union": tp_union,
    "intersect": tp_intersect,
    "except": tp_except,
}


def tp_set_operation(
    op: str,
    r: TPRelation,
    s: TPRelation,
    *,
    materialize: bool = True,
    fused: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """Compute ``r <op> s`` where op ∈ {'union', 'intersect', 'except'}."""
    try:
        func = OPERATIONS[op]
    except KeyError as exc:
        raise UnsupportedOperationError(f"unknown TP set operation {op!r}") from exc
    return func(
        r,
        s,
        materialize=materialize,
        fused=fused,
        options=options,
    )
