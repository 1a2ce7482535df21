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

* the **fused kernel** (default, DESIGN.md §6) runs sort → LAWA →
  λ-filter → λ-concat → tuple construction as one loop over plain local
  state — no per-window :class:`~repro.core.window.LineageWindow`
  allocation, no intermediate row, no per-call sweep-state write-back,
  cached ``(F, Ts)`` sort order via :meth:`TPRelation.sorted_tuples` —
  followed by one batch valuation that computes each *distinct* interned
  lineage once and fills the tuples' probabilities;
* the **unfused reference path** (``fused=False``) drives the
  single-step :class:`~repro.core.lawa.LawaSweep` exactly as the paper's
  pseudocode reads, window objects and all — the oracle the kernel is
  verified against, and the hook for window-level instrumentation.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..lineage.concat import concat_and, concat_and_not, concat_or
from ..lineage.formula import And, Lineage, Not, Or, Var, land, lnot, lor
from ..prob.valuation import ProbabilityOptions, probability_batch
from .errors import UnsupportedOperationError
from .lawa import LawaSweep
from .relation import TPRelation
from .sorting import fact_lt, sort_tuples
from .tuple import (
    TPTuple,
    fill_probabilities,
    new_object,
    set_end,
    set_fact,
    set_lineage,
    set_p,
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
    "OPERATIONS",
]

_OP_UNION, _OP_INTERSECT, _OP_EXCEPT = 0, 1, 2
_OPCODES = {"union": _OP_UNION, "intersect": _OP_INTERSECT, "except": _OP_EXCEPT}


def tp_intersect(
    r: TPRelation,
    s: TPRelation,
    *,
    materialize: bool = True,
    sort_strategy: str = "comparison",
    fused: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ∩ᵀᵖ s — facts with non-zero probability to be in r *and* in s.

    A window contributes an output tuple iff tuples of both relations are
    valid over it (λr ≠ null ∧ λs ≠ null); the output lineage is
    ``and(λr, λs)``.
    """
    return _dispatch(_OP_INTERSECT, "∩", r, s, materialize, sort_strategy, fused, options)


def tp_union(
    r: TPRelation,
    s: TPRelation,
    *,
    materialize: bool = True,
    sort_strategy: str = "comparison",
    fused: bool = True,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """r ∪ᵀᵖ s — facts with non-zero probability to be in r *or* in s.

    Every window yields an output tuple (by construction at least one side
    is valid); the output lineage is ``or(λr, λs)``.
    """
    return _dispatch(_OP_UNION, "∪", r, s, materialize, sort_strategy, fused, options)


def tp_except(
    r: TPRelation,
    s: TPRelation,
    *,
    materialize: bool = True,
    sort_strategy: str = "comparison",
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
    return _dispatch(_OP_EXCEPT, "−", r, s, materialize, sort_strategy, fused, options)


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
    opcode: int,
    symbol: str,
    r: TPRelation,
    s: TPRelation,
    materialize: bool,
    sort_strategy: str,
    fused: bool,
    options: Optional[ProbabilityOptions],
) -> TPRelation:
    r.schema.check_compatible(s.schema)
    r_sorted = _sorted_input(r, sort_strategy)
    s_sorted = _sorted_input(s, sort_strategy)
    if fused:
        rows = _fused_sweep(r_sorted, s_sorted, opcode)
    else:
        rows = _unfused_sweep(r_sorted, s_sorted, opcode)
    return _finish(r, s, symbol, rows, materialize, options)


def _sorted_input(rel: TPRelation, sort_strategy: str) -> list[TPTuple]:
    if sort_strategy == "comparison":
        # Cached on the relation; set-operation outputs carry their
        # sortedness flag, so chained operations never re-sort.
        return rel.sorted_tuples()
    return sort_tuples(rel.tuples, strategy=sort_strategy)


# ----------------------------------------------------------------------
# the fused kernel
# ----------------------------------------------------------------------
def _fused_sweep(
    tr: list[TPTuple], ts: list[TPTuple], opcode: int
) -> list[TPTuple]:
    """sort → LAWA → λ-filter → λ-concat → tuple in one loop (DESIGN.md §6).

    Semantically identical to driving :class:`LawaSweep` step by step; the
    sweep state lives in local variables (cursor tuple, its fact and start
    point, the valid tuples' lineage and end point per side) and windows
    are never materialized — each output window becomes its lineage-only
    :class:`TPTuple` right here, its ``winTs``/``winTe`` written straight
    into the tuple's slots through the trusted writers of
    :mod:`repro.core.tuple`; nothing sits between the sweep and the
    result but the batch valuation that fills ``p`` (:func:`_finish`).
    """
    nr, ns = len(tr), len(ts)
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

    # The valid tuple per side: its lineage (None: no valid tuple) and
    # its end point.
    r_lam: Optional[Lineage] = None
    r_end = 0
    s_lam: Optional[Lineage] = None
    s_end = 0
    prev_te = -1
    fact: object = object()  # currFact sentinel distinct from any real fact

    out: list[TPTuple] = []
    append = out.append
    union = opcode == _OP_UNION
    intersect = opcode == _OP_INTERSECT
    diff = opcode == _OP_EXCEPT

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

        # Absorb cursor tuples that become valid exactly at winTs.
        if rt is not None and rt_fact == fact and rt_start == win_ts:
            r_lam = rt.lineage
            r_end = rt.end
            ri += 1
            if ri < nr:
                rt = tr[ri]
                rt_fact = rt.fact
                rt_start = rt.start
            else:
                rt = None
        if st is not None and st_fact == fact and st_start == win_ts:
            s_lam = st.lineage
            s_end = st.end
            si += 1
            if si < ns:
                st = ts[si]
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
        if union:
            if r_lam is None:
                lam = s_lam
            elif s_lam is None:
                lam = r_lam
            elif type(r_lam) is Var and type(s_lam) is Var:
                lam = Or((r_lam, s_lam))
            else:
                lam = lor(r_lam, s_lam)
        elif intersect:
            if r_lam is None or s_lam is None:
                lam = None
            elif type(r_lam) is Var and type(s_lam) is Var:
                lam = And((r_lam, s_lam))
            else:
                lam = land(r_lam, s_lam)
        elif r_lam is None:
            lam = None
        elif s_lam is None:
            lam = r_lam
        else:
            neg = Not(s_lam) if type(s_lam) is Var else lnot(s_lam)
            if type(r_lam) is Var:
                lam = And((r_lam, neg))
            else:
                lam = land(r_lam, neg)

        if lam is not None:
            t = new_object(TPTuple)
            set_fact(t, fact)
            set_lineage(t, lam)
            set_start(t, win_ts)
            set_end(t, win_te)
            set_p(t, None)
            append(t)

        # Expire valid tuples that end exactly at the window boundary.
        if r_lam is not None and r_end == win_te:
            r_lam = None
        if s_lam is not None and s_end == win_te:
            s_lam = None
        prev_te = win_te

    return out


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
    try:
        opcode = _OPCODES[op]
    except KeyError as exc:
        raise UnsupportedOperationError(f"unknown TP set operation {op!r}") from exc
    return _fused_sweep(tr, ts, opcode)


# ----------------------------------------------------------------------
# the unfused reference path (paper-shaped, window objects and all)
# ----------------------------------------------------------------------
def _unfused_sweep(
    r_sorted: list[TPTuple], s_sorted: list[TPTuple], opcode: int
) -> list[TPTuple]:
    sweep = LawaSweep(r_sorted, s_sorted)
    out: list[TPTuple] = []
    if opcode == _OP_UNION:
        while True:
            window = sweep.advance()
            if window is None:
                break
            if window.lam_r is not None or window.lam_s is not None:
                out.append(_tuple(window, concat_or(window.lam_r, window.lam_s)))
    elif opcode == _OP_INTERSECT:
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
    r: TPRelation,
    s: TPRelation,
    symbol: str,
    out: list[TPTuple],
    materialize: bool,
    options: Optional[ProbabilityOptions] = None,
) -> TPRelation:
    """Valuate the kernel's tuples and publish them as the result.

    ``out`` holds the lineage-only tuples a sweep has just built and
    nobody else has seen.  Probabilities are computed in one batch over
    the interned lineages — each distinct formula is valuated once,
    however many windows emitted it (see :func:`repro.prob.valuation
    .probability_batch`) — and written into the tuples before the
    relation exists, so every tuple is still built exactly once and a
    published tuple never changes (DESIGN.md §6.3).  The batch valuates
    against the operand pair's cached merged event map, and the result
    holds that map by reference (DESIGN.md §5).
    """
    events = r.merged_events(s)
    if materialize:
        fill_probabilities(
            out,
            probability_batch([t.lineage for t in out], events, options=options),
        )
    return TPRelation._derived(
        f"({r.name} {symbol} {s.name})", r.schema, out, events, assume_sorted=True
    )


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
    sort_strategy: str = "comparison",
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
        sort_strategy=sort_strategy,
        fused=fused,
        options=options,
    )
