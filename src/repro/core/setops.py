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
  the one set-operation sweep (the streams run it too), runs sort →
  LAWA → λ-filter → λ-concat → tuple construction → valuation as one
  loop over plain local state, with no per-window object.  A window
  over base variables or over unread rows of earlier results defers
  its lineage node to the first read and gets its probability in the
  loop — so a chain such as ``(r1 ∪ r2) ∩ (r2 ∪ r3)`` builds no node
  and runs no batch; one batch values each *distinct* lineage of
  whatever else is left once;
* the **unfused reference path** (``fused=False``) drives the
  single-step :class:`~repro.core.lawa.LawaSweep` exactly as the paper's
  pseudocode reads, window objects and all, and valuates every row in
  one batch — the oracle the kernel is verified against, and the hook
  for window-level instrumentation.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterator, Mapping, Optional, Sequence

from ..lineage.concat import concat_and, concat_and_not, concat_or
from ..lineage.formula import And, Lineage, Not, Or, Var, land, lnot, lor
from ..prob.shannon import AND, NOT, OR, operand_tree, tree_connect, tree_not, tree_probability
from ..prob.valuation import ProbabilityOptions, count_swept, probability_batch
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
#: The default options' exact limit: the sweep values a window exactly,
#: as the batch would, up to ``limit`` repeated variables (DESIGN.md §6.3).
_LIMIT = ProbabilityOptions().exact_repeated_limit
#: Rows nested deeper than this are read through their interned node.
_DEEPEST = 100


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
    if not fused:
        # The reference path leaves every row to the batch.
        out = pending = _unfused_sweep(r_sorted, s_sorted, op)
    elif materialize:
        limit = _LIMIT if options is None else options.exact_repeated_limit
        out, pending = _fused_sweep(r_sorted, s_sorted, op, events, limit)
    else:
        out = pending = _fused_sweep(r_sorted, s_sorted, op)[0]
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
    limit: float = _LIMIT,
) -> tuple[list[TPTuple], list[TPTuple]]:
    """The kernel over two in-memory runs, one chunk each: the tuples it
    builds and those of them ``_finish`` still owes something, concatenated
    from its flushes (at most three: one per side's end, one at the
    end)."""
    out: Optional[list[TPTuple]] = None
    for more, more_pending in sweep_chunks(iter((tr,)), iter((ts,)), op, events, limit):
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
    limit: float = _LIMIT,
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

    Semantically identical to driving :class:`LawaSweep` step by step,
    with the sweep state in local variables; each output window becomes
    its :class:`TPTuple` right here, through the trusted slot writers.
    A window over base variables, or over an unread row of an earlier
    result (read as an operand as it stands), builds no node: the tuple
    holds its two operands and operator until ``lineage`` is read
    (DESIGN.md §6.3); a window over a row alone copies the row's.

    With ``events`` the kernel also values what it builds, reading each
    variable from ``events``: ``x∨y``, ``x∧y``, ``x∧¬y`` over distinct
    variables (Theorem 1) in the float order of the batch's 1OF walk,
    and any other deferred window by the batch's own Shannon walk over
    its operand tree (:func:`repro.prob.shannon.tree_probability`).
    ``pending`` holds the tuples left at ``p=None`` for the batch — a
    variable ``events`` lacks, more than ``limit`` repeated variables
    (the caller's ``exact_repeated_limit``: the batch's Monte-Carlo
    case), an eager compound operand — which intern their node now.
    Without ``events`` every tuple is lineage-only.
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
    # lacks), and a row's operand tree (:func:`_row_tree`) and its value,
    # walked at the first window over the row alone (False: not yet).
    r_lam: Lineage | TPTuple | None = None
    r_end = 0
    r_p: Optional[float] = None
    r_t: object = None
    r_pv: Optional[float] | bool = False
    s_lam: Lineage | TPTuple | None = None
    s_end = 0
    s_p: Optional[float] = None
    s_t: object = None
    s_pv: Optional[float] | bool = False
    nested: Optional[int] = None  # the operator of a window to walk
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
        # and with events its operand tree is read off for the walk.
        if rt is not None and rt_fact == fact and rt_start == win_ts:
            r_lam = rt._lineage
            if r_lam is None:
                r_lam = rt
                r_p = None
                if valuate:
                    r_t = _row_tree(rt)
                    r_pv = False
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
                    s_t = _row_tree(st)
                    s_pv = False
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
        # stays None for a window the filter drops.  Two distinct base
        # variables (``r_lam is not s_lam``: 1OF) defer the node, and with
        # two known probabilities the row gets ``p`` as the batch's _prob
        # computes it (DESIGN.md §6.3).  A window over an unread row of an
        # earlier result, or with events over one variable twice, sets
        # ``nested`` to its operator instead, and is built and walked
        # below.  Anything else goes through land/lor/lnot, bit-identical
        # to the reference path.
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
                if not valuate:
                    defer = DEFER_OR
                elif r_lam is s_lam:
                    lam = None
                    nested = DEFER_OR
                else:
                    lam = Or((r_lam, s_lam))
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
                if not valuate:
                    defer = DEFER_AND
                elif r_lam is s_lam:
                    lam = None
                    nested = DEFER_AND
                else:
                    lam = And((r_lam, s_lam))
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
            if not valuate:
                defer = DEFER_AND_NOT
            elif r_lam is s_lam:
                lam = None
                nested = DEFER_AND_NOT
            else:
                lam = And((r_lam, Not(s_lam)))
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
                if valuate:  # the row's value, walked at its first window alone
                    if lam is r_lam:
                        p = r_pv = tree_probability(r_t, events, limit) if r_pv is False else r_pv
                    else:
                        p = s_pv = tree_probability(s_t, events, limit) if s_pv is False else s_pv
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
            # operand.  With events the walk values it; a window the walk
            # leaves to the batch (None) interns its node and is pending.
            if valuate:
                p = tree_probability(_window_tree(
                    nested,
                    r_t if type(r_lam) is TPTuple else r_lam if type(r_lam) is Var
                    else operand_tree(r_lam),
                    s_t if type(s_lam) is TPTuple else s_lam if type(s_lam) is Var
                    else operand_tree(s_lam),
                ), events, limit)
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
                pend(t)
            else:
                set_lineage(t, None)
                set_left(t, r_lam)
                set_right(t, s_lam)
                set_op(t, nested)
            nested = None

        # Expire valid tuples that end exactly at the window boundary.
        if r_lam is not None and r_end == win_te:
            r_lam = None
        if s_lam is not None and s_end == win_te:
            s_lam = None
        prev_te = win_te

    if out:
        yield out, pending


def _row_tree(row: TPTuple, depth: int = 0) -> object:
    """The operand tree of an unread row's formula, read off its operands
    (DESIGN.md §6.3); a row whose operand is gone, or one nested deeper
    than :data:`_DEEPEST`, through its node."""
    left = row._left
    right = row._right
    if type(left) is Var and type(right) is Var:  # nothing splices
        if row._op == DEFER_AND_NOT:
            return (AND, left, (NOT, right))
        return (OR if row._op == DEFER_OR else AND, left, right)
    if left is None or right is None or depth > _DEEPEST:
        return operand_tree(row.lineage)
    return _window_tree(
        row._op,
        left if type(left) is Var else _row_tree(left, depth + 1)
        if type(left) is TPTuple else operand_tree(left),
        right if type(right) is Var else _row_tree(right, depth + 1)
        if type(right) is TPTuple else operand_tree(right),
    )


def _window_tree(op: int, left: object, right: object) -> object:
    """The operand tree of ``deferred_node(op, …)`` over two trees: an
    operand with the window's own connective splices, and only a ⊤/⊥
    operand or a negated negation takes the constructors' long way."""
    if op == DEFER_AND_NOT:
        right = (NOT, right) if type(right) is Var else tree_not(right)
    tag = OR if op == DEFER_OR else AND
    if (type(left) is tuple or type(left) is Var) and (type(right) is tuple or type(right) is Var):
        return (
            tag,
            *(left[1:] if type(left) is tuple and left[0] == tag else (left,)),
            *(right[1:] if type(right) is tuple and right[0] == tag else (right,)),
        )
    return tree_connect(tag, (left, right))


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
    seen; the fused kernel valued all but the ``pending`` rows.  Those
    get one batch over their interned lineages (each distinct formula
    once) against the operand pair's merged event map, written before
    the relation exists, so a published tuple never changes (DESIGN.md
    §6.3).  The rest count as ``swept``, after the batch, so a batch
    that raises counts nothing.
    """
    if pending:
        fill_probabilities(
            pending,
            probability_batch(list(map(_lineage_of, pending)), events, options=options),
        )
    count_swept(len(out) - len(pending))


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
