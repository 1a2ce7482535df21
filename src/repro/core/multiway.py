"""Multiway TP set operations — n-ary union and intersection in one sweep.

A query like ``r1 ∪ r2 ∪ … ∪ rm`` evaluated as m−1 binary LAWA passes
sorts and sweeps intermediate results repeatedly.  Because ∪Tp and ∩Tp
are associative, the same result can be produced by a *single* sweep
over all m relations: the window advancer generalizes from two cursors
and two valid slots to m of each, and the lineage-concatenation function
folds over the per-relation lineages of every window.

Windows still partition each fact's covered timeline, and Proposition 1
generalizes: at most ``Σᵢ nᵢ − fd`` windows are produced.  The per-window
cost grows from O(1) to O(m) (the fold), giving O(N log N + N·m) total
for N = Σ|rᵢ| — strictly better than the O(Σᵢ (i·n) log(i·n)) of a
binary chain, and with a single pass over the data.

Difference is *not* associative, so only union and intersection get the
n-ary treatment; ``r − s1 − s2 − …`` callers can instead use
``tp_except(r, multi_union(s1, …, sm))`` which is equivalent under the
TP semantics (tested in ``tests/test_multiway.py``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..lineage.concat import concat_or
from ..lineage.formula import Lineage, land
from ..prob.valuation import probability_batch
from .errors import UnsupportedOperationError
from .relation import TPRelation
from .sorting import sort_key_lt
from .tuple import TPTuple, tuples_from_rows

__all__ = ["multi_union", "multi_intersect", "MultiwaySweep", "MultiWindow"]

_UNSET = object()


class MultiWindow:
    """A lineage-aware window over m relations: (F, [ts,te), λ₁…λₘ)."""

    __slots__ = ("fact", "win_ts", "win_te", "lineages")

    def __init__(
        self,
        fact,
        win_ts: int,
        win_te: int,
        lineages: tuple[Optional[Lineage], ...],
    ) -> None:
        self.fact = fact
        self.win_ts = win_ts
        self.win_te = win_te
        self.lineages = lineages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lams = ", ".join("null" if l is None else str(l) for l in self.lineages)
        return f"MultiWindow({self.fact!r}, [{self.win_ts},{self.win_te}), {lams})"


class MultiwaySweep:
    """The LAWA state machine generalized to m sorted inputs."""

    __slots__ = ("_inputs", "_positions", "_valid", "_prev_win_te", "_curr_fact",
                 "windows_produced")

    def __init__(self, sorted_inputs: Sequence[Sequence[TPTuple]]) -> None:
        if len(sorted_inputs) < 2:
            raise UnsupportedOperationError(
                "a multiway sweep needs at least two input relations"
            )
        self._inputs = list(sorted_inputs)
        self._positions = [0] * len(sorted_inputs)
        self._valid: list[Optional[TPTuple]] = [None] * len(sorted_inputs)
        self._prev_win_te = -1
        self._curr_fact: object = _UNSET
        self.windows_produced = 0

    def _head(self, i: int) -> Optional[TPTuple]:
        seq = self._inputs[i]
        pos = self._positions[i]
        return seq[pos] if pos < len(seq) else None

    def exhausted(self, i: int) -> bool:
        """True when relation i can contribute no further lineage."""
        return self._valid[i] is None and self._positions[i] >= len(self._inputs[i])

    def all_exhausted(self) -> bool:
        return all(self.exhausted(i) for i in range(len(self._inputs)))

    def advance(self) -> Optional[MultiWindow]:
        """Produce the next window, or None when every input is swept."""
        m = len(self._inputs)
        heads = [self._head(i) for i in range(m)]
        fact = self._curr_fact

        if all(v is None for v in self._valid):
            continuing = [
                h.interval.start
                for h in heads
                if h is not None and h.fact == fact
            ]
            if continuing:
                win_ts = min(continuing)
            else:
                opener: Optional[TPTuple] = None
                for h in heads:
                    if h is not None and (opener is None or sort_key_lt(h, opener)):
                        opener = h
                if opener is None:
                    return None
                fact = self._curr_fact = opener.fact
                win_ts = opener.interval.start
        else:
            win_ts = self._prev_win_te

        # Absorb tuples that become valid exactly at winTs.
        for i in range(m):
            h = heads[i]
            if h is not None and h.fact == fact and h.interval.start == win_ts:
                self._valid[i] = h
                self._positions[i] += 1
                heads[i] = self._head(i)

        # winTe: earliest among same-fact cursor starts and valid ends.
        win_te: Optional[int] = None
        for h in heads:
            if h is not None and h.fact == fact:
                if win_te is None or h.interval.start < win_te:
                    win_te = h.interval.start
        for v in self._valid:
            if v is not None and (win_te is None or v.interval.end < win_te):
                win_te = v.interval.end
        assert win_te is not None and win_te > win_ts

        window = MultiWindow(
            fact,
            win_ts,
            win_te,
            tuple(v.lineage if v is not None else None for v in self._valid),
        )
        for i in range(m):
            v = self._valid[i]
            if v is not None and v.interval.end == win_te:
                self._valid[i] = None
        self._prev_win_te = win_te
        self.windows_produced += 1
        return window


def _prepare(relations: Sequence[TPRelation]) -> MultiwaySweep:
    if len(relations) < 2:
        raise UnsupportedOperationError(
            "multiway operations need at least two relations"
        )
    first = relations[0]
    for other in relations[1:]:
        first.schema.check_compatible(other.schema)
    # Cached on each relation; set-operation outputs carry their
    # sortedness flag, so n-ary sweeps over derived inputs never re-sort.
    return MultiwaySweep([r.sorted_tuples() for r in relations])


def _finish(
    relations: Sequence[TPRelation],
    symbol: str,
    rows: list[tuple],
    materialize: bool,
) -> TPRelation:
    """Valuate the rows' lineages in one batch, then build each output
    tuple once (as :func:`repro.core.setops._finish` does)."""
    # Folded through the pairwise merge cache: repeated sweeps over the
    # same operands valuate against one shared map (DESIGN.md §5).
    events = relations[0].events
    for r in relations[1:]:
        events = events.merged_with(r.events)
    probs = (
        probability_batch([row[1] for row in rows], events) if materialize else None
    )
    name = f"({f' {symbol} '.join(r.name for r in relations)})"
    return TPRelation._derived(
        name, relations[0].schema, tuples_from_rows(rows, probs), events,
        assume_sorted=True,
    )


def multi_union(
    *relations: TPRelation, materialize: bool = True
) -> TPRelation:
    """n-ary TP union in a single sweep: r1 ∪Tp r2 ∪Tp … ∪Tp rm.

    Equivalent (up to lineage association order) to folding
    :func:`~repro.core.setops.tp_union`, at a fraction of the cost.
    """
    sweep = _prepare(relations)
    rows: list[tuple] = []
    while True:
        window = sweep.advance()
        if window is None:
            break
        present = [lam for lam in window.lineages if lam is not None]
        if present:
            lineage = present[0]
            for lam in present[1:]:
                lineage = concat_or(lineage, lam)
            rows.append((window.fact, lineage, window.win_ts, window.win_te))
    return _finish(relations, "∪", rows, materialize)


def multi_intersect(
    *relations: TPRelation, materialize: bool = True
) -> TPRelation:
    """n-ary TP intersection in a single sweep: r1 ∩Tp … ∩Tp rm."""
    sweep = _prepare(relations)
    rows: list[tuple] = []
    while not any(sweep.exhausted(i) for i in range(len(relations))):
        window = sweep.advance()
        if window is None:
            break
        if all(lam is not None for lam in window.lineages):
            rows.append((
                window.fact,
                land(*window.lineages),  # type: ignore[arg-type]
                window.win_ts,
                window.win_te,
            ))
    return _finish(relations, "∩", rows, materialize)
