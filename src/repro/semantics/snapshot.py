"""Snapshot-reduction reference evaluation (the semantics oracle).

Definition 3 of the paper specifies TP set operations point-wise: at every
time point t, the output lineage of fact f is the Table-I combination of
λ^{r,f}_t and λ^{s,f}_t, and intervals group consecutive time points with
(syntactically) equivalent lineage (Def. 2, change preservation).

This module evaluates that definition *literally*: iterate over every time
point of the relevant domain, build per-point results, then coalesce.
It is O(|ΩT| · |r ∪ s|) and exists purely as ground truth — the tests
assert that LAWA and every baseline produce exactly the relation this
oracle produces.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.coalesce import coalesce
from ..core.interval import Interval
from ..core.relation import TPRelation
from ..core.tuple import TPTuple
from ..lineage.concat import concat_and, concat_and_not, concat_or
from ..lineage.formula import Lineage
from ..prob.valuation import probability_batch

__all__ = [
    "snapshot_intersect",
    "snapshot_union",
    "snapshot_except",
    "snapshot_set_operation",
]

_Combine = Callable[[Optional[Lineage], Optional[Lineage]], Optional[Lineage]]


def _combine_union(lr: Optional[Lineage], ls: Optional[Lineage]) -> Optional[Lineage]:
    if lr is None and ls is None:
        return None
    return concat_or(lr, ls)


def _combine_intersect(
    lr: Optional[Lineage], ls: Optional[Lineage]
) -> Optional[Lineage]:
    if lr is None or ls is None:
        return None
    return concat_and(lr, ls)


def _combine_except(lr: Optional[Lineage], ls: Optional[Lineage]) -> Optional[Lineage]:
    if lr is None:
        return None
    return concat_and_not(lr, ls)


_COMBINERS: dict[str, _Combine] = {
    "union": _combine_union,
    "intersect": _combine_intersect,
    "except": _combine_except,
}


def snapshot_set_operation(
    op: str,
    r: TPRelation,
    s: TPRelation,
    *,
    materialize: bool = True,
) -> TPRelation:
    """Evaluate ``r <op> s`` time point by time point, then coalesce."""
    r.schema.check_compatible(s.schema)
    combine = _COMBINERS[op]

    # The relevant domain: all points covered by either input.
    lo: Optional[int] = None
    hi: Optional[int] = None
    for t in list(r) + list(s):
        lo = t.start if lo is None else min(lo, t.start)
        hi = t.end if hi is None else max(hi, t.end)

    events = {**r.events, **s.events}
    symbol = {"union": "∪", "intersect": "∩", "except": "−"}[op]
    name = f"({r.name} {symbol} {s.name})"
    if lo is None or hi is None:
        return TPRelation(name, r.schema, [], events, validate=False)

    facts = sorted(set(r.facts()) | set(s.facts()))
    point_tuples: list[TPTuple] = []
    for fact in facts:
        for t in range(lo, hi):
            lam_r = _lineage_at(r, fact, t)
            lam_s = _lineage_at(s, fact, t)
            lam = combine(lam_r, lam_s)
            if lam is not None:
                point_tuples.append(
                    TPTuple(fact=fact, lineage=lam, interval=Interval(t, t + 1))
                )

    out = coalesce(point_tuples)
    if materialize:
        probs = probability_batch([u.lineage for u in out], events)
        out = [u.with_probability(p) for u, p in zip(out, probs)]
    return TPRelation(name, r.schema, out, events, validate=False)


def _lineage_at(relation: TPRelation, fact, t: int) -> Optional[Lineage]:
    """λ^{r,f}_t — lineage of the unique tuple with ``fact`` valid at t."""
    for u in relation:
        if u.fact == fact and u.interval.contains_point(t):
            return u.lineage
    return None


def snapshot_union(r: TPRelation, s: TPRelation, **kwargs) -> TPRelation:
    """Reference r ∪ᵀᵖ s by literal snapshot reduction."""
    return snapshot_set_operation("union", r, s, **kwargs)


def snapshot_intersect(r: TPRelation, s: TPRelation, **kwargs) -> TPRelation:
    """Reference r ∩ᵀᵖ s by literal snapshot reduction."""
    return snapshot_set_operation("intersect", r, s, **kwargs)


def snapshot_except(r: TPRelation, s: TPRelation, **kwargs) -> TPRelation:
    """Reference r −ᵀᵖ s by literal snapshot reduction."""
    return snapshot_set_operation("except", r, s, **kwargs)
