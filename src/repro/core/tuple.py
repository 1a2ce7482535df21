"""TP tuples: (fact, lineage, interval, probability).

A tuple r of a TP relation is an ordered set of values (r.F, r.λ, r.T,
r.p) — paper, Section III.  The temporal-probabilistic annotations state
that the tuple's lineage is true with probability ``p`` at every time
point inside ``T`` and false outside ``T``.

``p`` is optional on derived tuples: a set-operation result can be
materialized lazily, with probabilities computed on demand from the
lineage and the relation's event map.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Optional

from ..lineage.formula import Lineage, Var
from .interval import Interval
from .schema import Fact

__all__ = ["TPTuple", "base_tuple", "tuples_from_rows"]


@dataclass(frozen=True, slots=True)
class TPTuple:
    """One tuple of a temporal-probabilistic relation.

    Attributes
    ----------
    fact:
        The conventional attribute values (r.F).
    lineage:
        Boolean formula λ over base-tuple identifiers.  For base tuples
        this is the atomic variable of the tuple itself.
    interval:
        Half-open validity interval ``[Ts, Te)``.
    p:
        Marginal probability of the lineage being true at each point of
        the interval; ``None`` when not (yet) materialized.
    """

    fact: Fact
    lineage: Lineage
    interval: Interval
    p: Optional[float] = None

    @property
    def start(self) -> int:
        """Ts — the inclusive start point of the validity interval."""
        return self.interval.start

    @property
    def end(self) -> int:
        """Te — the exclusive end point of the validity interval."""
        return self.interval.end

    @property
    def sort_key(self) -> tuple:
        """The (F, Ts) key by which LAWA expects relations to be sorted."""
        return (self.fact, self.interval.start)

    def with_probability(self, p: float) -> "TPTuple":
        """A copy of this tuple with its probability materialized."""
        t = _new(TPTuple)
        _set_fact(t, self.fact)
        _set_lineage(t, self.lineage)
        _set_interval(t, self.interval)
        _set_p(t, p)
        return t

    def with_interval(self, interval: Interval) -> "TPTuple":
        """A copy of this tuple valid over a different interval."""
        t = _new(TPTuple)
        _set_fact(t, self.fact)
        _set_lineage(t, self.lineage)
        _set_interval(t, interval)
        _set_p(t, self.p)
        return t

    def __str__(self) -> str:
        fact_text = ", ".join(repr(v) for v in self.fact)
        p_text = "?" if self.p is None else f"{self.p:g}"
        return f"({fact_text}, {self.lineage}, {self.interval}, {p_text})"


# Trusted construction (DESIGN.md §6): the frozen dataclasses' slots are
# written through their member descriptors, skipping ``__init__`` (and
# with it ``Interval``'s range validation) and the per-field
# ``object.__setattr__`` name lookup.  Only this module does so; every
# kernel builds its output through :func:`tuples_from_rows`.
_new = object.__new__
_set_fact = TPTuple.fact.__set__  # type: ignore[attr-defined]
_set_lineage = TPTuple.lineage.__set__  # type: ignore[attr-defined]
_set_interval = TPTuple.interval.__set__  # type: ignore[attr-defined]
_set_p = TPTuple.p.__set__  # type: ignore[attr-defined]
_set_start = Interval.start.__set__  # type: ignore[attr-defined]
_set_end = Interval.end.__set__  # type: ignore[attr-defined]


def tuples_from_rows(
    rows: Iterable[tuple], probs: Optional[Iterable[float]] = None
) -> list[TPTuple]:
    """Build one tuple per ``(fact, λ, winTs, winTe)`` row and aligned ``p``.

    The single trusted constructor of kernel-emitted tuples: the caller
    guarantees ``winTs < winTe`` (sweeps emit non-empty windows only), so
    nothing is validated.  Without ``probs`` the tuples are lineage-only
    (``p=None``).
    """
    if probs is None:
        probs = repeat(None)
    out: list[TPTuple] = []
    append = out.append
    new, interval_cls, tuple_cls = _new, Interval, TPTuple
    set_start, set_end = _set_start, _set_end
    set_fact, set_lineage, set_interval, set_p = (
        _set_fact, _set_lineage, _set_interval, _set_p,
    )
    for (fact, lineage, start, end), p in zip(rows, probs):
        interval = new(interval_cls)
        set_start(interval, start)
        set_end(interval, end)
        t = new(tuple_cls)
        set_fact(t, fact)
        set_lineage(t, lineage)
        set_interval(t, interval)
        set_p(t, p)
        append(t)
    return out


def base_tuple(fact: Fact, identifier: str, interval: Interval, p: float) -> TPTuple:
    """Construct a base tuple whose lineage is its own identifier.

    >>> t = base_tuple(("milk",), "a1", Interval(2, 10), 0.3)
    >>> str(t.lineage)
    'a1'
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"base-tuple probability must be in (0, 1], got {p}")
    return TPTuple(fact=fact, lineage=Var(identifier), interval=interval, p=p)
