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

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import lt
from typing import Iterable, Optional, Sequence

from ..lineage.formula import Lineage, Var
from .errors import InvalidIntervalError
from .interval import Interval
from .schema import _ATOMIC_TYPES, Fact

__all__ = [
    "TPTuple",
    "base_tuple",
    "base_tuples",
    "check_intervals",
    "fill_probabilities",
    "time_point",
    "tuples_from_rows",
    # trusted slot writers, for the kernels that build their output inline
    "new_object",
    "set_fact",
    "set_lineage",
    "set_start",
    "set_end",
    "set_p",
]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class TPTuple:
    """One tuple of a temporal-probabilistic relation.

    Attributes
    ----------
    fact:
        The conventional attribute values (r.F).
    lineage:
        Boolean formula λ over base-tuple identifiers.  For base tuples
        this is the atomic variable of the tuple itself.
    start, end:
        Ts and Te, the end points of the half-open validity interval
        ``[Ts, Te)``, held in the tuple's own slots: a tuple is one
        object, and the sweeps read the two integers directly.
    p:
        Marginal probability of the lineage being true at each point of
        the interval; ``None`` when not (yet) materialized.

    The constructor takes the interval as one value, and :attr:`interval`
    hands it back as an equal :class:`Interval` built on request.

    >>> t = TPTuple(("milk",), Var("a1"), Interval(2, 10), 0.3)
    >>> (t.start, t.end, t.interval)
    (2, 10, Interval(2, 10))
    """

    fact: Fact
    lineage: Lineage
    start: int
    end: int
    p: Optional[float]

    def __init__(
        self,
        fact: Fact,
        lineage: Lineage,
        interval: Interval,
        p: Optional[float] = None,
    ) -> None:
        set_fact(self, fact)
        set_lineage(self, lineage)
        set_start(self, interval.start)
        set_end(self, interval.end)
        set_p(self, p)

    @property
    def interval(self) -> Interval:
        """``[Ts, Te)`` as an :class:`Interval` value — a new, equal object
        on every read (nothing in the kernels asks for it)."""
        interval = new_object(Interval)
        _set_interval_start(interval, self.start)
        _set_interval_end(interval, self.end)
        return interval

    @property
    def sort_key(self) -> tuple:
        """The (F, Ts) key by which LAWA expects relations to be sorted."""
        return (self.fact, self.start)

    def with_probability(self, p: float) -> "TPTuple":
        """A copy of this tuple with its probability materialized."""
        t = new_object(TPTuple)
        set_fact(t, self.fact)
        set_lineage(t, self.lineage)
        set_start(t, self.start)
        set_end(t, self.end)
        set_p(t, p)
        return t

    def with_interval(self, interval: Interval) -> "TPTuple":
        """A copy of this tuple valid over a different interval."""
        t = new_object(TPTuple)
        set_fact(t, self.fact)
        set_lineage(t, self.lineage)
        set_start(t, interval.start)
        set_end(t, interval.end)
        set_p(t, self.p)
        return t

    def with_fact(self, fact: Fact) -> "TPTuple":
        """A copy of this tuple over different attribute values (a
        join's key projection of one side)."""
        t = new_object(TPTuple)
        set_fact(t, fact)
        set_lineage(t, self.lineage)
        set_start(t, self.start)
        set_end(t, self.end)
        set_p(t, self.p)
        return t

    def __repr__(self) -> str:
        return (
            f"TPTuple(fact={self.fact!r}, lineage={self.lineage!r}, "
            f"interval={self.interval!r}, p={self.p!r})"
        )

    def __str__(self) -> str:
        fact_text = ", ".join(repr(v) for v in self.fact)
        p_text = "?" if self.p is None else f"{self.p:g}"
        return f"({fact_text}, {self.lineage}, {self.interval}, {p_text})"


# Trusted construction (DESIGN.md §6.3): the frozen dataclasses' slots are
# written through their member descriptors, skipping the per-field
# ``object.__setattr__`` name lookup (and, for ``Interval``, its range
# validation).  The descriptors are bound here and nowhere else (CI greps
# for it); the kernels that build their output inline import the
# ``TPTuple`` writers below, everything else goes through
# :func:`tuples_from_rows`.  ``Interval``'s own writers stay private to
# this module: only :attr:`TPTuple.interval` builds one.  A writer may
# only touch an object no caller has seen yet — that is what keeps
# published tuples immutable.
new_object = object.__new__
set_fact = TPTuple.fact.__set__  # type: ignore[attr-defined]
set_lineage = TPTuple.lineage.__set__  # type: ignore[attr-defined]
set_start = TPTuple.start.__set__  # type: ignore[attr-defined]
set_end = TPTuple.end.__set__  # type: ignore[attr-defined]
set_p = TPTuple.p.__set__  # type: ignore[attr-defined]
_set_interval_start = Interval.start.__set__  # type: ignore[attr-defined]
_set_interval_end = Interval.end.__set__  # type: ignore[attr-defined]


def fill_probabilities(tuples: list[TPTuple], probs: Iterable[float]) -> None:
    """Write each freshly built tuple's final ``p`` in place.

    For the operator that built ``tuples`` and has not handed them to
    anyone yet: the batch valuation needs all lineages first, so ``p``
    is the one slot a kernel cannot fill while it sweeps.
    """
    deque(map(set_p, tuples, probs), maxlen=0)


def tuples_from_rows(
    rows: Iterable[tuple], probs: Optional[Iterable[float]] = None
) -> list[TPTuple]:
    """Build one tuple per ``(fact, λ, winTs, winTe)`` row and aligned ``p``.

    The trusted constructor for kernels that emit rows (the joins and
    join-view refresh): the caller guarantees
    ``winTs < winTe`` (sweeps emit non-empty windows only), so nothing is
    validated.  Without ``probs`` the tuples are lineage-only (``p=None``).
    """
    if probs is None:
        probs = repeat(None)
    out: list[TPTuple] = []
    append = out.append
    for (fact, lineage, start, end), p in zip(rows, probs):
        t = new_object(TPTuple)
        set_fact(t, fact)
        set_lineage(t, lineage)
        set_start(t, start)
        set_end(t, end)
        set_p(t, p)
        append(t)
    return out


def check_intervals(starts: Sequence[int], ends: Sequence[int]) -> None:
    """Raise unless every ``[starts[i], ends[i])`` is non-empty.

    The one check a loader that builds through :func:`tuples_from_rows`
    still owes (a WAL record or a file is not a sweep): one C-level pass,
    and a second one only to name the first offending row.
    """
    if not all(map(lt, starts, ends)):
        for index, (start, end) in enumerate(zip(starts, ends)):
            if not start < end:
                raise InvalidIntervalError(
                    f"row {index}: interval requires start < end, "
                    f"got [{start}, {end})"
                )


def time_point(value: object, row: object) -> int:
    """``value`` as an integer time point, refusing what ``int()`` would
    silently change: a ``bool``, or a number with a fractional part.

    Integral numbers (``2``, ``2.0`` — a JSON number) and numeric text
    convert as before; ``row`` names the offending row in the error.

    >>> time_point(2.0, "a1")
    2
    >>> time_point(0.5, "a1")
    Traceback (most recent call last):
    ...
    repro.core.errors.InvalidIntervalError: row a1: time point 0.5 is not an integer
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise InvalidIntervalError(
            f"row {row}: time point {value!r} is a bool, not an integer"
        )
    point = int(value)
    if point != value and not isinstance(value, str):
        raise InvalidIntervalError(
            f"row {row}: time point {value!r} is not an integer"
        )
    return point


def base_tuples(
    rows: Iterable[Sequence[object]], arity: int, identifiers: Iterable[str]
) -> tuple[list[TPTuple], dict[str, float]]:
    """Build one base tuple per ``(*fact_values, ts, te, p)`` row.

    The validated batch front door for base relations: each row's tuple
    lineage is the variable of the aligned identifier, and the same loop
    that writes the slots (DESIGN.md §6.3) checks the row — its width,
    that its fact values are atomic, that ``ts`` and ``te`` are integer
    time points (:func:`time_point`), ``ts < te`` and ``0 < p ≤ 1`` — in
    that order, raising on the first violation with the identifier of
    the offending row.  Returns the tuples in row order and their event
    map ``{identifier: p}``.  Duplicate-freeness spans rows and is the
    relation's check (:meth:`repro.core.relation.TPRelation.from_rows`).
    """
    width = arity + 3
    tuples: list[TPTuple] = []
    events: dict[str, float] = {}
    append = tuples.append
    for row, identifier in zip(rows, identifiers):
        if len(row) != width:
            raise ValueError(
                f"row {identifier} has {len(row)} fields, expected "
                f"{arity} fact values followed by ts, te, p"
            )
        fact = tuple(row[:arity])
        for value in fact:
            if not isinstance(value, _ATOMIC_TYPES):
                raise TypeError(
                    f"row {identifier}: fact component {value!r} is not an "
                    "atomic immutable value"
                )
        start, end, p = row[arity:]
        if type(start) is not int or type(end) is not int:
            start = time_point(start, identifier)
            end = time_point(end, identifier)
        if not start < end:
            raise InvalidIntervalError(
                f"row {identifier}: interval requires start < end, "
                f"got [{start}, {end})"
            )
        p = float(p)
        if not 0.0 < p <= 1.0:
            raise ValueError(
                f"row {identifier}: base-tuple probability must be in "
                f"(0, 1], got {p}"
            )
        t = new_object(TPTuple)
        set_fact(t, fact)
        set_lineage(t, Var(identifier))
        set_start(t, start)
        set_end(t, end)
        set_p(t, p)
        append(t)
        events[identifier] = p
    return tuples, events


def base_tuple(fact: Fact, identifier: str, interval: Interval, p: float) -> TPTuple:
    """Construct a base tuple whose lineage is its own identifier — the
    one-row case of :func:`base_tuples`.

    >>> t = base_tuple(("milk",), "a1", Interval(2, 10), 0.3)
    >>> str(t.lineage)
    'a1'
    """
    (t,), _ = base_tuples(
        ((*fact, interval.start, interval.end, p),), len(fact), (identifier,)
    )
    return t
