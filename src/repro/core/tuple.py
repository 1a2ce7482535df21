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

import threading
from collections import deque
from dataclasses import FrozenInstanceError
from itertools import repeat
from operator import attrgetter, lt
from typing import Iterable, Optional, Sequence

from ..lineage.formula import And, Lineage, Not, Or, Var, land, lnot, lor
from .errors import InvalidFactError, InvalidIntervalError, InvalidProbabilityError
from .interval import Interval
from .schema import _ATOMIC_TYPES, Fact, fact_kind_clash

__all__ = [
    "TPTuple",
    "base_tuple",
    "base_tuples",
    "check_intervals",
    "deferred_node",
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
    "set_left",
    "set_right",
    "set_op",
    "DEFER_OR",
    "DEFER_AND",
    "DEFER_AND_NOT",
]

#: The operator of a deferred row (DESIGN.md §6.3): the fused
#: set-operation kernel leaves a row's ``_lineage`` slot ``None`` and its
#: first :attr:`TPTuple.lineage` read builds ``λl ∨ λr``, ``λl ∧ λr`` or
#: ``λl ∧ ¬λr`` from the ``_left`` / ``_right`` operands and this code in
#: ``_op``.  An operand is a base variable, a lineage node, or another
#: deferred row — an unread row of an earlier result.
DEFER_OR, DEFER_AND, DEFER_AND_NOT = 1, 2, 3


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

    Immutable, and compared and hashed by its five fields, with the
    semantics of a frozen dataclass.  A set-operation row valued in the sweep may hold
    its lineage as two operands and an operator instead of a node: the
    first read of :attr:`lineage` interns the node and stores it, so
    every read returns the same object, and equality, hashing, ``repr``,
    pickling and copying read it like any other field.

    >>> t = TPTuple(("milk",), Var("a1"), Interval(2, 10), 0.3)
    >>> (t.start, t.end, t.interval)
    (2, 10, Interval(2, 10))
    """

    __slots__ = ("fact", "_lineage", "start", "end", "p", "_left", "_right", "_op")
    __match_args__ = ("fact", "lineage", "start", "end", "p")

    fact: Fact
    start: int
    end: int
    p: Optional[float]
    _lineage: Optional[Lineage]  # None on a deferred row until read
    # A deferred row's operands: a Lineage, or a deferred row (None once
    # that row operand has been resolved into ``_lineage``).
    _left: "Lineage | TPTuple | None"
    _right: "Lineage | TPTuple | None"
    _op: int

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
    def lineage(self) -> Lineage:
        """λ: the slot, or — on a deferred row's first read — the node
        interned and stored by :func:`_deferred_lineage`.

        A property, not ``__getattr__``: on CPython 3.11 a class with
        ``__getattr__`` loses the specialized slot read for *every*
        attribute (measured 2× per read), a tax on every ``t.start``.
        """
        lineage = self._lineage
        if lineage is None:
            lineage = _deferred_lineage(self)
        return lineage

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.fact, self.lineage, self.start, self.end, self.p) == (
                other.fact, other.lineage, other.start, other.end, other.p
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.fact, self.lineage, self.start, self.end, self.p))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # Pickling and copying: the five fields as a list — the form the
    # frozen dataclass wrote, so older pickles still load — restored
    # through the slot writers, since ``__setattr__`` refuses every write.
    def __getstate__(self) -> list:
        return [self.fact, self.lineage, self.start, self.end, self.p]

    def __setstate__(self, state: list) -> None:
        fact, lineage, start, end, p = state
        set_fact(self, fact)
        set_lineage(self, lineage)
        set_start(self, start)
        set_end(self, end)
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


# Trusted construction (DESIGN.md §6.3): the frozen classes' slots are
# written through their member descriptors, skipping the per-field
# ``object.__setattr__`` name lookup (and, for ``Interval``, its range
# validation).  The descriptors are bound here and nowhere else (CI greps
# for it); the kernels that build their output inline import the
# ``TPTuple`` writers below, everything else goes through
# :func:`tuples_from_rows`.  ``Interval``'s own writers stay private to
# this module: only :attr:`TPTuple.interval` builds one.  A writer may
# only touch an object no caller has seen yet — that is what keeps
# published tuples immutable.  The one exception is the first read of a
# deferred row's lineage, which stores the node the row already stands
# for and then drops the row's private row operands: no reader can see a
# value change.
new_object = object.__new__
set_fact = TPTuple.fact.__set__  # type: ignore[attr-defined]
set_lineage = TPTuple._lineage.__set__  # type: ignore[attr-defined]
set_start = TPTuple.start.__set__  # type: ignore[attr-defined]
set_end = TPTuple.end.__set__  # type: ignore[attr-defined]
set_p = TPTuple.p.__set__  # type: ignore[attr-defined]
set_left = TPTuple._left.__set__  # type: ignore[attr-defined]
set_right = TPTuple._right.__set__  # type: ignore[attr-defined]
set_op = TPTuple._op.__set__  # type: ignore[attr-defined]
_set_interval_start = Interval.start.__set__  # type: ignore[attr-defined]
_set_interval_end = Interval.end.__set__  # type: ignore[attr-defined]
_operands_of = attrgetter("_left", "_right", "_op")
_fact_of = attrgetter("fact")
_deferred_build = threading.Lock()


def deferred_node(op: int, left: Lineage, right: Lineage) -> Lineage:
    """The node a deferred row over ``left`` and ``right`` stands for,
    built by the constructors the eager path uses (Table I's ``or``,
    ``and``, ``andNot``), so it is the node every other route to the
    formula returns."""
    if op == DEFER_OR:
        return lor(left, right)
    if op == DEFER_AND:
        return land(left, right)
    return land(left, lnot(right))


def _deferred_lineage(t: TPTuple) -> Lineage:
    """Intern a deferred row's lineage node and store it in its slot.

    The node comes from the interning constructors, so it is the object
    every other route to the same formula returns.  The lock makes the
    check-then-store one step: a thread that finds the slot filled
    returns the node another thread stored, so every reader of one row
    gets one object even when the interning itself races (DESIGN.md
    §4.3).  Only first reads take it.  A row over two base variables —
    every row of a set operation over base relations — builds its node
    here; one with another operand goes through :func:`_nested_lineage`.
    """
    left, right, op = _operands_of(t)
    if type(left) is not Var or type(right) is not Var:
        return _nested_lineage(t)
    with _deferred_build:
        lineage = t._lineage
        if lineage is not None:
            return lineage
        if op == DEFER_OR:
            lineage = Or((left, right))
        elif op == DEFER_AND:
            lineage = And((left, right))
        else:
            lineage = And((left, Not(right)))
        set_lineage(t, lineage)
        return lineage


def _nested_lineage(t: TPTuple) -> Lineage:
    """The first read of a deferred row whose operands are not two base
    variables: a row of a chained query, ``(r1 ∪ r2) ∪ r3`` say.

    Its unread row operands are resolved first, innermost first and with
    an explicit stack (a long left fold nests one row per step) —
    outside the lock, which is not reentrant.  Each row then stores its
    node under the lock as :func:`_deferred_lineage` does, and drops its
    row operands (``None``): a read result keeps no interior row alive.
    The row operands are dropped after the node is stored, so a reader
    that finds one dropped finds the node stored.
    """
    stack = [t]
    while stack:
        row = stack[-1]
        left, right, op = _operands_of(row)
        if type(left) is TPTuple and left._lineage is None:
            stack.append(left)
            continue
        if type(right) is TPTuple and right._lineage is None:
            stack.append(right)
            continue
        stack.pop()
        with _deferred_build:
            if row._lineage is not None:
                continue  # another reader stored it
            set_lineage(row, deferred_node(
                op,
                left._lineage if type(left) is TPTuple else left,
                right._lineage if type(right) is TPTuple else right,
            ))
            if type(left) is TPTuple:
                set_left(row, None)
            if type(right) is TPTuple:
                set_right(row, None)
    return t._lineage  # type: ignore[return-value]


def fill_probabilities(tuples: list[TPTuple], probs: Iterable[float]) -> None:
    """Write each freshly built tuple's final ``p`` in place.

    For the operator that built ``tuples`` and has not handed them to
    anyone yet: a batch valuation needs all their lineages first, so
    their ``p`` cannot be filled while the kernel sweeps.
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
    silently change — a ``bool``, or a number with a fractional part —
    and what it cannot convert: an infinity, NaN, other text, ``None``.

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
    try:
        point = int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        point = None
    if point is None or point != value and not isinstance(value, str):
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
    that its fact values are atomic and equal to themselves (not NaN),
    that ``ts`` and ``te`` are integer time points (:func:`time_point`),
    ``ts < te`` and that ``p`` is a number (not a ``bool`` or text) with
    ``0 < p ≤ 1`` — in that order, raising on the first violation with
    the identifier of the offending row.  Returns the tuples in row order and their event
    map ``{identifier: p}``.  Once all rows are built, each fact column
    must hold values of one kind
    (:func:`~repro.core.schema.fact_kind_clash`), or the row that breaks
    it is named.  Every refusal is a
    :class:`~repro.core.errors.TPError`.  Duplicate-freeness spans rows
    and is the relation's check
    (:meth:`repro.core.relation.TPRelation.from_rows`).
    """
    width = arity + 3
    tuples: list[TPTuple] = []
    events: dict[str, float] = {}
    append = tuples.append
    for row, identifier in zip(rows, identifiers):
        if len(row) != width:
            raise InvalidFactError(
                f"row {identifier} has {len(row)} fields, expected "
                f"{arity} fact values followed by ts, te, p"
            )
        fact = tuple(row[:arity])
        for value in fact:
            if not isinstance(value, _ATOMIC_TYPES):
                raise InvalidFactError(
                    f"row {identifier}: fact component {value!r} is not an "
                    "atomic immutable value"
                )
            if value != value:
                raise InvalidFactError(
                    f"row {identifier}: fact component {value!r} is unequal "
                    "to itself, so no duplicate check could match its fact"
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
        if type(p) is not float:
            if isinstance(p, (bool, str, bytes, bytearray)):
                raise InvalidProbabilityError(
                    f"row {identifier}: base-tuple probability {p!r} is a "
                    f"{type(p).__name__}, not a number"
                )
            p = float(p)
        if not 0.0 < p <= 1.0:
            raise InvalidProbabilityError(
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
    clash = fact_kind_clash(list(map(_fact_of, tuples)))
    if clash is not None:
        row, column = clash
        raise InvalidFactError(
            f"row {tuples[row].lineage}: fact component "
            f"{tuples[row].fact[column]!r} does not order against row "
            f"{tuples[0].lineage}'s {tuples[0].fact[column]!r} in column {column}"
        )
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
