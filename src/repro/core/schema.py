"""Temporal-probabilistic schemas and facts.

A TP schema is RTp(F, λ, T, p) where F = (A₁ … Aₘ) is an ordered set of
conventional attributes (paper, Section III).  The values of F in a tuple
form the tuple's *fact*.  We represent a fact as a plain tuple of
attribute values, which makes facts hashable (for grouping) and orderable
(for the ``(F, Ts)`` sort LAWA requires).

Two relations can be combined by a set operation only when their schemas
are compatible, i.e. they have the same attribute arity; attribute names
are allowed to differ (positional semantics, as in SQL set operations).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import InvalidFactError, SchemaMismatchError

__all__ = ["TPSchema", "Fact", "make_fact", "coerce_value", "fact_kind_clash", "operand_kind_clash"]

#: A fact is the tuple of conventional attribute values of a TP tuple.
Fact = tuple

_ATOMIC_TYPES = (str, int, float, bool, bytes)


@dataclass(frozen=True, slots=True)
class TPSchema:
    """The conventional attributes F of a TP relation.

    The temporal attribute ``T``, the lineage attribute ``λ`` and the
    probability ``p`` are implicit — every TP relation carries them.

    >>> TPSchema(("product",)).arity
    1
    """

    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaMismatchError("a TP schema needs at least one attribute")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaMismatchError(
                f"duplicate attribute names in schema {self.attributes!r}"
            )

    @property
    def arity(self) -> int:
        """Number of conventional attributes."""
        return len(self.attributes)

    def check_compatible(self, other: "TPSchema") -> None:
        """Raise unless a set operation between the two schemas is legal."""
        if self.arity != other.arity:
            raise SchemaMismatchError(
                f"schemas {self.attributes!r} and {other.attributes!r} have "
                f"different arity ({self.arity} vs {other.arity})"
            )

    def index_of(self, attribute: str) -> int:
        """Position of ``attribute`` within the schema (for selections)."""
        try:
            return self.attributes.index(attribute)
        except ValueError as exc:
            raise SchemaMismatchError(
                f"schema {self.attributes!r} has no attribute {attribute!r}"
            ) from exc

    def __str__(self) -> str:
        return "(" + ", ".join(self.attributes) + ", λ, T, p)"


def coerce_value(value: str):
    """Best-effort typing of a textual fact value: int, then float, then str.

    Shared by every textual loader (relation CSVs, delta files) so fact
    equality survives round trips — a delta row must coerce to exactly
    the fact the relation loader produced, or deletes stop matching and
    inserts create mixed-type shadow fact groups.
    """
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def make_fact(values: Sequence[object]) -> Fact:
    """Build a fact from attribute values, validating hashable atoms.

    Restricting fact components to atomic immutable types keeps facts
    hashable (group-by) and mutually orderable within a relation (sort);
    refusing NaN keeps every fact equal to itself (duplicate checks,
    store lookups).
    """
    fact = tuple(values)
    for value in fact:
        if not isinstance(value, _ATOMIC_TYPES):
            raise TypeError(
                f"fact component {value!r} is not an atomic immutable value"
            )
        if value != value:
            raise InvalidFactError(
                f"fact component {value!r} is unequal to itself, so no "
                "duplicate check could match its fact"
            )
    return fact


def _kind(cls: type) -> type:
    return int if issubclass(cls, (int, float)) else str if issubclass(cls, str) else bytes


def fact_kind_clash(facts: Sequence[Fact]) -> Optional[tuple[int, int]]:
    """``(row, column)`` of the first fact value whose kind differs from
    the first fact's in that column, or None.

    Values of one kind — numbers (``bool``, ``int``, ``float``), text,
    bytes — order against each other, values of two kinds never, and
    the sweeps order facts: a column of two kinds fails the first
    operation that compares them, however late.  One C-level pass per
    column, not a call per row, and no object per row: transposing by
    ``zip(*facts)`` made an iterator per fact, and those young objects
    set off extra collections during a load, one of them over the full
    heap.
    """
    for column in range(len(facts[0]) if facts else 0):
        types = set(map(type, map(itemgetter(column), facts)))
        if len(types) > 1 and len(set(map(_kind, types))) > 1:
            first = _kind(type(facts[0][column]))
            for row, fact in enumerate(facts):
                if _kind(type(fact[column])) is not first:
                    return row, column
    return None


def first_values(facts: Iterable[Fact]) -> list:
    """The first non-null value of each fact column, None for a column
    that holds none.  Reads facts only until every column has one: one
    fact, usually, and one pass for an all-null, padded column."""
    values: list = []
    for fact in facts:
        if values:
            values = [fact[i] if v is None else v for i, v in enumerate(values)]
        else:
            values = list(fact)
        if None not in values:
            break
    return values


def operand_kind_clash(
    left: str, right: str, left_facts: Iterable[Fact], right_facts: Iterable[Fact]
) -> Optional[SchemaMismatchError]:
    """The error for two operands whose values in one fact column are of
    two kinds (:func:`fact_kind_clash`), naming both and the column, or
    None.  Every operand holds one kind per column — a load refuses a
    second, and every operation asks here before it sweeps — so one
    value per column and side decides: O(arity), not a pass per row.
    Null padding is no kind."""
    pairs = zip(first_values(left_facts), first_values(right_facts))
    for column, (a, b) in enumerate(pairs):
        if (
            type(a) is not type(b) and a is not None and b is not None
            and _kind(type(a)) is not _kind(type(b))
        ):
            return SchemaMismatchError(
                f"{left} and {right} hold values of two kinds in fact column "
                f"{column} ({a!r} and {b!r}), which do not order against each other"
            )
    return None
