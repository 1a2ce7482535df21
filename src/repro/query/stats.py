"""Relation statistics for the cost-based optimizer (DESIGN.md §11).

The optimizer scores candidate plans by *estimated sweep rows*, which
needs three kinds of per-relation information:

* **cardinalities** — tuple count and fact-group count (the unit the
  sweep kernels work in);
* **distinct-key counts** — per attribute, how many distinct values
  occur; drives selection selectivity (σ[a=v] keeps ≈ 1/d of the rows)
  and join fan-out (matching pairs ≈ |r|·|s| / max(dᵣ, dₛ));
* **interval-span histograms** — an equi-width histogram of how many
  tuples cover each time bucket, plus the covering span; drives the
  temporal-overlap factors of ∩/−/⋈ estimates (two relations that barely
  overlap in time produce few windows no matter their sizes).

For immutable :class:`~repro.core.relation.TPRelation` objects the
statistics are computed lazily on first use and cached per relation
*identity* (relations are immutable, so the cache can never go stale;
the cache is weak, so it never pins a relation in memory).  Mutable
relations are served by :class:`repro.store.stats.StoreStatistics`,
which maintains the same summary incrementally from the store's
epoch/:class:`~repro.store.ChangeSet` machinery instead of rescanning.

Statistics are *estimates*: the optimizer only needs them to rank plans,
never for correctness — every candidate plan is result-equivalent by
construction (and proven so by the metamorphic harness).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Protocol, Tuple

from ..core.relation import TPRelation
from ..core.tuple import TPTuple

__all__ = [
    "N_BUCKETS",
    "RelationStats",
    "StatsCatalog",
    "build_histogram",
    "relation_stats",
    "stats_from_tuples",
]

#: Buckets of the interval-span histogram.  Coarse on purpose: the
#: histogram feeds overlap *estimates*, and 16 buckets keep the summary
#: a few dozen machine words however large the relation grows.
N_BUCKETS = 16


@dataclass(frozen=True)
class RelationStats:
    """Summary statistics of one TP relation.

    ``histogram[i]`` counts the tuples whose interval overlaps the i-th
    of :data:`N_BUCKETS` equi-width buckets spanning ``span`` (a tuple
    covering several buckets is counted in each — the histogram measures
    *coverage*, not membership, which is what window-count estimates
    need).  ``span`` and ``histogram`` are ``None``/empty for an empty
    relation.
    """

    name: str
    attributes: tuple[str, ...]
    n_tuples: int
    n_facts: int
    distinct: Mapping[str, int]
    span: Optional[tuple[int, int]]
    histogram: tuple[int, ...]
    covered: int  # Σ interval lengths — total covered tuple-time

    @property
    def avg_group_size(self) -> float:
        """Mean tuples per fact group (1.0 for an empty relation)."""
        if not self.n_facts:
            return 1.0
        return self.n_tuples / self.n_facts

    def distinct_of(self, attribute: str, default: float = 1.0) -> float:
        """Distinct-value estimate for one attribute (``default`` when
        the attribute is unknown to this summary)."""
        value = self.distinct.get(attribute)
        return float(value) if value else default

    def describe(self) -> str:
        span = "∅" if self.span is None else f"[{self.span[0]},{self.span[1]})"
        return (
            f"{self.name}: {self.n_tuples} tuples, {self.n_facts} facts, "
            f"span {span}, distinct "
            + "{"
            + ", ".join(f"{a}: {self.distinct.get(a, 0)}" for a in self.attributes)
            + "}"
        )


class StatsCatalog(Protocol):
    """What the optimizer needs: name → statistics (or ``None``)."""

    def get(self, name: str) -> Optional[RelationStats]:  # pragma: no cover
        ...


def build_histogram(
    intervals: Iterable[Tuple[int, int]],
    span: Optional[tuple[int, int]],
    n_buckets: int = N_BUCKETS,
) -> tuple[int, ...]:
    """Coverage histogram of ``intervals`` over ``span``.

    Each interval increments every bucket it overlaps.  Intervals
    (partially) outside the span clamp to the edge buckets, so the
    histogram stays usable when a store's span estimate lags behind a
    few out-of-range inserts.

    Spans narrower than ``n_buckets`` points get one bucket per point:
    the buckets always partition the span evenly, which the overlap
    estimator relies on (it maps bucket indexes back to time ranges by
    ``span / len(histogram)``).
    """
    if span is None:
        return ()
    lo, hi = span
    buckets = max(1, min(n_buckets, hi - lo))
    width = (hi - lo) / buckets
    counts = [0] * buckets
    for start, end in intervals:
        first = min(buckets - 1, max(0, int((start - lo) / width)))
        # end is exclusive; the covering bucket of the last covered point.
        last = min(buckets - 1, max(0, int((end - 1 - lo) / width)))
        for i in range(first, last + 1):
            counts[i] += 1
    return tuple(counts)


def stats_from_tuples(
    name: str,
    attributes: tuple[str, ...],
    tuples: Iterable[TPTuple],
) -> RelationStats:
    """One full pass over ``tuples`` — the non-incremental construction."""
    n_tuples = 0
    covered = 0
    facts = set()
    value_sets: list[set] = [set() for _ in attributes]
    lo: Optional[int] = None
    hi: Optional[int] = None
    intervals: list[tuple[int, int]] = []
    for t in tuples:
        n_tuples += 1
        facts.add(t.fact)
        for i, value in enumerate(t.fact):
            value_sets[i].add(value)
        start, end = t.start, t.end
        intervals.append((start, end))
        covered += end - start
        lo = start if lo is None else min(lo, start)
        hi = end if hi is None else max(hi, end)
    span = None if lo is None else (lo, hi)
    return RelationStats(
        name=name,
        attributes=attributes,
        n_tuples=n_tuples,
        n_facts=len(facts),
        distinct={a: len(value_sets[i]) for i, a in enumerate(attributes)},
        span=span,
        histogram=build_histogram(intervals, span),
        covered=covered,
    )


# Per-identity lazy cache.  TPRelation is immutable, compares by
# identity and supports weak references, so entries can never go stale
# and dead relations drop out together with their summaries.
_CACHE: "weakref.WeakKeyDictionary[TPRelation, RelationStats]" = (
    weakref.WeakKeyDictionary()
)


def relation_stats(relation: TPRelation) -> RelationStats:
    """Statistics of an immutable relation, computed once per object.

    >>> r = TPRelation.from_rows("r", ("g",), [("x", 0, 4, 0.5), ("y", 2, 6, 0.5)])
    >>> s = relation_stats(r)
    >>> (s.n_tuples, s.n_facts, s.distinct["g"], s.span)
    (2, 2, 2, (0, 6))
    """
    cached = _CACHE.get(relation)
    if cached is not None:
        return cached
    stats = stats_from_tuples(
        relation.name, relation.schema.attributes, relation.tuples
    )
    _CACHE[relation] = stats
    return stats
