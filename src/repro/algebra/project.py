"""TP projection with duplicate elimination (§VIII future work).

Projecting a TP relation onto a subset of its attributes merges facts
that become equal, which is precisely where the duplicate-free model
needs care: at a time point t, several input tuples may now carry the
same projected fact.  Under the possible-worlds semantics their lineages
combine by disjunction (the fact exists iff *any* contributor exists),
and change preservation groups consecutive time points whose combined
lineage is (syntactically) equal.

Implementation: per projected fact, fragment the timeline at all
contributor boundaries, OR the lineages of the contributors valid in
each fragment (in ``(F, Ts)`` order, for deterministic formulas), then
coalesce — O(n log n + output).

Note the complexity consequence the paper's Section V-B hints at:
projection can merge *distinct* base tuples of the same relation into
one lineage, so downstream set operations on projected relations may
leave the non-repeating/1OF regime; probabilities remain correct because
the valuation dispatcher falls back to exact Shannon expansion.
"""

from __future__ import annotations

from typing import Sequence

from ..core.coalesce import coalesce
from ..core.relation import TPRelation
from ..core.schema import TPSchema
from ..core.tuple import TPTuple, fill_probabilities, tuples_from_rows
from ..lineage.concat import concat_or
from ..prob.valuation import probability_batch

__all__ = ["tp_project"]


def tp_project(
    relation: TPRelation,
    attributes: Sequence[str],
    *,
    materialize: bool = True,
) -> TPRelation:
    """π over the given attributes, with TP duplicate elimination.

    >>> from repro import TPRelation
    >>> r = TPRelation.from_rows("r", ("item", "store"), [
    ...     ("milk", "hb", 1, 5, 0.5), ("milk", "oerlikon", 3, 8, 0.5)])
    >>> [str(t) for t in tp_project(r, ["item"])]
    ["('milk', r1, [1,3), 0.5)", "('milk', r1∨r2, [3,5), 0.75)", "('milk', r2, [5,8), 0.5)"]
    """
    attrs = tuple(attributes)
    if not attrs:
        raise ValueError("projection needs at least one attribute")
    indexes = [relation.schema.index_of(name) for name in attrs]
    out_schema = TPSchema(attrs)

    groups: dict = {}
    for t in relation:
        fact = tuple(t.fact[i] for i in indexes)
        groups.setdefault(fact, []).append(t)

    out: list[TPTuple] = []
    for fact, group in groups.items():
        out.extend(_merge_group(fact, group))
    out = coalesce(out)

    if materialize:
        # One batch: a disjunction repeated across output tuples is
        # valuated once, which matters where it is not in 1OF.  The
        # tuples are this call's own, so ``p`` is written in place.
        probs = probability_batch([t.lineage for t in out], relation.events)
        fill_probabilities(out, probs)
    label = ",".join(attrs)
    return TPRelation._derived(
        f"π[{label}]({relation.name})", out_schema, out, relation.events
    )


def _merge_group(fact, group: list[TPTuple]) -> list[TPTuple]:
    """Fragment one projected-fact group and OR contributor lineages."""
    if len(group) == 1:
        t = group[0]
        return tuples_from_rows(((fact, t.lineage, t.start, t.end),))

    boundaries = sorted({t.start for t in group} | {t.end for t in group})
    index_of = {point: i for i, point in enumerate(boundaries)}
    # Contributors per fragment, in deterministic (F, Ts) tuple order.
    fragments: dict[int, list[TPTuple]] = {}
    for t in sorted(group, key=lambda t: t.sort_key):
        lo = index_of[t.start]
        hi = index_of[t.end]
        for i in range(lo, hi):
            fragments.setdefault(i, []).append(t)

    rows = []
    for i, contributors in sorted(fragments.items()):
        lineage = contributors[0].lineage
        for t in contributors[1:]:
            lineage = concat_or(lineage, t.lineage)
        rows.append((fact, lineage, boundaries[i], boundaries[i + 1]))
    return tuples_from_rows(rows)
