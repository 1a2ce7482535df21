"""Common interface of every set-operation algorithm (LAWA + baselines).

Table II of the paper lists which approach supports which TP set
operation.  Each implementation in this package declares its supported
operations; the registry module renders the support matrix and the
benchmark harness consults it before scheduling runs.

All algorithms share the contract of :meth:`SetOpAlgorithm.compute`: given
two duplicate-free TP relations, return the result relation with change-
preserved intervals, Table-I lineage, and materialized probabilities — so
runtimes measured across approaches cover identical work.
"""

from __future__ import annotations

import abc
from typing import Iterable

from ..core.errors import UnsupportedOperationError
from ..core.relation import TPRelation
from ..core.tuple import TPTuple
from ..prob.valuation import probability_batch

__all__ = ["SetOpAlgorithm", "OP_SYMBOLS", "ALL_OPERATIONS"]

ALL_OPERATIONS = ("union", "intersect", "except")
OP_SYMBOLS = {"union": "∪", "intersect": "∩", "except": "−"}


class SetOpAlgorithm(abc.ABC):
    """A named algorithm computing TP set operations.

    Subclasses set :attr:`name` (the paper's acronym) and
    :attr:`supports` (subset of 'union' / 'intersect' / 'except', as in
    Table II) and implement the per-operation ``_compute_*`` hooks they
    support.
    """

    #: Acronym used in the paper's plots (LAWA, NORM, TPDB, OIP, TI).
    name: str = "?"
    #: Operations this approach can compute (Table II row).
    supports: frozenset[str] = frozenset()
    #: Whether the approach appears in the paper's Table II.
    in_paper: bool = True
    #: Whether ``_compute_*`` emits tuples already in ``(F, Ts)`` order —
    #: the result relation then carries the sortedness flag, so chained
    #: operations skip their re-sort (DESIGN.md §6).
    emits_sorted: bool = False

    def compute(
        self,
        op: str,
        r: TPRelation,
        s: TPRelation,
        *,
        materialize: bool = True,
    ) -> TPRelation:
        """Compute ``r <op> s`` or raise :class:`UnsupportedOperationError`."""
        if op not in ALL_OPERATIONS:
            raise UnsupportedOperationError(f"unknown TP set operation {op!r}")
        if op not in self.supports:
            raise UnsupportedOperationError(
                f"{self.name} does not support TP set {op} (see Table II)"
            )
        r.schema.check_compatible(s.schema)
        if op == "union":
            tuples = self._compute_union(r, s)
        elif op == "intersect":
            tuples = self._compute_intersect(r, s)
        else:
            tuples = self._compute_except(r, s)
        return self._finish(op, r, s, tuples, materialize)

    # Per-operation hooks — override those listed in ``supports``.
    def _compute_union(self, r: TPRelation, s: TPRelation) -> list[TPTuple]:
        raise UnsupportedOperationError(f"{self.name} does not implement union")

    def _compute_intersect(self, r: TPRelation, s: TPRelation) -> list[TPTuple]:
        raise UnsupportedOperationError(f"{self.name} does not implement intersect")

    def _compute_except(self, r: TPRelation, s: TPRelation) -> list[TPTuple]:
        raise UnsupportedOperationError(f"{self.name} does not implement except")

    # ------------------------------------------------------------------
    def _finish(
        self,
        op: str,
        r: TPRelation,
        s: TPRelation,
        tuples: Iterable[TPTuple],
        materialize: bool,
    ) -> TPRelation:
        events = r.merged_events(s)
        out = list(tuples)
        if materialize:
            # One batch over interned lineages: every distinct formula is
            # valuated once, however many result tuples carry it.
            pending = [t for t in out if t.p is None]
            values = iter(probability_batch((t.lineage for t in pending), events))
            out = [
                t if t.p is not None else t.with_probability(next(values))
                for t in out
            ]
        name = f"({r.name} {OP_SYMBOLS[op]} {s.name})[{self.name}]"
        return TPRelation._derived(
            name, r.schema, out, events, assume_sorted=self.emits_sorted
        )

    def __repr__(self) -> str:
        ops = ", ".join(op for op in ALL_OPERATIONS if op in self.supports)
        return f"<{self.name}: {ops}>"
