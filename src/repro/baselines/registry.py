"""Registry of set-operation algorithms and the Table-II support matrix.

The benchmark harness iterates over :func:`paper_algorithms` exactly as
the paper's evaluation iterates over {LAWA, NORM, TPDB, OIP, TI}, and
:func:`support_matrix` regenerates Table II ("Approach Overview").

The generalized-join workload (outer & anti joins, arXiv:1902.04379) has
its own small registry: :func:`join_algorithms` lists the
generalized-window kernel (GTWINDOW) and the naive sweepline reference
(NAIVE-SWEEP) the kernel is cross-checked and benchmarked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..algebra.join import JOIN_KINDS, tp_join_operation
from ..core.errors import UnsupportedOperationError
from ..core.relation import TPRelation
from .interface import ALL_OPERATIONS, OP_SYMBOLS, SetOpAlgorithm
from .lawa_algorithm import LawaAlgorithm
from .naive_join import naive_join_operation
from .norm import NormAlgorithm
from .oip import OipAlgorithm
from .sweepline import SweeplineAlgorithm
from .timeline import TimelineIndexAlgorithm
from .tpdb import TpdbAlgorithm

__all__ = [
    "JoinAlgorithm",
    "all_algorithms",
    "paper_algorithms",
    "get_algorithm",
    "algorithms_supporting",
    "support_matrix",
    "render_support_matrix",
    "join_algorithms",
    "get_join_algorithm",
    "view_maintenance_strategies",
    "get_view_maintenance_strategy",
]

#: Table II order: LAWA, NORM, TPDB, OIP, TI.
_PAPER_ORDER = ("LAWA", "NORM", "TPDB", "OIP", "TI")


def all_algorithms() -> list[SetOpAlgorithm]:
    """Fresh instances of every implemented algorithm (incl. extras)."""
    return [
        LawaAlgorithm(),
        NormAlgorithm(),
        TpdbAlgorithm(),
        OipAlgorithm(),
        TimelineIndexAlgorithm(),
        SweeplineAlgorithm(),
    ]


def paper_algorithms() -> list[SetOpAlgorithm]:
    """The five approaches of Table II, in the paper's order."""
    by_name = {algorithm.name: algorithm for algorithm in all_algorithms()}
    return [by_name[name] for name in _PAPER_ORDER]


def get_algorithm(name: str) -> SetOpAlgorithm:
    """Look an algorithm up by its paper acronym (case-insensitive)."""
    for algorithm in all_algorithms():
        if algorithm.name.lower() == name.lower():
            return algorithm
    raise UnsupportedOperationError(f"no set-operation algorithm named {name!r}")


def algorithms_supporting(op: str, *, paper_only: bool = True) -> list[SetOpAlgorithm]:
    """The algorithms able to compute ``op``, per Table II."""
    pool = paper_algorithms() if paper_only else all_algorithms()
    return [algorithm for algorithm in pool if op in algorithm.supports]


def support_matrix(*, paper_only: bool = True) -> dict[str, dict[str, bool]]:
    """Table II as a nested mapping: approach → operation → supported."""
    pool = paper_algorithms() if paper_only else all_algorithms()
    return {
        algorithm.name: {op: op in algorithm.supports for op in ALL_OPERATIONS}
        for algorithm in pool
    }


# ----------------------------------------------------------------------
# generalized joins (outer & anti)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JoinAlgorithm:
    """A named algorithm computing the generalized TP joins.

    Unlike the Table-II set-operation approaches, every join algorithm
    supports the full kind set (inner, left/right/full outer, anti) —
    the generalized window construction is uniform across them.
    """

    name: str
    _impl: Callable[..., TPRelation]
    supports: frozenset[str] = field(default_factory=lambda: frozenset(JOIN_KINDS))

    def compute(
        self,
        kind: str,
        r: TPRelation,
        s: TPRelation,
        on: Optional[Sequence[str]] = None,
        *,
        materialize: bool = True,
    ) -> TPRelation:
        if kind not in self.supports:
            raise UnsupportedOperationError(
                f"{self.name} does not support TP join kind {kind!r}"
            )
        return self._impl(kind, r, s, on, materialize=materialize)

    def __repr__(self) -> str:
        return f"<{self.name}: {', '.join(sorted(self.supports))}>"


def join_algorithms() -> list[JoinAlgorithm]:
    """The registered join algorithms: the kernel and its reference."""
    return [
        JoinAlgorithm("GTWINDOW", tp_join_operation),
        JoinAlgorithm("NAIVE-SWEEP", naive_join_operation),
    ]


def get_join_algorithm(name: str) -> JoinAlgorithm:
    """Look a join algorithm up by name (case-insensitive)."""
    for algorithm in join_algorithms():
        if algorithm.name.lower() == name.lower():
            return algorithm
    raise UnsupportedOperationError(f"no join algorithm named {name!r}")


# ----------------------------------------------------------------------
# view maintenance (repro.store)
# ----------------------------------------------------------------------
def view_maintenance_strategies():
    """The view-maintenance strategies, registered beside the kernels.

    Like GTWINDOW and its NAIVE-SWEEP reference, the INCREMENTAL
    maintenance engine ships with a full-RECOMPUTE fallback it is
    cross-checked against.  Imported lazily so the storage layer stays
    optional for pure batch workloads (and the layering acyclic).
    """
    from ..store.maintenance import maintenance_strategies

    return maintenance_strategies()


def get_view_maintenance_strategy(name: str):
    """Look a view-maintenance strategy up by name (case-insensitive)."""
    from ..store.maintenance import get_maintenance_strategy

    return get_maintenance_strategy(name)


def render_support_matrix(*, paper_only: bool = True) -> str:
    """Render Table II the way the paper prints it (✓/✗ per operation)."""
    matrix = support_matrix(paper_only=paper_only)
    columns = ["union", "except", "intersect"]  # the paper's column order
    header = (
        "Approach  "
        + "  ".join(f"r{OP_SYMBOLS[op]}Tp s" for op in columns)
    )
    lines = [header, "-" * len(header)]
    for name, row in matrix.items():
        cells = "      ".join("✓" if row[op] else "✗" for op in columns)
        lines.append(f"{name:<8}  {cells}")
    return "\n".join(lines)
