"""The columnar engine wrapped in the common algorithm interface.

Registered as ``LAWA-COL`` (not part of the paper's Table II): the same
windows and lineage as LAWA, computed with vectorized NumPy kernels.
Appears in ablation benchmarks alongside the faithful implementation.
"""

from __future__ import annotations

from ..core.relation import TPRelation
from ..core.tuple import TPTuple
from .interface import SetOpAlgorithm

__all__ = ["ColumnarAlgorithm"]


class ColumnarAlgorithm(SetOpAlgorithm):
    """Vectorized lineage-aware windows (NumPy searchsorted kernels)."""

    name = "LAWA-COL"
    supports = frozenset({"union", "intersect", "except"})
    in_paper = False

    # ``core.columnar`` (and with it NumPy, the package's only third-party
    # import) is loaded by the first LAWA-COL run, not by ``import repro``.
    def _compute_union(self, r: TPRelation, s: TPRelation) -> list[TPTuple]:
        from ..core.columnar import columnar_union

        return list(columnar_union(r, s, materialize=False).tuples)

    def _compute_intersect(self, r: TPRelation, s: TPRelation) -> list[TPTuple]:
        from ..core.columnar import columnar_intersect

        return list(columnar_intersect(r, s, materialize=False).tuples)

    def _compute_except(self, r: TPRelation, s: TPRelation) -> list[TPTuple]:
        from ..core.columnar import columnar_except

        return list(columnar_except(r, s, materialize=False).tuples)
