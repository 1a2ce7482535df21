"""repro — temporal-probabilistic set operations with lineage-aware windows.

A from-scratch reproduction of *Supporting Set Operations in
Temporal-Probabilistic Databases* (Papaioannou, Theobald, Böhlen,
ICDE 2018): the sequenced TP data model, lineage machinery, the LAWA
sweep algorithm, every baseline of the paper's evaluation (NORM, TPDB,
OIP, Timeline Index), the synthetic dataset generators and a benchmark
harness (:mod:`repro.bench`) that regenerates the paper's tables and
figures.

Quickstart
----------
>>> from repro import TPRelation, tp_union, tp_except
>>> a = TPRelation.from_rows("a", ("product",), [
...     ("milk", 2, 10, 0.3), ("chips", 4, 7, 0.8), ("dates", 1, 3, 0.6)])
>>> b = TPRelation.from_rows("b", ("product",), [
...     ("milk", 5, 9, 0.6), ("chips", 3, 6, 0.9)])
>>> c = TPRelation.from_rows("c", ("product",), [
...     ("milk", 1, 4, 0.6), ("milk", 6, 8, 0.7),
...     ("chips", 4, 5, 0.7), ("chips", 7, 9, 0.8)])
>>> result = tp_except(c, tp_union(a, b))   # Q = c −Tp (a ∪Tp b)
>>> len(result)
5

Performance notes
-----------------
* Set operations run a **fused kernel** (sort → LAWA → λ-filter →
  λ-concat → valuation in one loop); pass ``fused=False`` to drive the
  paper-shaped single-step :class:`LawaSweep` instead — both paths are
  bit-identical.
* Relations cache their ``(F, Ts)`` sort order, and set-operation
  outputs are born sorted (``TPRelation(..., assume_sorted=True)``), so
  chained operations never re-sort.  Construct base relations with
  ``assume_sorted=True`` when the loader already emits ``(F, Ts)`` order.
* Lineage formulas are hash-consed, so a result's repeated lineages
  are one object each: :func:`probability_batch` valuates every
  distinct formula once per batch and remembers nothing across calls
  (``valuation_cache_stats`` counts its repeats).
"""

from .algebra import (
    stream_except,
    stream_intersect,
    stream_union,
    tp_anti_join,
    tp_full_outer_join,
    tp_join,
    tp_join_operation,
    tp_left_outer_join,
    tp_project,
    tp_right_outer_join,
)
from .core import (
    AllenRelation,
    DuplicateFactError,
    Fact,
    Interval,
    InvalidIntervalError,
    InvalidFactError,
    InvalidProbabilityError,
    LawaSweep,
    LineageWindow,
    QueryParseError,
    SchemaMismatchError,
    TPError,
    TPRelation,
    TPSchema,
    TPTuple,
    UnknownRelationError,
    UnknownVariableError,
    UnsortedInputError,
    UnsupportedOperationError,
    ValuationError,
    allen_relation,
    base_tuple,
    coalesce,
    is_coalesced,
    lawa_windows,
    make_fact,
    multi_intersect,
    multi_union,
    snapshot_lineages,
    timeslice,
    tp_except,
    tp_intersect,
    tp_set_operation,
    tp_union,
)
from .lineage import (
    And,
    Lineage,
    Not,
    Or,
    Var,
    concat_and,
    concat_and_not,
    concat_or,
    is_one_occurrence_form,
    land,
    lnot,
    lor,
    parse_lineage,
)
from .prob import (
    Method,
    ProbabilityOptions,
    clear_valuation_cache,
    probability,
    probability_1of,
    probability_batch,
    probability_montecarlo,
    probability_shannon,
    valuation_cache_stats,
)
from .store import (
    ChangeSet,
    Delta,
    MaterializedView,
    SegmentStore,
    load_delta,
    save_delta,
)

__version__ = "1.0.0"

__all__ = [
    "AllenRelation",
    "And",
    "ChangeSet",
    "Delta",
    "DuplicateFactError",
    "MaterializedView",
    "SegmentStore",
    "load_delta",
    "save_delta",
    "stream_except",
    "stream_intersect",
    "stream_union",
    "tp_anti_join",
    "tp_full_outer_join",
    "tp_join",
    "tp_join_operation",
    "tp_left_outer_join",
    "tp_project",
    "tp_right_outer_join",
    "Fact",
    "Interval",
    "InvalidIntervalError",
    "InvalidFactError",
    "InvalidProbabilityError",
    "LawaSweep",
    "Lineage",
    "LineageWindow",
    "Method",
    "Not",
    "Or",
    "QueryParseError",
    "SchemaMismatchError",
    "TPError",
    "TPRelation",
    "TPSchema",
    "TPTuple",
    "UnknownRelationError",
    "UnknownVariableError",
    "UnsortedInputError",
    "UnsupportedOperationError",
    "ValuationError",
    "Var",
    "allen_relation",
    "base_tuple",
    "coalesce",
    "concat_and",
    "concat_and_not",
    "concat_or",
    "is_coalesced",
    "is_one_occurrence_form",
    "land",
    "lawa_windows",
    "lnot",
    "lor",
    "make_fact",
    "multi_intersect",
    "multi_union",
    "parse_lineage",
    "ProbabilityOptions",
    "clear_valuation_cache",
    "probability",
    "probability_1of",
    "probability_batch",
    "probability_montecarlo",
    "probability_shannon",
    "valuation_cache_stats",
    "snapshot_lineages",
    "timeslice",
    "tp_except",
    "tp_intersect",
    "tp_set_operation",
    "tp_union",
]
