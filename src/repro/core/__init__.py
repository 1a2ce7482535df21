"""Core data model and the paper's contribution (LAWA set operations)."""

from .coalesce import coalesce, is_coalesced
from .errors import (
    DuplicateFactError,
    InvalidIntervalError,
    InvalidFactError,
    InvalidProbabilityError,
    QueryParseError,
    SchemaMismatchError,
    TPError,
    UnknownRelationError,
    UnknownVariableError,
    UnsortedInputError,
    UnsupportedOperationError,
    ValuationError,
)
from .gtwindow import (
    MatchWindow,
    PreservedWindow,
    WINDOW_POLICIES,
    WindowPolicy,
    generalized_windows,
)
from .interval import AllenRelation, Interval, allen_relation
from .lawa import LawaSweep, lawa_windows
from .relation import TPRelation
from .schema import Fact, TPSchema, make_fact
from .setops import (
    OPERATIONS,
    multi_intersect,
    multi_union,
    tp_except,
    tp_intersect,
    tp_set_operation,
    tp_union,
)
from .sorting import is_sorted, sort_comparison, sort_counting, sort_tuples
from .timeslice import snapshot_lineages, timeslice
from .tuple import TPTuple, base_tuple
from .window import LineageWindow

__all__ = [
    "AllenRelation",
    "DuplicateFactError",
    "Fact",
    "Interval",
    "InvalidIntervalError",
    "InvalidFactError",
    "InvalidProbabilityError",
    "LawaSweep",
    "LineageWindow",
    "MatchWindow",
    "OPERATIONS",
    "PreservedWindow",
    "WINDOW_POLICIES",
    "WindowPolicy",
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
    "allen_relation",
    "base_tuple",
    "coalesce",
    "generalized_windows",
    "is_coalesced",
    "is_sorted",
    "lawa_windows",
    "make_fact",
    "multi_intersect",
    "multi_union",
    "snapshot_lineages",
    "sort_comparison",
    "sort_counting",
    "sort_tuples",
    "timeslice",
    "tp_except",
    "tp_intersect",
    "tp_set_operation",
    "tp_union",
]
