"""Relational algebra beyond set operations (the paper's §VIII outlook).

TP equi-join plus the generalized-window join family (left/right/full
outer and anti joins, arXiv:1902.04379), projection with duplicate
elimination, and streaming (constant-space) variants of the three set
operations.
"""

from .join import (
    JOIN_KINDS,
    JOIN_OPERATIONS,
    JOIN_SYMBOLS,
    JoinLayout,
    join_layout,
    tp_anti_join,
    tp_full_outer_join,
    tp_join,
    tp_join_operation,
    tp_left_outer_join,
    tp_right_outer_join,
)
from .project import tp_project
from .streaming import stream_except, stream_intersect, stream_union

__all__ = [
    "JOIN_KINDS",
    "JOIN_OPERATIONS",
    "JOIN_SYMBOLS",
    "JoinLayout",
    "join_layout",
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
]
