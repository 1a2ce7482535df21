"""Exception hierarchy for the temporal-probabilistic engine.

Every error raised by :mod:`repro` derives from :class:`TPError`, so
downstream users can catch a single exception type at API boundaries while
still discriminating specific failure modes when they need to.
"""

from __future__ import annotations

__all__ = [
    "TPError",
    "InvalidIntervalError",
    "InvalidProbabilityError",
    "InvalidFactError",
    "DuplicateFactError",
    "UnsortedInputError",
    "SchemaMismatchError",
    "UnknownRelationError",
    "UnknownVariableError",
    "UnsupportedOperationError",
    "QueryParseError",
    "SnapshotUnavailableError",
    "ValuationError",
]


class TPError(Exception):
    """Base class for all errors raised by the `repro` package."""


class InvalidIntervalError(TPError, ValueError):
    """An interval violates ``start < end`` or the domain bounds."""


class InvalidProbabilityError(TPError, ValueError):
    """A base tuple's probability is not a number in ``(0, 1]``: out of
    range, NaN, or a ``bool`` or text that ``float()`` would convert."""


class InvalidFactError(TPError, ValueError):
    """A base tuple's fact holds a value unequal to itself (NaN), so no
    duplicate-freeness check could ever match its fact."""


class DuplicateFactError(TPError, ValueError):
    """A relation violates duplicate-freeness.

    A temporal-probabilistic relation is duplicate-free iff no two tuples
    share a fact over overlapping time intervals (paper, Section III).
    """


class UnsortedInputError(TPError, ValueError):
    """A stream handed to a streaming set operation is not sorted by
    ``(F, Ts)``."""


class SchemaMismatchError(TPError, ValueError):
    """Two relations combined by a set operation have incompatible schemas."""


class UnknownRelationError(TPError, KeyError):
    """A query references a relation name that is not in the catalog."""


class UnknownVariableError(TPError, KeyError):
    """A lineage variable has no probability in the event map."""


class UnsupportedOperationError(TPError, NotImplementedError):
    """An algorithm was asked to compute a set operation it cannot support.

    Mirrors Table II of the paper: e.g. the Timeline-Index join cannot
    compute temporal-probabilistic set difference.
    """


class QueryParseError(TPError, ValueError):
    """The textual TP set query does not conform to the Def. 4 grammar."""


class ValuationError(TPError, ValueError):
    """A probability valuation failed (e.g. non-1OF input to the 1OF path)."""


class SnapshotUnavailableError(TPError, ValueError):
    """A store cannot reconstruct the view at the requested epoch.

    Raised by :meth:`repro.store.SegmentStore.snapshot` when the epoch
    lies in the future, or when the change log no longer reaches back to
    it (pruned) so the historical state cannot be rebuilt.
    """
