"""Probability-valuation dispatcher with batch-scoped deduplication.

``Method.AUTO`` values a formula with one walk, then falls back:

1. **The walk** (:func:`repro.prob.shannon.tree_probability`, the one the
   set-operation sweep values its windows with) — reads the formula's
   nodes in place, decides one-occurrence form by leaf identity as it
   goes and values such a formula in linear time.  Theorem 1 of the
   paper guarantees this for every non-repeating TP set query, which is
   what makes those queries PTIME (Corollary 1).  On a repeated variable
   it expands by Shannon, exponential only in the number of *entangled*
   repeated variables.
2. **Monte Carlo** — once more than ``exact_repeated_limit`` variables
   repeat.  The estimate is seeded from the formula's text unless a
   caller passes an ``rng``, so the same query gets the same estimate.

``Method.ONE_OCCURRENCE``, ``SHANNON`` and ``MONTE_CARLO`` select one
method explicitly.

Batch valuation (DESIGN.md §5)
------------------------------
Lineage nodes are interned, so a repeated formula is the *same object* —
the common case in set-operation results, where adjacent LAWA windows
reuse the same valid tuples.  :func:`probability_batch` therefore
valuates each distinct formula once per batch, through a dict that lives
as long as the call.  Nothing is remembered across calls: a 1OF formula
costs O(|λ|) to valuate, and a process-wide memo saved about a
microsecond per hit while its keys kept every result's lineage alive
after the result was dropped — which the cyclic collector then walked on
every full collection.
"""

from __future__ import annotations

import itertools
import random
import weakref
from enum import Enum
from typing import Iterable, Mapping, Optional

from ..core.errors import ValuationError
from ..lineage.formula import Lineage, Var, variable_occurrences
from .exact_1of import _missing_variable, probability_1of
from .montecarlo import probability_montecarlo
from .shannon import probability_shannon, tree_probability

__all__ = [
    "Method",
    "probability",
    "probability_batch",
    "ProbabilityOptions",
    "EventMap",
    "clear_valuation_cache",
    "valuation_cache_stats",
    "count_swept",
]


class Method(Enum):
    """Valuation strategies accepted by :func:`probability`."""

    AUTO = "auto"
    ONE_OCCURRENCE = "1of"
    SHANNON = "shannon"
    MONTE_CARLO = "montecarlo"


class ProbabilityOptions:
    """Tuning knobs for :func:`probability`.

    Attributes
    ----------
    exact_repeated_limit:
        With ``Method.AUTO``, formulas whose repeated-variable count
        exceeds this limit are estimated by Monte Carlo instead of exact
        Shannon expansion.
    samples / confidence / rng:
        Passed through to the Monte-Carlo estimator.  Without an ``rng``,
        the ``Method.AUTO`` fallback seeds one from the formula's text.
    """

    __slots__ = ("exact_repeated_limit", "samples", "confidence", "rng")

    def __init__(
        self,
        *,
        exact_repeated_limit: int = 24,
        samples: int = 20_000,
        confidence: float = 0.95,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.exact_repeated_limit = exact_repeated_limit
        self.samples = samples
        self.confidence = confidence
        self.rng = rng


_DEFAULT_OPTIONS = ProbabilityOptions()

#: Source of EventMap epochs: one per map and one per mutation.
_epoch_counter = itertools.count(1)

#: Formulas valuated (misses) and repeats served from the batch's own
#: dict (hits), summed over every :func:`probability_batch` call, and
#: the rows a set-operation sweep valued where it built them (swept).
_BATCH_HITS = 0
_BATCH_MISSES = 0
_SWEPT = 0

_MISS = object()  # lookup sentinel (0.0 is a legitimate value)


class EventMap(dict):
    """A ``dict`` of marginal probabilities that owns an epoch.

    Every mutating operation bumps the epoch, so a merged map cached on
    this one (:meth:`merged_with`) is rebuilt the instant either operand
    changes — no identity or fingerprint heuristics involved.  Relations
    wrap their event maps in this type at construction.

    Because a map remembers the maps it has been merged with, every
    operation over one pair of operand maps valuates against one shared
    merged map instead of a copy of its own.
    """

    __slots__ = ("epoch", "_merged", "__weakref__")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.epoch = next(_epoch_counter)
        #: id(right map) -> (weakref to it, merged map, the three epochs
        #: the merge was made at); created on first merge.
        self._merged: Optional[dict[int, tuple]] = None

    def merged_with(self, other: "EventMap") -> "EventMap":
        """The merged map ``{**self, **other}``, cached per right-hand map.

        The cache lives on the left map and holds each right map weakly,
        so it holds exactly as many merged maps as there are live
        partners, and a merged map dies with its operands.  An entry is
        served only while none of the three maps has been mutated since
        the merge — the merged map's own epoch participates, so a caller
        that mutated the returned mapping is never served it again.
        Treat the returned mapping as read-only.
        """
        cache = self._merged
        if cache is None:
            cache = self._merged = {}
        key = id(other)
        entry = cache.get(key)
        if entry is not None:
            ref, merged, epochs = entry
            if ref() is other and epochs == (self.epoch, other.epoch, merged.epoch):
                return merged
        merged = EventMap(self)
        dict.update(merged, other)  # no epoch bump: freshly built

        # The callback reaches the cache through a weak reference to this
        # map: closing over the cache itself would tie it into a cycle
        # and leave dead merged maps to the cyclic collector.
        def forget(ref, left=weakref.ref(self), key=key) -> None:
            owner = left()
            if owner is not None:
                entry = owner._merged.get(key)
                if entry is not None and entry[0] is ref:
                    del owner._merged[key]

        cache[key] = (
            weakref.ref(other, forget),
            merged,
            (self.epoch, other.epoch, merged.epoch),
        )
        return merged

    def _bump(self) -> None:
        self.epoch = next(_epoch_counter)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self._bump()

    def __delitem__(self, key) -> None:
        super().__delitem__(key)
        self._bump()

    def update(self, *args, **kwargs) -> None:
        super().update(*args, **kwargs)
        if args or kwargs:
            self._bump()

    def pop(self, *args):
        result = super().pop(*args)
        self._bump()
        return result

    def popitem(self):
        result = super().popitem()
        self._bump()
        return result

    def clear(self) -> None:
        super().clear()
        self._bump()

    def setdefault(self, key, default=None):
        if key in self:
            return self[key]  # pure read: merged maps stay valid
        result = super().setdefault(key, default)
        self._bump()
        return result

    def __ior__(self, other):
        result = super().__ior__(other)
        self._bump()
        return result

    def __reduce__(self):
        return (EventMap, (dict(self),))


def clear_valuation_cache() -> None:
    """Reset the :func:`valuation_cache_stats` counters.

    No valuation outlives its batch, so there is nothing else to clear;
    the name stays because the benchmark scripts call it between rounds."""
    global _BATCH_HITS, _BATCH_MISSES, _SWEPT
    _BATCH_HITS = 0
    _BATCH_MISSES = 0
    _SWEPT = 0


def valuation_cache_stats() -> dict[str, int]:
    """What valuation ran, summed since the last reset.

    ``misses`` counts the distinct formulas :func:`probability_batch`
    valuated and ``hits`` the repeats it served from the batch's own
    dict, so ``hits + misses`` rows were batched; ``swept`` counts the
    rows a set-operation sweep valued where it built them (DESIGN.md
    §6.3), which no batch saw.  The name stays because the benchmark
    scripts read the counters per read."""
    return {"hits": _BATCH_HITS, "misses": _BATCH_MISSES, "swept": _SWEPT}


def count_swept(rows: int) -> None:
    """Count ``rows`` valued by a set-operation sweep."""
    global _SWEPT
    _SWEPT += rows


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def _compute(
    formula: Lineage,
    probabilities: Mapping[str, float],
    method: Method,
    opts: ProbabilityOptions,
) -> tuple[float, bool]:
    """Valuate; returns (value, whether equal formulas share it)."""
    if method is Method.AUTO:
        return _compute_auto(formula, probabilities, opts)
    if method is Method.ONE_OCCURRENCE:
        return probability_1of(formula, probabilities), True
    if method is Method.SHANNON:
        return probability_shannon(formula, probabilities), True
    if method is Method.MONTE_CARLO:
        estimate = probability_montecarlo(
            formula,
            probabilities,
            samples=opts.samples,
            confidence=opts.confidence,
            rng=opts.rng,
        )
        return estimate.estimate, False
    raise ValuationError(f"unknown valuation method {method!r}; pass a Method member")


def _compute_auto(
    formula: Lineage,
    probabilities: Mapping[str, float],
    opts: ProbabilityOptions,
) -> tuple[float, bool]:
    if type(formula) is Var:
        try:
            return probabilities[formula.name], True
        except KeyError as exc:
            raise _missing_variable(formula.name) from exc
    # The sweep's walk over the nodes in place: 1OF decided on the way,
    # Shannon on a repeated variable.  None means a variable is missing
    # (an error) or more than the limit repeat (sampling).
    value = tree_probability(formula, probabilities, opts.exact_repeated_limit)
    if value is not None:
        return value, True
    for name in variable_occurrences(formula):
        if name not in probabilities:
            raise _missing_variable(name)
    # Without a caller's rng the draw is seeded from the formula's text
    # (a str seed is hashed with SHA-512, not hash(), so PYTHONHASHSEED
    # does not move it): the estimate is a function of the formula, the
    # same query answers the same, and equal formulas may share it.
    rng = opts.rng
    estimate = probability_montecarlo(
        formula,
        probabilities,
        samples=opts.samples,
        confidence=opts.confidence,
        rng=rng if rng is not None else random.Random(str(formula)),
    )
    return estimate.estimate, rng is None


def probability(
    formula: Lineage,
    probabilities: Mapping[str, float],
    *,
    method: Method = Method.AUTO,
    options: Optional[ProbabilityOptions] = None,
) -> float:
    """Marginal probability of ``formula`` over independent variables.

    >>> from repro.lineage import Var
    >>> c1, a1 = Var("c1"), Var("a1")
    >>> probability(c1 & ~a1, {"c1": 0.6, "a1": 0.3})
    0.42
    """
    opts = options if options is not None else _DEFAULT_OPTIONS
    return _compute(formula, probabilities, method, opts)[0]


def probability_batch(
    lineages: Iterable[Lineage],
    probabilities: Mapping[str, float],
    *,
    method: Method = Method.AUTO,
    options: Optional[ProbabilityOptions] = None,
) -> list[float]:
    """Valuate many lineages against one events mapping.

    The workhorse of relation materialization: interning makes repeated
    lineages identity-equal, so each *distinct* formula is valuated once
    per batch regardless of how many result tuples carry it.  Values
    that are independent draws (Monte Carlo with a caller's ``rng``, or
    ``Method.MONTE_CARLO``) are drawn per occurrence, never shared.
    """
    global _BATCH_HITS, _BATCH_MISSES
    opts = options if options is not None else _DEFAULT_OPTIONS
    auto = method is Method.AUTO
    seen: dict[Lineage, float] = {}
    get_seen = seen.get
    out: list[float] = []
    append = out.append
    misses = 0
    for formula in lineages:
        value = get_seen(formula, _MISS)
        if value is _MISS:
            misses += 1
            # An atomic lineage — every base tuple's — is read inline;
            # _compute walks any other formula (AUTO, DESIGN.md §5).
            if auto and type(formula) is Var:
                try:
                    value = seen[formula] = probabilities[formula.name]
                except KeyError as exc:
                    raise _missing_variable(formula.name) from exc
            else:
                value, shared = _compute(formula, probabilities, method, opts)
                if shared:
                    seen[formula] = value
        append(value)
    _BATCH_MISSES += misses
    _BATCH_HITS += len(out) - misses
    return out
