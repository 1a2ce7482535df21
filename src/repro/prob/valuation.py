"""Probability-valuation dispatcher with a hash-consing-backed memo.

Chooses the cheapest correct method for a lineage formula:

1. **1OF fast path** — formulas in one-occurrence form are evaluated by
   the linear-time factorized computation.  Theorem 1 of the paper
   guarantees this path for every non-repeating TP set query, which is
   what makes those queries PTIME (Corollary 1).  Since the hash-consing
   refactor the 1OF test is an O(1) metadata read, so the AUTO dispatch
   no longer re-traverses formulas per tuple.
2. **Shannon expansion** — exact for arbitrary formulas; exponential only
   in the number of *entangled* repeated variables.
3. **BDD** — alternative exact method, selectable explicitly.
4. **Monte Carlo** — approximate fallback, selectable explicitly or
   automatically once the repeated-variable count exceeds a threshold.

Valuation memo (DESIGN.md §5)
-----------------------------
Lineage nodes are interned, so a repeated formula is the *same object* —
the common case in set-operation results, where adjacent LAWA windows
reuse the same valid tuples.  Deterministic valuations are therefore
memoized on ``(formula identity, events epoch)``:

* the **events epoch** is a monotonically increasing token per events
  mapping.  :class:`EventMap` (the mapping type every
  :class:`~repro.core.relation.TPRelation` carries) owns its epoch and
  bumps it on *every* mutating operation, so stale probabilities can
  never be served after an event map changes — there is no heuristic to
  defeat.  Plain mappings get a *content-keyed* epoch: sound because two
  mappings with equal content yield equal probabilities, but computed in
  O(n), so mappings larger than ``_PLAIN_EPOCH_MAX_LEN`` opt out of
  caching entirely rather than pay the scan per call.
* only ``Method.AUTO`` dispatch consults the memo — explicit methods
  keep their own observable behavior (1OF validation errors, per-method
  floating-point reproducibility) regardless of cache state — and
  Monte-Carlo estimates are never cached (they are random variables,
  not values).

Entries live in per-epoch buckets (dead epochs are evicted wholesale).
Each live bucket is bounded (``ProbabilityOptions.cache_max_entries``)
by **bounded eviction**: at the bound, the oldest entries are dropped in
chunks, in insertion order — but never entries written by the batch in
flight, so a large batch can no longer
wipe out its own working set mid-flight the way the previous wholesale
``clear()`` did.  A batch that outgrows the bound scans for victims
until only its own entries are left and then not again, so its cost per
row does not depend on its size; the bucket exceeds the bound by that
batch's distinct formulas until the next batch trims it.  The cache can
be switched off per call via ``ProbabilityOptions(cache=False)``.
"""

from __future__ import annotations

import itertools
import random
import weakref
from enum import Enum
from typing import Iterable, Mapping, Optional

from ..lineage.formula import Lineage, Var
from .bdd import probability_bdd
from .exact_1of import _missing_variable, probability_1of
from .exact_1of import _prob as _prob_1of
from .montecarlo import probability_montecarlo
from .shannon import probability_shannon

__all__ = [
    "Method",
    "probability",
    "probability_batch",
    "ProbabilityOptions",
    "EventMap",
    "NO_EPOCH",
    "events_epoch",
    "invalidate_events",
    "clear_valuation_cache",
    "valuation_cache_stats",
]


class Method(Enum):
    """Valuation strategies accepted by :func:`probability`."""

    AUTO = "auto"
    ONE_OCCURRENCE = "1of"
    SHANNON = "shannon"
    BDD = "bdd"
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
        Passed through to the Monte-Carlo estimator.
    cache:
        Memoize deterministic valuations on (interned formula, events
        epoch).  On by default; switch off for strictly-bounded-memory
        runs.
    cache_max_entries:
        Per-epoch bucket bound.  When an insert would exceed it, the
        oldest entries are evicted in chunks (dict insertion order) —
        excluding entries the current batch itself wrote, which are
        never evicted.  A bucket can therefore transiently exceed the
        bound by at most one batch's distinct-formula count; it settles
        back under it on the next insert from another batch.
    """

    __slots__ = ("exact_repeated_limit", "samples", "confidence", "rng",
                 "cache", "cache_max_entries")

    def __init__(
        self,
        *,
        exact_repeated_limit: int = 24,
        samples: int = 20_000,
        confidence: float = 0.95,
        rng: Optional[random.Random] = None,
        cache: bool = True,
        cache_max_entries: int = 262_144,
    ) -> None:
        self.exact_repeated_limit = exact_repeated_limit
        self.samples = samples
        self.confidence = confidence
        self.rng = rng
        self.cache = cache
        self.cache_max_entries = cache_max_entries


_DEFAULT_OPTIONS = ProbabilityOptions()

# ----------------------------------------------------------------------
# events-epoch machinery and valuation memo
# ----------------------------------------------------------------------
_epoch_counter = itertools.count(1)

#: Content snapshot -> epoch, for plain mappings (sound: equal content
#: implies equal probabilities, so epoch sharing can never serve a wrong
#: value).  Bounded; cleared wholesale when full.
_PLAIN_EPOCHS: dict[tuple, int] = {}
_PLAIN_EPOCHS_MAX = 1024
#: Plain mappings larger than this skip the memo instead of paying an
#: O(n) content scan per valuation call.  EventMap carries its own epoch
#: and has no size limit.
_PLAIN_EPOCH_MAX_LEN = 64

#: Epoch value meaning "do not cache this call".
NO_EPOCH = -1

#: epoch -> {formula: probability}.  Formula keys hash/compare by
#: identity thanks to interning, so hits cost one dict probe.  Bucketing
#: per epoch lets dead epochs (and the formula trees their entries pin)
#: be dropped wholesale instead of lingering until a global clear.
_VALUATION_MEMO: dict[int, dict[Lineage, float]] = {}
#: Oldest epoch bucket is evicted beyond this many live epochs.
_MEMO_MAX_EPOCHS = 16

_MEMO_HITS = 0
_MEMO_MISSES = 0

_MISS = object()  # cache-miss sentinel (0.0 is a legitimate cached value)


class EventMap(dict):
    """A ``dict`` of marginal probabilities that owns a valuation epoch.

    Every mutating operation bumps the epoch, so memoized valuations
    keyed on ``(formula, epoch)`` are invalidated the instant the mapping
    changes — no identity or fingerprint heuristics involved.  Relations
    wrap their event maps in this type at construction.

    A map also remembers the maps it has been merged with
    (:meth:`merged_with`), so every operation over one pair of operand
    maps valuates against one shared merged map — one memo bucket.
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
            return self[key]  # pure read: keep the memo warm
        result = super().setdefault(key, default)
        self._bump()
        return result

    def __ior__(self, other):
        result = super().__ior__(other)
        self._bump()
        return result

    def __reduce__(self):
        return (EventMap, (dict(self),))


def events_epoch(events: Mapping[str, float]) -> int:
    """The memo epoch of an events mapping.

    :class:`EventMap` instances carry their own (mutation-bumped) epoch.
    Plain mappings receive a content-keyed epoch when small, and
    :data:`NO_EPOCH` (caching disabled) when large.
    """
    if isinstance(events, EventMap):
        return events.epoch
    if len(events) > _PLAIN_EPOCH_MAX_LEN:
        return NO_EPOCH
    snapshot = tuple(events.items())
    epoch = _PLAIN_EPOCHS.get(snapshot)
    if epoch is None:
        if len(_PLAIN_EPOCHS) >= _PLAIN_EPOCHS_MAX:
            _PLAIN_EPOCHS.clear()
        epoch = next(_epoch_counter)
        _PLAIN_EPOCHS[snapshot] = epoch
    return epoch


def invalidate_events(events: Mapping[str, float]) -> None:
    """Force a fresh epoch for ``events``.

    Rarely needed: :class:`EventMap` self-invalidates on mutation and
    plain mappings are keyed by content.  Kept for defensive use around
    exotic mapping types."""
    if isinstance(events, EventMap):
        events._bump()
    else:
        _PLAIN_EPOCHS.pop(tuple(events.items()), None)


#: Empty protected set for single-formula inserts.
_NO_PROTECTED: frozenset = frozenset()


def _evict_entries(bucket: dict, cap: int, protected) -> bool:
    """Bounded memo eviction: oldest unprotected entries, in chunks.

    Called when an insert would push ``bucket`` past ``cap``.  Entries in
    ``protected`` — everything the batch in flight has written — are
    never dropped, so a batch cannot evict values it still needs (the
    bug this replaced: a wholesale ``bucket.clear()`` that discarded the
    entire epoch's memo on every insert past the cap).  Eviction
    proceeds in dict insertion order (oldest first) in chunks of
    ``cap // 8`` to amortize the scan; when every entry is protected the
    bucket transiently exceeds the cap by at most the batch's
    distinct-formula count.

    Returns whether unprotected entries may remain.  ``False`` means the
    scan ran to the end of the bucket: all that is left is the caller's
    own batch, so the caller must not scan again until that batch is
    done — a batch that outgrows the cap would otherwise walk the whole
    bucket, find nothing, and do so again for every further row.
    """
    overshoot = len(bucket) - cap + 1
    if overshoot <= 0:
        return True
    chunk = max(overshoot, cap >> 3, 1)
    victims = list(
        itertools.islice((key for key in bucket if key not in protected), chunk)
    )
    for key in victims:
        del bucket[key]
    return len(victims) == chunk


def _memo_bucket(epoch: int) -> dict[Lineage, float]:
    bucket = _VALUATION_MEMO.get(epoch)
    if bucket is None:
        while len(_VALUATION_MEMO) >= _MEMO_MAX_EPOCHS:
            # dicts iterate in insertion order: evict the oldest epoch.
            _VALUATION_MEMO.pop(next(iter(_VALUATION_MEMO)))
        bucket = _VALUATION_MEMO[epoch] = {}
    return bucket


def clear_valuation_cache() -> None:
    """Drop every memoized valuation and registered plain-mapping epoch."""
    global _MEMO_HITS, _MEMO_MISSES
    _VALUATION_MEMO.clear()
    _PLAIN_EPOCHS.clear()
    _MEMO_HITS = 0
    _MEMO_MISSES = 0


def valuation_cache_stats() -> dict[str, int]:
    """Memo observability: entry count and hit/miss counters."""
    return {
        "entries": sum(len(bucket) for bucket in _VALUATION_MEMO.values()),
        "hits": _MEMO_HITS,
        "misses": _MEMO_MISSES,
        "memo_epochs": len(_VALUATION_MEMO),
        "plain_epochs": len(_PLAIN_EPOCHS),
    }


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def _compute(
    formula: Lineage,
    probabilities: Mapping[str, float],
    method: Method,
    opts: ProbabilityOptions,
) -> tuple[float, bool]:
    """Valuate; returns (value, deterministic)."""
    if method is Method.AUTO:
        return _compute_auto(formula, probabilities, opts)
    if method is Method.ONE_OCCURRENCE:
        return probability_1of(formula, probabilities), True
    if method is Method.SHANNON:
        return probability_shannon(formula, probabilities), True
    if method is Method.BDD:
        return probability_bdd(formula, probabilities), True
    if method is Method.MONTE_CARLO:
        estimate = probability_montecarlo(
            formula,
            probabilities,
            samples=opts.samples,
            confidence=opts.confidence,
            rng=opts.rng,
        )
        return estimate.estimate, False
    return _compute_auto(formula, probabilities, opts)


def _compute_auto(
    formula: Lineage,
    probabilities: Mapping[str, float],
    opts: ProbabilityOptions,
) -> tuple[float, bool]:
    # AUTO: prefer the 1OF fast path, then exact Shannon, then sampling.
    # Both the 1OF flag and the repeated-variable count are cached
    # construction-time metadata — no per-call formula traversal.
    if type(formula) is Var:
        try:
            return probabilities[formula.name], True
        except KeyError as exc:
            raise _missing_variable(formula.name) from exc
    if formula.is_1of:
        return _prob_1of(formula, probabilities), True
    if formula.repeated_count() <= opts.exact_repeated_limit:
        return probability_shannon(formula, probabilities), True
    estimate = probability_montecarlo(
        formula,
        probabilities,
        samples=opts.samples,
        confidence=opts.confidence,
        rng=opts.rng,
    )
    return estimate.estimate, False


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
    global _MEMO_HITS, _MEMO_MISSES
    opts = options if options is not None else _DEFAULT_OPTIONS

    # Only AUTO dispatch consults the memo: an explicit method must keep
    # its own observable behavior (1OF validation errors, per-method
    # floating-point reproducibility) regardless of what another method
    # cached for the same formula.
    if not opts.cache or method is not Method.AUTO:
        return _compute(formula, probabilities, method, opts)[0]
    epoch = events_epoch(probabilities)
    if epoch == NO_EPOCH:
        return _compute(formula, probabilities, method, opts)[0]

    bucket = _memo_bucket(epoch)
    cached = bucket.get(formula, _MISS)
    if cached is not _MISS:
        _MEMO_HITS += 1
        return cached
    _MEMO_MISSES += 1
    value, deterministic = _compute(formula, probabilities, method, opts)
    if deterministic:
        if len(bucket) >= opts.cache_max_entries:
            _evict_entries(bucket, opts.cache_max_entries, _NO_PROTECTED)
        bucket[formula] = value
    return value


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
    per batch (and once per epoch across batches, via the shared memo)
    regardless of how many result tuples carry it.  The events epoch is
    resolved once for the whole batch rather than per formula.
    """
    global _MEMO_HITS, _MEMO_MISSES
    opts = options if options is not None else _DEFAULT_OPTIONS
    out: list[float] = []
    append = out.append
    # As in probability(): only AUTO dispatch may share memoized values.
    caching = opts.cache and method is Method.AUTO
    if caching:
        epoch = events_epoch(probabilities)
        caching = epoch != NO_EPOCH

    if not caching:
        local: dict[Lineage, float] = {}
        get_local = local.get
        for formula in lineages:
            value = get_local(formula, _MISS)
            if value is _MISS:
                value, deterministic = _compute(formula, probabilities, method, opts)
                if deterministic:
                    # Monte-Carlo estimates stay independent draws even
                    # within a batch — they are never shared.
                    local[formula] = value
            append(value)
        return out

    bucket = _memo_bucket(epoch)
    bucket_get = bucket.get
    limit = opts.cache_max_entries
    misses = hits = 0
    # Everything this batch writes is protected from eviction until the
    # batch completes; once a scan has found nothing but the batch's own
    # entries (``evictable`` false) it stops scanning instead of walking
    # the bucket again for every further row.
    protected: set[Lineage] = set()
    evictable = True
    for formula in lineages:
        value = bucket_get(formula, _MISS)
        if value is _MISS:
            misses += 1
            # Inlined AUTO fast paths — atomic lineages and 1OF formulas
            # cover every non-repeating set query (Theorem 1).  Keep in
            # lock-step with _compute_auto, which handles the remainder.
            if type(formula) is Var:
                try:
                    value = probabilities[formula.name]
                except KeyError as exc:
                    raise _missing_variable(formula.name) from exc
                deterministic = True
            elif formula.is_1of:
                value = _prob_1of(formula, probabilities)
                deterministic = True
            else:
                value, deterministic = _compute_auto(formula, probabilities, opts)
            if deterministic:
                if evictable and len(bucket) >= limit:
                    evictable = _evict_entries(bucket, limit, protected)
                bucket[formula] = value
                protected.add(formula)
        else:
            hits += 1
        append(value)
    _MEMO_HITS += hits
    _MEMO_MISSES += misses
    return out
