"""Seeded, config-driven scenario generators.

A scenario bundles everything one test run needs — input relations, the
queries to evaluate, a delta script to replay, or a mixed
read/write/refresh session — generated deterministically from
``(spec, scale, seed)``.  The serve stress tests build their inputs
with it, and ``tests/test_workloads.py`` runs every scenario under each
engine configuration it admits against its reference configuration:

* the same ``(spec, scale, seed)`` triple always produces the identical
  scenario, byte for byte (:meth:`Scenario.fingerprint` is the audited
  witness; ``tests/test_workloads.py`` pins it);
* ``scale`` shrinks or grows the nominal sizes, so the same catalog
  runs at a few dozen tuples per relation or at full size;
* every random draw goes through one :class:`random.Random` seeded from
  a *string* (stable across processes, unlike ``hash()``), so adding a
  scenario never perturbs the existing ones.

The catalog (:data:`SCENARIOS`) covers the axes the engine is built
around: uniform vs. skewed (Zipf) vs. time-clustered fact keys, long
vs. point validity intervals, delta storms against a
:class:`~repro.store.SegmentStore` under incremental view maintenance,
mixed read/write/refresh sessions, and durability-on commit streams
(DESIGN.md §13).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

from ..core.relation import TPRelation
from ..store.delta import Delta

__all__ = [
    "KEY_DISTRIBUTIONS",
    "INTERVAL_PROFILES",
    "SCENARIOS",
    "Scenario",
    "ScenarioSpec",
    "SessionOp",
    "build_scenario",
    "iter_scenarios",
    "scenario_catalog",
    "tiny_spec",
]

#: Supported fact-key distributions (how tuples spread over distinct keys).
KEY_DISTRIBUTIONS = ("uniform", "skewed", "clustered")

#: Interval profile name → (min length, max length, max gap) of chain draws.
INTERVAL_PROFILES = {
    "point": (1, 1, 2),
    "short": (1, 4, 3),
    "long": (30, 120, 10),
    "mixed": (1, 120, 6),
}

_P_LOW, _P_HIGH = 0.05, 0.95


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one scenario — the *config* in
    "config-driven": :func:`build_scenario` turns a spec plus
    ``(scale, seed)`` into concrete data.

    ``kind`` selects what a run of the scenario executes:

    * ``"query"`` — evaluate ``queries`` over the generated relations;
    * ``"delta-storm"`` — replay ``n_batches`` mutation batches against
      store-backed relations while ``queries[0]`` is maintained as an
      eager materialized view;
    * ``"session"`` — a mixed stream of query / apply / refresh
      operations against store-backed relations plus a deferred view;
    * ``"commit-stream"`` — a stream of small transactions, the workload
      the durability axis (WAL off / batch / commit) is measured on;
    * ``"serving"`` — concurrent snapshot sessions re-running ``queries``
      through :class:`repro.serve.QueryService` while ``n_batches``
      commit batches land — the result-cache regime (DESIGN.md §14).

    ``queries`` may reference ``{hot}``, replaced by the most populous
    generated key (``k0``).
    """

    name: str
    description: str
    kind: str = "query"
    key_distribution: str = "uniform"
    interval_profile: str = "short"
    n_relations: int = 2
    n_tuples: int = 20_000
    n_facts: int = 50
    queries: tuple[str, ...] = ()
    n_batches: int = 0
    batch_fraction: float = 0.01
    delete_share: float = 0.3
    session_length: int = 0

    def __post_init__(self) -> None:
        """Reject unknown axis values early, with the catalog's vocabulary."""
        if self.key_distribution not in KEY_DISTRIBUTIONS:
            raise ValueError(
                f"key_distribution must be one of {KEY_DISTRIBUTIONS}, "
                f"got {self.key_distribution!r}"
            )
        if self.interval_profile not in INTERVAL_PROFILES:
            raise ValueError(
                f"interval_profile must be one of "
                f"{tuple(INTERVAL_PROFILES)}, got {self.interval_profile!r}"
            )
        if self.kind not in (
            "query", "delta-storm", "session", "commit-stream", "serving"
        ):
            raise ValueError(f"unknown scenario kind {self.kind!r}")


@dataclass(frozen=True)
class SessionOp:
    """One step of a mixed session.

    ``action`` is ``"query"`` (``target`` is the query text),
    ``"apply"`` (``target`` names the relation; ``inserts``/``deletes``
    are :meth:`~repro.store.SegmentStore.apply`-shaped rows) or
    ``"refresh"`` (refresh all views; ``target`` is empty).
    """

    action: str
    target: str = ""
    inserts: tuple[tuple, ...] = ()
    deletes: tuple[tuple, ...] = ()


@dataclass
class Scenario:
    """A fully materialized scenario: one run's inputs and script.

    ``relations`` maps catalog names (``r1``, ``r2``, …) to generated
    base relations; depending on ``spec.kind``, ``queries``, ``deltas``
    (per-batch ``(relation name, Delta)`` pairs) or ``session`` carry
    the workload.  ``view_query`` is the definition maintained as a
    materialized view during delta storms and sessions.
    """

    spec: ScenarioSpec
    scale: float
    seed: int
    relations: dict[str, TPRelation] = field(default_factory=dict)
    queries: tuple[str, ...] = ()
    deltas: tuple[tuple[str, Delta], ...] = ()
    session: tuple[SessionOp, ...] = ()
    view_query: Optional[str] = None

    @property
    def name(self) -> str:
        """The spec's name (its key in :func:`scenario_catalog`)."""
        return self.spec.name

    def total_tuples(self) -> int:
        """Total generated base tuples across all relations."""
        return sum(len(r) for r in self.relations.values())

    def fingerprint(self) -> str:
        """SHA-256 over the canonical content — the determinism witness.

        Two scenarios built from the same ``(spec, scale, seed)`` must
        produce the same hex digest; anything that changes the generated
        inputs (rows, order, queries, deltas, session) changes it.
        """
        digest = hashlib.sha256()
        for name in sorted(self.relations):
            digest.update(name.encode())
            for t in self.relations[name]:
                digest.update(
                    repr((t.fact, t.start, t.end, str(t.lineage), t.p)).encode()
                )
        digest.update(repr(self.queries).encode())
        digest.update(repr(self.view_query).encode())
        for rel_name, delta in self.deltas:
            digest.update(rel_name.encode())
            digest.update(repr((delta.inserts, delta.deletes)).encode())
        for op in self.session:
            digest.update(
                repr((op.action, op.target, op.inserts, op.deletes)).encode()
            )
        return digest.hexdigest()


# ----------------------------------------------------------------------
# generation internals
# ----------------------------------------------------------------------
def _rng(seed: int, *scope: object) -> random.Random:
    """A stream-local PRNG seeded from a *string* (process-stable)."""
    return random.Random(":".join(str(part) for part in (seed, *scope)))


def _allocate_counts(
    n_tuples: int, n_facts: int, distribution: str
) -> list[int]:
    """Per-key tuple counts under the requested distribution.

    ``uniform``/``clustered`` split evenly; ``skewed`` follows a Zipf
    law (weight 1/rank), so ``k0`` is the hot key.  Counts always sum to
    ``n_tuples`` and every key receives at least one tuple.
    """
    if distribution == "skewed":
        weights = [1.0 / (rank + 1) for rank in range(n_facts)]
    else:
        weights = [1.0] * n_facts
    total = sum(weights)
    counts = [max(1, int(n_tuples * w / total)) for w in weights]
    index = 0
    while sum(counts) > n_tuples:
        if counts[index % n_facts] > 1:
            counts[index % n_facts] -= 1
        index += 1
    index = 0
    while sum(counts) < n_tuples:
        counts[index % n_facts] += 1
        index += 1
    return counts


def _profile_for(spec: ScenarioSpec, fact_index: int) -> tuple[int, int, int]:
    """The (min len, max len, max gap) bounds for one key's chain.

    The ``mixed`` profile alternates point-like and long chains per key,
    so both regimes meet inside a single sweep.
    """
    if spec.interval_profile == "mixed":
        return (
            INTERVAL_PROFILES["point"]
            if fact_index % 2 == 0
            else INTERVAL_PROFILES["long"]
        )
    return INTERVAL_PROFILES[spec.interval_profile]


def _chain_rows(
    rng: random.Random,
    key: str,
    count: int,
    bounds: tuple[int, int, int],
    start: int,
) -> list[tuple[str, int, int, float]]:
    """One duplicate-free interval chain for ``key``: consecutive
    intervals separated by random gaps, starting at ``start``."""
    min_len, max_len, max_gap = bounds
    cursor = start + rng.randint(0, max_gap)
    rows = []
    for _ in range(count):
        length = rng.randint(min_len, max_len)
        rows.append((key, cursor, cursor + length, round(rng.uniform(_P_LOW, _P_HIGH), 6)))
        cursor += length + rng.randint(0, max_gap)
    return rows


def _scaled_sizes(spec: ScenarioSpec, scale: float) -> tuple[int, int]:
    """(tuples per relation, distinct keys) after applying ``scale``.

    Floors keep tiny scales meaningful: at least 8 tuples over at least
    2 keys (so the ``{hot}``/``k1`` query placeholders always resolve).
    A spec already below the floor (:func:`tiny_spec`, sized for
    possible-worlds enumeration) keeps its own size.
    """
    floor = min(8, max(2, spec.n_tuples))
    n_tuples = max(floor, int(round(spec.n_tuples * scale)))
    n_facts = max(2, min(spec.n_facts, n_tuples // 2))
    return n_tuples, n_facts


def _generate_relation(
    spec: ScenarioSpec, name: str, seed: int, n_tuples: int, n_facts: int
) -> tuple[TPRelation, dict[str, int]]:
    """One generated relation plus the per-key time frontier.

    The frontier (max end time per key) is what delta generation builds
    on: inserting past it can never violate duplicate-freeness.
    """
    rng = _rng(seed, spec.name, name)
    counts = _allocate_counts(n_tuples, n_facts, spec.key_distribution)
    rows: list[tuple[str, int, int, float]] = []
    frontier: dict[str, int] = {}
    region_cursor = 0
    for fact_index in range(n_facts):
        key = f"k{fact_index}"
        bounds = _profile_for(spec, fact_index)
        if spec.key_distribution == "clustered":
            start = region_cursor
        else:
            start = rng.randint(0, 4)
        chain = _chain_rows(rng, key, counts[fact_index], bounds, start)
        rows.extend(chain)
        frontier[key] = max(te for _, _, te, _ in chain)
        region_cursor = max(region_cursor, frontier[key]) + bounds[2] + 1
    rng.shuffle(rows)
    relation = TPRelation.from_rows(name, ("k",), rows)
    return relation, frontier


def _generate_deltas(
    spec: ScenarioSpec,
    seed: int,
    target: str,
    frontier: dict[str, int],
    live: dict[str, list[tuple[int, int]]],
    n_batches: int,
    batch_size: int,
) -> tuple[tuple[str, Delta], ...]:
    """A storm of ``n_batches`` transactions against ``target``.

    Inserts extend each key's chain past its frontier (duplicate-free by
    construction); deletes pick still-live generated tuples, never the
    same one twice and never one inserted in the *same* batch (a batch's
    deletes resolve against the pre-transaction state, so deleting a
    same-batch insert would not apply).  Both appear in one batch, like
    real refresh traffic.
    """
    rng = _rng(seed, spec.name, "deltas", target)
    keys = sorted(frontier)
    bounds_by_key = {
        f"k{i}": _profile_for(spec, i) for i in range(len(keys))
    }
    batches: list[tuple[str, Delta]] = []
    for _ in range(n_batches):
        inserts: list[tuple] = []
        deletes: list[tuple] = []
        fresh: set[tuple[str, int, int]] = set()
        for _ in range(batch_size):
            key = rng.choice(keys)
            bounds = bounds_by_key[key]
            deletable = [
                span for span in live[key] if (key, *span) not in fresh
            ]
            if deletable and rng.random() < spec.delete_share:
                ts, te = deletable[rng.randrange(len(deletable))]
                live[key].remove((ts, te))
                deletes.append((key, ts, te))
            else:
                min_len, max_len, max_gap = bounds
                cursor = frontier[key] + 1 + rng.randint(0, max_gap)
                length = rng.randint(min_len, max_len)
                p = round(rng.uniform(_P_LOW, _P_HIGH), 6)
                inserts.append((key, cursor, cursor + length, p))
                frontier[key] = cursor + length
                live[key].append((cursor, cursor + length))
                fresh.add((key, cursor, cursor + length))
        batches.append((target, Delta(inserts=tuple(inserts), deletes=tuple(deletes))))
    return tuple(batches)


def _live_intervals(relation: TPRelation) -> dict[str, list[tuple[int, int]]]:
    """Per-key intervals of a generated single-attribute relation."""
    live: dict[str, list[tuple[int, int]]] = {}
    for t in relation:
        live.setdefault(str(t.fact[0]), []).append((t.start, t.end))
    return live


def _generate_session(
    spec: ScenarioSpec,
    seed: int,
    queries: tuple[str, ...],
    frontiers: dict[str, dict[str, int]],
    lives: dict[str, dict[str, list[tuple[int, int]]]],
    length: int,
    batch_size: int,
) -> tuple[SessionOp, ...]:
    """A mixed read/write/refresh stream: ~half queries, ~a third
    transactions, the rest explicit view refreshes."""
    rng = _rng(seed, spec.name, "session")
    targets = sorted(frontiers)
    ops: list[SessionOp] = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.5:
            ops.append(SessionOp("query", rng.choice(queries)))
        elif roll < 0.85:
            target = rng.choice(targets)
            (_, delta), = _generate_deltas(
                spec,
                rng.randrange(2**31),
                target,
                frontiers[target],
                lives[target],
                n_batches=1,
                batch_size=batch_size,
            )
            ops.append(
                SessionOp("apply", target, inserts=delta.inserts, deletes=delta.deletes)
            )
        else:
            ops.append(SessionOp("refresh"))
    return tuple(ops)


# ----------------------------------------------------------------------
# the public build entry point and the catalog
# ----------------------------------------------------------------------
def build_scenario(
    spec: ScenarioSpec, *, scale: float = 1.0, seed: int = 0
) -> Scenario:
    """Materialize ``spec`` at ``scale`` with ``seed`` — deterministically.

    The same arguments always yield an identical :class:`Scenario`
    (same relations, same row order, same deltas and session ops);
    see :meth:`Scenario.fingerprint`.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    n_tuples, n_facts = _scaled_sizes(spec, scale)
    relations: dict[str, TPRelation] = {}
    frontiers: dict[str, dict[str, int]] = {}
    for index in range(spec.n_relations):
        name = f"r{index + 1}"
        relation, frontier = _generate_relation(spec, name, seed, n_tuples, n_facts)
        relations[name] = relation
        frontiers[name] = frontier
    queries = tuple(query.replace("{hot}", "k0") for query in spec.queries)
    scenario = Scenario(
        spec=spec, scale=scale, seed=seed, relations=relations, queries=queries
    )
    if spec.kind in ("delta-storm", "commit-stream", "serving"):
        n_batches = max(2, int(round(spec.n_batches * min(1.0, scale * 2))))
        batch_size = (
            max(1, int(round(3 * min(1.0, scale * 2))))
            if spec.kind == "commit-stream"
            else max(1, int(n_tuples * spec.batch_fraction))
        )
        scenario.deltas = _generate_deltas(
            spec,
            seed,
            "r1",
            frontiers["r1"],
            _live_intervals(relations["r1"]),
            n_batches,
            batch_size,
        )
        # Serving queries go through QueryService sessions directly; the
        # maintained-view axis belongs to the delta-storm scenarios.
        if spec.kind != "serving":
            scenario.view_query = queries[0] if queries else None
    elif spec.kind == "session":
        length = max(6, int(round(spec.session_length * min(1.0, scale * 2))))
        scenario.session = _generate_session(
            spec,
            seed,
            queries,
            frontiers,
            {name: _live_intervals(rel) for name, rel in relations.items()},
            length,
            batch_size=max(1, int(n_tuples * spec.batch_fraction)),
        )
        scenario.view_query = queries[0] if queries else None
    return scenario


def tiny_spec(spec: ScenarioSpec, *, n_tuples: int = 6, n_facts: int = 2) -> ScenarioSpec:
    """A possible-worlds-sized copy of ``spec``.

    Small enough (``n_relations * n_tuples`` base events) that brute-force
    world enumeration stays tractable in the round-trip tests.
    """
    return replace(
        spec,
        n_tuples=n_tuples,
        n_facts=n_facts,
        n_batches=min(spec.n_batches, 2),
        session_length=min(spec.session_length, 6),
    )


#: The scenario catalog.  Names are stable identifiers: the tests and
#: the frozen ``BENCH_suite.json`` record refer to them.
SCENARIOS: tuple[ScenarioSpec, ...] = (
    ScenarioSpec(
        name="uniform_setops",
        description="Uniform keys, short intervals; the three TP set "
        "operations over two relations (the fig-7/8 regime).",
        kind="query",
        key_distribution="uniform",
        interval_profile="short",
        n_relations=2,
        n_tuples=20_000,
        n_facts=50,
        queries=("r1 | r2", "r1 & r2", "r1 - r2"),
    ),
    ScenarioSpec(
        name="skewed_hotkey_filter",
        description="Zipf-skewed keys; selective filters over a union "
        "chain and a difference — the optimizer-pushdown regime.",
        kind="query",
        key_distribution="skewed",
        interval_profile="short",
        n_relations=3,
        n_tuples=15_000,
        n_facts=60,
        queries=(
            "((r1 | r2) | r3)[k='{hot}']",
            "(r1 - r2)[k='k1']",
        ),
    ),
    ScenarioSpec(
        name="clustered_join",
        description="Time-clustered keys (per-key temporal locality); "
        "inner and left-outer generalized joins.",
        kind="query",
        key_distribution="clustered",
        interval_profile="short",
        n_relations=2,
        n_tuples=8_000,
        n_facts=40,
        queries=(
            "r1 JOIN r2 ON k",
            "r1 LEFT OUTER JOIN r2 ON k",
        ),
    ),
    ScenarioSpec(
        name="long_vs_point",
        description="Long-interval relation against point-interval "
        "relation (low overlapping factor, Table-III style).",
        kind="query",
        key_distribution="uniform",
        interval_profile="mixed",
        n_relations=2,
        n_tuples=12_000,
        n_facts=30,
        queries=("r1 & r2", "r1 - r2", "r2 - r1"),
    ),
    ScenarioSpec(
        name="delta_storm",
        description="1%-of-relation mutation batches against a store "
        "while an eager view maintains a union-difference query.",
        kind="delta-storm",
        key_distribution="uniform",
        interval_profile="short",
        n_relations=2,
        n_tuples=10_000,
        n_facts=40,
        queries=("r1 - r2",),
        n_batches=10,
        batch_fraction=0.01,
    ),
    ScenarioSpec(
        name="mixed_session",
        description="Interleaved read/write/refresh traffic against "
        "store-backed relations plus a deferred view.",
        kind="session",
        key_distribution="uniform",
        interval_profile="short",
        n_relations=2,
        n_tuples=6_000,
        n_facts=30,
        queries=("r1 | r2", "(r1 - r2)[k='{hot}']"),
        batch_fraction=0.005,
        session_length=30,
    ),
    ScenarioSpec(
        name="serving",
        description="Concurrent snapshot sessions re-running queries "
        "through the query service while commit batches land — the "
        "plan/result-cache regime.",
        kind="serving",
        key_distribution="uniform",
        interval_profile="short",
        n_relations=2,
        n_tuples=6_000,
        n_facts=30,
        queries=("r1 | r2", "(r1 - r2)[k='{hot}']"),
        n_batches=5,
        batch_fraction=0.01,
    ),
    ScenarioSpec(
        name="commit_stream",
        description="A stream of small transactions — the workload the "
        "durability axis (WAL off/batch/commit) is measured on.",
        kind="commit-stream",
        key_distribution="uniform",
        interval_profile="short",
        n_relations=1,
        n_tuples=2_000,
        n_facts=20,
        queries=(),
        n_batches=100,
    ),
)


def scenario_catalog() -> dict[str, ScenarioSpec]:
    """Name → spec for every registered scenario."""
    return {spec.name: spec for spec in SCENARIOS}


def iter_scenarios(
    names: Optional[list[str]] = None, *, scale: float = 1.0, seed: int = 0
) -> Iterator[Scenario]:
    """Build the requested scenarios (all of them when ``names`` is None)."""
    catalog = scenario_catalog()
    if names is None:
        names = list(catalog)
    unknown = [name for name in names if name not in catalog]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(catalog)}"
        )
    for name in names:
        yield build_scenario(catalog[name], scale=scale, seed=seed)
