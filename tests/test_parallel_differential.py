"""Differential suite: parallel execution ≡ serial, bit for bit.

For every operator — the three set operations, all five generalized
joins, and incremental view refresh — the parallel engine must produce
*the same relation object graph* the serial engine produces: same tuples
in the same order, same intervals, same probabilities (float-exact), and
the **identical interned lineage objects** (``is``, not just ``==``).
That is the contract that makes ``REPRO_PARALLEL`` safe to flip on any
workload (DESIGN.md §10).

Three layers of attack:

* hypothesis property tests over random relation pairs, at worker counts
  {1, 2, 4} (1 = the serial engine itself, pinning that the gate really
  is a no-op);
* adversarial chunkings driven through the engine's explicit ``chunks``
  parameter: one fact group per chunk, everything in one chunk, and
  boundaries produced by gap-splitting the largest group;
* chunker unit properties: boundaries never split a fact group except at
  coverage gaps, every tuple is covered exactly once, chunks are
  size-balanced contiguous spans.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algebra.join import (
    JOIN_KINDS,
    _group_by_key,
    _sweep_rows,
    join_layout,
    tp_join_operation,
)
from repro.core.gtwindow import WINDOW_POLICIES
from repro.core.setops import OPERATIONS, sweep_rows, tp_set_operation
from repro.core.tuple import TPTuple
from repro.datasets import generate_join_pair, generate_pair
from repro.exec import engine
from repro.exec.chunking import (
    aligned_chunks,
    balanced_partition,
    fact_runs,
    merged_group_items,
    split_group_at_gaps,
)
from repro.exec.config import ParallelConfig, parallel_execution
from repro.exec.pool import shutdown_pools
from repro.query.parser import parse_query
from repro.store import MaterializedView, SegmentStore

from .strategies import tp_join_pair, tp_relation_pair

SET_OPS = tuple(OPERATIONS)
WORKER_COUNTS = (1, 2, 4)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def teardown_module(module) -> None:
    shutdown_pools()


def force_parallel(workers: int) -> ParallelConfig:
    """A configuration that parallelizes every operation, however small."""
    return ParallelConfig(workers=workers, min_tuples=0, min_formulas=0)


def assert_bit_identical(parallel, serial) -> None:
    """Same tuples, same order, same interned lineage, same floats."""
    assert parallel.schema.attributes == serial.schema.attributes
    assert len(parallel) == len(serial)
    for p, s in zip(parallel, serial):
        assert p.fact == s.fact
        assert p.interval == s.interval
        assert p.lineage is s.lineage, (
            f"lineage not identity-equal: {p.lineage} vs {s.lineage}"
        )
        assert p.p == s.p  # float-exact, not approximate
    assert dict(parallel.events) == dict(serial.events)


def assert_rows_identical(parallel_rows, serial_rows) -> None:
    """Kernel output, pool against serial: the set-operation kernels emit
    lineage-only tuples, the join kernels ``(fact, λ, winTs, winTe)``
    rows — the same four things, compared the same way."""
    assert len(parallel_rows) == len(serial_rows)
    for p, s in zip(parallel_rows, serial_rows):
        assert type(p) is type(s)
        if isinstance(p, TPTuple):
            assert p.p is None and s.p is None
            p = (p.fact, p.lineage, p.start, p.end)
            s = (s.fact, s.lineage, s.start, s.end)
        assert p[0] == s[0] and p[2] == s[2] and p[3] == s[3]
        assert p[1] is s[1]


# ----------------------------------------------------------------------
# set operations
# ----------------------------------------------------------------------
class TestSetOperationsDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("op", SET_OPS)
    @settings(max_examples=25, deadline=None)
    @given(pair=tp_relation_pair())
    def test_random_pairs(self, op, workers, pair):
        r, s = pair
        serial = tp_set_operation(op, r, s)
        with parallel_execution(force_parallel(workers)):
            parallel = tp_set_operation(op, r, s)
        assert_bit_identical(parallel, serial)

    @pytest.mark.parametrize("op", SET_OPS)
    def test_fig8_scale_multi_fact(self, op):
        r, s = generate_pair(3000, n_facts=7, seed=11)
        serial = tp_set_operation(op, r, s)
        with parallel_execution(force_parallel(4)):
            parallel = tp_set_operation(op, r, s)
        assert_bit_identical(parallel, serial)

    @pytest.mark.parametrize("op", SET_OPS)
    def test_single_fact_gap_split(self, op):
        """One giant group must shard at coverage gaps, not serialize."""
        r, s = generate_pair(3000, seed=7)  # n_facts=1: the fig-8 layout
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        chunks = aligned_chunks(tr, ts, 8)
        assert len(chunks) > 1, "gap splitting failed to shard the group"
        serial = tp_set_operation(op, r, s)
        with parallel_execution(force_parallel(4)):
            parallel = tp_set_operation(op, r, s)
        assert_bit_identical(parallel, serial)


class TestAdversarialChunkings:
    """Engine-level: explicit chunk layouts against the serial kernel."""

    @staticmethod
    def _reference(tr, ts, op):
        return sweep_rows(tr, ts, op)

    @pytest.mark.parametrize("op", SET_OPS)
    def test_one_group_per_chunk(self, op):
        r, s = generate_pair(600, n_facts=12, seed=3)
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        chunks = [
            ((r_lo, r_hi), (s_lo, s_hi))
            for r_lo, r_hi, s_lo, s_hi in merged_group_items(tr, ts)
        ]
        assert len(chunks) >= 12
        rows = engine.setop_sweep_rows(
            tr, ts, op, config=force_parallel(2), chunks=chunks
        )
        assert_rows_identical(rows, self._reference(tr, ts, op))

    @pytest.mark.parametrize("op", SET_OPS)
    def test_all_groups_in_one_chunk_stays_serial(self, op):
        r, s = generate_pair(600, n_facts=12, seed=3)
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        chunks = [((0, len(tr)), (0, len(ts)))]
        # A single chunk cannot be parallelized — the engine must decline
        # (returning None) rather than pay the pool round-trip.
        assert (
            engine.setop_sweep_rows(
                tr, ts, op, config=force_parallel(2), chunks=chunks
            )
            is None
        )

    @pytest.mark.parametrize("op", SET_OPS)
    def test_boundary_splits_largest_group_at_gaps(self, op):
        """Chunk boundaries inside the largest group (at coverage gaps)."""
        r, s = generate_pair(900, n_facts=3, seed=5)
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        items = merged_group_items(tr, ts)
        largest = max(
            items, key=lambda it: (it[1] - it[0]) + (it[3] - it[2])
        )
        split = split_group_at_gaps(tr, ts, largest, max_weight=40)
        assert len(split) > 1, "expected gaps inside the largest group"
        chunks = []
        for item in items:
            parts = split if item == largest else [item]
            chunks.extend(
                ((r_lo, r_hi), (s_lo, s_hi)) for r_lo, r_hi, s_lo, s_hi in parts
            )
        rows = engine.setop_sweep_rows(
            tr, ts, op, config=force_parallel(4), chunks=chunks
        )
        assert_rows_identical(rows, self._reference(tr, ts, op))


# ----------------------------------------------------------------------
# generalized joins
# ----------------------------------------------------------------------
class TestJoinsDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("kind", JOIN_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(pair=tp_join_pair())
    def test_random_pairs(self, kind, workers, pair):
        r, s = pair
        serial = tp_join_operation(kind, r, s, ("k",))
        with parallel_execution(force_parallel(workers)):
            parallel = tp_join_operation(kind, r, s, ("k",))
        assert_bit_identical(parallel, serial)

    @pytest.mark.parametrize("kind", JOIN_KINDS)
    def test_join_workload_scale(self, kind):
        r, s = generate_join_pair(2000, n_keys=9, seed=2)
        serial = tp_join_operation(kind, r, s, ("key",))
        with parallel_execution(force_parallel(4)):
            parallel = tp_join_operation(kind, r, s, ("key",))
        assert_bit_identical(parallel, serial)

    @pytest.mark.parametrize("kind", JOIN_KINDS)
    def test_driver_rows_identical(self, kind):
        """Engine driver vs the serial per-key loop, row for row."""
        r, s = generate_join_pair(1200, n_keys=6, seed=4)
        layout = join_layout(kind, r, s, ("key",))
        policy = WINDOW_POLICIES[kind]
        r_groups = _group_by_key(r.sorted_tuples(), layout.r_key_idx)
        s_groups = _group_by_key(s.sorted_tuples(), layout.s_key_idx)
        if policy.preserve_left and policy.preserve_right:
            keys = list(r_groups) + [k for k in s_groups if k not in r_groups]
        elif policy.preserve_left:
            keys = list(r_groups)
        elif policy.preserve_right:
            keys = list(s_groups)
        else:
            keys = [k for k in r_groups if k in s_groups]
        serial = _sweep_rows(layout, r, s, policy)
        rows = engine.join_sweep_rows(
            layout, policy, keys, r_groups, s_groups, config=force_parallel(2)
        )
        assert rows is not None
        assert_rows_identical(rows, serial)

    @pytest.mark.parametrize("kind", ("left_outer", "full_outer", "anti"))
    @settings(max_examples=15, deadline=None)
    @given(pair=tp_join_pair(s_rest=False))
    def test_degenerate_layouts(self, kind, pair):
        """Key-only right side: the collapse paths under the pool."""
        r, s = pair
        serial = tp_join_operation(kind, r, s, ("k",))
        with parallel_execution(force_parallel(2)):
            parallel = tp_join_operation(kind, r, s, ("k",))
        assert_bit_identical(parallel, serial)


# ----------------------------------------------------------------------
# incremental view refresh
# ----------------------------------------------------------------------
def _mutate(store: SegmentStore, seed: int) -> None:
    tuples = list(store.iter_sorted())
    victims = tuples[seed % max(1, len(tuples)) :: 3][:20]
    deletes = [(*t.fact, t.start, t.end) for t in victims]
    inserts = [
        (*t.fact, t.start, max(t.start + 1, t.end - 1), 0.37) for t in victims
    ]
    store.apply(inserts=inserts, deletes=deletes)


class TestIncrementalRefreshDifferential:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize(
        "query,maker",
        [
            ("r - (r & s)", lambda: generate_pair(800, n_facts=4, seed=9)),
            ("r | s", lambda: generate_pair(800, seed=13)),
            (
                "r LEFT OUTER JOIN s ON key",
                lambda: generate_join_pair(800, n_keys=5, seed=9),
            ),
            (
                "r ANTI JOIN s ON key",
                lambda: generate_join_pair(800, n_keys=5, seed=21),
            ),
        ],
    )
    def test_refresh_matches_serial(self, query, maker, workers):
        r0, s0 = maker()
        ast = parse_query(query)

        serial_stores = {
            "r": SegmentStore.from_relation(r0),
            "s": SegmentStore.from_relation(s0),
        }
        serial_view = MaterializedView("v", ast, serial_stores, policy="manual")

        parallel_stores = {
            "r": SegmentStore.from_relation(r0),
            "s": SegmentStore.from_relation(s0),
        }
        parallel_view = MaterializedView(
            "v", ast, parallel_stores, policy="manual",
            parallel=workers if workers > 1 else None,
        )
        if workers > 1:
            # Force every re-sweep through the pool regardless of size.
            parallel_view._engine._parallel = force_parallel(workers)

        for round_no in range(3):
            _mutate(serial_stores["r"], seed=round_no)
            _mutate(parallel_stores["r"], seed=round_no)
            serial_view.refresh()
            parallel_view.refresh()
            assert_bit_identical(parallel_view.relation(), serial_view.relation())


# ----------------------------------------------------------------------
# cost-based optimizer × worker pool
# ----------------------------------------------------------------------
class TestOptimizerParallelDifferential:
    """Optimized queries through the pool ≡ optimized queries serial.

    Two guarantees (DESIGN.md §11): the cost-based *choice* is
    worker-count-invariant (the worker-aware sweep discount scales
    candidates, it must not reorder them on this corpus), and executing
    the chosen plan is bit-identical across worker counts {1, 2} — the
    PR-4 differential contract extended to every optimization level.
    """

    QUERIES = (
        ("r - (r & s)", lambda: generate_pair(400, n_facts=4, seed=9)),
        ("(r | s | r)[fact='f1'] - s", lambda: generate_pair(400, n_facts=3, seed=5)),
        (
            "(r JOIN s ON key)[key='k2']",
            lambda: generate_join_pair(400, n_keys=5, seed=9),
        ),
        (
            "r LEFT OUTER JOIN s ON key",
            lambda: generate_join_pair(400, n_keys=5, seed=3),
        ),
    )

    @pytest.mark.parametrize("level", ("safe", "aggressive"))
    @pytest.mark.parametrize("query,maker", QUERIES)
    def test_chosen_plan_worker_invariant(self, query, maker, level):
        from repro.db import TPDatabase
        from repro.query import choose_plan

        r, s = maker()
        db = TPDatabase()
        db.register(r.rename("r"))
        db.register(s.rename("s"))
        ast = parse_query(query)
        stats = db._stats_catalog(ast)
        aggressive = level == "aggressive"
        serial_choice = choose_plan(ast, stats, aggressive=aggressive, workers=1)
        pooled_choice = choose_plan(ast, stats, aggressive=aggressive, workers=2)
        assert serial_choice.chosen == pooled_choice.chosen

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("level", ("off", "safe", "aggressive"))
    @pytest.mark.parametrize("query,maker", QUERIES)
    def test_optimized_results_bit_identical(self, query, maker, level, workers):
        from repro.db import TPDatabase

        r, s = maker()

        def build():
            db = TPDatabase()
            db.register(r.rename("r"))
            db.register(s.rename("s"))
            return db

        serial = build().query(query, optimize=level)
        with parallel_execution(force_parallel(workers)):
            pooled = build().query(query, optimize=level)
        assert_bit_identical(pooled, serial)


# ----------------------------------------------------------------------
# chunker unit properties
# ----------------------------------------------------------------------
class TestChunker:
    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair(max_facts=3, max_intervals=5))
    def test_chunks_cover_exactly_once_in_order(self, pair):
        r, s = pair
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        chunks = aligned_chunks(tr, ts, 4)
        r_cursor = s_cursor = 0
        for (r_lo, r_hi), (s_lo, s_hi) in chunks:
            assert r_lo == r_cursor and s_lo == s_cursor
            assert r_hi >= r_lo and s_hi >= s_lo
            r_cursor, s_cursor = r_hi, s_hi
        if tr or ts:
            assert r_cursor == len(tr) and s_cursor == len(ts)

    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair(max_facts=3, max_intervals=5))
    def test_boundaries_respect_groups_or_gaps(self, pair):
        """A boundary inside a fact group must sit on a coverage gap."""
        r, s = pair
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        for (r_lo, _), (s_lo, _) in aligned_chunks(tr, ts, 4)[1:]:
            boundary_facts = set()
            if 0 < r_lo < len(tr):
                if tr[r_lo - 1].fact == tr[r_lo].fact:
                    boundary_facts.add(tr[r_lo].fact)
            if 0 < s_lo < len(ts):
                if ts[s_lo - 1].fact == ts[s_lo].fact:
                    boundary_facts.add(ts[s_lo].fact)
            for fact in boundary_facts:
                cut_points = []
                if r_lo < len(tr) and tr[r_lo].fact == fact:
                    cut_points.append(tr[r_lo].interval.start)
                if s_lo < len(ts) and ts[s_lo].fact == fact:
                    cut_points.append(ts[s_lo].interval.start)
                cut = min(cut_points)
                crossing = [
                    t
                    for run in (tr, ts)
                    for t in run
                    if t.fact == fact
                    and t.interval.start < cut < t.interval.end
                ]
                assert not crossing, (
                    f"boundary at {cut} splits fact {fact!r} across a "
                    f"covered span: {crossing}"
                )

    def test_balanced_partition_is_contiguous_and_complete(self):
        weights = [5, 1, 1, 1, 40, 1, 1, 5, 5]
        spans = balanced_partition(weights, 4)
        assert 2 <= len(spans) <= 4
        assert spans[0][0] == 0 and spans[-1][1] == len(weights)
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert hi == lo
        totals = [sum(weights[lo:hi]) for lo, hi in spans]
        assert all(totals)
        # The giant item dominates exactly one span; the light items
        # around it still get spans of their own (no serialization).
        assert sum(total >= 40 for total in totals) == 1

    def test_fact_runs(self):
        r, _ = generate_pair(200, n_facts=5, seed=1)
        tr = r.sorted_tuples()
        runs = fact_runs(tr)
        assert runs[0][0] == 0 and runs[-1][1] == len(tr)
        for lo, hi in runs:
            facts = {t.fact for t in tr[lo:hi]}
            assert len(facts) == 1
        for (_, hi), (lo, _) in zip(runs, runs[1:]):
            assert hi == lo
            assert tr[hi - 1].fact != tr[lo].fact
