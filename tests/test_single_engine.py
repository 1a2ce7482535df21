"""One engine: the serial tuple-path sweep on degenerate shapes and at scale.

Every set operation, join and view refresh has exactly one sweep.  These
tests pin it, bit for bit (same tuples in the same order, same intervals,
*identical* interned lineage objects, float-exact probabilities), against
the independent references that remain: the paper-shaped ``LawaSweep``
path (``fused=False``), the other sorting strategy, the naive join
baseline, a full view recompute and the operators called directly.  The
shapes are the ones where off-by-one window handling shows first — empty
operands, single-tuple groups, all-identical intervals, unit intervals,
``None``-padded facts and time points beyond 64 bits.  The last class
checks that the removed execution modes (columnar blocks, the worker
pool) left no option behind.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.algebra.join import JOIN_KINDS, tp_join_operation
from repro.baselines import naive_join_operation
from repro.core.errors import UnsupportedOperationError
from repro.core.interval import Interval
from repro.core.relation import TPRelation
from repro.core.schema import TPSchema
from repro.core.setops import OPERATIONS, tp_set_operation, tp_union
from repro.core.sorting import null_safe_key, sort_tuples
from repro.core.tuple import base_tuple
from repro.datasets import generate_join_pair, generate_pair
from repro.db import TPDatabase
from repro.db.__main__ import build_parser
from repro.serve.__main__ import build_parser as serve_parser
from repro.prob.valuation import clear_valuation_cache, valuation_cache_stats
from repro.query.parser import parse_query
from repro.store import MaterializedView, SegmentStore

SET_OPS = tuple(OPERATIONS)


def rel(name: str, rows, attributes=("fact",)) -> TPRelation:
    """``rows`` are (fact_values..., ts, te, p) over ``attributes``."""
    return TPRelation.from_rows(name, attributes, rows)


def assert_bit_identical(result: TPRelation, reference: TPRelation) -> None:
    """Same tuples, same order, same interned lineage, same floats."""
    assert result.schema.attributes == reference.schema.attributes
    assert len(result) == len(reference)
    for c, t in zip(result, reference):
        assert c.fact == t.fact
        assert c.interval == t.interval
        assert c.lineage is t.lineage, (
            f"lineage not identity-equal: {c.lineage} vs {t.lineage}"
        )
        assert c.p == t.p  # float-exact, not approximate
    assert dict(result.events) == dict(reference.events)


def assert_matches_paper_path(op: str, r: TPRelation, s: TPRelation) -> TPRelation:
    result = tp_set_operation(op, r, s)
    assert_bit_identical(result, tp_set_operation(op, r, s, fused=False))
    return result


# ----------------------------------------------------------------------
# set operations on degenerate shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op", SET_OPS)
class TestDegenerateShapes:
    def test_empty_operands(self, op):
        empty = rel("r", [])
        other = rel("s", [("x", 0, 5, 0.5), ("y", 2, 9, 0.25)])
        expected_len = {"union": (2, 2, 0), "intersect": (0, 0, 0), "except": (0, 2, 0)}
        pairs = ((empty, other), (other, empty), (empty, empty))
        for (left, right), n in zip(pairs, expected_len[op]):
            assert len(assert_matches_paper_path(op, left, right)) == n

    def test_single_tuple_groups(self, op):
        r = rel("r", [("x", 0, 7, 0.5), ("y", 3, 4, 0.9)])
        s = rel("s", [("x", 2, 5, 0.4)])
        result = assert_matches_paper_path(op, r, s)
        # x splits at s's end points (3 windows, 1 for ∩); y passes alone.
        windows = {"union": 4, "intersect": 1, "except": 4}
        assert len(result) == windows[op]

    def test_all_identical_intervals(self, op):
        """Same interval on every fact: every sweep event ties on time."""
        r = rel("r", [("x", 3, 8, 0.5), ("y", 3, 8, 0.25), ("z", 3, 8, 0.75)])
        s = rel("s", [("x", 3, 8, 0.4), ("z", 3, 8, 0.6)])
        result = assert_matches_paper_path(op, r, s)
        assert all(t.interval == Interval(3, 8) for t in result)

    def test_unit_intervals_back_to_back(self, op):
        """Adjacent one-point tuples: a window closes exactly where the
        next one opens, on both sides at once."""
        r = rel("r", [("x", t, t + 1, 0.5) for t in range(6)])
        s = rel("s", [("x", t, t + 1, 0.25) for t in range(1, 7, 2)])
        result = assert_matches_paper_path(op, r, s)
        assert all(t.end - t.start == 1 for t in result)

    def test_null_padded_operands(self, op):
        """Outer-join outputs hold ``None`` next to strings: only the
        null-safe fact order sorts them, on both sweep paths."""
        r = rel("r", [("k1", "a1", 0, 6, 0.5), ("k2", "a2", 1, 4, 0.3)], ("k", "a"))
        s = rel("s", [("k1", "b1", 2, 9, 0.7)], ("k", "b"))
        padded = tp_join_operation("full_outer", r, s, ("k",))
        other = tp_join_operation("left_outer", r, s, ("k",))
        assert any(None in t.fact for t in padded)
        assert_matches_paper_path(op, padded, other)

    def test_time_points_beyond_int64(self, op):
        """Python integers: nothing in the sweep truncates time points."""
        huge = TPRelation(
            "r",
            TPSchema(("fact",)),
            [base_tuple(("x",), "r1", Interval(0, 2**70), 0.5)],
            {"r1": 0.5},
            validate=False,
        )
        other = rel("s", [("x", 1, 5, 0.4)])
        result = assert_matches_paper_path(op, huge, other)
        assert max(t.end for t in result) == (2**70 if op != "intersect" else 5)


# ----------------------------------------------------------------------
# set operations and joins at scale
# ----------------------------------------------------------------------
class TestAtScale:
    @pytest.mark.parametrize("op", SET_OPS)
    def test_fig8_scale_multi_fact(self, op):
        r, s = generate_pair(3000, n_facts=7, seed=11)
        assert_matches_paper_path(op, r, s)

    def test_sort_strategies_agree(self):
        """The kernel sorts one way; the counting sort of the complexity
        ablation must give it the identical order."""
        for relation in generate_pair(2000, n_facts=5, seed=17):
            counted = sort_tuples(relation.tuples, strategy="counting")
            compared = sort_tuples(relation.tuples, strategy="comparison")
            assert [id(t) for t in counted] == [id(t) for t in compared]

    def test_cache_stats_identical(self):
        """Both sweep paths valuate through the same batch: the memo's
        observable counters must agree."""
        r, s = generate_pair(600, n_facts=3, seed=7)

        def run(fused):
            clear_valuation_cache()
            result = tp_set_operation("union", r, s, fused=fused)
            return result, valuation_cache_stats()

        fused, fused_stats = run(True)
        paper, paper_stats = run(False)
        assert_bit_identical(fused, paper)
        assert fused_stats == paper_stats

    @pytest.mark.parametrize("kind", JOIN_KINDS)
    def test_join_workload_matches_naive(self, kind):
        r, s = generate_join_pair(600, n_keys=9, seed=2)
        kernel = tp_join_operation(kind, r, s, ("key",))
        naive = naive_join_operation(kind, r, s, ("key",))
        assert kernel.schema.attributes == naive.schema.attributes
        assert [
            (t.fact, t.interval, str(t.lineage), round(t.p, 9))
            for t in sorted(kernel, key=null_safe_key)
        ] == [
            (t.fact, t.interval, str(t.lineage), round(t.p, 9))
            for t in sorted(naive, key=null_safe_key)
        ]

    def test_dispatch(self, rel_a, rel_c):
        assert_bit_identical(tp_set_operation("union", rel_a, rel_c), tp_union(rel_a, rel_c))

    def test_dispatch_unknown(self, rel_a, rel_c):
        with pytest.raises(UnsupportedOperationError):
            tp_set_operation("xor", rel_a, rel_c)


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
def test_incremental_refresh_equals_recompute(query, maker):
    r0, s0 = maker()
    ast = parse_query(query)
    stores = {
        "r": SegmentStore.from_relation(r0),
        "s": SegmentStore.from_relation(s0),
    }
    view = MaterializedView("v", ast, stores, policy="manual")
    recompute = MaterializedView(
        "w", ast, stores, policy="manual", strategy="RECOMPUTE"
    )
    for round_no in range(3):
        _mutate(stores["r"], seed=round_no)
        view.refresh()
        recompute.refresh()
        incremental = sorted(view.relation(), key=null_safe_key)
        reference = sorted(recompute.relation(), key=null_safe_key)
        assert len(incremental) == len(reference)
        for mine, theirs in zip(incremental, reference):
            assert mine.fact == theirs.fact
            assert mine.interval == theirs.interval
            assert mine.lineage is theirs.lineage
            assert mine.p == theirs.p


# ----------------------------------------------------------------------
# whole-database queries
# ----------------------------------------------------------------------
class TestDatabase:
    QUERIES = (
        (
            "r - (r & s)",
            lambda: generate_pair(400, n_facts=4, seed=9),
            lambda r, s: tp_set_operation(
                "except", r, tp_set_operation("intersect", r, s, materialize=False)
            ),
        ),
        (
            "r FULL OUTER JOIN s ON key",
            lambda: generate_join_pair(400, n_keys=5, seed=9),
            lambda r, s: tp_join_operation("full_outer", r, s, ("key",)),
        ),
    )

    @pytest.mark.parametrize("level", ("off", "safe"))
    @pytest.mark.parametrize(
        "query,maker,direct", QUERIES, ids=["setops", "full_outer"]
    )
    def test_query_equals_operators(self, query, maker, direct, level):
        r, s = maker()
        r, s = r.rename("r"), s.rename("s")
        db = TPDatabase()
        db.register(r)
        db.register(s)
        result = sorted(db.query(query, optimize=level), key=null_safe_key)
        reference = sorted(direct(r, s), key=null_safe_key)
        assert [(t.fact, t.interval, t.p) for t in result] == [
            (t.fact, t.interval, t.p) for t in reference
        ]
        assert all(t.lineage is u.lineage for t, u in zip(result, reference))

    @pytest.mark.parametrize("mode", [{"columnar": True}, {"parallel": 2}])
    def test_no_execution_mode_keyword(self, mode):
        with pytest.raises(TypeError):
            TPDatabase(**mode)

    def test_cli_has_no_execution_mode_flag(self):
        options = {
            option
            for parser in (build_parser(), serve_parser())
            for action in parser._actions
            for option in action.option_strings
        }
        assert not options & {"--parallel", "--workers", "--columnar"}

    def test_the_package_reads_no_environment(self):
        """No module under ``src/repro`` consults ``os.environ``: every
        option is an argument, so two databases in one process cannot
        disagree with their environment."""
        package = Path(repro.__file__).parent
        readers = [p for p in package.rglob("*.py") if "os.environ" in p.read_text()]
        assert readers == []

    def test_package_runs_on_the_standard_library(self):
        """Importing the package and running a query pulls in no NumPy."""
        script = (
            "import sys\n"
            "import repro, repro.db, repro.serve, repro.store\n"
            "from repro.datasets import generate_pair\n"
            "r, s = generate_pair(200, n_facts=2, seed=1)\n"
            "repro.tp_union(r, s)\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": source_root},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
