"""Differential suite: every way of reaching one answer agrees bit for bit.

The database can answer a query from plain catalog relations or from
store-backed relations, at each optimization level, and a materialized
view can keep the answer under each refresh policy.  These are different
code paths — store snapshots and incrementally maintained statistics,
the cost-based rewrites, delta-scoped splicing — over one sweep, so they
must produce the same relation object graph: same tuples in the same
order, same intervals, float-exact probabilities and the identical
interned lineage objects (``is``, not just ``==``).  The one documented
exception is the lineage *form* under ``aggressive``, which is compared
by facts, intervals and probabilities against the unoptimized plan.
"""

from __future__ import annotations

import pytest

from repro.core.sorting import null_safe_key
from repro.datasets import generate_join_pair, generate_pair
from repro.db import TPDatabase
from repro.query import choose_plan
from repro.query.parser import parse_query

SOURCES = ("catalog", "store")
LEVELS = ("off", "safe", "aggressive")


def assert_bit_identical(result, reference) -> None:
    """Same schema, and the same tuples in the same order."""
    assert result.schema.attributes == reference.schema.attributes
    assert_same_tuples(list(result), list(reference))


def assert_same_tuples(result, reference) -> None:
    """Same tuples, same order, same interned lineage, same floats."""
    assert len(result) == len(reference)
    for mine, theirs in zip(result, reference):
        assert mine.fact == theirs.fact
        assert mine.interval == theirs.interval
        assert mine.lineage is theirs.lineage, (
            f"lineage not identity-equal: {mine.lineage} vs {theirs.lineage}"
        )
        assert mine.p == theirs.p  # float-exact, not approximate


def build(r, s, source: str) -> TPDatabase:
    db = TPDatabase()
    db.register(r.rename("r"))
    db.register(s.rename("s"))
    if source == "store":
        db.store("r")
        db.store("s")
    return db


# ----------------------------------------------------------------------
# cost-based optimizer × relation source
# ----------------------------------------------------------------------
class TestOptimizerDifferential:
    """Optimized queries over stores ≡ optimized queries over relations.

    Two guarantees (DESIGN.md §10): the cost-based *choice* does not
    depend on whether the statistics were summarized from a relation or
    maintained by a store, and executing the chosen plan is bit-identical
    across the two sources at every optimization level.
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
        (
            "((r & s) | (r - s))[fact='f2']",
            lambda: generate_pair(400, n_facts=3, seed=7),
        ),
    )

    @pytest.mark.parametrize("level", ("safe", "aggressive"))
    @pytest.mark.parametrize("query,maker", QUERIES)
    def test_chosen_plan_source_invariant(self, query, maker, level):
        r, s = maker()
        ast = parse_query(query)
        aggressive = level == "aggressive"
        choices = [
            choose_plan(ast, db._stats_catalog(ast), aggressive=aggressive)
            for db in (build(r, s, "catalog"), build(r, s, "store"))
        ]
        assert choices[0].chosen == choices[1].chosen

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("query,maker", QUERIES)
    def test_optimized_results_bit_identical(self, query, maker, level, source):
        r, s = maker()
        result = build(r, s, source).query(query, optimize=level)
        assert_bit_identical(result, build(r, s, "catalog").query(query, optimize=level))
        unoptimized = build(r, s, "catalog").query(query, optimize="off")
        mine = sorted(result, key=null_safe_key)
        theirs = sorted(unoptimized, key=null_safe_key)
        if level == "aggressive":
            assert [(t.fact, t.interval) for t in mine] == [
                (t.fact, t.interval) for t in theirs
            ]
            assert [t.p for t in mine] == pytest.approx([t.p for t in theirs])
        else:
            assert_same_tuples(mine, theirs)


# ----------------------------------------------------------------------
# materialized views × refresh policy
# ----------------------------------------------------------------------
def _mutate(db: TPDatabase, seed: int) -> None:
    """Replace every third tuple of ``r`` (from ``seed`` on, at most 20)
    by a shorter one with a new probability — one transaction."""
    tuples = list(db.store("r").iter_sorted())
    victims = tuples[seed % max(1, len(tuples)) :: 3][:20]
    db.apply(
        "r",
        inserts=[
            (*t.fact, t.start, max(t.start + 1, t.end - 1), 0.37) for t in victims
        ],
        deletes=[(*t.fact, t.start, t.end) for t in victims],
    )


class TestViewRefreshDifferential:
    """A view read under each refresh policy ≡ the query re-run over the
    stores it reads, after every transaction: ``eager`` views refresh on
    the database's commit notification, ``deferred`` ones on read, and
    ``manual`` ones on an explicit :meth:`TPDatabase.refresh`."""

    @pytest.mark.parametrize("policy", ("manual", "deferred", "eager"))
    @pytest.mark.parametrize(
        "query,maker",
        [
            ("r - (r & s)", lambda: generate_pair(800, n_facts=4, seed=9)),
            ("r | s", lambda: generate_pair(800, seed=13)),
            ("(r | s)[fact='f1'] - s", lambda: generate_pair(800, n_facts=3, seed=5)),
            (
                "r LEFT OUTER JOIN s ON key",
                lambda: generate_join_pair(800, n_keys=5, seed=9),
            ),
            (
                "r ANTI JOIN s ON key",
                lambda: generate_join_pair(800, n_keys=5, seed=21),
            ),
            (
                "r FULL OUTER JOIN s ON key",
                lambda: generate_join_pair(800, n_keys=5, seed=4),
            ),
        ],
    )
    def test_refresh_matches_requery(self, query, maker, policy):
        r, s = maker()
        db = build(r, s, "store")
        view = db.create_view("v", query, policy=policy)
        for round_no in range(3):
            _mutate(db, seed=round_no)
            assert view.is_fresh() == (policy == "eager")
            if policy == "manual":
                db.refresh("v")
            assert_same_tuples(
                sorted(view.relation(), key=null_safe_key),
                sorted(db.query(query, use_views=False), key=null_safe_key),
            )
