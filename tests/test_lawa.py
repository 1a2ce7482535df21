"""Tests for the LAWA window advancer — including the paper's Fig. 4/6
traces and the pseudocode corner cases documented in DESIGN.md §3."""

from __future__ import annotations

from hypothesis import given

from repro import LawaSweep, TPRelation, lawa_windows
from repro.core.sorting import sort_tuples

from .strategies import tp_relation_pair


def windows_of(r: TPRelation, s: TPRelation):
    return list(
        lawa_windows(sort_tuples(r.tuples), sort_tuples(s.tuples))
    )


def summary(window):
    lam_r = None if window.lam_r is None else str(window.lam_r)
    lam_s = None if window.lam_s is None else str(window.lam_s)
    return (window.fact, window.win_ts, window.win_te, lam_r, lam_s)


class TestPaperTraces:
    def test_fig4_milk_windows(self, rel_a, rel_c):
        """The three LAWA calls illustrated in Fig. 4 (left = c, right = a)."""
        c_milk = rel_c.select(product="milk")
        a_milk = rel_a.select(product="milk")
        produced = [summary(w) for w in windows_of(c_milk, a_milk)]
        assert produced == [
            (("milk",), 1, 2, "c1", None),
            (("milk",), 2, 4, "c1", "a1"),
            (("milk",), 4, 6, None, "a1"),
            (("milk",), 6, 8, "c2", "a1"),
            (("milk",), 8, 10, None, "a1"),
        ]

    def test_fig6_filter_decisions(self, rel_a, rel_c):
        """Fig. 6: which windows yield output tuples for σ(c) −Tp σ(a)."""
        c_milk = rel_c.select(product="milk")
        a_milk = rel_a.select(product="milk")
        accepted = [
            summary(w) for w in windows_of(c_milk, a_milk) if w.lam_r is not None
        ]
        assert accepted == [
            (("milk",), 1, 2, "c1", None),
            (("milk",), 2, 4, "c1", "a1"),
            (("milk",), 6, 8, "c2", "a1"),
        ]

    def test_proposition1_bound_exact_on_fig4(self, rel_a, rel_c):
        c_milk = rel_c.select(product="milk")
        a_milk = rel_a.select(product="milk")
        sweep = LawaSweep(sort_tuples(c_milk.tuples), sort_tuples(a_milk.tuples))
        while sweep.advance() is not None:
            pass
        nr = c_milk.endpoint_count()
        ns = a_milk.endpoint_count()
        assert sweep.windows_produced == nr + ns - 1  # bound met with equality


class TestCornerCases:
    """The pseudocode corrections of DESIGN.md §3, pinned."""

    def test_no_truncation_by_other_fact(self):
        # DESIGN §3, rule 3: a cursor tuple of fact f must not bound a window
        # of fact e.  Here e's single tuple spans [1,10) while f's tuple
        # starts at 5.
        r = TPRelation.from_rows("r", ("x",), [("f", 5, 6, 0.5)])
        s = TPRelation.from_rows("s", ("x",), [("e", 1, 10, 0.5)])
        produced = {summary(w) for w in windows_of(r, s)}
        assert (("e",), 1, 10, None, "s1") in produced
        assert (("f",), 5, 6, "r1", None) in produced
        assert len(produced) == 2

    def test_trailing_windows_after_left_cursor_exhausted(self):
        # DESIGN §3, rule 1: r's only tuple is split repeatedly by s after the
        # r cursor is exhausted; all five windows must be produced.
        r = TPRelation.from_rows("r", ("x",), [("f", 0, 100, 0.5)])
        s = TPRelation.from_rows(
            "s", ("x",), [("f", 10, 20, 0.5), ("f", 30, 40, 0.5)]
        )
        produced = [summary(w) for w in windows_of(r, s)]
        assert produced == [
            (("f",), 0, 10, "r1", None),
            (("f",), 10, 20, "r1", "s1"),
            (("f",), 20, 30, "r1", None),
            (("f",), 30, 40, "r1", "s2"),
            (("f",), 40, 100, "r1", None),
        ]

    def test_gap_within_fact_group(self):
        # After both valid tuples expire, the next window of the same
        # fact starts at the next start point, not at prevWinTe.
        r = TPRelation.from_rows("r", ("x",), [("f", 1, 2, 0.5), ("f", 8, 9, 0.5)])
        s = TPRelation.from_rows("s", ("x",), [("f", 8, 10, 0.5)])
        produced = [summary(w) for w in windows_of(r, s)]
        assert produced == [
            (("f",), 1, 2, "r1", None),
            (("f",), 8, 9, "r2", "s1"),
            (("f",), 9, 10, None, "s1"),
        ]

    def test_empty_inputs(self):
        empty = TPRelation.from_rows("r", ("x",), [])
        assert windows_of(empty, empty) == []

    def test_one_empty_input(self):
        r = TPRelation.from_rows("r", ("x",), [("f", 1, 3, 0.5)])
        empty = TPRelation.from_rows("s", ("x",), [])
        assert [summary(w) for w in windows_of(r, empty)] == [
            (("f",), 1, 3, "r1", None)
        ]
        assert [summary(w) for w in windows_of(empty, r)] == [
            (("f",), 1, 3, None, "r1")
        ]

    def test_adjacent_same_fact_tuples(self):
        # Duplicate-free relations may contain adjacent intervals; the
        # boundary must still split windows (different lineage).
        r = TPRelation.from_rows("r", ("x",), [("f", 1, 3, 0.5), ("f", 3, 5, 0.5)])
        s = TPRelation.from_rows("s", ("x",), [("f", 2, 4, 0.5)])
        produced = [summary(w) for w in windows_of(r, s)]
        assert produced == [
            (("f",), 1, 2, "r1", None),
            (("f",), 2, 3, "r1", "s1"),
            (("f",), 3, 4, "r2", "s1"),
            (("f",), 4, 5, "r2", None),
        ]

    def test_identical_intervals(self):
        r = TPRelation.from_rows("r", ("x",), [("f", 1, 5, 0.5)])
        s = TPRelation.from_rows("s", ("x",), [("f", 1, 5, 0.5)])
        assert [summary(w) for w in windows_of(r, s)] == [
            (("f",), 1, 5, "r1", "s1")
        ]

    def test_multiple_facts_processed_in_sorted_order(self):
        r = TPRelation.from_rows("r", ("x",), [("b", 1, 3, 0.5), ("a", 2, 4, 0.5)])
        s = TPRelation.from_rows("s", ("x",), [("c", 1, 2, 0.5)])
        facts = [w.fact for w in windows_of(r, s)]
        assert facts == [("a",), ("b",), ("c",)]


class TestSweepStateAndProperties:
    def test_exhaustion_flags(self):
        r = TPRelation.from_rows("r", ("x",), [("f", 1, 3, 0.5)])
        s = TPRelation.from_rows("s", ("x",), [("f", 5, 7, 0.5)])
        sweep = LawaSweep(sort_tuples(r.tuples), sort_tuples(s.tuples))
        assert not sweep.r_exhausted and not sweep.s_exhausted
        sweep.advance()  # [1,3) of r
        assert sweep.r_exhausted and not sweep.s_exhausted
        sweep.advance()  # [5,7) of s
        assert sweep.r_exhausted and sweep.s_exhausted
        assert sweep.advance() is None

    def test_iterator_protocol(self, rel_a, rel_c):
        sweep = LawaSweep(
            sort_tuples(rel_c.tuples), sort_tuples(rel_a.tuples)
        )
        count = sum(1 for _ in sweep)
        assert count == sweep.windows_produced

    @given(tp_relation_pair())
    def test_windows_partition_each_fact_coverage(self, pair):
        """Windows are disjoint, ordered and cover exactly the points
        where at least one input tuple is valid."""
        r, s = pair
        produced = windows_of(r, s)
        covered: dict = {}
        for w in produced:
            for t in range(w.win_ts, w.win_te):
                key = (w.fact, t)
                assert key not in covered, "windows overlap"
                covered[key] = (w.lam_r, w.lam_s)
        expected: set = set()
        for u in list(r) + list(s):
            for t in range(u.start, u.end):
                expected.add((u.fact, t))
        assert set(covered) == expected

    @given(tp_relation_pair())
    def test_window_lineages_match_validity(self, pair):
        r, s = pair
        for w in windows_of(r, s):
            for t in (w.win_ts, w.win_te - 1):
                lam_r = None
                for u in r:
                    if u.fact == w.fact and u.interval.contains_point(t):
                        lam_r = u.lineage
                lam_s = None
                for u in s:
                    if u.fact == w.fact and u.interval.contains_point(t):
                        lam_s = u.lineage
                assert w.lam_r == lam_r
                assert w.lam_s == lam_s

    @given(tp_relation_pair())
    def test_proposition1_window_bound(self, pair):
        """Prop. 1: #windows ≤ nr + ns − fd."""
        r, s = pair
        if not len(r) and not len(s):
            return
        sweep = LawaSweep(sort_tuples(r.tuples), sort_tuples(s.tuples))
        while sweep.advance() is not None:
            pass
        fd = len(r.facts() | s.facts())
        bound = r.endpoint_count() + s.endpoint_count() - fd
        assert sweep.windows_produced <= bound
