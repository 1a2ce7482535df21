"""Differential suite: a sweep decomposes along fact groups and coverage gaps.

A LAWA window never spans two facts, and windows lie inside input
intervals, so no window crosses a **coverage gap** — a time point of a
fact group crossed by no input tuple of either side.  The sweep state at
a fact boundary or at a gap is therefore the fresh-start state, and
sweeping the pieces separately must reproduce the whole sweep *bit for
bit*: same tuples in the same order, same intervals, the identical
interned lineage objects (``is``) and float-exact probabilities.  The
generalized joins have the same property per join-key group.

This locality is what the incremental view maintenance of
:mod:`repro.store` relies on when it re-sweeps only the dirty fact
groups of a relation through :func:`repro.core.setops.sweep_rows` and
:func:`repro.algebra.join.join_group` (DESIGN.md §9).  It is
attacked three ways:

* hypothesis property tests over random relation pairs, each swept
  whole, per fact group, per gap segment and per fact-selected relation;
* adversarial layouts at scale: one group per piece, pairs of groups per
  piece, and the largest group split at its coverage gaps;
* the same for all five joins, per join key, in both key orders.

The piece layouts are built by the two helpers below, whose own
properties (every tuple covered once, no cut inside a covered span) are
pinned at the end so the differentials cannot pass vacuously.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.algebra.join import (
    JOIN_KINDS,
    _group_by_key,
    join_group,
    join_layout,
    tp_join_operation,
)
from repro.core.gtwindow import WINDOW_POLICIES
from repro.core.setops import OPERATIONS, sweep_rows, tp_set_operation
from repro.core.sorting import null_safe_fact_key, null_safe_key
from repro.datasets import generate_join_pair, generate_pair
from repro.prob.valuation import probability_batch

from .strategies import tp_join_pair, tp_relation_pair

SET_OPS = tuple(OPERATIONS)
SETOP_LAYOUTS = ("whole", "fact_groups", "gap_segments", "fact_relations")
JOIN_LAYOUTS = ("key_relations", "key_groups", "reversed_key_groups")


# ----------------------------------------------------------------------
# piece layouts
# ----------------------------------------------------------------------
def fact_groups(tr, ts):
    """``(r_run, s_run)`` per fact of either side, in the sweep's fact
    order; a fact present on one side only gets an empty run on the other."""
    facts = sorted({t.fact for t in tr} | {t.fact for t in ts}, key=null_safe_fact_key)
    return [
        ([t for t in tr if t.fact == fact], [t for t in ts if t.fact == fact])
        for fact in facts
    ]


def gap_segments(r_run, s_run, max_weight=1):
    """Split one fact group at its coverage gaps.

    Walks both runs in merged start order, tracking the prefix-maximum
    end point; a start at or beyond it is a gap, and becomes a cut once
    the running segment holds ``max_weight`` tuples.
    """
    merged = sorted(
        [(t.start, 0, i) for i, t in enumerate(r_run)]
        + [(t.start, 1, i) for i, t in enumerate(s_run)]
    )
    segments = []
    current = ([], [])
    covered = None
    for start, side, i in merged:
        t = (r_run, s_run)[side][i]
        weight = len(current[0]) + len(current[1])
        if covered is not None and start >= covered and weight >= max_weight:
            segments.append(current)
            current = ([], [])
            covered = None
        current[side].append(t)
        covered = t.end if covered is None else max(covered, t.end)
    segments.append(current)
    return segments


def sweep_pieces(pieces, op):
    rows = []
    for r_piece, s_piece in pieces:
        rows.extend(sweep_rows(r_piece, s_piece, op))
    return rows


def assert_rows_identical(rows, reference) -> None:
    """Kernel tuples against relation tuples: same fact, interval and
    the identical interned lineage object, in the same order."""
    assert len(rows) == len(reference)
    for mine, theirs in zip(rows, reference):
        assert mine.fact == theirs.fact
        assert mine.interval == theirs.interval
        assert mine.lineage is theirs.lineage


def assert_bit_identical(result, reference) -> None:
    """Same tuples, same order, same interned lineage, same floats."""
    assert len(result) == len(reference)
    for mine, theirs in zip(result, reference):
        assert mine.fact == theirs.fact
        assert mine.interval == theirs.interval
        assert mine.lineage is theirs.lineage, (
            f"lineage not identity-equal: {mine.lineage} vs {theirs.lineage}"
        )
        assert mine.p == theirs.p  # float-exact, not approximate


def setop_by_layout(op, r, s, layout):
    """``r op s`` as the tuples of ``layout``'s pieces, concatenated."""
    tr, ts = r.sorted_tuples(), s.sorted_tuples()
    if layout == "whole":
        return sweep_rows(tr, ts, op)
    groups = fact_groups(tr, ts)
    if layout == "fact_groups":
        return sweep_pieces(groups, op)
    if layout == "gap_segments":
        return sweep_pieces(
            [seg for r_run, s_run in groups for seg in gap_segments(r_run, s_run)],
            op,
        )
    assert layout == "fact_relations"
    out = []
    for fact in sorted(r.facts() | s.facts(), key=null_safe_fact_key):
        (value,) = fact
        out.extend(tp_set_operation(op, r.select(fact=value), s.select(fact=value)))
    return out


def assert_setop_decomposes(op, r, s, layout) -> None:
    whole = tp_set_operation(op, r, s)
    pieces = setop_by_layout(op, r, s, layout)
    assert_rows_identical(pieces, list(whole))
    # The operator valuates its kernel tuples in one batch over the
    # pair's merged event map; the pieces' lineages valuate to the same
    # floats.
    probs = probability_batch([t.lineage for t in pieces], r.merged_events(s))
    assert list(probs) == [t.p for t in whole]


# ----------------------------------------------------------------------
# set operations
# ----------------------------------------------------------------------
class TestSetOperationsDifferential:
    @pytest.mark.parametrize("layout", SETOP_LAYOUTS)
    @pytest.mark.parametrize("op", SET_OPS)
    @settings(max_examples=25, deadline=None)
    @given(pair=tp_relation_pair())
    def test_random_pairs(self, op, layout, pair):
        r, s = pair
        assert_setop_decomposes(op, r, s, layout)

    @pytest.mark.parametrize("op", SET_OPS)
    def test_fig8_scale_multi_fact(self, op):
        r, s = generate_pair(3000, n_facts=7, seed=11)
        assert_setop_decomposes(op, r, s, "fact_groups")

    @pytest.mark.parametrize("op", SET_OPS)
    def test_single_fact_gap_split(self, op):
        """One giant group (the fig-8 layout) cut at every coverage gap."""
        r, s = generate_pair(3000, seed=7)  # n_facts=1
        ((r_run, s_run),) = fact_groups(r.sorted_tuples(), s.sorted_tuples())
        assert len(gap_segments(r_run, s_run, max_weight=200)) > 1, (
            "the single group has no coverage gap to cut at"
        )
        assert_setop_decomposes(op, r, s, "gap_segments")


class TestAdversarialPieces:
    """Explicit piece layouts at scale against the whole sweep."""

    @pytest.mark.parametrize("op", SET_OPS)
    def test_one_group_per_piece(self, op):
        r, s = generate_pair(600, n_facts=12, seed=3)
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        groups = fact_groups(tr, ts)
        assert len(groups) >= 12
        assert_rows_identical(sweep_pieces(groups, op), sweep_rows(tr, ts, op))

    @pytest.mark.parametrize("op", SET_OPS)
    def test_adjacent_groups_share_a_piece(self, op):
        """A piece may hold several whole groups: the sweep crosses the
        fact boundary inside the piece as it does inside the whole."""
        r, s = generate_pair(600, n_facts=12, seed=3)
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        groups = fact_groups(tr, ts)
        pairs = [
            (
                [t for run, _ in groups[i : i + 2] for t in run],
                [t for _, run in groups[i : i + 2] for t in run],
            )
            for i in range(0, len(groups), 2)
        ]
        assert_rows_identical(sweep_pieces(pairs, op), sweep_rows(tr, ts, op))

    @pytest.mark.parametrize("op", SET_OPS)
    def test_boundary_splits_largest_group_at_gaps(self, op):
        """Piece boundaries inside the largest group (at coverage gaps)."""
        r, s = generate_pair(900, n_facts=3, seed=5)
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        groups = fact_groups(tr, ts)
        largest = max(groups, key=lambda g: len(g[0]) + len(g[1]))
        split = gap_segments(*largest, max_weight=40)
        assert len(split) > 1, "expected gaps inside the largest group"
        pieces = []
        for group in groups:
            pieces.extend(split if group is largest else [group])
        assert_rows_identical(sweep_pieces(pieces, op), sweep_rows(tr, ts, op))


# ----------------------------------------------------------------------
# generalized joins
# ----------------------------------------------------------------------
def swept_keys(policy, r_groups, s_groups):
    """The join-key groups that can contribute, left side's keys first."""
    if policy.preserve_left and policy.preserve_right:
        return list(r_groups) + [k for k in s_groups if k not in r_groups]
    if policy.preserve_left:
        return list(r_groups)
    if policy.preserve_right:
        return list(s_groups)
    return [k for k in r_groups if k in s_groups]


def assert_join_decomposes(kind, r, s, key, layout) -> None:
    if layout == "key_relations":
        whole = tp_join_operation(kind, r, s, (key,))
        values = sorted({t.fact[0] for t in r} | {t.fact[0] for t in s})
        parts = [
            t
            for value in values
            for t in tp_join_operation(
                kind, r.select(**{key: value}), s.select(**{key: value}), (key,)
            )
        ]
        parts.sort(key=null_safe_key)
        assert_bit_identical(parts, list(whole))
        return
    layout_ = join_layout(kind, r, s, (key,))
    policy = WINDOW_POLICIES[kind]
    r_groups = _group_by_key(r.sorted_tuples(), layout_.r_key_idx)
    s_groups = _group_by_key(s.sorted_tuples(), layout_.s_key_idx)
    keys = swept_keys(policy, r_groups, s_groups)
    order = keys if layout == "key_groups" else keys[::-1]
    per_key = {
        k: join_group(layout_, policy, r_groups.get(k, ()), s_groups.get(k, ()))
        for k in order
    }
    rows = [
        t
        for k in keys
        for t in per_key[k][0] + per_key[k][1]
    ]
    rows.sort(key=null_safe_key)
    reference = list(tp_join_operation(kind, r, s, (key,), materialize=False))
    assert len(rows) == len(reference)
    for mine, theirs in zip(rows, reference):
        assert mine.fact == theirs.fact
        assert (mine.start, mine.end) == (theirs.start, theirs.end)
        assert mine.lineage is theirs.lineage


class TestJoinsDifferential:
    @pytest.mark.parametrize("layout", JOIN_LAYOUTS)
    @pytest.mark.parametrize("kind", JOIN_KINDS)
    @settings(max_examples=20, deadline=None)
    @given(pair=tp_join_pair())
    def test_random_pairs(self, kind, layout, pair):
        r, s = pair
        assert_join_decomposes(kind, r, s, "k", layout)

    @pytest.mark.parametrize("kind", JOIN_KINDS)
    def test_join_workload_scale(self, kind):
        r, s = generate_join_pair(2000, n_keys=9, seed=2)
        assert_join_decomposes(kind, r, s, "key", "key_relations")

    @pytest.mark.parametrize("kind", JOIN_KINDS)
    def test_reversed_key_order_rows_identical(self, kind):
        """Per-key group sweeps in reverse key order vs the batch join."""
        r, s = generate_join_pair(1200, n_keys=6, seed=4)
        assert_join_decomposes(kind, r, s, "key", "reversed_key_groups")

    @pytest.mark.parametrize("kind", ("left_outer", "full_outer", "anti"))
    @settings(max_examples=15, deadline=None)
    @given(pair=tp_join_pair(s_rest=False))
    def test_degenerate_layouts(self, kind, pair):
        """Key-only right side: the collapse paths, one key at a time."""
        r, s = pair
        assert_join_decomposes(kind, r, s, "k", "key_relations")

    @pytest.mark.parametrize("layout", ("key_groups", "reversed_key_groups"))
    @pytest.mark.parametrize("kind", ("left_outer", "full_outer", "anti"))
    @settings(max_examples=15, deadline=None)
    @given(pair=tp_join_pair(s_rest=False))
    def test_degenerate_layouts_group_step(self, kind, layout, pair):
        """Key-only right side: the shared group step, key by key, gives
        the batch join's tuples, carried ones included."""
        r, s = pair
        assert_join_decomposes(kind, r, s, "k", layout)


# ----------------------------------------------------------------------
# the piece layouts themselves
# ----------------------------------------------------------------------
class TestPieceLayouts:
    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair(max_facts=3, max_intervals=5))
    def test_pieces_cover_every_tuple_once_in_order(self, pair):
        r, s = pair
        tr, ts = r.sorted_tuples(), s.sorted_tuples()
        segments = [
            seg for r_run, s_run in fact_groups(tr, ts)
            for seg in gap_segments(r_run, s_run)
        ]
        assert [t for r_seg, _ in segments for t in r_seg] == tr
        assert [t for _, s_seg in segments for t in s_seg] == ts

    @settings(max_examples=40, deadline=None)
    @given(pair=tp_relation_pair(max_facts=3, max_intervals=5))
    def test_cuts_never_split_a_covered_span(self, pair):
        """Every cut inside a fact group sits on a coverage gap."""
        r, s = pair
        for r_run, s_run in fact_groups(r.sorted_tuples(), s.sorted_tuples()):
            segments = gap_segments(r_run, s_run)
            for before, after in zip(segments, segments[1:]):
                cut = min(t.start for t in after[0] + after[1])
                assert all(t.end <= cut for t in before[0] + before[1])
                crossing = [
                    t for t in r_run + s_run if t.start < cut < t.end
                ]
                assert not crossing, f"cut at {cut} splits {crossing}"
