"""One group step for every join: the batch driver and the maintained view.

:func:`repro.algebra.join.join_group` is the only place the degenerate
layouts of DESIGN.md §8.4 collapse and the only place that decides which
key groups can emit.  The batch join runs it per join-key group; the
incremental view maintenance of :mod:`repro.store` runs it per dirty
key group.  Both must give the same tuples — same facts and intervals,
the identical interned lineage and the same probability — for every join
kind on each layout: a key-only right side, a key-only left side, both
sides key-only, and neither.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.join import (
    JOIN_KINDS,
    _group_by_key,
    group_emits,
    join_group,
    join_layout,
    tp_join_operation,
)
from repro.core.gtwindow import WINDOW_POLICIES
from repro.core.sorting import null_safe_key
from repro.query.parser import parse_query
from repro.store import MaterializedView, SegmentStore

from .strategies import tp_join_relation

#: (left attributes, left rest pool, right attributes, right rest pool).
LAYOUTS = {
    "s_key_only": (("k", "a"), ["a1", "a2"], ("k",), []),
    "r_key_only": (("k",), [], ("k", "b"), ["b1", "b2"]),
    "both_key_only": (("k",), [], ("k",), []),
    "neither": (("k", "a"), ["a1", "a2"], ("k", "b"), ["b1", "b2"]),
}
QUERY = {
    "inner": "r JOIN s ON k",
    "left_outer": "r LEFT OUTER JOIN s ON k",
    "right_outer": "r RIGHT OUTER JOIN s ON k",
    "full_outer": "r FULL OUTER JOIN s ON k",
    "anti": "r ANTI JOIN s ON k",
}
KINDS = pytest.mark.parametrize("kind", JOIN_KINDS)
SHAPES = pytest.mark.parametrize("layout", tuple(LAYOUTS))


@st.composite
def layout_pair(draw, layout: str):
    r_attrs, r_pool, s_attrs, s_pool = LAYOUTS[layout]
    r = draw(tp_join_relation("r", r_attrs, r_pool, max_facts=4, max_intervals=3))
    s = draw(tp_join_relation("s", s_attrs, s_pool, max_facts=4, max_intervals=3))
    return r, s


def assert_same_tuples(mine, theirs, *, probabilities: bool = True) -> None:
    mine = sorted(mine, key=null_safe_key)
    theirs = sorted(theirs, key=null_safe_key)
    assert [(t.fact, t.start, t.end) for t in mine] == [
        (t.fact, t.start, t.end) for t in theirs
    ]
    for a, b in zip(mine, theirs):
        assert a.lineage is b.lineage
        if probabilities:
            assert a.p == b.p


@KINDS
@SHAPES
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_steps_assemble_the_batch_join(kind, layout, data):
    r, s = data.draw(layout_pair(layout))
    join = join_layout(kind, r, s, ("k",))
    policy = WINDOW_POLICIES[kind]
    r_groups = _group_by_key(r.sorted_tuples(), join.r_key_idx)
    s_groups = _group_by_key(s.sorted_tuples(), join.s_key_idx)
    assembled = []
    for key in {**r_groups, **s_groups}:
        group_l, group_s = r_groups.get(key, ()), s_groups.get(key, ())
        built, carried = join_group(join, policy, group_l, group_s)
        if not group_emits(policy, bool(group_l), bool(group_s)):
            assert built == [] and carried == []
        assembled += built + carried
    batch = tp_join_operation(kind, r, s, ("k",), materialize=False)
    assert_same_tuples(assembled, batch, probabilities=False)


@KINDS
@SHAPES
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_view_group_steps_equal_the_batch_join(kind, layout, data):
    """Built, then after a transaction on each side that deletes a tuple
    and inserts one after the last: the view re-runs the group step over
    the dirty key groups only."""
    r, s = data.draw(layout_pair(layout))
    stores = {"r": SegmentStore.from_relation(r), "s": SegmentStore.from_relation(s)}
    view = MaterializedView("v", parse_query(QUERY[kind]), stores, policy="manual")

    def check():
        batch = tp_join_operation(
            kind, stores["r"].snapshot(), stores["s"].snapshot(), ("k",)
        )
        assert_same_tuples(view.relation(), batch)

    check()
    for name in ("r", "s"):
        store = stores[name]
        tuples = list(store.iter_sorted())
        if not tuples:
            continue
        first = tuples[data.draw(st.integers(0, len(tuples) - 1))]
        last = max(t.end for t in tuples)
        store.apply(
            deletes=[(*first.fact, first.start, first.end)],
            inserts=[(*first.fact, last + 1, last + 4, 0.5)],
        )
    view.refresh()
    check()
