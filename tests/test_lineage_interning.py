"""Tests for the hash-consing layer and the batch valuation.

Covers the three contract pillars of DESIGN.md §4–§5:

* identity equality — equal constructions yield the *same object*;
* cached metadata — O(1) lookups agree with the traversal oracles;
* batch valuation — each distinct formula is valuated once per batch,
  nothing outlives the batch, and changing an events map is observed.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TPRelation, tp_except, tp_intersect, tp_union
from repro.db import TPDatabase
from repro.lineage import (
    And,
    Not,
    Or,
    Var,
    formula_size,
    intern_stats,
    is_one_occurrence_form,
    land,
    lnot,
    lor,
    parse_lineage,
    variable_occurrences,
    variables,
)
from repro.lineage import formula as formula_module
from repro.lineage.formula import TRUE, FALSE, Bottom, Top, _iter_var_names, restrict
from repro.lineage.serialize import decode_batch, encode_batch
from repro.lineage.onef import _is_one_occurrence_form_traversal
from repro.prob import (
    EventMap,
    Method,
    ProbabilityOptions,
    clear_valuation_cache,
    probability,
    probability_batch,
    valuation_cache_stats,
)
from tests.strategies import formulas, tp_relation_pair

a, b, c = Var("a"), Var("b"), Var("c")


FORMULAS = formulas(names=("a", "b", "c"), depth=4)


class TestIdentityEquality:
    def test_vars_interned(self):
        assert Var("x1") is Var("x1")
        assert Var("x1") is not Var("x2")

    def test_equal_constructions_are_identical(self):
        assert (a & b) is land(a, b)
        assert land(a, land(b, c)) is land(land(a, b), c)
        assert land(a, land(b, c)) is And((a, b, c))
        assert lor(a, lor(b, c)) is Or((a, b, c))
        assert lnot(a) is Not(a) is ~a

    def test_constants_are_singletons(self):
        assert Top() is TRUE
        assert Bottom() is FALSE

    def test_parser_returns_interned_nodes(self):
        assert parse_lineage("c1 & !(a1 | b1)") is (
            Var("c1") & ~(Var("a1") | Var("b1"))
        )

    def test_order_still_distinguishes(self):
        assert land(a, b) is not land(b, a)
        assert land(a, b) != land(b, a)

    @given(FORMULAS, FORMULAS)
    def test_syntactic_equality_iff_identity(self, f, g):
        # With interning, == (identity) must coincide with syntactic
        # equality, proxied here by the printed form.
        assert (f == g) == (str(f) == str(g))

    @given(FORMULAS)
    def test_pickle_roundtrip_reinterns(self, f):
        assert pickle.loads(pickle.dumps(f)) is f

    def test_intern_tables_release_garbage(self):
        before = intern_stats()["or"]
        lor(Var("ephemeral_l"), Var("ephemeral_r"))  # not retained
        gc.collect()
        assert intern_stats()["or"] <= before + 1


def settled_intern_stats() -> dict[str, int]:
    """Table sizes once cyclic garbage that still pins nodes is gone
    (``encode_batch``'s recursive closure is such a cycle), so a later
    automatic collection cannot shrink the tables under a test."""
    gc.collect()
    return intern_stats()


class TestInternTableLifecycle:
    """The intern tables are plain dicts of key-carrying weak references
    (DESIGN.md §4): weak semantics, one probe per lookup, and a removal
    callback that only ever deletes its *own* entry."""

    def test_nodes_are_collected_and_tables_shrink(self):
        before = settled_intern_stats()
        x, y = Var("life_x"), Var("life_y")
        nodes = [land(x, y), lor(x, y), lnot(x), land(x, lnot(y))]
        grown = intern_stats()
        assert grown["var"] == before["var"] + 2
        assert grown["and"] == before["and"] + 2
        assert grown["or"] == before["or"] + 1
        assert grown["not"] == before["not"] + 2
        del nodes, x, y  # refcounting alone must release everything
        assert intern_stats() == before

    def test_children_are_released_with_their_parent(self):
        before = settled_intern_stats()
        f = land(Var("chain_a"), lor(Var("chain_b"), lnot(Var("chain_c"))))
        assert intern_stats() != before
        del f  # the table entry (key included) must not pin the children
        assert intern_stats() == before

    def test_recreated_key_gets_a_fresh_canonical_node(self):
        x, y = Var("again_x"), Var("again_y")
        first = lor(x, y)
        ref = formula_module._INTERN_OR[(x, y)]
        assert ref() is first and ref.key == (x, y)
        del first
        assert ref() is None and (x, y) not in formula_module._INTERN_OR
        second = lor(x, y)
        assert second is Or((x, y)) is (x | y)
        assert formula_module._INTERN_OR[(x, y)] is not ref

    def test_late_callback_of_a_dead_ref_spares_the_successor(self):
        x, y = Var("late_x"), Var("late_y")
        table, drop = formula_module._INTERN_AND, formula_module._drop_and
        # A reference whose referent is gone but whose callback has not
        # run yet, still sitting in the table under the key.
        other = land(y, x)
        dead = formula_module._NodeRef(other, drop)
        dead.key = (x, y)
        del other
        assert dead() is None
        table[(x, y)] = dead
        successor = And((x, y))  # must not resurrect or trust the corpse
        assert table[(x, y)] is not dead and table[(x, y)]() is successor
        drop(dead)  # the late callback: not its entry any more
        assert table[(x, y)]() is successor
        assert land(x, y) is successor
        del successor
        assert (x, y) not in table

    def test_threads_building_one_result_meet_in_one_node_per_formula(self):
        """Four threads, switching every microsecond, build the same fresh
        ∪/∩/− results at once: a thread switch between one thread's table
        probe and its insert must not leave two nodes for one formula."""
        from tests.test_hot_path_budget import seeded_rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(5):
                r = TPRelation.from_rows(
                    f"race{round_}r", ("k",), seeded_rows(round_, n=400, keys=8)
                )
                s = TPRelation.from_rows(
                    f"race{round_}s", ("k",), seeded_rows(round_ + 7, n=400, keys=8)
                )
                start = threading.Barrier(4)
                built: list[list] = []

                def build() -> None:
                    start.wait()
                    built.append([
                        t.lineage
                        for op in (tp_union, tp_intersect, tp_except)
                        for t in op(r, s, materialize=False)
                    ])

                threads = [threading.Thread(target=build) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert len(built) == 4
                for lineages in built[1:]:
                    assert len(lineages) == len(built[0])
                    assert all(a is b for a, b in zip(lineages, built[0])), round_
        finally:
            sys.setswitchinterval(interval)

    def test_every_construction_route_meets_in_one_object(self):
        x, y, z = Var("route_x"), Var("route_y"), Var("route_z")
        assert Var("route_x") is x
        assert lnot(x) is ~x is Not(x)
        assert land(x, y) is (x & y) is And((x, y)) is And([x, y])
        assert lor(x, y) is (x | y) is Or((x, y)) is Or([x, y])
        # the kernels' direct two-child constructors (core/setops.py)
        assert And((x, Not(y))) is land(x, lnot(y)) is (x & ~y)
        # n-ary and generator arguments
        assert And((x, y, z)) is land(x, y, z) is And(v for v in (x, y, z))
        assert Or((x, y, z)) is lor(x, y, z) is Or(v for v in (x, y, z))
        nary = And((x, y, z, Not(x)))
        assert (nary.size, nary.var_total, nary.var_set, nary.is_1of) == (
            6, 4, frozenset({"route_x", "route_y", "route_z"}), False,
        )
        binary = Or((x, y))
        assert (binary.size, binary.var_total, binary.var_set, binary.is_1of) == (
            3, 2, frozenset({"route_x", "route_y"}), True,
        )

    @given(FORMULAS, FORMULAS)
    def test_codecs_reintern_to_identity(self, f, g):
        # pickle, and the dependency-ordered batch codec the WAL and
        # checkpoints ship lineage with
        assert pickle.loads(pickle.dumps((f, g))) == (f, g)
        nodes, roots = encode_batch([f, g, f])
        decoded = decode_batch(nodes, roots)
        assert len(decoded) == 3
        assert decoded[0] is f and decoded[1] is g and decoded[2] is f

    def test_decoding_after_the_originals_died_builds_fresh_nodes(self):
        before = settled_intern_stats()
        f = land(Var("wire_a"), lnot(lor(Var("wire_b"), Var("wire_c"))))
        text = str(f)
        wire = pickle.dumps(encode_batch([f]))
        del f
        assert settled_intern_stats() == before
        nodes, roots = pickle.loads(wire)
        (rebuilt,) = decode_batch(nodes, roots)
        assert str(rebuilt) == text
        assert rebuilt is parse_lineage("wire_a & !(wire_b | wire_c)")


class TestCachedMetadata:
    @given(FORMULAS)
    def test_size_matches_traversal(self, f):
        count = 0
        stack = [f]
        while stack:
            node = stack.pop()
            count += 1
            if isinstance(node, Not):
                stack.append(node.child)
            elif isinstance(node, (And, Or)):
                stack.extend(node.children)
        assert formula_size(f) == f.size == count

    @given(FORMULAS)
    def test_variables_match_traversal(self, f):
        assert variables(f) == frozenset(_iter_var_names(f))

    @given(FORMULAS)
    def test_occurrences_match_traversal(self, f):
        oracle: dict[str, int] = {}
        for name in _iter_var_names(f):
            oracle[name] = oracle.get(name, 0) + 1
        assert variable_occurrences(f) == oracle
        assert f.var_total == sum(oracle.values())

    @given(FORMULAS)
    def test_1of_flag_matches_traversal(self, f):
        assert is_one_occurrence_form(f) == _is_one_occurrence_form_traversal(f)

    @given(FORMULAS)
    def test_repeated_count_matches_occurrences(self, f):
        expected = sum(1 for n in variable_occurrences(f).values() if n > 1)
        assert f.repeated_count() == expected

    def test_occurrences_copy_is_private(self):
        f = land(a, b)
        variable_occurrences(f)["a"] = 99
        assert variable_occurrences(f) == {"a": 1, "b": 1}

    @given(FORMULAS, FORMULAS, FORMULAS)
    def test_lazy_metadata_is_the_same_metadata(self, f, g, h):
        """``var_set`` is computed on first read and ``is_1of`` without
        it (DESIGN.md §4): both must be what an eager computation
        would have stored, for every way a node comes into being."""
        shapes = [
            a, Not(a), And((a, Not(a))), Or((a, a)), And((a, Not(b))),  # leaves
            f, lnot(f), land(f, g), lor(f, g), land(f, lnot(f)),  # two children
            land(f, g, h), lor(f, g, h), lor(land(f, g), lnot(h)),  # n-ary, nested
            # The kernels' direct construction, compound operands included.
            And((f, g)), Or((f, g)), And((f, g, h)), Or((f, Not(g))),
        ]
        for node in shapes:
            names = list(_iter_var_names(node))
            assert node.var_total == len(names)
            assert node.is_1of == (node.var_total == len(set(names)))
            assert node.var_set == frozenset(names)  # first read: computed
            assert node.var_set is node.var_set  # … and stored
            assert node.is_1of == (node.var_total == len(node.var_set))
            assert pickle.loads(pickle.dumps(node)) is node

    def test_var_set_stays_unset_until_someone_reads_it(self):
        def unset(node) -> bool:
            # The slot itself, not the attribute: reading the attribute
            # would compute it.
            try:
                type(node).var_set.__get__(node)
            except AttributeError:
                return True
            return False

        x, y = Var("lazy_x"), Var("lazy_y")
        both = x & y
        less = And((x, Not(y)))
        assert both.is_1of and less.is_1of and not (x & ~x).is_1of
        assert all(unset(node) for node in (x, y, both, less, less.children[1]))
        assert both.var_set == {"lazy_x", "lazy_y"}
        # A variable child answers with its name: the parent's set is
        # stored, no base variable gets one of its own.
        assert not unset(both) and unset(x) and unset(y)
        assert unset(less)  # reading one node computes no other root
        assert restrict(both, "lazy_x", True) is y and unset(x) and unset(y)
        assert x.var_set == {"lazy_x"} and not unset(x)  # asked directly: stored
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            x.nope

    @pytest.mark.parametrize("optimize", ["off", "safe"])
    @pytest.mark.parametrize("query", ["(nv1|nv2)|nv3", "(nv1|nv2)&(nv2|nv3)"])
    def test_chained_reads_set_no_var_set_on_a_base_variable(self, query, optimize):
        """``(r1|r2)|r3`` and ``(r1|r2)&(r2|r3)``: nodes over shallow
        children decide 1OF by counting interned leaves, and Shannon's
        cofactors of the repeated ``(x∨y)∧(y∨z)`` ask no variable for a
        set, so neither read leaves a frozenset on any base tuple's
        ``Var`` (DESIGN.md §4)."""
        from tests.test_hot_path_budget import seeded_rows

        db = TPDatabase()
        for i in (1, 2, 3):
            db.create_relation(f"nv{i}", ("k",), seeded_rows(10 + i, n=600, keys=12))
        result = db.query(query, optimize=optimize)
        assert len(result) > 0
        assert any(not t.lineage.is_1of for t in result) == ("&" in query)
        slot = Var.var_set  # the slot itself: the attribute would compute it
        with_set = 0
        for i in (1, 2, 3):
            for t in db.relation(f"nv{i}"):
                try:
                    slot.__get__(t.lineage)
                except AttributeError:
                    continue
                with_set += 1
        assert with_set == 0, f"{with_set} base variables carry a var_set"


def _formula_corpus(n: int, events: EventMap) -> list:
    """``n`` distinct 1OF formulas over fresh variables, each repeated
    twice in the returned batch (first occurrence = miss, second = hit)."""
    batch = []
    for i in range(n):
        x, y, z = Var(f"cx{i}"), Var(f"cy{i}"), Var(f"cz{i}")
        events.update({f"cx{i}": 0.3, f"cy{i}": 0.6, f"cz{i}": 0.9})
        batch.append(lor(land(x, ~y), z))
    return batch + list(batch)


class TestBatchValuation:
    """Valuation is batch-scoped (DESIGN.md §5): each distinct interned
    formula is valuated once per :func:`probability_batch` call, and
    nothing outlives the call."""

    def setup_method(self):
        clear_valuation_cache()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(FORMULAS, min_size=1, max_size=12))
    def test_a_batch_misses_once_per_distinct_lineage(self, batch):
        clear_valuation_cache()
        events = EventMap({"a": 0.5, "b": 0.25, "c": 0.7})
        values = probability_batch(batch, events)
        assert values == [probability(f, events) for f in batch]
        distinct = len(set(batch))
        assert valuation_cache_stats() == {
            "hits": len(batch) - distinct, "misses": distinct, "swept": 0,
        }

    def test_eventmap_mutation_invalidates(self):
        events = EventMap({"a": 0.5, "b": 0.25})
        f = a | b
        assert probability(f, events) == pytest.approx(0.625)
        events["a"] = 0.1  # in-place value overwrite, same length
        assert probability(f, events) == pytest.approx(1 - 0.9 * 0.75)

    def test_eventmap_ior_invalidates(self):
        events = EventMap({"a": 0.5})
        assert probability(a, events) == 0.5
        events |= {"a": 0.9}  # dict.__ior__ mutates in place
        assert probability(a, events) == pytest.approx(0.9)

    def test_explicit_method_keeps_its_validation(self):
        from repro.core.errors import ValuationError

        events = EventMap({"a": 0.5})
        repeated = a & a  # not in 1OF
        assert probability_batch([repeated], events) == [0.5]  # AUTO: Shannon
        with pytest.raises(ValuationError):
            # The batch's AUTO fast paths must not mask 1OF validation.
            probability_batch([a, repeated], events, method=Method.ONE_OCCURRENCE)

    def test_eventmap_noop_probes_keep_epoch(self):
        events = EventMap({"a": 0.5})
        before = events.epoch
        assert events.setdefault("a", 0.9) == 0.5  # pure read
        events.update()
        assert events.epoch == before  # merged maps stay valid
        events.setdefault("b", 0.7)  # actual insertion
        assert events.epoch != before

    def test_mutated_merged_events_not_served_again(self):
        r = TPRelation.from_rows("r", ("x",), [("v", 1, 5, 0.5)])
        s = TPRelation.from_rows("s", ("x",), [("v", 3, 8, 0.4)])
        merged = r.merged_events(s)
        merged["r1"] = 0.999  # caller mutates the returned mapping
        fresh = r.merged_events(s)
        assert fresh is not merged
        assert fresh["r1"] == 0.5

    def test_eventmap_update_and_delete_invalidate(self):
        events = EventMap({"a": 0.5})
        assert probability(a, events) == 0.5
        events.update({"a": 0.75})
        assert probability(a, events) == 0.75
        events.pop("a")
        with pytest.raises(Exception):
            probability(a, events)

    def test_relation_event_maps_self_invalidate(self):
        r = TPRelation.from_rows("r", ("x",), [("v", 1, 5, 0.5)])
        t = r.tuples[0]
        assert r.probability_of(t) == pytest.approx(0.5)
        r.events["r1"] = 0.9
        assert r.probability_of(t) == pytest.approx(0.9)

    def test_plain_dicts_valuate_by_content(self):
        f = a & b
        assert probability(f, {"a": 0.5, "b": 0.5}) == pytest.approx(0.25)
        # Another dict with other content is read afresh.
        assert probability(f, {"a": 0.5, "b": 0.6}) == pytest.approx(0.30)

    def test_large_plain_dicts_deduplicate_within_a_batch(self):
        events = {f"v{i}": 0.5 for i in range(1000)}
        f = land(Var("v0"), Var("v1"))
        assert probability_batch([f, Var("v0"), f], events) == [0.25, 0.5, 0.25]
        assert valuation_cache_stats() == {"hits": 1, "misses": 2, "swept": 0}

    def test_explicit_monte_carlo_is_never_shared(self):
        import random

        events = EventMap({"a": 0.5})
        f = a & a
        batch = probability_batch(
            [f, f], events, method=Method.MONTE_CARLO,
            options=ProbabilityOptions(samples=200, rng=random.Random(3)),
        )
        o = ProbabilityOptions(samples=200, rng=random.Random(3))
        singles = [
            probability(f, events, method=Method.MONTE_CARLO, options=o)
            for _ in range(2)
        ]
        assert batch == singles  # two draws from one stream
        assert valuation_cache_stats() == {"hits": 0, "misses": 2, "swept": 0}

    def test_options_have_no_cache_knob(self):
        """Nothing is cached across calls, so there is nothing to tune."""
        for knob in ("cache", "cache_max_entries"):
            with pytest.raises(TypeError):
                ProbabilityOptions(**{knob: 1})

    def test_batch_deduplicates_identical_lineages(self):
        events = EventMap({"a": 0.5, "b": 0.25})
        batch = [a | b, a | b, a | b, a]
        values = probability_batch(batch, events)
        assert values == pytest.approx([0.625, 0.625, 0.625, 0.5])
        stats = valuation_cache_stats()
        assert stats["misses"] == 2  # one per distinct formula
        assert stats["hits"] == 2

    def test_missing_variable_error_not_nested(self):
        from repro.core.errors import UnknownVariableError
        from repro.prob import probability_1of

        f = lnot(lor(land(a, Var("zz")), c))
        with pytest.raises(UnknownVariableError) as err:
            probability_1of(f, {"a": 0.5, "c": 0.5})
        message = str(err.value)
        assert "'zz'" in message
        # UnknownVariableError subclasses KeyError; deep formulas must not
        # re-wrap the message once per recursion level.
        assert message.count("no probability registered") == 1

    def test_batch_keeps_seeded_monte_carlo_draws_independent(self):
        import random

        f = a & a  # repeated variable: AUTO resorts to Monte Carlo below
        events = EventMap({"a": 0.5})

        def opts():
            return ProbabilityOptions(
                exact_repeated_limit=-1, samples=500, rng=random.Random(7),
            )

        batch = probability_batch([f, f], events, options=opts())
        o = opts()
        singles = [
            probability(f, events, options=o),
            probability(f, events, options=o),
        ]
        # Two independent draws from the same stream — the batch must not
        # collapse duplicated formulas onto one correlated sample.
        assert batch == singles

    @settings(max_examples=25, deadline=None)
    @given(tp_relation_pair())
    def test_repeated_and_cold_reads_are_bit_identical(self, pair):
        r, s = pair
        first = tp_union(r, s)
        repeated = tp_union(r, s)  # first is alive: the same lineage objects
        assert len(first) == len(repeated)
        assert all(
            x.lineage is y.lineage and x.p == y.p for x, y in zip(first, repeated)
        )
        rows = [(t.fact, t.interval, str(t.lineage), t.p) for t in first]
        del first, repeated
        gc.collect()  # nothing of the earlier reads survives
        cold = tp_union(r, s)
        assert [(t.fact, t.interval, str(t.lineage), t.p) for t in cold] == rows

    def test_counters_are_exact_per_batch(self):
        """No value survives its batch: a second batch over the same
        formulas misses exactly as the first did."""
        events = EventMap()
        batch = _formula_corpus(100, events)  # 200 formulas, 100 distinct
        first = probability_batch(batch, events)
        assert valuation_cache_stats() == {"hits": 100, "misses": 100, "swept": 0}
        assert probability_batch(batch, events) == first
        assert valuation_cache_stats() == {"hits": 200, "misses": 200, "swept": 0}
        clear_valuation_cache()
        assert valuation_cache_stats() == {"hits": 0, "misses": 0, "swept": 0}

    def test_a_dropped_result_leaves_no_lineage_node_behind(self):
        r = TPRelation.from_rows(
            "r", ("x",), [("v", 1, 5, 0.5), ("v", 7, 9, 0.6), ("w", 2, 4, 0.3)]
        )
        s = TPRelation.from_rows("s", ("x",), [("v", 3, 8, 0.4), ("w", 1, 3, 0.2)])
        before = settled_intern_stats()
        result = tp_union(r, s)
        refs = [weakref.ref(t.lineage) for t in result if type(t.lineage) is not Var]
        assert refs and intern_stats() != before
        del result
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert intern_stats() == before

    def test_eventmap_mutation_invalidates_merged_with(self):
        r = TPRelation.from_rows("r", ("x",), [("v", 1, 5, 0.5)])
        s = TPRelation.from_rows("s", ("x",), [("v", 3, 8, 0.4)])
        merged = r.merged_events(s)
        assert r.merged_events(s) is merged  # cached while nothing changes
        f = lor(Var("r1"), Var("s1"))
        assert probability_batch([f], merged) == [pytest.approx(0.7)]
        for events, name in ((r.events, "r1"), (s.events, "s1")):
            events[name] = 0.9
            fresh = r.merged_events(s)
            assert fresh is not merged and fresh[name] == 0.9
            merged = fresh
        assert probability_batch([f], merged) == [pytest.approx(0.99)]
