"""The Shannon walk equals restriction-based Shannon expansion, bit for bit.

``prob.shannon`` values a formula by one walk over its operand tree: the
cofactor step does what ``restrict`` and the constructors do, without
building a node (DESIGN.md §6.3).  The oracle below is the expansion it
replaced — ``restrict`` interns each cofactor, ``variable_occurrences``
picks the pivot, one-occurrence subformulas factorize — and for any
formula, raw unflattened ``And`` / ``Or`` nodes, ``Not(Not(·))`` and ⊤/⊥
children included, both must give the same float.  The walk builds no
node, and a window over more repeated variables than the batch values
exactly is still left to the batch.  The batch values every formula by
the same walk, over its nodes in place, and keeps the float order of
the reference walks: ``exact_1of._prob`` on one-occurrence formulas,
the expansion on the rest.
"""

from __future__ import annotations

import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TPRelation
from repro.core.setops import multi_union, tp_intersect, tp_union
from repro.lineage.formula import (
    FALSE,
    TRUE,
    And,
    Bottom,
    Lineage,
    Not,
    Or,
    Top,
    Var,
    intern_stats,
    land,
    lnot,
    lor,
    restrict,
    variable_occurrences,
)
from repro.lineage.onef import check_one_occurrence_form, is_one_occurrence_form
from repro.prob.exact_1of import probability_1of
from repro.prob.shannon import operand_tree, probability_shannon, tree_probability
from repro.prob.valuation import (
    ProbabilityOptions,
    clear_valuation_cache,
    probability,
    probability_batch,
    valuation_cache_stats,
)

NAMES = ("a", "b", "c", "d")


def oracle(node: Lineage, probabilities: dict, memo: dict) -> float:
    """Shannon expansion over interned cofactors, pivot on the most
    frequent repeated variable, ties to the first in leaf order."""
    if isinstance(node, Top):
        return 1.0
    if isinstance(node, Bottom):
        return 0.0
    if isinstance(node, Var):
        return probabilities[node.name]
    if node in memo:
        return memo[node]
    if isinstance(node, Not):
        value = memo[node] = 1.0 - oracle(node.child, probabilities, memo)
        return value
    occurrences = variable_occurrences(node)
    repeated = [name for name, count in occurrences.items() if count > 1]
    if not repeated:
        value = memo[node] = factorized(node, probabilities)
        return value
    pivot = max(repeated, key=lambda name: occurrences[name])
    p = probabilities[pivot]
    high = oracle(restrict(node, pivot, True), probabilities, memo)
    low = oracle(restrict(node, pivot, False), probabilities, memo)
    value = memo[node] = p * high + (1.0 - p) * low
    return value


def factorized(node: Lineage, probabilities: dict) -> float:
    if isinstance(node, Var):
        return probabilities[node.name]
    if isinstance(node, Not):
        return 1.0 - factorized(node.child, probabilities)
    if isinstance(node, And):
        product = 1.0
        for child in node.children:
            product *= factorized(child, probabilities)
        return product
    if isinstance(node, Or):
        complement = 1.0
        for child in node.children:
            complement *= 1.0 - factorized(child, probabilities)
        return 1.0 - complement
    return 1.0 if isinstance(node, Top) else 0.0


def grow(children):
    parts = st.lists(children, min_size=1, max_size=4).map(tuple)
    return st.one_of(
        children.map(Not),  # raw: over ⊤, ⊥ or another Not too
        parts.map(And),  # raw: unflattened, one child, ⊤/⊥ children
        parts.map(Or),
        parts.map(lambda ps: land(*ps)),
        parts.map(lambda ps: lor(*ps)),
        children.map(lnot),
        children.map(lambda child: Not(Not(child))),
    )


FORMULAS = st.recursive(
    st.sampled_from([*map(Var, NAMES), TRUE, FALSE]), grow, max_leaves=14
)
PROBABILITIES = st.fixed_dictionaries(
    {name: st.integers(1, 1000).map(lambda k: k / 1000) for name in NAMES}
)


@settings(max_examples=400, deadline=None)
@given(FORMULAS, PROBABILITIES)
def test_the_walk_equals_the_restrict_oracle_bit_for_bit(formula, probabilities):
    expected = oracle(formula, probabilities, {})
    assert repr(probability_shannon(formula, probabilities)) == repr(expected)
    walked = tree_probability(operand_tree(formula), probabilities, float("inf"))
    assert repr(walked) == repr(expected)


@settings(max_examples=100, deadline=None)
@given(FORMULAS, PROBABILITIES)
def test_the_walk_builds_no_node(formula, probabilities):
    gc.collect()
    before = intern_stats()
    probability_shannon(formula, probabilities)
    assert intern_stats() == before


#: Twelve names, so that many drawn formulas are in one-occurrence form.
WIDE = tuple(f"w{i}" for i in range(12))
WIDE_FORMULAS = st.recursive(
    st.sampled_from([*map(Var, WIDE), TRUE, FALSE]), grow, max_leaves=12
)
#: Any float in (0, 1): products of three or more round differently by
#: order far more often than over thousandths.
ANY_PROBABILITIES = st.fixed_dictionaries({
    name: st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    for name in NAMES + WIDE
})


@settings(max_examples=400, deadline=None)
@given(st.one_of(FORMULAS, WIDE_FORMULAS), ANY_PROBABILITIES)
def test_the_batch_keeps_the_float_order_of_the_reference_walks(formula, events):
    """``probability_batch`` (AUTO) values a one-occurrence formula
    exactly as the independent node walk ``probability_1of`` does, and
    any other as the Shannon expansion does — at most 12 variables
    repeat, under the default limit — by ``repr``, raw unflattened
    nodes and ⊤/⊥ children included."""
    if is_one_occurrence_form(formula):
        expected = probability_1of(formula, events)
    else:
        expected = probability_shannon(formula, events)
        assert repr(expected) == repr(oracle(formula, events, {}))
    assert [repr(p) for p in probability_batch([formula, formula], events)] == [
        repr(expected)
    ] * 2
    assert repr(probability(formula, events)) == repr(expected)


def test_ties_go_to_the_first_variable_in_leaf_order():
    """``(a∨b)∧(b∨a)``: both repeat twice and the pivot is ``a``;
    expanding on ``b`` first rounds the last bit the other way."""
    a, b = Var("a"), Var("b")
    formula = And((Or((a, b)), Or((b, a))))
    probabilities = {"a": 0.4, "b": 0.444}
    assert repr(probability_shannon(formula, probabilities)) == "0.6664"
    assert repr(oracle(formula, probabilities, {})) == "0.6664"


def test_a_double_negation_collapses():
    """``x ∨ ¬(x ∨ ¬y)``: the cofactor ``x = ⊥`` is ``lnot(¬y)``, that
    is ``y`` itself, not ``¬¬y`` (``1 − (1 − 0.001)`` is not ``0.001``)."""
    x, y = Var("x"), Var("y")
    formula = Or((x, Not(Or((x, Not(y))))))
    probabilities = {"x": 0.001, "y": 0.001}
    assert repr(probability_shannon(formula, probabilities)) == "0.001999"
    assert repr(oracle(formula, probabilities, {})) == "0.001999"


def test_a_walk_over_the_limit_is_left_to_the_batch():
    """Twenty-five relations on both sides of an intersection repeat 25
    variables in one window, one past the default exact limit: the sweep
    leaves that window to the batch, whose Monte-Carlo estimate is the
    reference path's."""
    names = [f"m{i}" for i in range(25)]
    relations = [TPRelation.from_rows(n, ("k",), [("x", 0, 4, 0.5)]) for n in names]
    left = multi_union(*relations, materialize=False)
    right = multi_union(*relations, materialize=False)
    options = ProbabilityOptions(samples=300)
    clear_valuation_cache()
    (fused,) = tp_intersect(left, right, options=options)
    assert valuation_cache_stats() == {"hits": 0, "misses": 1, "swept": 0}
    (reference,) = tp_intersect(
        multi_union(*relations, materialize=False),
        multi_union(*relations, materialize=False),
        fused=False,
        options=options,
    )
    assert fused.lineage is reference.lineage
    assert len(check_one_occurrence_form(fused.lineage)) == 25
    assert repr(fused.p) == repr(reference.p)


def test_a_lower_limit_leaves_only_the_windows_over_it_to_the_batch():
    """The sweep walks up to the caller's limit: with a limit of 0,
    ``a ∪ a`` repeats one variable per window and is Monte Carlo in the
    batch, while ``a ∪ b`` repeats none and is still valued in the loop."""
    a = TPRelation.from_rows("a", ("k",), [("x", 0, 4, 0.5), ("y", 1, 3, 0.25)])
    b = TPRelation.from_rows("b", ("k",), [("x", 2, 6, 0.75)])
    options = ProbabilityOptions(exact_repeated_limit=0, samples=200, rng=random.Random(5))
    clear_valuation_cache()
    fused = [t.p for t in tp_union(a, a, options=options)]
    assert valuation_cache_stats() == {"hits": 0, "misses": 2, "swept": 0}
    options.rng = random.Random(5)
    assert fused == [t.p for t in tp_union(a, a, fused=False, options=options)]
    clear_valuation_cache()
    fused = [(t.lineage, repr(t.p)) for t in tp_union(a, b, options=options)]
    assert valuation_cache_stats() == {"hits": 0, "misses": 0, "swept": 4}
    assert fused == [(t.lineage, repr(t.p)) for t in tp_union(a, b, fused=False)]


def test_a_row_nested_deeper_than_the_walk_recurses_is_read_through_its_node():
    """A left fold of 150 unions nests one row per step: the walk reads
    the rows past its depth bound through their interned node, and the
    result still equals the reference bit for bit."""
    relations = [
        TPRelation.from_rows(f"d{i}", ("k",), [("x", i % 3, 9, 0.1 + (i % 7) / 10)])
        for i in range(150)
    ]
    fused = multi_union(*relations)
    reference = relations[0]
    for other in relations[1:]:
        reference = tp_union(reference, other, fused=False, materialize=False)
    reference = reference.materialize_probabilities()
    assert [(t.start, t.end, repr(t.p)) for t in fused] == [
        (t.start, t.end, repr(t.p)) for t in reference
    ]
    assert all(t.lineage is u.lineage for t, u in zip(fused, reference))
