"""Ablations for the Section VI-B complexity claims.

* LAWA's cost per output row must not grow with the input (the
  O(n log n) claim, Proposition 1: linear past the sort), for all three
  operations — counted in calls, not timed.
* The two sorting strategies of the pipeline's first stage.
* Probability materialization cost (the Corollary-1 linear valuation).
* The LAWA sweep in isolation (windows only, no output construction).
"""

from __future__ import annotations

import pytest

from repro.baselines import get_algorithm
from repro.core.lawa import LawaSweep
from repro.core.sorting import sort_tuples
from repro.core.setops import tp_intersect
from repro.datasets import generate_pair
from repro.prob.valuation import clear_valuation_cache

from tests.test_hot_path_budget import count_calls


@pytest.mark.parametrize("op", ["intersect", "union", "except"])
def test_lawa_subquadratic_growth(op):
    """4× the input costs the same number of calls per output row.

    Past the sort, every window is filtered, concatenated and built in
    O(1) (Section VI-B), and "union/difference runtimes are similar to
    intersection": the interpreter-level calls per output row — Python
    and C functions alike, counted by a profile hook — must agree within
    5 % between 4 000 and 16 000 input tuples for all three operations.
    A count, not a clock: it repeats exactly, whatever else the machine
    and the collector are doing (so the sizes are not ``scaled``).
    """
    algorithm = get_algorithm("LAWA")

    def calls_per_row(n: int) -> float:
        r, s = generate_pair(n, seed=0)
        clear_valuation_cache()
        calls, out = count_calls(lambda: algorithm.compute(op, r, s))
        return sum(calls.values()) / len(out)

    small, large = calls_per_row(4_000), calls_per_row(16_000)
    assert abs(large - small) / small <= 0.05, (
        f"{op}: {small:.2f} calls per output row at n, {large:.2f} at 4n "
        "— not linear past the sort"
    )


@pytest.mark.parametrize("op", ["union", "intersect", "except"])
def test_lawa_set_operation(benchmark, op, synthetic_medium):
    """One full LAWA set operation over the medium synthetic pair."""
    benchmark.group = f"ablation-lawa-{op}"
    r, s = synthetic_medium
    algorithm = get_algorithm("LAWA")
    result = benchmark.pedantic(
        lambda: algorithm.compute(op, r, s), rounds=2, iterations=1
    )
    assert len(result) > 0


@pytest.mark.parametrize("strategy", ["comparison", "counting"])
def test_sort_strategies(benchmark, strategy, synthetic_medium):
    benchmark.group = "ablation-sorting"
    r, _ = synthetic_medium
    tuples = list(r.tuples)
    ordered = benchmark(lambda: sort_tuples(tuples, strategy=strategy))
    assert len(ordered) == len(tuples)


@pytest.mark.parametrize("materialize", [True, False])
def test_materialization_share(benchmark, materialize, synthetic_small):
    """With vs without the Corollary-1 probability valuation."""
    benchmark.group = "ablation-materialization"
    r, s = synthetic_small
    result = benchmark(lambda: tp_intersect(r, s, materialize=materialize))
    assert (result.tuples[0].p is not None) == materialize


def test_window_production_only(benchmark, synthetic_small):
    """The raw LAWA sweep: windows per second, no filtering or output."""
    benchmark.group = "ablation-sweep"
    r, s = synthetic_small
    r_sorted = sort_tuples(r.tuples)
    s_sorted = sort_tuples(s.tuples)

    def sweep_all():
        sweep = LawaSweep(r_sorted, s_sorted)
        while sweep.advance() is not None:
            pass
        return sweep.windows_produced

    windows = benchmark(sweep_all)
    fd = len(r.facts() | s.facts())
    assert windows <= r.endpoint_count() + s.endpoint_count() - fd
