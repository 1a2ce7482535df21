"""Ablation: materialized vs streaming (constant-space) set operations.

Section VI-B claims constant space for the operator pipeline; the
streaming variants realize it.  Both sides run the same kernel,
``repro.core.setops.sweep_chunks``: the in-memory operators hand it one
chunk per side, the streams one tuple per chunk through their order
check.  The throughput difference is the cost of that per-tuple
plumbing (a checked generator, a 1-tuple per row, a flush and a pull
per input tuple), not of the algorithm.
"""

from __future__ import annotations

import pytest

from repro.algebra import stream_except, stream_intersect, stream_union
from repro.core.setops import tp_except, tp_intersect, tp_union
from repro.core.sorting import sort_tuples

_BATCH = {"union": tp_union, "intersect": tp_intersect, "except": tp_except}
_STREAM = {
    "union": stream_union,
    "intersect": stream_intersect,
    "except": stream_except,
}


@pytest.mark.parametrize("op", sorted(_BATCH))
def test_batch_operator(benchmark, op, synthetic_small):
    benchmark.group = f"streaming-{op}"
    r, s = synthetic_small
    result = benchmark(lambda: _BATCH[op](r, s, materialize=False))
    assert len(result) > 0


@pytest.mark.parametrize("op", sorted(_STREAM))
def test_stream_operator(benchmark, op, synthetic_small):
    benchmark.group = f"streaming-{op}"
    r, s = synthetic_small
    r_sorted = sort_tuples(r.tuples)
    s_sorted = sort_tuples(s.tuples)

    def drain():
        return sum(1 for _ in _STREAM[op](iter(r_sorted), iter(s_sorted)))

    count = benchmark(drain)
    assert count > 0
