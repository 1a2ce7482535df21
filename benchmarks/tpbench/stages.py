"""The traced run's decomposition of one embedded read into the layers'
public stages, one span per stage.  Imported by traced runs only.

``TPDatabase.query`` does, in order: parse → (statistics → cost-based
choice) → physical plan → execute (scan / select / sweep / join per plan
node) → batch valuation → tuple materialization.  :func:`traced_read`
makes the same public calls itself, so every boundary is timed from this
file and nothing inside ``src/`` is touched.
"""

from __future__ import annotations

import time

from repro.lineage import And, Not, Or
from repro.lineage.serialize import decode_batch, encode_batch
from repro.prob.valuation import probability_batch, valuation_cache_stats
from repro.query.ast import relation_references
from repro.query.cost import choose_plan
from repro.query.executor import execute_plan
from repro.query.parser import parse_query
from repro.query.planner import (
    JoinPlan,
    MultiSetOpPlan,
    ScanPlan,
    SelectPlan,
    SetOpPlan,
    plan_query,
)

from .common import median, ms, ratio
from .spans import Recorder

NODE_SPANS = {
    ScanPlan: "db.scan",
    SelectPlan: "core.select",
    SetOpPlan: "core.sweep",
    MultiSetOpPlan: "core.sweep",
    JoinPlan: "algebra.join",
}

#: The stages whose durations add up to one read (their parent is "read").
READ_STAGES = (
    "query.parse", "query.stats", "query.optimize", "query.plan", "db.resolve",
    "core.sort", "core.sorted", "query.execute", "prob.valuate", "core.materialize",
)

LAYERS = ("core", "prob", "query", "algebra", "store", "db", "serve")


def traced_read(rec: Recorder, db, text: str, optimize: str = "off", cold: bool = False):
    """One read, stage by stage; returns ``(result, PlanChoice or None)``.

    ``cold`` says the read is the first on freshly built relations, so
    its sort stage really sorts (span ``core.sort``) instead of finding
    the cached order (span ``core.sorted``)."""
    rec.next_op()
    choice = None
    with rec.span("read"):
        with rec.span("query.parse"):
            ast = parse_query(text)
        names = sorted(set(relation_references(ast)))
        if optimize != "off":
            with rec.span("query.stats"):
                stats = {name: db.stats_of(name) for name in names}
            with rec.span("query.optimize"):
                choice = choose_plan(ast, stats)
            ast = choice.chosen
        with rec.span("query.plan"):
            plan = plan_query(ast)
        with rec.span("db.resolve"):
            catalog = {name: db.relation(name) for name in names}
        if optimize == "off":
            # Unoptimized plans sweep whole relations, so the sweep's
            # first act is this sort; optimized plans sort inside the
            # sweep, after the pushed-down selection.
            with rec.span("core.sort" if cold else "core.sorted"):
                for relation in catalog.values():
                    relation.sorted_tuples()
        with rec.span("query.execute"):
            sizes: dict[tuple, int] = {}
            clock = [time.perf_counter()]

            def observe(path, node, result):
                # Plan nodes finish in post-order, so the time since the
                # previous node finished is this node's own work.
                now = time.perf_counter()
                name = NODE_SPANS[type(node)]
                rec.add(name, clock[0], now)
                sizes[path] = len(result)
                if name != "db.scan" and name != "core.select":
                    rec.counts[name + ".in_rows"] += sum(
                        n for p, n in sizes.items()
                        if len(p) == len(path) + 1 and p[:-1] == path
                    )
                    rec.counts[name + ".out_rows"] += len(result)
                clock[0] = time.perf_counter()

            lineage_only = execute_plan(plan, catalog, materialize=False, observe=observe)
        before = valuation_cache_stats()
        with rec.span("prob.valuate"):
            lineages = [t.lineage for t in lineage_only]
            probability_batch(lineages, lineage_only.events)
        after = valuation_cache_stats()
        rec.counts["prob.lineages"] += len(lineages)
        rec.counts["prob.memo_hits"] += after["hits"] - before["hits"]
        rec.counts["prob.memo_misses"] += after["misses"] - before["misses"]
        with rec.span("core.materialize"):
            result = lineage_only.materialize_probabilities()
    rec.counts["core.out_rows"] += len(result)
    return result, choice


def read_metrics(rec: Recorder, untraced_read_s: list[float]) -> dict:
    """Per-layer metrics of a traced replay of reads, against the
    untraced replay of the same reads."""
    durations = rec.durations()
    reads = durations["read"]
    stage_sum = sum(sum(durations.get(stage, ())) for stage in READ_STAGES)
    untraced_mean = ratio(sum(untraced_read_s), len(untraced_read_s))
    sweep_s = sum(durations.get("core.sweep", ()))
    join_s = sum(durations.get("algebra.join", ()))
    valuate_s = sum(durations.get("prob.valuate", ()))
    counts = rec.counts
    metrics = {
        "core.sort_ms": (rec.median_ms("core.sort"), "ms"),
        "core.sweep_ms": (rec.median_ms("core.sweep"), "ms"),
        "core.sweep_in_rows_per_s": (ratio(counts["core.sweep.in_rows"], sweep_s), "rows/s"),
        "core.materialize_ms": (rec.median_ms("core.materialize"), "ms"),
        "core.select_ms": (rec.median_ms("core.select"), "ms"),
        "core.out_rows": (ratio(counts["core.out_rows"], len(reads)), "rows"),
        "prob.valuate_ms": (rec.median_ms("prob.valuate"), "ms"),
        "prob.valuate_lineages_per_s": (ratio(counts["prob.lineages"], valuate_s), "1/s"),
        "prob.memo_hit_share": (
            ratio(counts["prob.memo_hits"], counts["prob.memo_hits"] + counts["prob.memo_misses"]),
            "ratio",
        ),
        "query.parse_us": (rec.median_ms("query.parse") * 1000.0, "us"),
        "query.stats_ms": (rec.median_ms("query.stats"), "ms"),
        "query.optimize_ms": (rec.median_ms("query.optimize"), "ms"),
        "query.plan_ms": (rec.median_ms("query.plan"), "ms"),
        "algebra.join_ms": (rec.median_ms("algebra.join"), "ms"),
        "algebra.join_out_rows_per_s": (ratio(counts["algebra.join.out_rows"], join_s), "rows/s"),
        "db.facade_overhead_ms": (ms(untraced_mean - ratio(stage_sum, len(reads))), "ms"),
        "trace.stage_sum_over_e2e": (ratio(ratio(stage_sum, len(reads)), untraced_mean), "ratio"),
        "trace.overhead_share": (
            ratio(ratio(sum(reads), len(reads)) - untraced_mean, untraced_mean), "ratio",
        ),
    }
    metrics.update(layer_shares(rec))
    return metrics


def layer_shares(rec: Recorder) -> dict:
    """Each layer's share of the traced operations' self time (span
    names are ``layer.stage``; the enclosing op spans are unattributed)."""
    by_layer = dict.fromkeys(LAYERS, 0.0)
    self_times = rec.self_times()
    total = sum(self_times.values())
    for name, seconds in self_times.items():
        layer = name.split(".")[0]
        if layer in by_layer:
            by_layer[layer] += seconds
    shares = {
        "share." + layer: (ratio(seconds, total), "ratio")
        for layer, seconds in by_layer.items()
    }
    # Selection is core's part of a pushed-down plan: shown on its own.
    shares["share.core_select"] = (
        ratio(self_times.get("core.select", 0.0), total), "ratio",
    )
    return shares


def lineage_metrics(result, repeats: int = 3) -> dict:
    """Micro-measures over one result's lineages: render, size, codec."""
    lineages = [t.lineage for t in result]
    render, codec = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for lineage in lineages:
            str(lineage)
        render.append(time.perf_counter() - start)
        start = time.perf_counter()
        nodes, roots = encode_batch(lineages)
        decode_batch(nodes, roots)
        codec.append(time.perf_counter() - start)
    seen: set = set()
    stack = list(lineages)
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if isinstance(node, Not):
            stack.append(node.child)
        elif isinstance(node, (And, Or)):
            stack.extend(node.children)
    return {
        "lineage.render_ms": (ms(median(render)), "ms"),
        "lineage.codec_ms": (ms(median(codec)), "ms"),
        "lineage.nodes_per_out_row": (ratio(len(seen), len(lineages)), "1/row"),
    }
