"""Experiment drivers — one per figure of the paper's evaluation.

Every driver returns a :class:`~repro.bench.runner.SeriesResult` with the
same series the corresponding figure plots.  Dataset sizes default to
laptop-scale (pure Python vs. the authors' C++/PostgreSQL testbed); the
paper's original sizes are recorded in ``PAPER_SIZES``, and README.md
shows how to run the drivers.  Pass ``sizes=`` explicitly to run larger
sweeps.

Figure inventory (paper → driver):

* Fig. 7a/b/c — small synthetic, runtime vs. input size → :func:`fig7`
* Fig. 8     — large synthetic, LAWA vs. OIP           → :func:`fig8`
* Fig. 9a    — robustness vs. overlapping factor       → :func:`fig9a`
* Fig. 9b    — robustness vs. number of distinct facts → :func:`fig9b`
* Fig. 10a–c — Meteo-Swiss-like dataset                → :func:`fig10`
* Fig. 11a–c — WebKit-like dataset                     → :func:`fig11`
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..baselines.registry import algorithms_supporting, get_algorithm
from ..core.relation import TPRelation
from ..datasets.meteo import MeteoConfig, generate_meteo
from ..datasets.overlap import overlapping_factor
from ..datasets.shift import shifted_counterpart
from ..datasets.synthetic import TABLE_III_CONFIGS, generate_pair
from ..datasets.webkit import WebkitConfig, generate_webkit
from .runner import SeriesResult, SweepRunner

__all__ = [
    "PAPER_SIZES",
    "fig7",
    "fig8",
    "fig9a",
    "fig9b",
    "fig10",
    "fig11",
    "sample_relation",
]

#: The paper's sweep points, for the record.
PAPER_SIZES = {
    "fig7": [20_000 * i for i in range(1, 11)],        # 20K … 200K
    "fig8": [5_000_000 * i for i in (1, 2, 4, 6, 10)],  # 5M … 50M
    "fig9a": 30_000_000,                                # fixed 30M
    "fig9b": 60_000,                                    # fixed 60K
    "fig9b_facts": [1, 5, 10, 100, 30_000],
    "fig10": [20_000 * i for i in range(1, 11)],
    "fig11": [20_000 * i for i in range(1, 11)],
}

_DEFAULT_FIG7_SIZES = (500, 1_000, 2_000, 4_000, 8_000)
_DEFAULT_FIG8_SIZES = (20_000, 50_000, 100_000, 200_000)
_DEFAULT_FIG9A_SIZE = 20_000
_DEFAULT_FIG9B_SIZE = 6_000
_DEFAULT_FIG9B_FACTS = (1, 5, 10, 100, 3_000)
_DEFAULT_REAL_SIZES = (2_000, 4_000, 6_000, 8_000, 10_000)

_OP_TITLES = {"intersect": "Set Intersection", "except": "Set Difference", "union": "Set Union"}


# ----------------------------------------------------------------------
# Fig. 7 — small synthetic datasets, one fact, OF ≈ 0.6
# ----------------------------------------------------------------------
def fig7(
    op: str,
    *,
    sizes: Optional[Sequence[int]] = None,
    budget_seconds: float = 10.0,
    seed: int = 0,
    verbose: bool = False,
) -> SeriesResult:
    """Runtime vs. input size; all Table-II approaches supporting ``op``.

    Paper setting: single fact, overlapping factor 0.6 (equal short
    interval lengths), sizes 20K–200K.  Quadratic baselines are truncated
    by the time budget at our scale.
    """
    sizes = tuple(sizes) if sizes is not None else _DEFAULT_FIG7_SIZES
    sub = {"intersect": "7a", "except": "7b", "union": "7c"}[op]
    result = SeriesResult(
        figure=f"Fig. {sub}",
        title=f"Synthetic [{sizes[0] / 1000:g}K–{sizes[-1] / 1000:g}K] — {_OP_TITLES[op]}",
        x_label="tuples",
        op=op,
    )
    points = [
        (float(n), _synthetic_factory(n, seed))
        for n in sizes
    ]
    algorithms = algorithms_supporting(op)
    return SweepRunner(budget_seconds=budget_seconds, verbose=verbose).run(
        result, points, algorithms
    )


def _synthetic_factory(n: int, seed: int, **config):
    def factory() -> tuple[TPRelation, TPRelation]:
        """Build the synthetic pair for one sweep point."""
        return generate_pair(n, seed=seed, **config)

    return factory


# ----------------------------------------------------------------------
# Fig. 8 — larger synthetic datasets, LAWA vs OIP
# ----------------------------------------------------------------------
def fig8(
    *,
    sizes: Optional[Sequence[int]] = None,
    budget_seconds: float = 120.0,
    seed: int = 0,
    verbose: bool = False,
) -> SeriesResult:
    """Set intersection at the largest sizes; only the scalable pair."""
    sizes = tuple(sizes) if sizes is not None else _DEFAULT_FIG8_SIZES
    result = SeriesResult(
        figure="Fig. 8",
        title=f"Synthetic [{sizes[0] / 1000:g}K–{sizes[-1] / 1000:g}K] — Set Intersection (scalable approaches)",
        x_label="tuples",
        op="intersect",
    )
    points = [(float(n), _synthetic_factory(n, seed)) for n in sizes]
    algorithms = [get_algorithm("LAWA"), get_algorithm("OIP")]
    return SweepRunner(budget_seconds=budget_seconds, verbose=verbose).run(
        result, points, algorithms
    )


# ----------------------------------------------------------------------
# Fig. 9a — robustness against the overlapping factor (Table III)
# ----------------------------------------------------------------------
def fig9a(
    *,
    n_tuples: int = _DEFAULT_FIG9A_SIZE,
    budget_seconds: float = 120.0,
    seed: int = 0,
    verbose: bool = False,
) -> SeriesResult:
    """LAWA vs OIP across the Table-III interval-length configurations.

    The x axis carries the paper's nominal overlapping factors; the
    factor realized by our metric implementation is recorded per point in
    the notes (the orderings coincide).
    """
    result = SeriesResult(
        figure="Fig. 9a",
        title=f"Robustness vs overlapping factor (n={n_tuples})",
        x_label="overlap",
        op="intersect",
    )
    points = []
    for nominal, config in sorted(TABLE_III_CONFIGS.items()):
        factory = _synthetic_factory(n_tuples, seed, **config)
        r, s = factory()
        result.notes.append(
            f"nominal OF {nominal:g}: measured OF {overlapping_factor(r, s):.3f} "
            f"(R≤{config['max_length_r']}, S≤{config['max_length_s']})"
        )
        points.append((nominal, lambda pair=(r, s): pair))
    algorithms = [get_algorithm("LAWA"), get_algorithm("OIP")]
    return SweepRunner(budget_seconds=budget_seconds, verbose=verbose).run(
        result, points, algorithms
    )


# ----------------------------------------------------------------------
# Fig. 9b — robustness against the number of distinct facts
# ----------------------------------------------------------------------
def fig9b(
    *,
    n_tuples: int = _DEFAULT_FIG9B_SIZE,
    fact_counts: Optional[Sequence[int]] = None,
    budget_seconds: float = 30.0,
    seed: int = 0,
    verbose: bool = False,
) -> SeriesResult:
    """All approaches at fixed size while the fact count varies.

    Paper: 60K tuples, facts ∈ {1, 5, 10, 100, 30000} (the last equals
    half the dataset size); ours scales both proportionally.
    """
    facts = tuple(fact_counts) if fact_counts is not None else _DEFAULT_FIG9B_FACTS
    result = SeriesResult(
        figure="Fig. 9b",
        title=f"Robustness vs number of distinct facts (n={n_tuples}, ∩)",
        x_label="facts",
        op="intersect",
    )
    points = [
        (float(f), _synthetic_factory(n_tuples, seed, n_facts=f)) for f in facts
    ]
    algorithms = algorithms_supporting("intersect")
    return SweepRunner(budget_seconds=budget_seconds, verbose=verbose).run(
        result, points, algorithms
    )


# ----------------------------------------------------------------------
# Fig. 10 / Fig. 11 — real-world-like datasets
# ----------------------------------------------------------------------
def sample_relation(relation: TPRelation, n: int, seed: int = 0) -> TPRelation:
    """A random n-tuple subset (subsets preserve duplicate-freeness)."""
    if n >= len(relation):
        return relation
    rng = random.Random(seed)
    chosen = rng.sample(list(relation.tuples), n)
    return TPRelation(
        f"{relation.name}[{n}]",
        relation.schema,
        chosen,
        relation.events,
        validate=False,
    )


def _real_world_figure(
    figure: str,
    dataset_name: str,
    base: TPRelation,
    counterpart: TPRelation,
    op: str,
    sizes: Sequence[int],
    budget_seconds: float,
    seed: int,
    verbose: bool,
) -> SeriesResult:
    sub = {"intersect": "a", "except": "b", "union": "c"}[op]
    result = SeriesResult(
        figure=f"Fig. {figure}{sub}",
        title=f"{dataset_name} — {_OP_TITLES[op]}",
        x_label="tuples",
        op=op,
    )

    def factory_for(n: int):
        """Bind one sweep size to a sampled-relation factory."""

        def factory() -> tuple[TPRelation, TPRelation]:
            """Sample both sides of the pair at size ``n``."""
            return (
                sample_relation(base, n, seed),
                sample_relation(counterpart, n, seed + 1),
            )

        return factory

    points = [(float(n), factory_for(n)) for n in sizes]
    algorithms = algorithms_supporting(op)
    return SweepRunner(budget_seconds=budget_seconds, verbose=verbose).run(
        result, points, algorithms
    )


def fig10(
    op: str,
    *,
    sizes: Optional[Sequence[int]] = None,
    budget_seconds: float = 10.0,
    seed: int = 0,
    verbose: bool = False,
) -> SeriesResult:
    """Meteo-Swiss-like sweep: random subsets vs shifted counterpart."""
    sizes = tuple(sizes) if sizes is not None else _DEFAULT_REAL_SIZES
    base = generate_meteo(config=MeteoConfig(max(sizes), seed=seed))
    counterpart = shifted_counterpart(base, seed=seed + 1)
    return _real_world_figure(
        "10", "Meteo Swiss (simulated)", base, counterpart, op, sizes,
        budget_seconds, seed, verbose,
    )


def fig11(
    op: str,
    *,
    sizes: Optional[Sequence[int]] = None,
    budget_seconds: float = 10.0,
    seed: int = 0,
    verbose: bool = False,
) -> SeriesResult:
    """WebKit-like sweep: random subsets vs shifted counterpart."""
    sizes = tuple(sizes) if sizes is not None else _DEFAULT_REAL_SIZES
    base = generate_webkit(config=WebkitConfig(max(sizes), seed=seed))
    counterpart = shifted_counterpart(base, seed=seed + 1)
    return _real_world_figure(
        "11", "WebKit (simulated)", base, counterpart, op, sizes,
        budget_seconds, seed, verbose,
    )
