"""Shared dataset fixtures for the pytest-benchmark suite.

Datasets are generated once per session and shared across benchmarks;
sizes are laptop-scale stand-ins for the paper's sweeps (the paper's own
sizes are ``repro.bench.figures.PAPER_SIZES``; README.md shows how to
run the figure drivers).  Set the environment variable
``REPRO_BENCH_SCALE`` to a float to grow or shrink every dataset.
"""

from __future__ import annotations

import os

import pytest

from repro.datasets import (
    MeteoConfig,
    WebkitConfig,
    generate_meteo,
    generate_pair,
    generate_webkit,
    shifted_counterpart,
)

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n: int) -> int:
    return max(32, int(n * SCALE))


@pytest.fixture(scope="session")
def synthetic_small():
    """Fig. 7 regime: single fact, short intervals (nominal OF 0.6)."""
    return generate_pair(scaled(1_000), seed=0)


@pytest.fixture(scope="session")
def synthetic_medium():
    """Fig. 8 regime for the scalable approaches."""
    return generate_pair(scaled(50_000), seed=0)


@pytest.fixture(scope="session")
def meteo_pair():
    base = generate_meteo(config=MeteoConfig(scaled(5_000), seed=0))
    return base, shifted_counterpart(base, seed=1)


@pytest.fixture(scope="session")
def webkit_pair():
    base = generate_webkit(config=WebkitConfig(scaled(5_000), seed=0))
    return base, shifted_counterpart(base, seed=1)
