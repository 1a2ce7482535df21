"""Smoke test of the benchmark itself (collected by the tier-1 pytest run).

Runs all four workloads at ``--scale 0.02``, untraced and traced, through
the same command line the driver uses, and checks the contract of
``BENCHMARK.json``: every declared metric is printed with its unit and a
finite value, the gates can fail, fingerprints are seed-stable, and no
process or directory outlives a run — also after an injected failure.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from benchmarks.tpbench import gen

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks" / "tpbench" / "run.py")]
SMOKE = ["--scale", "0.02", "--seconds", "0.3", "--seed", "11"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


NORMAL = [(workload, trace, None) for workload in gen.WORKLOADS for trace in (0, 1)]
BROKEN_ORACLE = [(workload, 0, "oracle") for workload in gen.WORKLOADS]
CRASHED = [("serve_mixed", 0, "crash"), ("delta_views", 0, "crash")]


def run(job) -> subprocess.CompletedProcess:
    workload, trace, inject = job
    return subprocess.run(
        [*RUN, "--workload", workload, "--trace", str(trace), *SMOKE,
         *(("--inject", inject) if inject else ())],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    """Every run of this module, made once, two at a time (``nproc``)."""
    jobs = NORMAL + BROKEN_ORACLE + CRASHED
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(run, jobs)))


def leftovers() -> list[str]:
    """Work directories and server processes a run left behind."""
    found = [str(p) for p in (ROOT / ".tpbench_work").glob("*")]
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            text = cmdline.read_bytes().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # the process ended while we were looking
        if ".tpbench_work" in text:
            found.append(text)
    return found


def test_benchmark_json_is_within_the_contract():
    declared = spec()
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert [w["name"] for w in declared["workloads"]] == list(gen.WORKLOADS)
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in declared[group]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in declared["end_to_end"])
    setup = [e for e in declared["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_all_workloads_print_every_declared_metric(runs):
    declared = spec()
    for job in NORMAL:
        workload, trace, _inject = job
        process = runs[job]
        assert process.returncode == 0, (job, process.stderr[-2000:])
        assert "correctness gates passed" in process.stdout
        result = json.loads(process.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        group = declared["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {entry["name"] for entry in group}
        for entry in group:
            metric = result["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert math.isfinite(metric["value"])
            if not trace:
                assert metric["value"] > 0, (job, entry["name"])


def test_fingerprints_are_seed_stable(runs):
    for workload in gen.WORKLOADS:
        here = gen.fingerprint(gen.generate(workload, 11, 0.02))
        assert here == gen.fingerprint(gen.generate(workload, 11, 0.02))
        assert here != gen.fingerprint(gen.generate(workload, 12, 0.02))
        printed = runs[(workload, 0, None)].stdout.splitlines()[0]
        assert printed.endswith("sha256 " + here)  # same in another process


def test_a_broken_oracle_fails_the_run(runs):
    for job in BROKEN_ORACLE:
        process = runs[job]
        assert process.returncode != 0, job
        assert "correctness gate failed" in process.stderr
        assert '"correct"' not in process.stdout


def test_nothing_is_left_behind(runs):
    for job in CRASHED:
        assert runs[job].returncode != 0, job
        assert "injected failure" in runs[job].stderr
    assert leftovers() == []
