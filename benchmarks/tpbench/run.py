"""tpbench entry point.

One workload, as the driver runs it::

    python3 benchmarks/tpbench/run.py --workload setops_scan --seed 7 --seconds 20 --trace 0

prints every metric by name with its unit and sample count, and as the
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Without ``--workload`` it runs all four
workloads, untraced then traced, each in a fresh child process.
``compare A.json… -- B.json…`` judges two sets of saved runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __package__ in (None, ""):
    # Script mode: resolve imports from the checkout, not from this
    # directory (and never from an installed copy of the package).
    sys.path[0] = str(ROOT)
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

# The product's defaults are what is measured: no ambient engine modes.
for variable in ("REPRO_PARALLEL", "REPRO_COLUMNAR"):
    os.environ.pop(variable, None)

WORK_ROOT = ROOT / ".tpbench_work"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="tpbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every input size (smoke tests only; 1.0 is the benchmark)")
    parser.add_argument("--trace-out", help="write the traced run's spans to this JSON file")
    parser.add_argument("--out", help="also write the result object to this JSON file")
    parser.add_argument("--inject", choices=("oracle", "crash"),
                        help="test hook: break the oracle / fail inside the measured phase")
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace, spec: dict) -> int:
    from benchmarks.tpbench import gen

    if args.workload not in gen.WORKLOADS:
        print(f"tpbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        from benchmarks.tpbench.common import Context, GateFailure

        module = importlib.import_module(f"benchmarks.tpbench.{args.workload}")
    except ModuleNotFoundError as missing:
        if missing.name is None or missing.name.split(".")[0] != "repro":
            raise
        print(f"tpbench: the program under test is not in this checkout ({missing})",
              file=sys.stderr)
        return 3
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}

    # An untraced run and all it starts (probe, client threads, the
    # server child of serve_mixed) keep to one processor, so that the
    # probe sees the machine the workload sees and the scheduler does not
    # place them differently in every run; and its timings are normalised
    # against a reference kernel running beside the workload (probe.py).
    # A traced run is left alone and reports raw wall-clock.
    probe = None
    if not args.trace:
        from benchmarks.tpbench.probe import Probe

        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        probe = Probe().start()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT))
    try:
        inputs = gen.generate(args.workload, args.seed, args.scale)
        print(f"workload {args.workload} seed {args.seed} scale {args.scale:g} "
              f"inputs sha256 {gen.fingerprint(inputs)}")
        ctx = Context(
            workload=args.workload, seed=args.seed, scale=args.scale,
            seconds=args.seconds, workdir=workdir, inject=args.inject,
            trace_out=args.trace_out, inputs=inputs, probe=probe,
        )
        try:
            outcome = (module.traced if args.trace else module.untraced)(ctx)
        except GateFailure as failure:
            print(f"tpbench: correctness gate failed: {failure}", file=sys.stderr)
            return 1
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it

    unknown = set(outcome.metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    if not args.trace and set(units) - set(outcome.metrics):
        raise KeyError(f"end-to-end metrics not measured: {sorted(set(units) - set(outcome.metrics))}")
    metrics = {}
    for name, unit in units.items():
        # A layer this workload does not exercise did no work: it reads 0.
        value, measured_unit = outcome.metrics.get(name, (0.0, unit))
        assert measured_unit == unit, (name, measured_unit, unit)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:32s} {value:16.6f} {unit}")
    if probe is not None:
        print(f"machine-speed probe: {len(probe.durations)} kernels, "
              f"mean {probe.slowdown():.3f} x its quiet time")
    print("samples " + " ".join(f"{k}={v}" for k, v in sorted(outcome.samples.items())))
    print("correctness gates passed")
    result = {
        "correct": True,  # a failed gate returned above, without a result
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, **result}, handle)
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace, spec: dict) -> int:
    """Every workload in its own fresh process, untraced then traced, so
    resident memory, GC state, interned lineage and the valuation memo
    never leak from one into the next."""
    status = 0
    for workload in (entry["name"] for entry in spec["workloads"]):
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", str(args.scale),
            ]
            print(f"== {workload} --trace {trace}", flush=True)
            status = subprocess.run(command, cwd=ROOT).returncode or status
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A terminated run must still kill its server and remove its files.
    # Forked children (the program's worker pool in the traced
    # setops_scan) get the default action back: a Python-level handler
    # runs only between bytecodes, so a SIGTERM from Pool.terminate()
    # that lands just before a worker blocks on the task queue's lock is
    # never acted on, and the pool's shutdown waited for ever (once in
    # ~20 smoke runs under load).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.register_at_fork(
        after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL)
    )
    if argv[:1] == ["compare"]:
        from benchmarks.tpbench.compare import main as compare_main

        return compare_main(argv[1:], load_spec()["end_to_end"])
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload is None:
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
