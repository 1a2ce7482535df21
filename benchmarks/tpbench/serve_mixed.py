"""Workload ``serve_mixed``: a real ``python -m repro.serve`` child with
default flags (serial, ``--cache-size 256``, no replicas, fsync per
commit), driven by two closed-loop clients — callers that wait for each
reply — with 85 % queries, 10 % commits and 5 % re-pins, then killed
with SIGKILL and recovered.

The only workload where ``serve`` (NDJSON protocol, payload encode, the
result/plan caches, snapshot pinning, the single service thread) and the
process boundary do most of the work.  Query texts are drawn Zipf from a
population four times the result cache, so hot texts hit and the tail
misses; writes sit beside reads, so a read-path gain that taxes commits
or re-pins shows.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.db import TPDatabase
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import relation_payload

from . import gen
from .common import (
    Context,
    GateFailure,
    Outcome,
    break_oracle,
    disk_bytes,
    end_to_end,
    iqm,
    median,
    ms,
    ratio,
    reopen,
    require_equal,
    timed_setups,
    ungated,
)

SRC = Path(__file__).resolve().parents[2] / "src"
READY_TIMEOUT_S = 60.0
#: Script operations each client runs before the clock starts: the first
#: commit converts r1 to a durable store, and the caches start to fill.
WARMUP_OPS = 40
GATE_QUERIES = 32


class Server:
    """One ``python -m repro.serve`` child on a fresh data directory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.data_dir = directory / "data"
        self.log = open(directory / "server.log", "wb")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--data-dir", str(self.data_dir), "--durability", "commit"],
            stdout=subprocess.PIPE, stderr=self.log, env=env,
        )
        try:
            self.host, self.port = self._await_ready()
        except BaseException:
            self.kill()
            raise

    def _await_ready(self) -> tuple[str, int]:
        line: list[bytes] = []
        reader = threading.Thread(
            target=lambda: line.append(self.process.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(READY_TIMEOUT_S)
        text = line[0].decode() if line else ""
        if not text.startswith("serving on "):
            raise RuntimeError(f"server did not come up (said {text!r})")
        host, port = text.split()[-1].rsplit(":", 1)
        return host, int(port)

    def connect(self) -> ServeClient:
        return ServeClient(self.host, self.port)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in the server's /proc status")

    def kill(self) -> None:
        """SIGKILL and reap: the crash the recovery gate starts from."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        self.process.stdout.close()
        self.log.close()

    def dispose(self) -> None:
        self.kill()
        shutil.rmtree(self.directory, ignore_errors=True)


def builder(ctx: Context):
    """Set-up: start a server and bulk-load the relations through ``create``."""

    def build(relations: dict) -> Server:
        server = Server(ctx.scratch("server"))
        try:
            with server.connect() as client:
                for name, rows in relations.items():
                    client.create(name, gen.ATTRIBUTES, rows)
        except BaseException:
            server.kill()
            raise
        return server

    return build


class ClientLog:
    """What one closed-loop client saw."""

    def __init__(self) -> None:
        #: ``(start, end)`` per acknowledged query / commit.
        self.reads: list[tuple[float, float]] = []
        self.writes: list[tuple[float, float]] = []
        self.out_rows = 0
        self.attempted = 0
        self.failed = 0
        #: Acknowledged commits as ``(store epoch, rows)``.
        self.acked: list[tuple[int, list]] = []
        self.error: BaseException | None = None


def run_client(server, script, start_at, seconds, barrier, log, observe=None, inject=None):
    """Run ``script[start_at:]`` in a closed loop for ``seconds``.

    ``observe(op, start, end, reply)`` is the traced run's hook."""
    try:
        with server.connect() as client:
            for op in script[:start_at]:
                reply = request(client, op)
                if op["op"] == "commit":
                    log.acked.append((reply["epoch"], op["inserts"]))
            barrier.wait()
            deadline = time.perf_counter() + seconds
            for op in script[start_at:]:
                if time.perf_counter() >= deadline:
                    break
                if inject == "crash":
                    raise RuntimeError("injected failure in the measured phase")
                log.attempted += 1
                start = time.perf_counter()
                try:
                    reply = request(client, op)
                except (ServeError, OSError):
                    log.failed += 1
                    continue
                end = time.perf_counter()
                if op["op"] == "query":
                    log.reads.append((start, end))
                    log.out_rows += len(reply["relation"]["rows"])
                elif op["op"] == "commit":
                    log.writes.append((start, end))
                    log.acked.append((reply["epoch"], op["inserts"]))
                if observe is not None:
                    observe(op, start, end, reply)
    except BaseException as error:  # re-raised by drive() in the main thread
        log.error = error
        barrier.abort()


def request(client: ServeClient, op: dict) -> dict:
    if op["op"] == "query":
        return client.query(op["q"], optimize="safe")
    if op["op"] == "commit":
        return client.commit(op["relation"], inserts=op["inserts"])
    return client.begin()


def drive(ctx: Context, server: Server, seconds: float, observers=None):
    """Both clients, one thread each; returns ``(logs, (start, end))``."""
    scripts = ctx.inputs["scripts"]
    barrier = threading.Barrier(len(scripts) + 1)
    logs = [ClientLog() for _ in scripts]
    threads = [
        threading.Thread(
            target=run_client,
            args=(server, script, min(WARMUP_OPS, len(script) // 4), seconds, barrier, log),
            kwargs={"observe": observers[i] if observers else None, "inject": ctx.inject},
        )
        for i, (script, log) in enumerate(zip(scripts, logs))
    ]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    phase = (start, time.perf_counter())
    errors = [log.error for log in logs if log.error is not None]
    if errors:
        # A client that fails aborts the barrier, which can break the
        # other one's wait before it has returned: raise the cause.
        broken = threading.BrokenBarrierError
        raise next((e for e in errors if not isinstance(e, broken)), errors[0])
    return logs, phase


def gate(ctx: Context, recovered: TPDatabase, logs) -> int:
    """Every acknowledged commit survived the kill, and the recovered
    database answers like an oracle built from the initial rows plus the
    acknowledged commits.  Returns the number of lost commits."""
    relations = ctx.inputs["relations"]
    commits = sorted(entry for log in logs for entry in log.acked)
    stored = {(t.fact[0], t.start, t.end, t.p) for t in recovered.relation("r1")}
    lost = sum(
        1 for _epoch, rows in commits
        if not all(tuple(row) in stored for row in rows)
    )
    if lost:
        return lost
    expected = {tuple(row) for row in relations["r1"]}
    expected.update(tuple(row) for _epoch, rows in commits for row in rows)
    if ctx.inject == "oracle":
        expected = set(break_oracle(sorted(expected)))
    require_equal("serve_mixed recovered r1", stored, expected)

    oracle = TPDatabase()
    for name, rows in relations.items():
        oracle.create_relation(name, gen.ATTRIBUTES, rows)
        if name != "r1":  # created relations are durable only once written
            recovered.create_relation(name, gen.ATTRIBUTES, rows)
    for _epoch, rows in commits:  # store-epoch order reproduces the identifiers
        oracle.apply("r1", inserts=rows)
    rng = gen.stream(ctx.seed, "serve", "gate")
    population = ctx.inputs["population"]
    for text in rng.sample(population, min(GATE_QUERIES, len(population))):
        require_equal(
            f"serve_mixed {text!r} after recovery",
            relation_payload(recovered.query(text, optimize="safe")),
            relation_payload(oracle.query(text, optimize="safe")),
        )
    return 0


def measure(ctx: Context, server: Server, seconds: float, observers=None) -> dict:
    """Drive, read the server's counters, kill it, recover, gate."""
    try:
        logs, phase = drive(ctx, server, seconds, observers)
        with server.connect() as client:
            stats = client.stats()["stats"]
        rss = server.peak_rss_mb()
    finally:
        server.kill()
    recovered, recover_s = reopen(server.data_dir)
    try:
        live_rows = len(recovered.relation("r1"))
        on_disk = disk_bytes(server.data_dir)
        lost = gate(ctx, recovered, logs)
    finally:
        recovered.close()
    if not any(log.acked for log in logs):
        raise GateFailure("serve_mixed: no commit was acknowledged")
    # The clients wait on the server process, which shares the processor
    # with the probe and preempts its kernels: how long a kernel took is
    # not time it took from a request, so nothing is taken out.
    (wall,) = ctx.seconds_of([phase], own_time=False)
    return {
        "logs": logs, "wall": wall, "stats": stats, "rss": rss,
        "recover_s": recover_s, "lost": lost,
        "disk_bytes_per_row": ratio(on_disk, live_rows),
        "read_s": ctx.seconds_of([s for log in logs for s in log.reads], own_time=False),
        "write_s": ctx.seconds_of([s for log in logs for s in log.writes], own_time=False),
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(log.failed for log in logs) + lost,
    }


def untraced(ctx: Context) -> Outcome:
    server, setups = timed_setups(ctx, builder(ctx), Server.dispose)
    run = measure(ctx, server, ctx.seconds)
    completed = run["attempted"] - sum(log.failed for log in run["logs"])
    metrics = end_to_end(
        setup_times=ctx.seconds_of(setups, own_time=False),
        ops_per_s=ratio(completed, run["wall"]),
        read_ms_iqm=ms(iqm(run["read_s"])),
        out_rows_per_s=ratio(sum(log.out_rows for log in run["logs"]), run["wall"]),
        rss_mb=run["rss"],
    )
    return Outcome(
        run["attempted"], run["failed"], metrics,
        {"reads": len(run["read_s"]), "writes": len(run["write_s"])},
    )


#: Operations of client 0's script replayed in-process against a
#: ``QueryService`` — the same mix without sockets or a second process.
INPROC_OPS = 400
PINGS = 50


def observer(rec):
    """One client's span hook: names each request by what it turned out
    to be (``rec.add`` is a list append, safe from the client threads)."""
    after_commit = [False]

    def observe(op, start, end, reply):
        if op["op"] == "commit":
            name = "serve.commit"
            after_commit[0] = True
        elif op["op"] == "begin":
            name = "serve.begin"
        elif after_commit[0]:
            name = "serve.first_read_after_commit"
            after_commit[0] = False
        else:
            name = "serve.hit" if reply["cached"] else "serve.miss"
        rec.add(name, start, end)

    return observe


def replay_in_process(ctx: Context, rec) -> list[int]:
    """Client 0's operations through ``QueryService`` directly, then the
    reply encoded as the server would; returns the reply sizes in bytes."""
    from repro.serve import QueryService
    from repro.serve.protocol import encode_line

    db = TPDatabase()
    for name, rows in ctx.inputs["relations"].items():
        db.create_relation(name, gen.ATTRIBUTES, rows)
    service = QueryService(db, cache_size=256)
    session = service.open_session()
    sizes = []
    for op in ctx.inputs["scripts"][0][:INPROC_OPS]:
        rec.next_op()
        if op["op"] == "commit":
            service.commit(session, op["relation"], inserts=op["inserts"])
        elif op["op"] == "begin":
            service.begin(session)
        else:
            with rec.span("serve.execute"):
                response = service.execute(session, op["q"], optimize="safe")
            name = "serve.encode_hit" if response.cached else "serve.encode"
            with rec.span(name):
                line = encode_line({
                    "ok": True, "cached": response.cached, "epochs": response.epoch_key,
                    "relation": relation_payload(response.relation),
                })
            if not response.cached:
                rec.spans[-2][0] = "serve.execute_miss"
            sizes.append(len(line))
    service.close()
    return sizes


def traced(ctx: Context) -> Outcome:
    from .spans import Recorder

    build = builder(ctx)
    relations = ctx.inputs["relations"]
    base = measure(ctx, build(relations), ctx.seconds / 2)

    rec = Recorder()
    start = time.perf_counter()
    server = build(relations)
    create_s = time.perf_counter() - start
    with server.connect() as client:
        for _ in range(PINGS):
            start = time.perf_counter()
            client.ping()
            rec.add("serve.ping", start, time.perf_counter())
    run = measure(
        ctx, server, ctx.seconds / 2, [observer(rec) for _ in ctx.inputs["scripts"]]
    )
    sizes = replay_in_process(ctx, rec)
    if ctx.trace_out:
        rec.dump(ctx.trace_out)

    p50 = rec.median_ms
    results, plans = run["stats"]["results"], run["stats"]["plans"]
    per_op = lambda r: ratio(r["wall"], r["attempted"])  # noqa: E731
    miss, execute, encode = p50("serve.miss"), p50("serve.execute_miss"), p50("serve.encode")
    reads, writes = base["read_s"], base["write_s"]
    metrics = {
        **ungated(
            read_s=reads, write_s=writes, recover_s=base["recover_s"],
            disk_bytes_per_row=base["disk_bytes_per_row"],
            attempted=base["attempted"], failed=base["failed"],
        ),
        "serve.ping_ms_p50": (p50("serve.ping"), "ms"),
        "serve.hit_ms_p50": (p50("serve.hit"), "ms"),
        "serve.miss_ms_p50": (miss, "ms"),
        "serve.begin_ms_p50": (p50("serve.begin"), "ms"),
        "serve.first_read_after_commit_ms_p50": (p50("serve.first_read_after_commit"), "ms"),
        "serve.cache_hit_share": (
            ratio(results["hits"], results["hits"] + results["misses"]), "ratio",
        ),
        "serve.cache_evictions": (float(results["evictions"]), "count"),
        "serve.plan_hit_share": (ratio(plans["hits"], plans["hits"] + plans["misses"]), "ratio"),
        "serve.inproc_execute_ms_p50": (execute, "ms"),
        "serve.encode_ms": (encode, "ms"),
        "serve.resp_bytes_p50": (float(median(sizes)), "B"),
        "serve.wire_overhead_ms": (miss - execute - encode, "ms"),
        "serve.create_rows_per_s": (
            ratio(sum(len(rows) for rows in relations.values()), create_s), "rows/s",
        ),
        "trace.stage_sum_over_e2e": (ratio(p50("serve.ping") + execute + encode, miss), "ratio"),
        "trace.overhead_share": (ratio(per_op(run) - per_op(base), per_op(base)), "ratio"),
    }
    return Outcome(
        base["attempted"], base["failed"], metrics,
        {"reads": len(reads), "writes": len(writes), "traced_ops": run["attempted"]},
    )
