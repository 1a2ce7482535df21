"""Seeded input generator: plain rows, query texts and transaction scripts.

Everything the program under test receives comes from here, and nothing
here imports the program: inputs are plain tuples, strings and dicts
drawn from string-seeded ``random.Random`` streams (one per workload /
relation / client, so adding a stream never shifts another).  The same
``(workload, seed, scale)`` gives the same inputs in every process;
:func:`fingerprint` is the SHA-256 that proves it.

Relations are duplicate-free by construction (the paper's Section III
assumption): each key's intervals are laid out left to right, so two
tuples of one fact never overlap.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import random

ATTRIBUTES = ("k",)


def stream(seed: int, *parts: object) -> random.Random:
    """The independent random stream named by ``parts`` under ``seed``."""
    return random.Random("tpbench/%d/%s" % (seed, "/".join(map(str, parts))))


def fingerprint(inputs: object) -> str:
    """SHA-256 over the canonical JSON form of generated inputs."""
    text = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def key(i: int) -> str:
    return "k%04d" % i


def scaled(scale: float, n: int, floor: int) -> int:
    """``n`` at full scale, shrunk by ``--scale`` but never below ``floor``."""
    return max(floor, int(n * scale))


def zipf_cumulative(n: int, s: float) -> list[float]:
    """Cumulative Zipf(s) distribution over ranks ``0..n-1``."""
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    return list(itertools.accumulate(w / total for w in weights))


def quantile(cumulative: list[float], u: float) -> int:
    """The rank whose slice of the distribution holds ``u`` in [0, 1)."""
    return min(bisect.bisect_left(cumulative, u), len(cumulative) - 1)


def probability(rng: random.Random) -> float:
    return rng.randrange(50, 951) / 1000


def rows_for_counts(rng, counts, length, gap):
    """``(key, ts, te, p)`` rows: ``counts[i]`` consecutive intervals on
    key ``i`` with lengths in ``length`` and gaps in ``gap`` (inclusive
    ranges), shuffled so the program cannot rely on arrival order."""
    rows = []
    for i, count in enumerate(counts):
        t = rng.randrange(0, 16)
        for _ in range(count):
            t += rng.randint(*gap)
            te = t + rng.randint(*length)
            rows.append((key(i), t, te, probability(rng)))
            t = te
    rng.shuffle(rows)
    return rows


def uniform_rows(rng, n, keys, length, gap):
    base, extra = divmod(n, keys)
    counts = [base + (i < extra) for i in range(keys)]
    return rows_for_counts(rng, counts, length, gap)


def zipf_rows(rng, n, keys, s, length, gap):
    cumulative = zipf_cumulative(keys, s)
    counts = [0] * keys
    for _ in range(n):
        counts[quantile(cumulative, rng.random())] += 1
    return rows_for_counts(rng, counts, length, gap)


def append_row(rng: random.Random, frontier: dict[str, int], k: str) -> tuple:
    """A row on key ``k`` past its frontier (which moves): never a clash."""
    ts = frontier.get(k, 0) + rng.randint(0, 7)
    te = ts + rng.randint(1, 9)
    frontier[k] = te
    return (k, ts, te, probability(rng))


def frontiers(rows) -> dict[str, int]:
    """Per key, the end of its last interval: inserts past it never clash."""
    out: dict[str, int] = {}
    for k, _ts, te, _p in rows:
        if te > out.get(k, 0):
            out[k] = te
    return out


# ----------------------------------------------------------------------
# setops_scan: the paper's regime — two big relations, six full scans
# ----------------------------------------------------------------------
SETOPS_READS = ("a1 | a2", "a1 & a2", "a1 - a2", "b1 & b2", "b1 - b2", "b2 - b1")


def setops_scan_relations(seed: int, scale: float) -> dict:
    n_a, keys_a = scaled(scale, 12_000, 100), scaled(scale, 50, 4)
    n_b, keys_b = scaled(scale, 8_000, 60), scaled(scale, 30, 3)
    return {
        # Pair A: short intervals, dense overlap (Fig. 7/8 regime).
        "a1": uniform_rows(stream(seed, "setops", "a1"), n_a, keys_a, (1, 9), (0, 7)),
        "a2": uniform_rows(stream(seed, "setops", "a2"), n_a, keys_a, (1, 9), (0, 7)),
        # Pair B: long intervals against points spread over the same
        # span (Table III low-overlap regime).
        "b1": uniform_rows(stream(seed, "setops", "b1"), n_b, keys_b, (50, 200), (0, 20)),
        "b2": uniform_rows(stream(seed, "setops", "b2"), n_b, keys_b, (1, 1), (0, 268)),
    }


def setops_scan_script(seed: int, scale: float, relations: dict) -> dict:
    return {"reads": list(SETOPS_READS)}


# ----------------------------------------------------------------------
# pushdown_mix: selective queries over Zipf-skewed keys, one in twenty unselective
# ----------------------------------------------------------------------
PUSHDOWN_TEMPLATES = (
    "((r1|r2)|r3)[k='%s']",
    "(r1-r2)[k='%s']",
    "((r1&r2)-r3)[k='%s']",
    "(r1 JOIN r2 ON k)[k='%s']",
    "(r1|(r2-r3))[k='%s']",
    "((r1|r2)&(r2|r3))[k='%s']",
)
PUSHDOWN_UNSELECTIVE = ("(r1|r2)|r3", "(r1-r2)-r3")
#: One cycle is 19 selective queries and one unselective query (the two
#: forms alternate from cycle to cycle).  A twentieth, not a tenth: one
#: unselective read costs ~30 selective ones, and at a tenth the selective
#: reads would hold under a quarter of the wall-clock.
PUSHDOWN_CYCLE = 20
PUSHDOWN_CYCLES = 15
PUSHDOWN_ZIPF_S = 1.0


def pushdown_keys(scale: float) -> int:
    return scaled(scale, 300, 8)


def pushdown_mix_relations(seed: int, scale: float) -> dict:
    n, keys = scaled(scale, 15_000, 150), pushdown_keys(scale)
    return {
        name: zipf_rows(
            stream(seed, "pushdown", name), n, keys, PUSHDOWN_ZIPF_S, (1, 9), (0, 7)
        )
        for name in ("r1", "r2", "r3")
    }


def pushdown_mix_script(seed: int, scale: float, relations: dict) -> dict:
    rng = stream(seed, "pushdown", "queries")
    cumulative = zipf_cumulative(pushdown_keys(scale), PUSHDOWN_ZIPF_S)
    selective = PUSHDOWN_CYCLE - 1
    queries = []
    for cycle in range(PUSHDOWN_CYCLES):
        for slot in range(selective):
            # A stratified Zipf sample: slot j draws its key from the
            # j-th of 19 equal slices of the distribution, so every cycle
            # holds the same share of hot and cold keys whatever the
            # seed; the templates rotate through the slices.
            k = quantile(cumulative, (slot + rng.random()) / selective)
            template = PUSHDOWN_TEMPLATES[(slot + cycle) % len(PUSHDOWN_TEMPLATES)]
            queries.append({"q": template % key(k), "selective": True})
        text = PUSHDOWN_UNSELECTIVE[cycle % len(PUSHDOWN_UNSELECTIVE)]
        queries.append({"q": text, "selective": False})
    return {"queries": queries}


# ----------------------------------------------------------------------
# serve_mixed: two closed-loop clients against a real server process
# ----------------------------------------------------------------------
# Two templates read only r2/r3 (their cached results survive commits),
# two touch r1 (their entries die with every epoch the session pins).
SERVE_TEMPLATES = (
    "(r2 | r3)[k='%s']",
    "(r1 | r2)[k='%s']",
    "(r2 - r3)[k='%s']",
    "(r1 & r3)[k='%s']",
)
SERVE_CLIENTS = 2
#: Long enough that the clock, not the script, ends the measured phase.
SERVE_OPS_PER_CLIENT = 6_000
#: Every block of 20 operations holds 17 queries, 2 commits and 1 re-pin
#: (85 / 10 / 5 %) in shuffled order, so that every stretch of every
#: seed's script is the same mix.
SERVE_BLOCK = ("query",) * 17 + ("commit",) * 2 + ("begin",)
SERVE_ZIPF_S = 1.1
SERVE_COMMIT_ROWS = 5


def serve_keys(scale: float) -> int:
    return scaled(scale, 256, 8)


def serve_mixed_relations(seed: int, scale: float) -> dict:
    n, keys = scaled(scale, 6_000, 120), serve_keys(scale)
    return {
        name: zipf_rows(stream(seed, "serve", name), n, keys, 1.0, (1, 9), (0, 7))
        for name in ("r1", "r2", "r3")
    }


def serve_mixed_script(seed: int, scale: float, relations: dict) -> dict:
    keys = serve_keys(scale)
    # The query-text population, hottest first: ranks interleave the
    # templates, so the hot set holds every template on the hot keys.
    population = [
        SERVE_TEMPLATES[i % len(SERVE_TEMPLATES)] % key(i // len(SERVE_TEMPLATES))
        for i in range(keys * len(SERVE_TEMPLATES))
    ]
    cumulative = zipf_cumulative(len(population), SERVE_ZIPF_S)
    frontier = frontiers(relations["r1"])
    scripts = []
    for client in range(SERVE_CLIENTS):
        rng = stream(seed, "serve", "client", client)
        # Each client owns the keys congruent to its index, and with them
        # their time frontier: any interleaving of the two scripts is
        # valid and the final state does not depend on it.
        own = [key(i) for i in range(client, keys, SERVE_CLIENTS)]
        queries = SERVE_BLOCK.count("query")
        ops = []
        for _ in range(scaled(scale, SERVE_OPS_PER_CLIENT, 200) // len(SERVE_BLOCK)):
            block = list(SERVE_BLOCK)
            rng.shuffle(block)
            drawn = 0
            for kind in block:
                if kind == "query":
                    # Stratified like pushdown_mix: the j-th query of a
                    # block draws from the j-th of 17 equal slices of the
                    # Zipf distribution, so every block asks for the same
                    # share of hot and cold texts.
                    u = (drawn + rng.random()) / queries
                    drawn += 1
                    ops.append({"op": "query", "q": population[quantile(cumulative, u)]})
                elif kind == "commit":
                    rows = [
                        append_row(rng, frontier, rng.choice(own))
                        for _ in range(SERVE_COMMIT_ROWS)
                    ]
                    ops.append({"op": "commit", "relation": "r1", "inserts": rows})
                else:
                    ops.append({"op": "begin"})
        scripts.append(ops)
    return {"scripts": scripts, "population": population}


# ----------------------------------------------------------------------
# delta_views: small durable transactions under two eager views
# ----------------------------------------------------------------------
DELTA_VIEWS = {"v1": "r1 - r2", "v2": "r1 JOIN r2 ON k"}
#: Long enough that the clock, not the script, ends the measured phase.
DELTA_OPS = 8_000
DELTA_TXN_ROWS = 10
DELTA_INSERT_SHARE = 0.7
DELTA_READ_EVERY = 10


def delta_keys(scale: float) -> int:
    return scaled(scale, 40, 4)


def delta_views_relations(seed: int, scale: float) -> dict:
    n, keys = scaled(scale, 10_000, 200), delta_keys(scale)
    return {
        name: uniform_rows(stream(seed, "delta", name), n, keys, (1, 9), (0, 7))
        for name in ("r1", "r2")
    }


def delta_views_script(seed: int, scale: float, relations: dict) -> dict:
    keys = delta_keys(scale)
    rng = stream(seed, "delta", "script")
    live = {name: [row[:3] for row in rows] for name, rows in relations.items()}
    frontier = {name: frontiers(rows) for name, rows in relations.items()}
    names, views = sorted(relations), sorted(DELTA_VIEWS)
    ops = []
    reads = writes = 0
    for i in range(scaled(scale, DELTA_OPS, 300)):
        if i % DELTA_READ_EVERY == DELTA_READ_EVERY - 1:
            text = "%s[k='%s']" % (views[reads % len(views)], key(rng.randrange(keys)))
            ops.append({"op": "read", "q": text})
            reads += 1
            continue
        name = names[writes % len(names)]
        writes += 1
        inserts, deletes = [], []
        for _ in range(DELTA_TXN_ROWS):
            if rng.random() < DELTA_INSERT_SHARE:
                inserts.append(append_row(rng, frontier[name], key(rng.randrange(keys))))
            else:
                # Swap-remove keeps the draw O(1); rows inserted by this
                # very transaction are not yet eligible (deletes apply first).
                pool = live[name]
                j = rng.randrange(len(pool))
                pool[j], pool[-1] = pool[-1], pool[j]
                deletes.append(pool.pop())
        live[name].extend(row[:3] for row in inserts)
        ops.append({"op": "apply", "relation": name, "inserts": inserts, "deletes": deletes})
    return {"views": dict(DELTA_VIEWS), "script": ops}


#: Per workload: base rows (what set-up regenerates), then reads / scripts.
GENERATORS = {
    "setops_scan": (setops_scan_relations, setops_scan_script),
    "pushdown_mix": (pushdown_mix_relations, pushdown_mix_script),
    "serve_mixed": (serve_mixed_relations, serve_mixed_script),
    "delta_views": (delta_views_relations, delta_views_script),
}


WORKLOADS = tuple(GENERATORS)


def relations(workload: str, seed: int, scale: float = 1.0) -> dict:
    """The workload's base relations as ``{name: rows}``."""
    return GENERATORS[workload][0](seed, scale)


def generate(workload: str, seed: int, scale: float = 1.0) -> dict:
    """The workload's full inputs: base rows plus reads / scripts."""
    rows = relations(workload, seed, scale)
    return {"relations": rows, **GENERATORS[workload][1](seed, scale, rows)}
