"""Command-line interface: run TP set queries over relation files.

Usage::

    python -m repro.db --load a=examples/a.csv --load b=b.json \
        --query "a - b"                      # print the result table
    python -m repro.db --load a=a.csv --explain "a | a"
    python -m repro.db --load a=a.csv --query "a | a" --out result.json
    python -m repro.db --load a=a.csv --apply a=delta.csv --query "a | a"

Relations load from CSV (``.csv``) or JSON (``.json``) as written by
:mod:`repro.db.io`; the name before ``=`` is the catalog name used in
queries.  ``--apply name=delta.csv`` replays a delta file (insert and
delete rows, see :mod:`repro.store.delta`) against a loaded relation
before the query runs — the relation is converted to a mutable
:class:`~repro.store.SegmentStore` and the batch applied as one
transaction.  ``--optimize {off,safe,aggressive}`` runs
the cost-based optimizer over the query (DESIGN.md §11); prefixing the
query with ``EXPLAIN`` (or using ``--explain``) prints the chosen plan
with estimated vs. actual row counts instead of the result table::

    python -m repro.db --load a=a.csv --query "EXPLAIN a | a" --optimize safe

``--data-dir DIR`` opens a durable database (DESIGN.md §12): stores that
already live under ``DIR`` are crash-recovered before anything else
runs, relations touched by ``--apply`` persist their transactions to a
checksummed write-ahead log, and the next invocation with the same
``--data-dir`` sees them without any ``--load``.  ``--durability
{off,batch,commit}`` tunes the fsync policy (default ``commit`` when
``--data-dir`` is given)::

    python -m repro.db --data-dir ./tpdata --load a=a.csv \
        --apply a=delta.csv --query "a | a"
    python -m repro.db --data-dir ./tpdata --query "a | a"   # recovered
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..query.optimize import OPTIMIZE_LEVELS
from ..store import DURABILITY_LEVELS, load_delta
from .database import TPDatabase
from .io import load_csv, load_json, save_csv, save_json


def _split_spec(option: str, spec: str) -> tuple[str, Path]:
    name, _, path_text = spec.partition("=")
    if not path_text:
        raise SystemExit(f"{option} expects name=path, got {spec!r}")
    return name, Path(path_text)


def _load_spec(db: TPDatabase, spec: str) -> None:
    name, path = _split_spec("--load", spec)
    if path.suffix == ".json":
        relation = load_json(path)
    elif path.suffix == ".csv":
        relation = load_csv(path, name=name)
    else:
        raise SystemExit(f"unsupported relation format {path.suffix!r}")
    db.register(relation.rename(name))


def _apply_spec(db: TPDatabase, spec: str) -> None:
    name, path = _split_spec("--apply", spec)
    try:
        attributes = db.relation(name).schema.attributes
    except KeyError:
        raise SystemExit(f"--apply {spec!r}: no loaded relation named {name!r}")
    delta = load_delta(path, attributes)
    changeset = db.apply_delta(name, delta)
    print(
        f"applied {path.name} to {name}: +{len(changeset.inserted)} "
        f"-{len(changeset.deleted)} tuples (epoch {changeset.epoch})"
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser.

    Exposed as a function so the doc-consistency tests can verify that
    every flag the README documents actually exists (and vice versa).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.db",
        description="Run temporal-probabilistic set queries over relation files.",
    )
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a relation from a .csv or .json file (repeatable)",
    )
    parser.add_argument(
        "--apply",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="apply a delta CSV (insert/delete rows) to a loaded relation "
        "before the query runs (repeatable)",
    )
    parser.add_argument("--query", help="TP set query to evaluate, e.g. 'c - (a | b)'")
    parser.add_argument("--explain", help="show plan and safety analysis only")
    parser.add_argument(
        "--algorithm",
        default=None,
        help="physical algorithm: LAWA (default), NORM, TPDB, OIP, TI",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the result to this .csv or .json file instead of stdout",
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        metavar="DIR",
        help="durable database directory: stores found under DIR are "
        "crash-recovered at startup, and transactions applied in this "
        "run are persisted to a checksummed write-ahead log there",
    )
    parser.add_argument(
        "--durability",
        default=None,
        metavar="LEVEL",
        help="WAL sync policy with --data-dir: commit (default; fsync "
        "every transaction), batch (append without fsync) or off "
        "(no persistence)",
    )
    parser.add_argument(
        "--optimize",
        default="off",
        metavar="LEVEL",
        help="query optimization level: off (default), safe (cost-based "
        "lineage-identical rewrites: selection pushdown, union/intersect "
        "chain flattening (run as a left fold of the binary sweep), join "
        "reassociation) or aggressive (additionally "
        "difference fusion and operand reordering; same facts, intervals "
        "and probabilities, lineage form may differ)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.optimize not in OPTIMIZE_LEVELS:
        parser.error(
            f"--optimize must be one of {', '.join(OPTIMIZE_LEVELS)}, "
            f"got {args.optimize!r}"
        )
    if args.durability is not None and args.durability not in DURABILITY_LEVELS:
        parser.error(
            f"--durability must be one of {', '.join(DURABILITY_LEVELS)}, "
            f"got {args.durability!r}"
        )
    if args.durability is not None and args.data_dir is None:
        parser.error("--durability requires --data-dir")

    db = TPDatabase(data_dir=args.data_dir, durability=args.durability)
    try:
        for _name, report in sorted(db.recovery_reports.items()):
            print(report, file=sys.stderr)
        for spec in args.load:
            _load_spec(db, spec)
        for spec in args.apply:
            _apply_spec(db, spec)

        if args.explain:
            print(
                db.explain(
                    args.explain, algorithm=args.algorithm, optimize=args.optimize
                )
            )
            return 0
        if not args.query:
            parser.error("one of --query or --explain is required")

        result = db.query(
            args.query, algorithm=args.algorithm, optimize=args.optimize
        )
        if isinstance(result, str):  # EXPLAIN-prefixed query: print the report
            if args.out:
                parser.error(
                    "--out expects a relation result; it cannot be combined "
                    "with an EXPLAIN query"
                )
            print(result)
            return 0
        if args.out:
            out = Path(args.out)
            renamed = result.rename(out.stem)
            if out.suffix == ".json":
                save_json(renamed, out)
            elif out.suffix == ".csv":
                save_csv(renamed, out)
            else:
                raise SystemExit(f"unsupported output format {out.suffix!r}")
            print(f"wrote {len(result)} tuples to {out}")
        else:
            print(result.to_table())
        return 0
    finally:
        db.close()


if __name__ == "__main__":
    sys.exit(main())
