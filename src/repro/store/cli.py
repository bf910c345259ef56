"""Implementations of the ``repro.cli store`` maintenance subcommands.

Registered by :mod:`repro.cli`; the logic lives here so the operator
surface evolves with the store format.  Opening a store lists its
directory and decodes no record.  ``stats`` reads nothing more, ``ls``
reads each record's header (its method), ``verify`` decodes everything,
and ``gc`` is the only one that deletes: ``--ttl`` ages each record by
the creation time in its header.  Each exits 0 on success, 1 when
``verify`` found corruption, 2 on a bad invocation — the same exit-code
discipline as the ``rank``/``serve`` commands.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.store.snapshot import SnapshotStore


def _open_store(args: argparse.Namespace) -> Optional[SnapshotStore]:
    root = Path(args.store_dir)
    if not root.exists():
        print("error: store directory %s does not exist" % root,
              file=sys.stderr)
        return None
    # Maintenance opens with no bounds: inspecting a store must never
    # itself evict from it.
    return SnapshotStore(root, max_bytes=None, max_records=None)


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return "%.0fs" % seconds
    if seconds < 7200:
        return "%.0fm" % (seconds / 60)
    if seconds < 172800:
        return "%.1fh" % (seconds / 3600)
    return "%.1fd" % (seconds / 86400)


def command_store_ls(args: argparse.Namespace) -> int:
    import time

    store = _open_store(args)
    if store is None:
        return 2
    listing = store.ls()
    now = time.time()
    print("snapshots (%d):" % len(listing["snapshots"]))
    for entry in listing["snapshots"]:
        print("  %s  %-14s %9s B  used %s ago" % (
            entry["key"][:24], entry.get("method", "?"),
            format(int(entry.get("bytes", 0)), ","),
            _format_age(max(0.0, now - float(entry.get("used", now)))),
        ))
    print("crowds (%d):" % len(listing["crowds"]))
    for entry in listing["crowds"]:
        print("  %-24s %9s answers  %9s B  saved %s ago" % (
            entry["name"],
            format(int(entry.get("num_answers", 0)), ","),
            format(int(entry.get("bytes", 0)), ","),
            _format_age(max(0.0, now - float(entry.get("saved", now)))),
        ))
    return 0


def command_store_stats(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 2
    for key, value in store.stats().items():
        print("%-16s %s" % (key, value))
    return 0


def command_store_gc(args: argparse.Namespace) -> int:
    if args.ttl is not None and args.ttl <= 0:
        print("error: --ttl must be > 0 seconds", file=sys.stderr)
        return 2
    if args.max_bytes is not None and args.max_bytes < 1:
        print("error: --max-bytes must be >= 1", file=sys.stderr)
        return 2
    if args.max_records is not None and args.max_records < 1:
        print("error: --max-records must be >= 1", file=sys.stderr)
        return 2
    store = _open_store(args)
    if store is None:
        return 2
    report = store.gc(ttl=args.ttl, max_bytes=args.max_bytes,
                      max_records=args.max_records)
    print("gc: expired %d, evicted %d; %d snapshot(s), %s B remain" % (
        report["expired"], report["evicted"], report["remaining"],
        format(report["bytes"], ","),
    ))
    return 0


def command_store_verify(args: argparse.Namespace) -> int:
    store = _open_store(args)
    if store is None:
        return 2
    report = store.verify()
    bad = 0
    for entry in report:
        if entry["status"] == "ok":
            print("ok       %s" % entry["file"])
        else:
            bad += 1
            print("CORRUPT  %s (%s)" % (entry["file"], entry.get("error")))
    print("verified %d file(s), %d corrupt" % (len(report), bad))
    return 1 if bad else 0


def register_store_parser(subparsers) -> None:
    """Attach the ``store`` subcommand tree to the main CLI parser."""
    store = subparsers.add_parser(
        "store",
        help="inspect and maintain a durable snapshot store directory",
    )
    nested = store.add_subparsers(dest="store_command", required=True)

    ls = nested.add_parser("ls", help="list stored snapshots and crowds")
    ls.add_argument("store_dir", help="store directory (as given to --store)")
    ls.set_defaults(func=command_store_ls)

    stats = nested.add_parser("stats", help="store counters and sizes")
    stats.add_argument("store_dir")
    stats.set_defaults(func=command_store_stats)

    gc = nested.add_parser(
        "gc", help="apply TTL/size bounds now (deletes expired + LRU excess)"
    )
    gc.add_argument("store_dir")
    gc.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                    help="expire snapshots created more than SECONDS ago "
                         "(age from each record's header)")
    gc.add_argument("--max-bytes", type=int, default=None, metavar="N",
                    help="LRU-evict snapshots past N total bytes")
    gc.add_argument("--max-records", type=int, default=None, metavar="N",
                    help="LRU-evict snapshots past N records")
    gc.set_defaults(func=command_store_gc)

    verify = nested.add_parser(
        "verify",
        help="decode every record; exit 1 if any fails validation",
    )
    verify.add_argument("store_dir")
    verify.set_defaults(func=command_store_verify)
