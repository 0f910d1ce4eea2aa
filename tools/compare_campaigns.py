#!/usr/bin/env python3
"""Byte-compare campaign CSVs from two gprsim_cli builds (stdlib only).

Runs every spec through both binaries at each thread count and compares
the CSV files byte for byte. A refactor that must not change results runs
this on the same host with an old build and a new build:

    compare_campaigns.py OLD/gprsim_cli NEW/gprsim_cli campaigns/smoke.json ...
    compare_campaigns.py OLD NEW --threads=1,4 --keep=/tmp/csv campaigns/*.json

Each (spec, threads) pair prints one line: "identical", "DIFFERS" (the
first differing byte and line), or "FAILED" (a run exited non-zero; its
stderr tail follows). Exit status 0 when every pair is identical, 1
otherwise, 2 on bad usage.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path


def run_campaign(binary, spec, threads, csv_path):
    """Runs one campaign; returns None on success, else an error text."""
    proc = subprocess.run(
        [binary, "campaign", str(spec), f"--threads={threads}", "--quiet",
         f"--csv={csv_path}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        return f"{binary} exited {proc.returncode}: {tail}"
    return None


def first_difference(a, b):
    """(byte offset, 1-based line) of the first difference of a and b."""
    limit = min(len(a), len(b))
    offset = next((i for i in range(limit) if a[i] != b[i]), limit)
    return offset, a[:offset].count(b"\n") + 1


def compare(old, new, specs, thread_counts, workdir):
    all_identical = True
    for spec in specs:
        for threads in thread_counts:
            stem = f"{spec.stem}.t{threads}"
            old_csv = workdir / f"{stem}.old.csv"
            new_csv = workdir / f"{stem}.new.csv"
            label = f"{spec} threads={threads}"
            error = (run_campaign(old, spec, threads, old_csv) or
                     run_campaign(new, spec, threads, new_csv))
            if error is not None:
                print(f"{label}: FAILED\n  {error}")
                all_identical = False
                continue
            a, b = old_csv.read_bytes(), new_csv.read_bytes()
            if a == b:
                print(f"{label}: identical ({len(a)} bytes)")
                continue
            offset, line = first_difference(a, b)
            print(f"{label}: DIFFERS at byte {offset} (line {line}); "
                  f"{len(a)} vs {len(b)} bytes")
            all_identical = False
    return all_identical


def main():
    parser = argparse.ArgumentParser(
        description="Byte-compare campaign CSVs from two gprsim_cli builds.")
    parser.add_argument("old", help="reference gprsim_cli binary")
    parser.add_argument("new", help="gprsim_cli binary under test")
    parser.add_argument("specs", nargs="+", type=Path, help="campaign spec files")
    parser.add_argument("--threads", default="1,4",
                        help="comma-separated --threads values (default 1,4)")
    parser.add_argument("--keep", type=Path,
                        help="write the CSVs here instead of a temporary directory")
    args = parser.parse_args()
    try:
        thread_counts = [int(t) for t in args.threads.split(",")]
    except ValueError:
        parser.error(f"--threads expects integers, got {args.threads!r}")
    for binary in (args.old, args.new):
        if not Path(binary).is_file():
            parser.error(f"no such binary: {binary}")

    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        ok = compare(args.old, args.new, args.specs, thread_counts, args.keep)
    else:
        with tempfile.TemporaryDirectory(prefix="compare_campaigns.") as tmp:
            ok = compare(args.old, args.new, args.specs, thread_counts, Path(tmp))
    print("all identical" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
