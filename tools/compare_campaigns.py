#!/usr/bin/env python3
"""Compare campaign CSVs from two gprsim_cli builds (stdlib only).

Runs every spec through both binaries at each thread count and compares
the CSV files byte for byte. A refactor that must not change results runs
this on the same host with an old build and a new build:

    compare_campaigns.py OLD/gprsim_cli NEW/gprsim_cli campaigns/smoke.json ...
    compare_campaigns.py OLD NEW --threads=1,4 --keep=/tmp/csv campaigns/*.json

Each (spec, threads) pair prints one line: "identical", "DIFFERS" (the
first differing byte and line), or "FAILED" (a run exited non-zero; its
stderr tail follows). Exit status 0 when every pair is identical, 1
otherwise, 2 on bad usage.

A change that alters results on purpose uses --max-rel instead of the
byte comparison. It prints, for each numeric CSV column, the worst
relative difference |new - old| / |old| over all rows (the absolute
difference where old is 0):

    compare_campaigns.py OLD NEW --max-rel campaigns/smoke.json

It exits 1 only when a run fails.

With --reference=REF.csv (one spec only), each build is compared against
that reference instead, column by column: a reference column `x` matches
the run's `x` or `model_x`, and the rows are matched in order. Each
column prints the worst relative error of the old and of the new build;
a column where the new build is worse is marked WORSE and makes the exit
status 1:

    compare_campaigns.py OLD NEW --max-rel --threads=1 \
        --reference=perfbench/reference/cell_sweep.csv perfbench/specs/cell_sweep.json
"""

import argparse
import csv
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


def read_numeric_columns(path):
    """{column: [float, ...]} for every column whose cells all parse."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    columns = {}
    for name in (rows[0].keys() if rows else []):
        try:
            columns[name] = [float(row[name]) for row in rows]
        except (TypeError, ValueError):
            continue  # a label, or a column left empty for this method
    return columns, len(rows)


def worst_relative(got, ref):
    """(worst relative difference, row) of two equally long columns."""
    worst, where = 0.0, 0
    for row, (g, r) in enumerate(zip(got, ref)):
        diff = abs(g - r)
        error = diff if r == 0.0 else diff / abs(r)
        if error > worst or error != error:
            worst, where = error, row
    return worst, where


def max_rel_builds(old_csv, new_csv, label):
    """Prints the worst relative difference new vs old per column."""
    old_cols, old_rows = read_numeric_columns(old_csv)
    new_cols, new_rows = read_numeric_columns(new_csv)
    if old_rows != new_rows:
        print(f"{label}: FAILED\n  {old_rows} rows vs {new_rows} rows")
        return False
    print(f"{label}: worst relative difference, new vs old ({new_rows} rows)")
    for name, values in old_cols.items():
        if name in new_cols:
            worst, row = worst_relative(new_cols[name], values)
            print(f"  {name:24s} {worst:10.3g}  (row {row + 1})")
    return True


def max_rel_reference(old_csv, new_csv, reference, label):
    """Prints each build's worst relative error against the reference;
    False when the new build is worse on some column."""
    ref_cols, ref_rows = read_numeric_columns(reference)
    runs = [read_numeric_columns(old_csv), read_numeric_columns(new_csv)]
    if any(rows != ref_rows for _, rows in runs):
        print(f"{label}: FAILED\n  run rows {[r for _, r in runs]} vs reference "
              f"{ref_rows}")
        return False
    print(f"{label}: worst relative error vs {reference} ({ref_rows} rows)")
    print(f"  {'column':24s} {'old':>10s} {'new':>10s}")
    no_worse = True
    for name, ref_values in ref_cols.items():
        errors = []
        for cols, _ in runs:
            values = cols.get(name, cols.get(f"model_{name}"))
            errors.append(None if values is None else worst_relative(values, ref_values)[0])
        if None in errors:
            continue
        worse = errors[1] > errors[0]
        no_worse = no_worse and not worse
        print(f"  {name:24s} {errors[0]:10.3g} {errors[1]:10.3g}"
              f"{'  WORSE' if worse else ''}")
    return no_worse


def compare(old, new, specs, thread_counts, workdir, max_rel=False, reference=None):
    ok = True
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
                ok = False
                continue
            if reference is not None:
                ok &= max_rel_reference(old_csv, new_csv, reference, label)
                continue
            if max_rel:
                ok &= max_rel_builds(old_csv, new_csv, label)
                continue
            a, b = old_csv.read_bytes(), new_csv.read_bytes()
            if a == b:
                print(f"{label}: identical ({len(a)} bytes)")
                continue
            offset, line = first_difference(a, b)
            print(f"{label}: DIFFERS at byte {offset} (line {line}); "
                  f"{len(a)} vs {len(b)} bytes")
            ok = False
    return ok


def main():
    parser = argparse.ArgumentParser(
        description="Compare campaign CSVs from two gprsim_cli builds.")
    parser.add_argument("old", help="reference gprsim_cli binary")
    parser.add_argument("new", help="gprsim_cli binary under test")
    parser.add_argument("specs", nargs="+", type=Path, help="campaign spec files")
    parser.add_argument("--threads", default="1,4",
                        help="comma-separated --threads values (default 1,4)")
    parser.add_argument("--keep", type=Path,
                        help="write the CSVs here instead of a temporary directory")
    parser.add_argument("--max-rel", action="store_true",
                        help="print the worst relative difference per numeric column "
                             "instead of comparing bytes")
    parser.add_argument("--reference", type=Path,
                        help="with --max-rel: compare both builds against this CSV "
                             "(one spec only)")
    args = parser.parse_args()
    if args.reference is not None:
        if not args.max_rel:
            parser.error("--reference needs --max-rel")
        if len(args.specs) != 1:
            parser.error("--reference compares exactly one spec")
        if not args.reference.is_file():
            parser.error(f"no such reference: {args.reference}")
    try:
        thread_counts = [int(t) for t in args.threads.split(",")]
    except ValueError:
        parser.error(f"--threads expects integers, got {args.threads!r}")
    for binary in (args.old, args.new):
        if not Path(binary).is_file():
            parser.error(f"no such binary: {binary}")

    def run(workdir):
        return compare(args.old, args.new, args.specs, thread_counts, workdir,
                       args.max_rel, args.reference)

    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
        ok = run(args.keep)
    else:
        with tempfile.TemporaryDirectory(prefix="compare_campaigns.") as tmp:
            ok = run(Path(tmp))
    if args.reference is not None:
        print("no column worse" if ok else "WORSE")
    elif args.max_rel:
        print("done" if ok else "FAILED")
    else:
        print("all identical" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
