#!/usr/bin/env python3
"""Compare two output directories of tools/reference_runs.sh.

    python3 tools/compare_runs.py PARENT_DIR CHANGE_DIR

Lists the runs whose files are byte-identical.  For every other run it prints,
per file and per numeric field that moved, the largest absolute difference: a
JSON field is its key path with list positions written ``[]``, a CSV field is
its column with a trailing row number written ``*`` (``exchangeability_*``
covers the curves of every exchangeability row).  A structural change is
printed too and makes the exit status 1 (otherwise it is 0): a run or file on
one side only, different keys, list lengths, strings, CSV headers or row
counts, or a differing file that is neither JSON nor CSV.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import re
import sys


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _gap(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b)
    return math.inf if math.isnan(d) else d


def _record(gaps: dict, field: str, d: float) -> None:
    gaps[field] = max(gaps.get(field, 0.0), d)


def _walk(a, b, path: str, gaps: dict, changes: list) -> None:
    """Fold the numeric gaps between two parsed JSON values into ``gaps``;
    append every structural difference to ``changes``."""
    if _number(a) and _number(b):
        _record(gaps, path or ".", _gap(float(a), float(b)))
    elif isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            changes.append(f"{path or '.'}: keys {sorted(a.keys() ^ b.keys())} on one side only")
        for k in sorted(a.keys() & b.keys()):
            _walk(a[k], b[k], f"{path}.{k}" if path else k, gaps, changes)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            changes.append(f"{path}: list length {len(a)} -> {len(b)}")
        for x, y in zip(a, b):
            _walk(x, y, f"{path}[]", gaps, changes)
    elif a != b or type(a) is not type(b):
        changes.append(f"{path or '.'}: {a!r} -> {b!r}")


def _csv_gaps(a: pathlib.Path, b: pathlib.Path, gaps: dict, changes: list) -> None:
    rows_a = list(csv.reader(a.read_text().splitlines()))
    rows_b = list(csv.reader(b.read_text().splitlines()))
    if not rows_a or not rows_b or rows_a[0] != rows_b[0]:
        changes.append("header differs")
        return
    if len(rows_a) != len(rows_b):
        changes.append(f"row count {len(rows_a) - 1} -> {len(rows_b) - 1}")
    header = rows_a[0]
    fields = [re.sub(r"_\d+$", "_*", col) for col in header]
    for n, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=1):
        if len(ra) != len(rb):
            changes.append(f"row {n}: {len(ra)} -> {len(rb)} cells")
            continue
        for col, x, y in zip(fields, ra, rb):
            try:
                _record(gaps, col, _gap(float(x), float(y)))
            except ValueError:
                if x != y:
                    changes.append(f"row {n}, {col}: {x!r} -> {y!r}")


def compare_file(a: pathlib.Path, b: pathlib.Path) -> tuple[dict, list]:
    """Largest absolute difference per numeric field, and the structural
    changes, between two versions of one artifact."""
    gaps, changes = {}, []
    if a.suffix == ".json":
        _walk(json.loads(a.read_text()), json.loads(b.read_text()), "", gaps, changes)
    elif a.suffix == ".csv":
        _csv_gaps(a, b, gaps, changes)
    else:
        changes.append("differs and is neither JSON nor CSV")
    return gaps, changes


def _files(run: pathlib.Path) -> set:
    return {p.relative_to(run) for p in run.rglob("*") if p.is_file()}


def compare(parent: pathlib.Path, change: pathlib.Path) -> int:
    """Print the comparison of two reference-run directories; return the exit status."""
    runs_a = {p.name for p in parent.iterdir() if p.is_dir()}
    runs_b = {p.name for p in change.iterdir() if p.is_dir()}
    structural = [f"{r}: run on one side only" for r in sorted(runs_a ^ runs_b)]
    identical, report = [], []
    for run in sorted(runs_a & runs_b):
        files_a, files_b = _files(parent / run), _files(change / run)
        structural += [f"{run}/{f}: file on one side only" for f in sorted(files_a ^ files_b)]
        differ = [f for f in sorted(files_a & files_b)
                  if (parent / run / f).read_bytes() != (change / run / f).read_bytes()]
        if not differ and files_a == files_b:
            identical.append(run)
            continue
        report.append(run)
        for f in differ:
            gaps, changes = compare_file(parent / run / f, change / run / f)
            structural += [f"{run}/{f}: {c}" for c in changes]
            moved = sorted(field for field, d in gaps.items() if d > 0.0)
            report += [f"  {f}  {field}  {gaps[field]:.3g}" for field in moved]
            report.append(f"  {f}  {len(gaps) - len(moved)} numeric fields unchanged")
    print(f"byte-identical ({len(identical)}): {', '.join(identical)}")
    print(f"differing ({sum(not line.startswith(' ') for line in report)}):")
    for line in report:
        print(f"  {line}")
    print(f"structural changes ({len(structural)}):")
    for line in structural:
        print(f"  {line}")
    return 1 if structural else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=pathlib.Path)
    ap.add_argument("change_dir", type=pathlib.Path)
    args = ap.parse_args(argv)
    for d in (args.parent_dir, args.change_dir):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")
    return compare(args.parent_dir, args.change_dir)


if __name__ == "__main__":
    sys.exit(main())
