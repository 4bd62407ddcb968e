#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --jsonl`` appends.  For every
(workload, end-to-end metric) it prints each side's median and
quartiles and a verdict, judged with the bounds in ``BENCHMARK.json``:

* ``better`` — NEW reads better in at least nine tenths of all
  (BASE run, NEW run) pairs, ties counting for neither, and the medians
  differ by more than the distance between BASE's quartiles;
* ``unresolved`` — either side's spread (quartile distance over median)
  is wider than the bound, and not every NEW run reads better than
  every BASE run;
* ``worse`` — NEW's median is worse than BASE's by more than the bound;
* ``same`` — none of the above.

Exit status: 0 when no verdict is ``worse`` or ``unresolved``, 1
otherwise, 2 on unreadable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(
    base: list[float], new: list[float], bound: float, better: str
) -> str:
    """Judge ``new`` against ``base`` for one metric (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    gains = [sign * (n - b) for b in base for n in new]
    wins = sum(g > 0 for g in gains)
    if wins >= 0.9 * len(gains) and abs(nmed - bmed) > bq3 - bq1:
        return "better"
    spread = max((bq3 - bq1) / abs(bmed or 1.0), (nq3 - nq1) / abs(nmed or 1.0))
    if spread > bound and wins < len(gains):
        return "unresolved"
    if -sign * (nmed - bmed) / abs(bmed or 1.0) > bound:
        return "worse"
    return "same"


def load(path: Path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over every record in ``path``."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                key = (record["workload"], name)
                values.setdefault(key, []).append(float(metric["value"]))
    return values


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py BASE.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    try:
        spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
        base, new = load(Path(argv[0])), load(Path(argv[1]))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"compare.py: cannot read input: {exc}", file=sys.stderr)
        return 2
    workloads = sorted({w for w, _ in base} & {w for w, _ in new})
    print(
        f"{'workload':<13} {'metric':<12} {'unit':<8}"
        f" {'base median [q1, q3]':>34} {'new median [q1, q3]':>34}"
        f" {'change':>8}  verdict"
    )
    status = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                continue
            b, n = base[key], new[key]
            result = verdict(b, n, metric["bound"], metric["better"])
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            change = (nmed - bmed) / abs(bmed or 1.0)
            print(
                f"{workload:<13} {metric['name']:<12} {metric['unit']:<8}"
                f" {f'{bmed:.5g} [{bq1:.5g}, {bq3:.5g}]':>34}"
                f" {f'{nmed:.5g} [{nq1:.5g}, {nq3:.5g}]':>34}"
                f" {change:>+8.1%}  {result}"
            )
            if result in ("worse", "unresolved"):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
