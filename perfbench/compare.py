"""Summarize or compare result records written by run.py.

    python3 perfbench/compare.py perfbench/results/*.json
    python3 perfbench/compare.py --base OLD/*.json --head NEW/*.json

The first form prints, per workload and metric, the median over the records
and the quartile spread (q3 - q1) / median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them, next to the metric's
bound from BENCHMARK.json.  The second form prints each metric's change of
median from base to head against its bound.

Records made with different kernel backends are never compared: the
compiled extension and the numpy fallback give the same reports at very
different speeds.  Records of the same source tree and seed must also agree
on the deterministic counts; any drift is reported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def grouped(records: list[dict]) -> dict:
    groups = defaultdict(list)
    for r in records:
        groups[(r["workload"], r["trace"])].append(r)
    return dict(sorted(groups.items()))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (q3 - q1) / median); the spread is 0 for fewer than two values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def backends(records: list[dict]) -> set:
    return {r["env"]["backend"] for r in records}


def count_drift(records: list[dict]) -> list[str]:
    seen: dict = {}
    drift = []
    for r in records:
        if not r["trace"]:
            continue
        key = (r["workload"], r["seed"], r["env"]["source_sha256"])
        counts = r.get("counts", {})
        if key in seen and seen[key] != counts:
            drift.append(f"{r['workload']} seed {r['seed']}: counts {counts} != {seen[key]}")
        seen.setdefault(key, counts)
    return drift


def summarize(records: list[dict]) -> int:
    worst = 0
    for (workload, trace), group in grouped(records).items():
        failed = sum(r["failed"] for r in group)
        print(f"{workload} trace={trace}: {len(group)} records, seeds "
              f"{sorted({r['seed'] for r in group})}, {failed} failed calls")
        for name in group[0]["metrics"]:
            values = [r["metrics"][name] for r in group if name in r["metrics"]]
            med, rel = spread(values)
            bound = METRICS.get(name, {}).get("bound")
            note = ""
            if bound is not None and name != "setup_s":
                note = f"bound {bound:.2f}  spread/bound {rel / bound:.2f}"
            print(f"  {name:26s} median {med:12.6g}  spread {rel:7.2%}  {note}")
        worst = max(worst, failed)
    return 1 if worst else 0


def compare(base: list[dict], head: list[dict]) -> int:
    regressions = 0
    head_groups = grouped(head)
    for key, old in grouped(base).items():
        new = head_groups.get(key)
        if not new:
            print(f"{key[0]} trace={key[1]}: no head records")
            continue
        print(f"{key[0]} trace={key[1]}: base {len(old)} records, head {len(new)} records")
        for name in old[0]["metrics"]:
            unit, better = METRICS[name]["unit"], METRICS[name]["better"]
            a = statistics.median(r["metrics"][name] for r in old if name in r["metrics"])
            values = [r["metrics"][name] for r in new if name in r["metrics"]]
            if not values:
                print(f"  {name:26s} absent in head")
                continue
            b = statistics.median(values)
            change = (b - a) / a if a else 0.0
            worse = change if better == "lower" else -change
            bound = METRICS[name].get("bound")
            flag = ""
            if bound is not None and worse > bound:
                flag = "  REGRESSION"
                regressions += 1
            print(f"  {name:26s} {a:12.6g} -> {b:12.6g} {unit:8s} {change:+8.2%}{flag}")
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("records", nargs="*", help="result records to summarize")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--head", nargs="+", default=[])
    args = parser.parse_args(argv)
    if bool(args.base) != bool(args.head) or (args.base and args.records):
        parser.error("give either records to summarize, or both --base and --head")

    everything = load(args.records + args.base + args.head)
    if not everything:
        parser.error("no records given")
    found = backends(everything)
    if len(found) > 1:
        print(f"refusing to compare records of different kernel backends: {sorted(found)}",
              file=sys.stderr)
        return 2
    for line in count_drift(everything):
        print(f"determinism drift: {line}")
    if args.base:
        return compare(load(args.base), load(args.head))
    return summarize(everything)


if __name__ == "__main__":
    sys.exit(main())
