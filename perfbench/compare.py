#!/usr/bin/env python3
"""Compares two perfbench run records (.bench_build/perfbench/runs/*.json).

  python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses (exit 2) when the two runs did not replay the same inputs: a
different workload, or a different input digest, which is what a change to
the city or demand generator, to engine defaults, or to the driver's
settings produces. For the same seed it also requires the exact counts to
match (exit 1 otherwise). It then prints each metric side by side.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        before = json.load(f)
    with open(sys.argv[2]) as f:
        after = json.load(f)
    for key in ("workload", "digest", "trace"):
        if before[key] != after[key]:
            print(f"refusing to compare: {key} differs "
                  f"({before[key]} vs {after[key]})", file=sys.stderr)
            return 2
    status = 0
    if before["seed"] == after["seed"] and before["counts"] != after["counts"]:
        print(f"exact counts differ: {before['counts']} vs {after['counts']}")
        status = 1
    print(f"{'metric':40s} {'before':>14s} {'after':>14s} "
          f"{'after/before':>12s}")
    for name, b in before["metrics"].items():
        a = after["metrics"].get(name)
        if a is None:
            print(f"{name:40s} {b['value']:14.6g} {'missing':>14s}")
            status = 1
            continue
        ratio = a["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:40s} {b['value']:14.6g} {a['value']:14.6g} {ratio:12.4f}"
              f"  {b['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
