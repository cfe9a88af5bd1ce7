#!/usr/bin/env python3
"""Compares two saved perfbench results (perfbench/run.py --out FILE).

    python3 perfbench/compare.py BASE.json NEW.json

Results are only comparable when they come from the same host and build
configuration. When the fingerprints differ, the script names the differing
fields and exits 2 without diffing any metric; otherwise it prints each
metric's relative change, in the direction BENCHMARK.json gives it, and
exits 0.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return doc["info"], doc["result"]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_info, base = load(sys.argv[1])
    new_info, new = load(sys.argv[2])
    for key in ("workload", "traced"):
        if base_info.get(key) != new_info.get(key):
            print(f"not comparable: {key} {base_info.get(key)!r} vs {new_info.get(key)!r}")
            return 2
    fp_a, fp_b = base_info["fingerprint"], new_info["fingerprint"]
    differing = sorted(k for k in set(fp_a) | set(fp_b) if fp_a.get(k) != fp_b.get(k))
    if differing:
        print("different host or configuration, not diffed:")
        for k in differing:
            print(f"  {k}: {fp_a.get(k)!r} vs {fp_b.get(k)!r}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, m in new["metrics"].items():
        old = base["metrics"].get(name, {}).get("value")
        if old is None:
            continue
        change = (m["value"] - old) / old if old else 0.0
        worse = change > 0 if better.get(name) == "lower" else change < 0
        tag = "worse" if worse and change else ("better" if change else "same")
        print(f"{name:40s} {old:14.6g} -> {m['value']:14.6g} {m['unit']:6s} {change:+8.2%} {tag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
