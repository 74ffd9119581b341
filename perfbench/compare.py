#!/usr/bin/env python3
"""Compares two results that run.py wrote with --out.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Results from different host fingerprints (CPU model, usable cores, rustc)
are never compared: the script says why and exits 3. Otherwise it prints
each metric of both results with the change, flags an end-to-end metric
that got worse by more than its bound in BENCHMARK.json, and exits 1 if
any did. One pair of results shows a direction, not a gain; the protocol
for a claim is in README.md.
"""

import json
import sys

from run import load_spec


def compare(parent, change, out=sys.stdout):
    """Returns the exit status: 0 comparable and within bounds, 1 some
    metric regressed beyond its bound, 3 not comparable."""
    if parent["host"] != change["host"]:
        print(f"not comparable: host fingerprints differ: {parent['host']} vs {change['host']}",
              file=out)
        return 3
    if (parent["workload"], parent["trace"]) != (change["workload"], change["trace"]):
        print("not comparable: different workloads or trace modes", file=out)
        return 3
    end, _ = load_spec()
    bounds = {m["name"]: m for m in end}
    status = 0
    print(f"{parent['revision']['git']} -> {change['revision']['git']} on {parent['workload']}",
          file=out)
    for name, m in parent["result"]["metrics"].items():
        a, b = m["value"], change["result"]["metrics"][name]["value"]
        rel = (b - a) / abs(a) if a else 0.0
        flag = ""
        spec = bounds.get(name)
        if spec:
            worse = rel > 0 if spec["better"] == "lower" else rel < 0
            if worse and abs(rel) > spec["bound"]:
                flag, status = "  REGRESSED beyond bound", 1
        print(f"{name}: {a:.6g} -> {b:.6g} {m['unit']} ({rel:+.1%}){flag}", file=out)
    return status


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    loaded = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            loaded.append(json.load(f))
    return compare(*loaded)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
