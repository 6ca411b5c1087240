#!/usr/bin/env python3
"""Gate a `mitts_bench --smoke` run on its deterministic work counters.

Usage: scripts/check_smoke_counters.py RESULT COMMITTED

RESULT is the smoke run's result.json; COMMITTED maps each workload to
the most each counter may read (tests/bench_smoke_counters.json). The
counters depend on the code and seed alone, never on the host. Exit 1
with one line per counter above its committed value (one below passes
with a note, so the file can be lowered); exit 2 with one line on an
unreadable file or a missing workload or counter.
"""

import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


def main(argv):
    if len(argv) != 3:
        print("usage: check_smoke_counters.py RESULT COMMITTED",
              file=sys.stderr)
        return 2
    result_path, committed_path = argv[1], argv[2]
    rows = []
    try:
        workloads = load(result_path)["workloads"]
        for w, limits in load(committed_path).items():
            for name, limit in limits.items():
                value = workloads[w]["per_layer"][name]["value"]
                if not all(isinstance(v, (int, float))
                           for v in (value, limit)):
                    raise TypeError(f"{w} {name}: not a number")
                rows.append((w, name, value, limit))
    except (OSError, KeyError, ValueError, TypeError, AttributeError) as e:
        why = f"{result_path}: missing {e}" if type(e) is KeyError else e
        print(f"check_smoke_counters: {why}", file=sys.stderr)
        return 2
    over = 0
    for w, name, value, limit in rows:
        if value > limit:
            over += 1
            print(f"{w} {name} = {value:.15g}, above the committed "
                  f"{limit:.15g}", file=sys.stderr)
        elif value < limit:
            print(f"note: {w} {name} = {value:.15g}, below the committed "
                  f"{limit:.15g}; lower it in {committed_path}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
