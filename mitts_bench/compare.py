#!/usr/bin/env python3
"""Compare two mitts_bench result sets.

    python3 mitts_bench/compare.py A.json B.json [--benchmark BENCHMARK.json]

A and B are result.json files written by mitts_bench (A the baseline).
For every workload in both and every end-to-end metric in
BENCHMARK.json, the change of B's median against A's is judged by the
metric's direction and bound:

  ok          not worse than the bound
  better      better by more than the bound
  regression  worse by more than the bound
  unresolved  either side's interquartile range over its reps, as a
              share of its median, exceeds the bound (unless every B
              sample beats every A sample, which counts as better)

Digests and deterministic per-layer counters must match exactly; a
difference is reported as a mismatch. A set measured while the load
average exceeded half the CPU count gets a warning.

Exit codes: 0 nothing regressed, unresolved or mismatched; 1 otherwise;
2 unreadable input (one line on stderr, no traceback).
"""

import argparse
import json
import os
import sys

DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json")


class InputError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"compare.py: error: {message}", file=sys.stderr)
        sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise InputError(f"{path} is not valid JSON (line {e.lineno})")


def field(obj, key, what):
    if not isinstance(obj, dict) or key not in obj:
        raise InputError(f"{what} lacks '{key}'")
    return obj[key]


def spread(m):
    med = m["median"]
    return (m["q3"] - m["q1"]) / med if med else 0.0


def all_better(a, b, better):
    """Every B sample beats every A sample."""
    if not a["samples"] or not b["samples"]:
        return False
    if better == "lower":
        return max(b["samples"]) < min(a["samples"])
    return min(b["samples"]) > max(a["samples"])


def verdict(a, b, better, bound):
    base = a["median"]
    change = (b["median"] - base) / base if base else 0.0
    worse = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return change, "better" if all_better(a, b, better) else "unresolved"
    if worse > bound:
        return change, "regression"
    if worse < -bound:
        return change, "better"
    return change, "ok"


def loaded(result, name):
    host = field(result, "host", name)
    nproc = field(host, "nproc", name + " host")
    warnings = []
    for key in ("loadavg_before", "loadavg_after"):
        text = str(host.get(key, ""))
        try:
            one_min = float(text.split()[0])
        except (IndexError, ValueError):
            continue
        if one_min > nproc / 2:
            warnings.append(f"warning: {name} ran with load average "
                            f"{one_min} ({key}) above nproc/2 = {nproc / 2}")
    return warnings


def compare(a, b, bench, names):
    bad = 0
    rows = []
    for w in sorted(set(field(a, "workloads", names[0])) &
                    set(field(b, "workloads", names[1]))):
        wa, wb = a["workloads"][w], b["workloads"][w]
        for m in field(bench, "end_to_end", "benchmark"):
            name = m["name"]
            ma = wa.get("metrics", {}).get(name)
            mb = wb.get("metrics", {}).get(name)
            if ma is None or mb is None:
                continue
            change, v = verdict(ma, mb, m["better"], m["bound"])
            bad += v in ("regression", "unresolved")
            rows.append(f"{w:11s} {name:16s} {ma['median']:12.6g} "
                        f"{mb['median']:12.6g} {100 * change:+7.2f}% "
                        f"{100 * spread(ma):6.2f}% {100 * spread(mb):6.2f}% "
                        f"{100 * m['bound']:5.1f}%  {v}")
        if wa.get("digest") != wb.get("digest"):
            bad += 1
            rows.append(f"{w:11s} digest           {wa.get('digest')} "
                        f"{wb.get('digest')}  mismatch")
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for name in sorted(set(la) & set(lb)):
            if la[name].get("deterministic") and \
                    la[name]["value"] != lb[name]["value"]:
                bad += 1
                rows.append(f"{w:11s} {name:16s} {la[name]['value']:12.6g} "
                            f"{lb[name]['value']:12.6g}  mismatch")
    return rows, bad


def main():
    ap = Parser(description="Compare two mitts_bench result.json files.")
    ap.add_argument("a", help="baseline result.json")
    ap.add_argument("b", help="candidate result.json")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                    help="BENCHMARK.json with the metrics' bounds")
    args = ap.parse_args()
    try:
        a, b = load(args.a), load(args.b)
        bench = load(args.benchmark)
        warnings = loaded(a, args.a) + loaded(b, args.b)
        rows, bad = compare(a, b, bench, (args.a, args.b))
    except InputError as e:
        print(f"compare.py: error: {e}", file=sys.stderr)
        return 2
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as e:
        print(f"compare.py: error: malformed result file ({e!r})",
              file=sys.stderr)
        return 2
    for w in warnings:
        print(w)
    print(f"{'workload':11s} {'metric':16s} {'A median':>12s} "
          f"{'B median':>12s} {'change':>8s} {'A iqr':>7s} {'B iqr':>7s} "
          f"{'bound':>6s}  verdict")
    for r in rows:
        print(r)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
