#!/usr/bin/env python3
"""Summarises the spans a traced benchmark run wrote.

    python3 perfbench/spans.py .bench_build/perfbench-spans-<workload>.jsonl

Prints, per span name, the call count, total and self time (duration minus
the time its child spans cover), and the share of all request ("op") time.
Spans outside any request are listed apart: set-up, and extra measurements
taken after a request's root has ended.
"""
import collections
import json
import sys


def main(path):
    spans = [json.loads(line) for line in open(path)]
    by_id = {s["id"]: s for s in spans}
    op_total = sum(s["end_us"] - s["start_us"] for s in spans
                   if s["name"] == "op")
    rows = collections.defaultdict(lambda: [0, 0.0, 0.0, False])
    for s in spans:
        if s["name"] == "op":
            continue
        root = s
        while root["parent"] >= 0:
            root = by_id[root["parent"]]
        r = rows[(root["name"] == "op", s["name"])]
        r[0] += 1
        r[1] += s["end_us"] - s["start_us"]
        r[2] += s["self_us"]
        r[3] = s["extra"]
    print("%-34s %7s %11s %11s %7s" % ("span", "calls", "total ms",
                                       "self ms", "of ops"))
    for in_op in (True, False):
        print("-- request spans" if in_op else "-- spans outside requests")
        for (flag, name), (n, total, self_us, extra) in sorted(rows.items()):
            if flag != in_op:
                continue
            share = "%6.1f%%" % (100 * self_us / op_total) if in_op else ""
            print("%-34s %7d %11.1f %11.1f %7s%s" % (
                name, n, total / 1e3, self_us / 1e3, share,
                "  (extra)" if extra else ""))


if __name__ == "__main__":
    main(sys.argv[1])
