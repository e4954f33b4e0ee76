#!/usr/bin/env python3
"""Check the span counts in a Chrome trace written by `trace_dump --perfetto`.

    check_trace_spans.py <trace.json> <stage>=<count> ...

Exits non-zero unless every listed stage has exactly <count> spans.
"""
import collections
import json
import sys


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        events = json.load(f)["traceEvents"]
    counts = collections.Counter(e["name"] for e in events if e.get("cat") == "span")
    bad = []
    for arg in argv[2:]:
        stage, want = arg.split("=")
        if counts[stage] != int(want):
            bad.append(f"{stage}: {counts[stage]} spans, want {want}")
    for line in bad:
        print(f"check_trace_spans: {line}", file=sys.stderr)
    print(f"check_trace_spans: {dict(sorted(counts.items()))}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
