"""Split the idle worker time of one traced pass into three parts.

    python scripts/spans_split.py .perfbench/spans/flagship-seed1.jsonl

Reads the spans file a traced benchmark run writes (one JSON span per line,
with ``pid``, ``start`` and ``end``) and prints, summed over workers and per
worker, in seconds:

- stagger: the worker's first span start minus the earliest start;
- gaps: the time between the worker's consecutive spans;
- end spread: the latest end minus the worker's last end.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict


def split(spans: list[dict]) -> dict:
    if not spans:
        raise ValueError("no spans to split")
    by_pid: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_pid[s["pid"]].append((s["start"], s["end"]))
    t0 = min(s for runs in by_pid.values() for s, _ in runs)
    t1 = max(e for runs in by_pid.values() for _, e in runs)
    workers = {}
    for pid, runs in sorted(by_pid.items()):
        runs.sort()
        gaps, busy_until = 0.0, runs[0][1]
        for start, end in runs[1:]:
            gaps += max(0.0, start - busy_until)
            busy_until = max(busy_until, end)
        workers[pid] = {"stagger": runs[0][0] - t0, "gaps": gaps, "end_spread": t1 - busy_until}
    total = {k: sum(w[k] for w in workers.values()) for k in ("stagger", "gaps", "end_spread")}
    return {"span_s": t1 - t0, "total": total, "workers": workers}


def main(path: str) -> None:
    with open(path) as f:
        out = split([json.loads(line) for line in f if line.strip()])
    print(f"{path}: {len(out['workers'])} workers over {out['span_s']:.3f} s")
    for name, w in [("total", out["total"]), *out["workers"].items()]:
        print(f"  {name:>8}  " + "  ".join(f"{k} {v:.3f} s" for k, v in w.items()))


if __name__ == "__main__":
    main(sys.argv[1])
