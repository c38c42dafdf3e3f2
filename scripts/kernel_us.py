"""Warm, single-threaded µs/doc of each flagship stage kernel on one read block.

    python scripts/kernel_us.py <pages.parquet | directory of page files>

Reads one page file whole with the flagship read's own read task
(``PagesDatasource``: one block per file; for a directory, its first
``*.parquet`` file in name order), chains extract -> langquality -> detect ->
decide once to warm every cache, then times each kernel on its own chained
input. Prints one JSON line: per kernel, and for the read task under
``read``, the median of 9 calls in µs per row, plus the block's row count,
under ``per_call_us`` the median of 9 calls on a 1-row slice of its input,
in µs, and under ``fixed_us`` each kernel's fixed cost per call: the
intercept, in µs, of the line through its median call times on the whole
block and on its first eighth (250 rows of a 2,000-row file). pyarrow
compiles a regex on every kernel call, so that cost shows in both; on a
1-row slice detect's prefilter skips most of its scans, so ``per_call_us``
reads lower than ``fixed_us``.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CALLS = 9


def main(path: str) -> dict:
    import pyarrow as pa

    from safe_zone_ray.pipelines.quality_filter import PipelineConfig
    from safe_zone_ray.sources.pages_io import PagesDatasource
    from safe_zone_ray.stages.decide import decide_batch
    from safe_zone_ray.stages.detect import detect_scrub_batch
    from safe_zone_ray.stages.extract import extract_batch
    from safe_zone_ray.stages.langquality import langquality_batch

    pa.set_cpu_count(1)
    if os.path.isdir(path):
        path = sorted(glob.glob(os.path.join(path, "*.parquet")))[0]
    cfg = PipelineConfig()
    kernels = {
        "extract": lambda b: extract_batch(b),
        "langquality": lambda b: langquality_batch(b, config=cfg.quality),
        "detect": lambda b: detect_scrub_batch(
            b, cfg.registry_path, cfg.mode, cfg.guardrails, context_scoring=cfg.context_scoring
        ),
        "decide": lambda b: decide_batch(b, allowed_langs=cfg.allowed_langs),
    }
    (read_task,) = PagesDatasource(path).get_read_tasks(1)
    seconds, (block,) = _median_call(lambda _: list(read_task()), None)
    rows = max(block.num_rows, 1)
    out = {"rows": block.num_rows, "read": round(seconds * 1e6 / rows, 2), "per_call_us": {},
           "fixed_us": {}}
    part = max(1, rows // 8)
    for name, fn in kernels.items():
        seconds, result = _median_call(fn, block)
        out[name] = round(seconds * 1e6 / rows, 2)
        out["per_call_us"][name] = round(_median_call(fn, block.slice(0, 1))[0] * 1e6, 1)
        part_s = _median_call(fn, block.slice(0, part))[0]
        per_row = (seconds - part_s) / (rows - part) if rows > part else 0.0
        out["fixed_us"][name] = round((part_s - part * per_row) * 1e6, 1)
        block = result
    return out


def _median_call(fn, block):
    """(median seconds of CALLS calls after one untimed warm-up, last result)."""
    times = []
    for _ in range(CALLS + 1):
        t0 = time.perf_counter()
        result = fn(block)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:]), result


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps(main(sys.argv[1])))
