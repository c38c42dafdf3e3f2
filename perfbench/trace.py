"""Span tracing for the traced batch run.

The four stage kernels that ``build_quality_filter`` composes are replaced,
for the traced pass only, by ``Traced`` wrappers that time each batch call
from outside the kernel. Each call records one span (layer, start, end, rows,
worker pid, batch id, counters) and hands it, without waiting, to a zero-CPU
``SpanSink`` actor that keeps every span in memory; the benchmark process
gathers them when the pass ends and writes them to one JSON-lines file.
No program file changes:
the wrappers are installed by rebinding the kernel names the pipeline module
looks up when it builds the dataset.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import ray

LAYERS = ("extract", "langquality", "detect", "decide")


@ray.remote(num_cpus=0)
class SpanSink:
    def __init__(self):
        self.spans: list[dict] = []

    def add(self, span: dict) -> None:
        self.spans.append(span)

    def rows(self) -> dict[str, int]:
        out = dict.fromkeys(LAYERS, 0)
        for s in self.spans:
            out[s["layer"]] += s["rows"]
        return out

    def take(self) -> list[dict]:
        return self.spans


_batch_ids = itertools.count()


def _counters(layer: str, batch: pa.Table, out: pa.Table) -> dict:
    """Counts taken at the layer boundary, outside the timed call."""
    if layer == "extract":
        return {"null_text_rows": batch.column("text").null_count}
    if layer == "detect":
        from safe_zone_ray.registry import get_compiled_registry

        pattern = get_compiled_registry().any_hit.pattern
        passed = pc.fill_null(pc.match_substring_regex(batch.column("text_extracted"), pattern), True)
        return {
            "prefilter_rows": pc.sum(passed).as_py() or 0,
            "pii_rows": pc.sum(out.column("contains_pii")).as_py() or 0,
        }
    return {}


class Traced:
    """Picklable stand-in for one stage kernel."""

    def __init__(self, layer: str, fn, sink):
        self.layer, self.fn, self.sink = layer, fn, sink

    def __call__(self, batch: pa.Table, **kwargs) -> pa.Table:
        start = time.time()
        t0 = time.perf_counter()
        out = self.fn(batch, **kwargs)
        dur = time.perf_counter() - t0
        self.sink.add.remote(
            {
                "layer": self.layer,
                "start": start,
                "end": start + dur,
                "rows": batch.num_rows,
                "pid": os.getpid(),
                "batch": f"{os.getpid()}:{next(_batch_ids)}",
                **_counters(self.layer, batch, out),
            }
        )
        return out


@contextlib.contextmanager
def traced_kernels(sink):
    """Rebind the pipeline's kernel names to traced wrappers for the body."""
    import safe_zone_ray.pipelines.quality_filter as qf
    import safe_zone_ray.stages.langquality as lq

    slots = [
        (qf, "extract_batch", "extract"),
        (lq, "langquality_batch", "langquality"),
        (qf, "detect_scrub_batch", "detect"),
        (qf, "decide_batch", "decide"),
    ]
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in slots]
    try:
        for mod, name, layer in slots:
            setattr(mod, name, Traced(layer, getattr(mod, name), sink))
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def gather(sink, expected_rows: int, timeout_s: float = 30.0) -> list[dict]:
    """Wait until every layer's spans cover ``expected_rows`` (span hand-off
    is fire-and-forget, so the last few may still be in flight), then take
    them. Raises if the spans never add up."""
    deadline = time.monotonic() + timeout_s
    while True:
        rows = ray.get(sink.rows.remote())
        if all(rows[layer] >= expected_rows for layer in LAYERS):
            break
        if time.monotonic() > deadline:
            raise RuntimeError(f"spans cover {rows}, expected {expected_rows} rows per layer")
        time.sleep(0.05)
    return ray.get(sink.take.remote())


def write_spans(path: str, spans: list[dict]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for s in sorted(spans, key=lambda s: s["start"]):
            f.write(json.dumps(s, sort_keys=True) + "\n")


def ledger(spans: list[dict], wall_s: float, cpus: int) -> dict[str, float]:
    """Per-layer busy time, us/doc and counters, plus the Ray residual.
    Stage kernels have no child spans, so a span's self time is its
    duration and a layer's busy time is the sum of its spans."""
    out: dict[str, float] = {}
    busy_total = 0.0
    for layer in LAYERS:
        mine = [s for s in spans if s["layer"] == layer]
        busy = sum(s["end"] - s["start"] for s in mine)
        rows = sum(s["rows"] for s in mine)
        busy_total += busy
        out[f"{layer}.busy_s"] = busy
        out[f"{layer}.us_per_doc"] = busy / rows * 1e6 if rows else 0.0
        if layer == "extract":
            out["extract.calls"] = len(mine)
            out["extract.null_text_rows"] = sum(s["null_text_rows"] for s in mine)
        if layer == "detect":
            pre = sum(s["prefilter_rows"] for s in mine)
            pii = sum(s["pii_rows"] for s in mine)
            out["detect.prefilter_rows"] = pre
            out["detect.pii_rows"] = pii
            out["detect.prefilter_precision"] = pii / pre if pre else 0.0
    out["ray.residual_s"] = wall_s - busy_total / cpus
    out["ray.core_busy_frac"] = busy_total / (wall_s * cpus)
    return out
