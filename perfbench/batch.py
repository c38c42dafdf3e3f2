"""The flagship and job workloads.

flagship: ``build_quality_filter(pages, PipelineConfig()).write_parquet(out)``
repeated over the seed's pages until the measuring time is spent.
job: ``state.lineage.run_job`` over the same pages in two invocations, the
first stopped after half the fragments (``max_fragments``), the second
resuming.

Every pass is checked: each input page must appear exactly once in the
output, its (keep, drop_reason, scrubbed_text) must match the first pass and,
for the oracle subset, the DuckDB oracle. The job workload also runs one
flagship pass before its own and requires the same decisions digest.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import pyarrow.parquet as pq
import ray

from perfbench import inputs as gen
from perfbench import trace
from perfbench.util import cpu_seconds, granted_share, median, tree_pids, vmhwm_mb

CPUS = 4
OBJECT_STORE_BYTES = 1_000_000_000
MIN_PASSES = 4  # the first is left out of docs_per_s, so at least 3 count


def _warm(batch):
    """Import the stage modules and build their per-process caches; the
    short sleep spreads the warm-up tasks over every worker."""
    import pyarrow.dataset  # noqa: F401  (Parquet reads and writes)

    from safe_zone_ray.registry import get_compiled_registry
    from safe_zone_ray.stages.langquality import LangQualityStage
    from safe_zone_ray.state import lineage  # noqa: F401

    get_compiled_registry()
    LangQualityStage.cached()
    time.sleep(0.2)
    return batch


def ray_start(ray_tmp: str) -> float:
    """Ray start plus warm-up of the worker pool; returns the seconds
    taken."""
    t0 = time.perf_counter()
    ray.init(
        address="local",
        num_cpus=CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=ray_tmp,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    ray.data.range(2 * CPUS, override_num_blocks=2 * CPUS).map_batches(
        _warm, batch_format="pyarrow", batch_size=None
    ).materialize()
    return time.perf_counter() - t0


def ray_stop() -> None:
    """Shut Ray down and wait until every process it started has exited."""
    pids = [p for p in tree_pids(os.getpid()) if p != os.getpid()]
    ray.shutdown()
    deadline = time.monotonic() + 15
    while pids and time.monotonic() < deadline:
        pids = [p for p in pids if os.path.exists(f"/proc/{p}") and not _zombie(p)]
        time.sleep(0.05)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def setup(ray_tmp: str, reps: int) -> float:
    """Start Ray ``reps`` times; the last session stays up. Median seconds,
    each scaled by the CPU share the host granted during it."""
    times = []
    for i in range(reps):
        before = cpu_seconds()
        wall = ray_start(ray_tmp)
        times.append(wall * granted_share(before, cpu_seconds()))
        if i < reps - 1:
            ray_stop()
    return median(times)


# ---------------------------------------------------------------------------
# outputs and checks


def _parquet_files(d: str) -> list[str]:
    return [
        os.path.join(dp, f) for dp, _, fs in os.walk(d) for f in fs if f.endswith(".parquet")
    ]


def read_decisions(out_dir: str) -> dict[str, tuple]:
    """``url -> (keep, drop_reason, scrubbed_text)``; a url seen twice maps
    to None so the check counts it."""
    rows: dict[str, tuple] = {}
    for f in _parquet_files(out_dir):
        d = pq.read_table(f, columns=["url", "keep", "drop_reason", "scrubbed_text"]).to_pydict()
        for u, k, r, s in zip(d["url"], d["keep"], d["drop_reason"], d["scrubbed_text"]):
            rows[u] = None if u in rows else (k, r, s)
    return rows


def digest(rows: dict[str, tuple]) -> str:
    h = hashlib.sha256()
    for u in sorted(rows):
        h.update(repr((u, rows[u])).encode())
    return h.hexdigest()


class Checker:
    """Counts rows missing from a pass's output, extra or duplicated, or
    mismatching the first pass or the oracle."""

    def __init__(self, inp: dict):
        self.inp = inp
        self.urls = set()
        for f in inp["fragments"]:
            self.urls.update(pq.read_table(f, columns=["url"]).column("url").to_pylist())
        self.oracle = None
        self.reference: dict[str, tuple] | None = None
        self.attempted = 0
        self.failed = 0

    def start_oracle(self, pool) -> None:
        """Compute the oracle subset on ``pool`` while the run winds down.
        Called only once the timed part of the run is over; DuckDB releases
        the GIL while it works."""
        self.oracle = pool.submit(gen.oracle_decisions, self.inp)

    def check(self, rows: dict[str, tuple]) -> None:
        self.attempted += len(self.urls)
        bad = len(self.urls - rows.keys()) + len(rows.keys() - self.urls)
        bad += sum(1 for v in rows.values() if v is None)
        if self.reference is None:
            self.reference = rows
            bad += sum(1 for u, want in self.oracle.result().items() if rows.get(u) != want)
        else:
            bad += sum(1 for u, v in rows.items() if v is not None and self.reference.get(u) != v)
        self.failed += bad


# ---------------------------------------------------------------------------
# passes


def flagship_pass(pages_dir: str, out: str) -> float:
    from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter

    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    build_quality_filter(pages_dir, PipelineConfig()).write_parquet(out)
    return time.perf_counter() - t0


def _rows_of(fragments: list[str]) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in fragments)


def job_pass(inp: dict, out: str) -> tuple[float, dict]:
    """Two run_job invocations (stop after half the fragments, then
    resume). Returns wall seconds and job facts."""
    from safe_zone_ray.state.lineage import run_job

    shutil.rmtree(out, ignore_errors=True)
    decisions = os.path.join(out, "decisions")
    half = len(inp["fragments"]) // 2
    t0 = time.perf_counter()
    first = run_job(inp["pages_dir"], out, max_fragments=half)
    first_end = time.time()
    first_post_write = first_end - max(os.stat(f).st_mtime for f in _parquet_files(decisions))
    second = run_job(inp["pages_dir"], out)
    second_end = time.time()
    wall = time.perf_counter() - t0
    newest = max(os.stat(f).st_mtime for f in _parquet_files(decisions))
    facts = {
        "first_rows": first.rows_processed,
        "first_rows_want": _rows_of(inp["fragments"][:half]),
        "resume_rows": second.rows_processed,
        "resume_rows_want": _rows_of(inp["fragments"][half:]),
        "resume_skipped": second.fragments_skipped,
        "half": half,
        "post_write_s": first_post_write + (second_end - newest),
        "records": sum(
            len([f for f in os.listdir(os.path.join(out, d)) if f.endswith(".json")])
            for d in ("_manifest", "_lineage")
        ),
    }
    return wall, facts


def _job_failures(facts: dict) -> int:
    bad = abs(facts["first_rows"] - facts["first_rows_want"])
    bad += abs(facts["resume_rows"] - facts["resume_rows_want"])
    if facts["resume_skipped"] != facts["half"]:
        bad += facts["resume_rows_want"] or 1
    return bad


# ---------------------------------------------------------------------------
# workloads


def run(ctx: dict) -> dict:
    """One flagship or job run; ``ctx`` carries the parsed arguments. Each
    pass writes its own output directory; all are checked once Ray is down,
    so checking never runs between timed passes."""
    inp = gen.input_set(ctx["workdir"], ctx["seed"], ctx["pages"])
    checker = Checker(inp)
    out = os.path.join(ctx["workdir"], "out")
    shutil.rmtree(out, ignore_errors=True)
    info: dict = {"input_mix": inp["mix"]}
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            timing_done = functools.partial(checker.start_oracle, pool)
            if ctx["trace"]:
                metrics, outputs = _traced(ctx, inp, out, info, timing_done)
            else:
                metrics, outputs = _timed(ctx, inp, out, info, timing_done)
        for out_dir, facts in outputs:
            _check(checker, out_dir, facts)
        if "serve_checked" in info:
            checker.attempted += info["serve_checked"]["attempted"]
            checker.failed += info["serve_checked"]["failed"]
        if ctx["workload"] == "job":
            _layout_check(checker, os.path.join(out, "flagship"), info)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"metrics": metrics, "attempted": checker.attempted, "failed": checker.failed,
            "info": info}


def _one_pass(workload: str, inp: dict, out: str, info: dict):
    if workload == "flagship":
        return flagship_pass(inp["pages_dir"], out), None
    wall, facts = job_pass(inp, out)
    info.setdefault("job", []).append(facts)
    return wall, facts


def _check(checker: Checker, out: str, facts: dict | None) -> None:
    if facts is None:
        checker.check(read_decisions(out))
    else:
        checker.check(read_decisions(os.path.join(out, "decisions")))
        checker.failed += _job_failures(facts)


def _layout_reference(workload: str, inp: dict, out: str) -> None:
    """job only: an untimed flagship pass before the job's passes, the
    reference for ``_layout_check``; it also takes the first-use cost of
    Ray Data's read and write paths off the job's first pass."""
    if workload == "job":
        flagship_pass(inp["pages_dir"], os.path.join(out, "flagship"))


def _layout_check(checker: Checker, flagship_out: str, info: dict) -> None:
    """job only: a flagship pass must give the same decisions digest."""
    flat = read_decisions(flagship_out)
    info["digest_job"] = digest(checker.reference)
    info["digest_flagship"] = digest(flat)
    if info["digest_job"] != info["digest_flagship"]:
        checker.failed += sum(1 for u, v in flat.items() if checker.reference.get(u) != v) or 1


def _timed(ctx, inp, out, info, timing_done):
    workload = ctx["workload"]
    setup_s = setup(ctx["ray_tmp"], ctx["setup_reps"])
    try:
        _layout_reference(workload, inp, out)
        walls, shares, outputs = [], [], []
        deadline = time.perf_counter() + ctx["seconds"]
        while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
            out_i = os.path.join(out, f"pass{len(walls)}")
            before = cpu_seconds()
            wall, facts = _one_pass(workload, inp, out_i, info)
            shares.append(granted_share(before, cpu_seconds()))
            walls.append(wall)
            outputs.append((out_i, facts))
        rss = vmhwm_mb(tree_pids(os.getpid()))
        timing_done()
    finally:
        ray_stop()
    n_pages = inp["mix"]["pages"]
    info["passes"] = len(walls)
    info["pass_wall_s"] = walls
    info["pass_granted_share"] = shares
    info["wall_docs_per_s"] = median(n_pages / w for w in walls[1:])
    metrics = {
        # the first pass of the workload runs 30-50% slower (first use of
        # Ray Data's read and write paths); it is checked but not timed.
        # Host CPU steal swings pass walls by 2x between runs minutes apart;
        # scaled by the granted CPU share they agree within about 10%
        "docs_per_s": median(n_pages / (w * g) for w, g in zip(walls[1:], shares[1:])),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    return metrics, outputs


def _traced(ctx, inp, out, info, timing_done):
    from perfbench import serve
    from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter
    from safe_zone_ray.sources.pages_io import read_pages

    workload = ctx["workload"]
    ray_start(ctx["ray_tmp"])
    try:
        _layout_reference(workload, inp, out)
        # the first pass of the workload runs slow; it is checked, not timed
        first_out = os.path.join(out, "first")
        _, first_facts = _one_pass(workload, inp, first_out, info)
        plain_out = os.path.join(out, "plain")
        wall_plain, plain_facts = _one_pass(workload, inp, plain_out, info)
        sink = trace.SpanSink.remote()
        traced_out = os.path.join(out, "traced")
        with trace.traced_kernels(sink):
            wall_traced, facts = _one_pass(workload, inp, traced_out, info)
        spans = trace.gather(sink, inp["mix"]["pages"])
        ray.kill(sink)

        t0 = time.perf_counter()
        read_pages(inp["pages_dir"]).materialize()
        read_s = time.perf_counter() - t0
        decided = build_quality_filter(inp["pages_dir"], PipelineConfig()).materialize()
        t0 = time.perf_counter()
        decided.write_parquet(os.path.join(out, "write"))
        write_s = time.perf_counter() - t0
        del decided
        timing_done()
    finally:
        ray_stop()

    spans_path = os.path.join(ctx["workdir"], "spans", f"{workload}-seed{ctx['seed']}.jsonl")
    trace.write_spans(spans_path, spans)
    info["spans_file"] = os.path.relpath(spans_path, ctx["root"])
    info["spans"] = len(spans)
    metrics = dict.fromkeys(ctx["per_layer"], 0.0)
    metrics.update(trace.ledger(spans, wall_traced, CPUS))
    metrics["read.s"] = read_s
    metrics["write.s"] = write_s
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    if plain_facts is not None:
        metrics["lineage.post_write_s"] = plain_facts["post_write_s"]
        metrics["lineage.records"] = plain_facts["records"]
        metrics["job.resume_rows"] = plain_facts["resume_rows"]
    serve_metrics, attempted, failed = serve.probes(ctx)
    metrics.update(serve_metrics)
    info["serve_checked"] = {"attempted": attempted, "failed": failed}
    return metrics, [(first_out, first_facts), (plain_out, plain_facts), (traced_out, facts)]
