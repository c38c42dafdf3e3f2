"""Repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload {flagship,job} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Run it from the repository root. ``--trace 0`` measures the end-to-end
metrics named in BENCHMARK.json; ``--trace 1`` is a separate traced run that
prints the per-layer ledger. Either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it print every metric by name with its unit, the input mix and a
single-thread CPU probe taken before and after the run. ``failed_frac`` is
``failed / attempted`` of that object.

Workloads (their inputs come only from ``--seed``), on Ray with 4 CPUs:

- flagship: ``build_quality_filter(pages, PipelineConfig()).write_parquet``
  over 8k pages, repeated until the time is spent.
- job: ``run_job`` over the same pages in two invocations, the first stopped
  after half the fragments, the second resuming; repeated likewise.

End-to-end metrics:

- docs_per_s: input pages / pass wall time, median over the run's passes
  after the first (which runs slower on Ray Data's first use). Each pass's
  wall time is scaled by the share of the CPU time asked for during it that
  the host granted (busy / (busy + stolen), from ``/proc/stat``): on a
  shared host, steal swings raw wall times by 2x between runs minutes apart.
  The raw figure is printed beside it as ``wall_docs_per_s``.
- setup_s: median of 3 set-ups, each a Ray start plus a warm-up pass, each
  scaled by its granted CPU share like the passes.
- peak_rss_mb: summed VmHWM of this process and every process under it.

The traced run also times the ``/detect`` serving path (core.detect, server,
registry) against ``python -m safe_zone_ray.server`` on one connection.
Spans of the traced run are written to
``.perfbench/spans/<workload>-seed<N>.jsonl``. Ray's session files go under
``.perfbench/ray`` unless that path is too long for Ray's unix sockets, in
which case a private temporary directory is used and removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("flagship", "job")
SCALES = {  # pages per input set, /detect requests probed, set-ups per run
    "full": {"pages": 8_000, "requests": 500, "setup_reps": 3},
    "smoke": {"pages": 2_000, "requests": 100, "setup_reps": 1},  # sf0.001: 500 docs x4
}
RAY_TMP_MAX = 40  # longer session roots overflow Ray's unix socket paths

# Which end-to-end metric each layer metric should move, and on which workload.
MOVES = {
    "read.s": "docs_per_s (flagship, job)",
    "extract.busy_s": "docs_per_s (flagship, job)",
    "extract.us_per_doc": "docs_per_s (flagship, job)",
    "extract.calls": "docs_per_s (flagship, job)",
    "extract.null_text_rows": "docs_per_s (flagship, job)",
    "langquality.busy_s": "docs_per_s (flagship, job)",
    "langquality.us_per_doc": "docs_per_s (flagship, job)",
    "detect.busy_s": "docs_per_s (flagship, job)",
    "detect.us_per_doc": "docs_per_s (flagship, job)",
    "detect.prefilter_rows": "docs_per_s (flagship, job)",
    "detect.pii_rows": "docs_per_s (flagship, job)",
    "detect.prefilter_precision": "docs_per_s (flagship, job)",
    "decide.busy_s": "docs_per_s (flagship)",
    "decide.us_per_doc": "docs_per_s (flagship)",
    "write.s": "docs_per_s (flagship)",
    "ray.residual_s": "docs_per_s (flagship, job)",
    "ray.core_busy_frac": "docs_per_s (flagship, job)",
    "trace.overhead_s": "none (cost of tracing itself)",
    "lineage.post_write_s": "docs_per_s (job)",
    "lineage.records": "docs_per_s (job)",
    "job.resume_rows": "docs_per_s (job)",
    "detect_one.us_per_req": "docs_per_s (flagship, job) via prefiltered rows",
    "handle_detect.us_per_req": "none here: /detect latency (no serve workload)",
    "transport.us_per_req": "none here: /detect latency (no serve workload)",
    "registry.compile_ms": "none here: admin write latency (no serve workload)",
    "admin.p50_ms": "none here: /detect tail latency (no serve workload)",
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _ray_tmp(workdir: str) -> tuple[str, bool]:
    path = os.path.join(workdir, "ray")
    if len(path) <= RAY_TMP_MAX:
        os.makedirs(path, exist_ok=True)
        return path, False
    return tempfile.mkdtemp(prefix="pb-ray-"), True


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(ROOT, "safe_zone_ray")):
        print(f"perfbench: no safe_zone_ray package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    from perfbench import batch
    from perfbench.util import cpu_probe_ms

    spec = _spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    ray_tmp, private = _ray_tmp(workdir)
    ctx = {
        "root": ROOT,
        "workdir": workdir,
        "ray_tmp": ray_tmp,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "per_layer": [m["name"] for m in spec["per_layer"]],
        **SCALES[args.scale],
    }
    probe_before = cpu_probe_ms()
    try:
        res = batch.run(ctx)
    finally:
        shutil.rmtree(ray_tmp if private else os.path.join(workdir, "ray"), ignore_errors=True)
    probe_after = cpu_probe_ms()

    metrics = res["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for key, value in res["info"].items():
        print(f"# {key}: {json.dumps(value)}")
    print(f"# cpu_probe_ms: before {probe_before:.1f} after {probe_after:.1f}")
    print(f"# failed_frac: {res['failed'] / max(1, res['attempted']):.6g} "
          f"({res['failed']} of {res['attempted']})")
    for name in units:
        moves = f"   moves {MOVES[name]}" if args.trace else ""
        print(f"{args.workload:8s} {name:28s} {metrics[name]:14.6g} {units[name]}{moves}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }), flush=True)
    return 0


def smoke() -> int:
    """Run every workload briefly at sf0.001 scale, traced and untraced, and
    check that each run prints every metric BENCHMARK.json names."""
    spec = _spec()
    bad = 0
    for workload in WORKLOADS:
        for tr in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", "1", "--seconds", "2", "--trace", str(tr), "--scale", "smoke"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            lines = p.stdout.strip().splitlines()
            want = {m["name"] for m in spec["per_layer" if tr else "end_to_end"]}
            try:
                last = json.loads(lines[-1])
                got = set(last["metrics"])
                ok = p.returncode == 0 and got == want and last["correct"]
                for name in want:  # each metric is also printed on its own line
                    ok = ok and any(line.split()[1:2] == [name] for line in lines[:-1])
            except (IndexError, ValueError, KeyError):
                ok = False
            print(f"smoke {workload} trace={tr}: {'ok' if ok else 'FAILED'}", flush=True)
            bad += not ok
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(SCALES), default="full")
    ap.add_argument("--smoke", action="store_true", help="run every workload briefly")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
