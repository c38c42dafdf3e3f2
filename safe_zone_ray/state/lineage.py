"""Checkpoint/resume + per-partition lineage (SURVEY.md sections 4.2 / 7.1
step 7; north_star: "every partition writes lineage records (input fragment
ids, row counts, drop reasons histogram) and checkpoints to Parquet so a
killed ray job resumes without recomputation").

Layout under ``out_dir``:

    decisions/fragment_id=<frag>/*.parquet    (hive-partitioned decisions)
    _manifest/<frag>.json                     (written AFTER the fragment's
                                               lineage is durable — the commit
                                               record; its presence means the
                                               fragment is complete)
    _lineage/<frag>.json                      (row counts, kept/dropped,
                                               drop-reason histogram)

The unit of checkpointing is one input Parquet file (fragment). A run:
1. lists input fragments, loads the manifest, prunes completed fragments;
2. deletes any partition dir whose fragment has NO manifest (partial output
   from a crash — only uncommitted work is discarded);
3. streams the remaining fragments through the pipeline in ONE Dataset
   (pipelining across fragments), writing hive-partitioned by fragment_id;
4. reads back just the tiny lineage columns from the written output, computes
   per-fragment stats, writes lineage then manifest records.

Kernels are deterministic (hash-derived placeholders, pure functions of the
row), so a resumed run produces output identical to an uninterrupted one.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from dataclasses import dataclass, field

import pyarrow as pa

from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter
from safe_zone_ray.sources.pages_io import read_pages


def fragment_id_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _registry_version(cfg: PipelineConfig) -> str:
    from safe_zone_ray.registry import load_registry

    try:
        return load_registry(cfg.registry_path).version
    except Exception:
        return "unknown"


@dataclass
class JobResult:
    out_dir: str
    fragments_total: int = 0
    fragments_skipped: int = 0
    fragments_processed: int = 0
    rows_processed: int = 0
    lineage: list[dict] = field(default_factory=list)


def _list_fragments(pages_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))


def _done_fragments(out_dir: str) -> set[str]:
    """Fragments with a manifest that parses. A manifest cut short (a
    non-atomic write torn by a crash) is not a commit: the fragment is
    recomputed."""
    mdir = os.path.join(out_dir, "_manifest")
    if not os.path.isdir(mdir):
        return set()
    done = set()
    for f in os.listdir(mdir):
        if not f.endswith(".json"):
            continue
        try:
            with open(os.path.join(mdir, f)) as fh:
                json.load(fh)
        except (OSError, ValueError):
            continue
        done.add(os.path.splitext(f)[0])
    return done


def _write_json_atomic(path: str, obj: dict) -> None:
    """tmp file + fsync + rename: readers see the old file or the whole new
    one, never a prefix."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def _clean_uncommitted(out_dir: str, done: set[str]) -> None:
    ddir = os.path.join(out_dir, "decisions")
    if not os.path.isdir(ddir):
        return
    for part in os.listdir(ddir):
        if part.startswith("fragment_id=") and part.split("=", 1)[1] not in done:
            shutil.rmtree(os.path.join(ddir, part), ignore_errors=True)


def run_job(
    pages_dir: str,
    out_dir: str,
    cfg: PipelineConfig | None = None,
    resume: bool = True,
    max_fragments: int | None = None,
) -> JobResult:
    """Run (or resume) the quality-filter job. ``max_fragments`` bounds how
    many NEW fragments are processed this invocation (used by the resume test
    to simulate a kill between checkpoints)."""
    import ray.data

    cfg = cfg or PipelineConfig()
    files = _list_fragments(pages_dir)
    done = _done_fragments(out_dir) if resume else set()
    if not resume:
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "_lineage"), exist_ok=True)
    _clean_uncommitted(out_dir, done)

    todo = [f for f in files if fragment_id_of(f) not in done]
    if max_fragments is not None:
        todo = todo[:max_fragments]

    result = JobResult(
        out_dir=out_dir,
        fragments_total=len(files),
        fragments_skipped=len(files) - len([f for f in files if fragment_id_of(f) not in done]),
    )
    if not todo:
        result.lineage = _load_lineage(out_dir)
        return result

    ds = read_pages(todo, include_paths=True)

    def tag_fragment(batch: pa.Table) -> pa.Table:
        frags = [fragment_id_of(p) for p in batch.column("path").to_pylist()]
        batch = batch.drop_columns(["path"])
        return batch.append_column("fragment_id", pa.array(frags, pa.string()))

    ds = ds.map_batches(tag_fragment, batch_format="pyarrow")
    decisions = build_quality_filter(ds, cfg)
    decisions.write_parquet(os.path.join(out_dir, "decisions"), partition_cols=["fragment_id"])

    # Lineage pass: column-pruned read-back of the freshly written output
    # (3 small columns), per-fragment aggregation, then commit manifests.
    new_frags = sorted({fragment_id_of(f) for f in todo})
    frag_to_input = {fragment_id_of(f): f for f in todo}
    new_files = [
        f
        for fr in new_frags
        for f in sorted(
            glob.glob(os.path.join(out_dir, "decisions", f"fragment_id={fr}", "*.parquet"))
        )
    ]
    lineage_ds = ray.data.read_parquet(
        new_files,
        columns=["keep", "drop_reason", "contains_pii", "breakdown"],
        include_paths=True,
    )

    def frag_stats(batch: pa.Table) -> pa.Table:
        import collections

        frags = [p.split("fragment_id=")[1].split("/")[0] for p in batch.column("path").to_pylist()]
        keeps = batch.column("keep").to_pylist()
        reasons = batch.column("drop_reason").to_pylist()
        piis = batch.column("contains_pii").to_pylist()
        breakdowns = batch.column("breakdown").to_pylist()
        acc: dict[str, dict] = {}
        for fr, k, r, p, b in zip(frags, keeps, reasons, piis, breakdowns):
            a = acc.setdefault(
                fr,
                {"rows": 0, "kept": 0, "pii": 0,
                 "hist": collections.Counter(), "types": collections.Counter()},
            )
            a["rows"] += 1
            a["kept"] += bool(k)
            a["pii"] += bool(p)
            if r:
                a["hist"][r] += 1
            if b:
                # breakdown is a map column → list of (type, count) pairs
                for key, cnt in (b.items() if isinstance(b, dict) else b):
                    a["types"][key] += cnt
        return pa.Table.from_pylist(
            [
                {
                    "fragment_id": fr,
                    "rows": a["rows"],
                    "kept": a["kept"],
                    "pii": a["pii"],
                    "hist": json.dumps(dict(a["hist"]), sort_keys=True),
                    "types": json.dumps(dict(a["types"]), sort_keys=True),
                }
                for fr, a in acc.items()
            ]
        )

    partials = lineage_ds.map_batches(frag_stats, batch_format="pyarrow").take_all()
    import collections

    merged: dict[str, dict] = {}
    for row in partials:
        m = merged.setdefault(
            row["fragment_id"],
            {"rows": 0, "kept": 0, "pii": 0,
             "hist": collections.Counter(), "types": collections.Counter()},
        )
        m["rows"] += row["rows"]
        m["kept"] += row["kept"]
        m["pii"] += row["pii"]
        m["hist"].update(json.loads(row["hist"]))
        m["types"].update(json.loads(row["types"]))

    for frag in new_frags:
        m = merged.get(
            frag,
            {"rows": 0, "kept": 0, "pii": 0,
             "hist": collections.Counter(), "types": collections.Counter()},
        )
        from safe_zone_ray import __version__ as _engine_version

        lineage_rec = {
            "fragment_id": frag,
            "engine_version": _engine_version,
            "registry_version": _registry_version(cfg),
            "input_path": frag_to_input[frag],
            "rows": m["rows"],
            "kept": m["kept"],
            "dropped": m["rows"] - m["kept"],
            "contains_pii": m["pii"],
            "drop_reason_hist": dict(sorted(m["hist"].items())),
            # SecurityEvent corpus analogue (SURVEY S6/S7): per-fragment
            # detection counts by recognizer type
            "detection_type_hist": dict(sorted(m["types"].items())),
        }
        _write_json_atomic(os.path.join(out_dir, "_lineage", f"{frag}.json"), lineage_rec)
        # manifest write is the commit point — lineage is durable first
        _write_json_atomic(
            os.path.join(out_dir, "_manifest", f"{frag}.json"),
            {"fragment_id": frag, "rows": m["rows"]},
        )
        result.fragments_processed += 1
        result.rows_processed += m["rows"]

    # session-wide operator metrics (bucket-cap drops, convergence rounds)
    # land beside the per-fragment records so the job audit sees them
    from safe_zone_ray.state.metrics import write_metrics_sidecar

    write_metrics_sidecar(out_dir)

    # optional SIEM drain of the per-fragment lineage records (no-op unless
    # $SIEM_WEBHOOK_URL is set) — the batch engine's analogue of the
    # reference's per-request SecurityEvent feed (siem.go:16-40)
    from safe_zone_ray.state.siem import drain_lineage

    drain_lineage(out_dir)

    result.lineage = _load_lineage(out_dir)
    return result


def _load_lineage(out_dir: str) -> list[dict]:
    ldir = os.path.join(out_dir, "_lineage")
    out = []
    for f in sorted(os.listdir(ldir)) if os.path.isdir(ldir) else []:
        # underscore-prefixed sidecars (_metrics.json) are not fragment records
        if f.endswith(".json") and not f.startswith("_"):
            with open(os.path.join(ldir, f)) as fh:
                out.append(json.load(fh))
    return out
