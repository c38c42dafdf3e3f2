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
4. folds the lineage counters inside the write (each write task returns the
   per-fragment counts of what it wrote), checks each fragment's rows against
   its input file's footer, and writes lineage then manifest records.

Kernels are deterministic (hash-derived placeholders, pure functions of the
row), so a resumed run produces output identical to an uninterrupted one.
"""

from __future__ import annotations

import collections
import glob
import json
import os
import shutil
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from ray.data._internal.datasource.parquet_datasink import ParquetDatasink
from ray.data.block import BlockAccessor

from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter
from safe_zone_ray.sources.pages_io import read_pages
from safe_zone_ray.state.metrics import write_metrics_sidecar
from safe_zone_ray.state.siem import drain_lineage


def fragment_id_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


# fragment_id_of as one Arrow kernel: the basename up to its last dot, unless
# that dot is one of the basename's leading dots (os.path.splitext's rule)
_FRAGMENT_ID_RE = r"(?s)^(?:.*/)?(?P<fragment_id>\.*[^/]*?)(?:\.[^./]*)?$"


def _tag_fragment(batch: pa.Table) -> pa.Table:
    parts = pc.extract_regex(batch.column("path"), _FRAGMENT_ID_RE)
    frags = pc.struct_field(parts, "fragment_id")
    return batch.drop_columns(["path"]).append_column("fragment_id", frags)


# map<string,int32> as its entry list: list_parent_indices on the map type
# crashes the process under pyarrow 16
_BREAKDOWN_ENTRIES = pa.list_(pa.struct([("key", pa.string()), ("value", pa.int32())]))


def _new_counts() -> dict[str, collections.Counter]:
    """"n": rows/kept/pii, "hist": drop reasons, "types": recognizer hits."""
    return {k: collections.Counter() for k in ("n", "hist", "types")}


def _rows(t: pa.Table, *names: str):
    return zip(*(t.column(c).to_pylist() for c in names))


def fold_lineage(t: pa.Table) -> dict[str, dict]:
    """Per-fragment lineage counts of a decisions table: rows, kept,
    contains_pii, the non-empty drop_reason histogram and the per-recognizer
    sums of ``breakdown``, each one Arrow group-by."""
    acc: dict[str, dict] = collections.defaultdict(_new_counts)
    base = t.group_by("fragment_id").aggregate(
        [([], "count_all"), ("keep", "sum"), ("contains_pii", "sum")]
    )
    for f, n, k, p in _rows(base, "fragment_id", "count_all", "keep_sum", "contains_pii_sum"):
        # a group whose keep/contains_pii are all null sums to null
        acc[f]["n"].update(rows=n, kept=k or 0, pii=p or 0)
    reasons = t.filter(pc.fill_null(pc.not_equal(t.column("drop_reason"), ""), False))
    hist = reasons.group_by(["fragment_id", "drop_reason"]).aggregate([([], "count_all")])
    for f, r, n in _rows(hist, "fragment_id", "drop_reason", "count_all"):
        acc[f]["hist"][r] += n
    entries = t.column("breakdown").cast(_BREAKDOWN_ENTRIES)
    flat = pc.list_flatten(entries)
    types = pa.table({
        "fragment_id": pc.take(t.column("fragment_id"), pc.list_parent_indices(entries)),
        "key": pc.struct_field(flat, "key"),
        "value": pc.struct_field(flat, "value"),
    }).group_by(["fragment_id", "key"]).aggregate([("value", "sum")])
    for f, key, v in _rows(types, "fragment_id", "key", "value_sum"):
        acc[f]["types"][key] += v
    return dict(acc)


def merge_lineage(partials: list[dict[str, dict]]) -> dict[str, dict]:
    merged: dict[str, dict] = collections.defaultdict(_new_counts)
    for part in partials:
        for frag, p in part.items():
            for k, counts in p.items():
                merged[frag][k].update(counts)
    return merged


class LineageParquetDatasink(ParquetDatasink):
    """``write_parquet``'s sink that also folds lineage: each write task
    returns ``fold_lineage`` of the rows it wrote, and the driver's instance
    keeps them in ``write_returns``. No second pass over the written files."""

    def write(self, blocks, ctx) -> dict[str, dict]:
        blocks = list(blocks)
        super().write(blocks, ctx)
        tables = [t for t in (BlockAccessor.for_block(b).to_arrow() for b in blocks) if t.num_rows]
        return fold_lineage(pa.concat_tables(tables)) if tables else {}

    def on_write_complete(self, write_result) -> None:
        super().on_write_complete(write_result)
        self.write_returns = write_result.write_returns


@dataclass
class JobResult:
    out_dir: str
    fragments_total: int = 0
    fragments_skipped: int = 0
    fragments_processed: int = 0
    rows_processed: int = 0
    lineage: list[dict] = field(default_factory=list)


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


def write_json_atomic(path: str, obj: dict, indent: int | None = None) -> None:
    """tmp file + fsync + rename: readers see the old file or the whole new
    one, never a prefix."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=indent)
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
    from safe_zone_ray import __version__ as engine_version
    from safe_zone_ray.registry import load_registry

    cfg = cfg or PipelineConfig()
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    done = _done_fragments(out_dir) if resume else set()
    if not resume:
        shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.join(out_dir, "_manifest"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "_lineage"), exist_ok=True)
    _clean_uncommitted(out_dir, done)

    todo = [f for f in files if fragment_id_of(f) not in done]
    result = JobResult(out_dir, len(files), fragments_skipped=len(files) - len(todo))
    if max_fragments is not None:
        todo = todo[:max_fragments]
    if not todo:
        result.lineage = _load_lineage(out_dir)
        return result

    ds = read_pages(todo, include_paths=True).map_batches(_tag_fragment, batch_format="pyarrow")
    decisions = build_quality_filter(ds, cfg)
    # same sink, partitioning and file names as write_parquet
    sink = LineageParquetDatasink(
        os.path.join(out_dir, "decisions"),
        partition_cols=["fragment_id"],
        dataset_uuid=decisions._uuid,
    )
    decisions.write_datasink(sink)
    merged = merge_lineage(sink.write_returns)

    try:
        registry_version = load_registry(cfg.registry_path).version
    except Exception:
        registry_version = "unknown"
    for path in todo:
        frag = fragment_id_of(path)
        m, n = merged[frag], merged[frag]["n"]
        want = pq.ParquetFile(path).metadata.num_rows
        if n["rows"] != want:
            raise RuntimeError(
                f"fragment {frag}: wrote {n['rows']} decision rows, input {path} has "
                f"{want}; not committed"
            )
        lineage_rec = {
            "fragment_id": frag,
            "engine_version": engine_version,
            "registry_version": registry_version,
            "input_path": path,
            "rows": n["rows"],
            "kept": n["kept"],
            "dropped": n["rows"] - n["kept"],
            "contains_pii": n["pii"],
            "drop_reason_hist": dict(sorted(m["hist"].items())),
            # SecurityEvent corpus analogue (SURVEY S6/S7): per-fragment
            # detection counts by recognizer type
            "detection_type_hist": dict(sorted(m["types"].items())),
        }
        write_json_atomic(os.path.join(out_dir, "_lineage", f"{frag}.json"), lineage_rec)
        # manifest write is the commit point — lineage is durable first
        write_json_atomic(
            os.path.join(out_dir, "_manifest", f"{frag}.json"),
            {"fragment_id": frag, "rows": n["rows"]},
        )
        result.fragments_processed += 1
        result.rows_processed += n["rows"]

    # session-wide operator metrics (bucket-cap drops, convergence rounds)
    # land beside the per-fragment records so the job audit sees them
    write_metrics_sidecar(out_dir)

    # optional SIEM drain of the per-fragment lineage records (no-op unless
    # $SIEM_WEBHOOK_URL is set) — the batch engine's analogue of the
    # reference's per-request SecurityEvent feed (siem.go:16-40)
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
