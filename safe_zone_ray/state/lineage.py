"""Checkpoint/resume + per-partition lineage (SURVEY.md sections 4.2 / 7.1
step 7; north_star: "every partition writes lineage records (input fragment
ids, row counts, drop reasons histogram) and checkpoints to Parquet so a
killed ray job resumes without recomputation").

Layout under ``out_dir``:

    decisions/fragment_id=<frag>/part-<run>.parquet
        hive-partitioned decisions, one file per fragment
    _manifest/<frag>.json
        written AFTER the fragment's lineage is durable — the commit record;
        its presence means the fragment is complete
    _lineage/<frag>.json
        row counts, kept/dropped, drop-reason histogram

The unit of checkpointing is one input Parquet file (fragment). A run:
1. lists input fragments, loads the manifest, prunes completed fragments;
2. deletes any partition dir whose fragment has NO manifest (partial output
   from a crash — only uncommitted work is discarded) and any stray ``*.tmp``
   file of an atomic write cut short;
3. reads every remaining input footer, then submits one plain Ray task per
   fragment: it reads the file, runs the stage chain, folds the lineage
   counters, checks the folded rows against the footer's row count, and only
   then writes the fragment's one decisions file (tmp + fsync + rename).
   When the invocation has fewer fragments than the cluster has CPUs, each
   fragment is cut into contiguous row ranges (at most CPUs // fragments of
   them, none under ``SPLIT_FLOOR_ROWS`` rows): the driver submits a task per
   later range, and the fragment's task runs the first range itself, then
   appends the later ranges' outputs in order before the same fold, check
   and single write;
4. as each fragment's task returns, writes that fragment's lineage then
   manifest record, so no fragment's commit waits for another's and a kill
   loses only the fragments still in flight.

Kernels are deterministic (hash-derived placeholders, pure functions of the
row), so a resumed run produces output identical to an uninterrupted one.
Each invocation names its files once (``part-<run>.parquet``), so within it
a Ray retry of a fragment's task rewrites the same file with the same bytes
instead of adding rows.
"""

from __future__ import annotations

import collections
import glob
import json
import os
import shutil
import uuid
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from safe_zone_ray.pipelines.quality_filter import PipelineConfig, quality_stages, run_chain
from safe_zone_ray.sources.pages_io import PAGES_COLUMNS
from safe_zone_ray.state.metrics import write_metrics_sidecar
from safe_zone_ray.state.siem import drain_lineage


def fragment_id_of(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


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
    """Drop the output of fragments without a manifest and every stray
    ``*.tmp`` of an atomic write that a kill cut short."""
    ddir = os.path.join(out_dir, "decisions")
    if os.path.isdir(ddir):
        for part in os.listdir(ddir):
            if part.startswith("fragment_id=") and part.split("=", 1)[1] not in done:
                shutil.rmtree(os.path.join(ddir, part), ignore_errors=True)
    for sub in ("decisions/*", "_manifest", "_lineage"):
        for tmp in glob.glob(os.path.join(out_dir, sub, "*.tmp")):
            os.remove(tmp)


# A fragment is cut into row ranges only while every range keeps at least
# this many rows. Warm single-thread ``run_chain`` per call on seed-31
# benchmark pages (4-CPU host): 125 rows 15.6 ms, 250 19.2, 500 26.0,
# 1,000 40.8, 2,000 68.6, i.e. about 12 ms fixed (8-10 ms of it detect's,
# by ``scripts/kernel_us.py``'s ``fixed_us``) plus 28 us/row, so a range
# under ~425 rows spends more on the fixed cost than on its rows.
# ``run_job`` medians over 15 invocations of 2 fragments on a 4-CPU Ray,
# unsplit -> 2 ranges each: 2,000-row fragments 99.7 -> 84.7 ms (1,000-row
# ranges), 1,000-row 64.8 -> 59.7 ms (500-row ranges), 500-row 48.0 ->
# 47.2 ms (250-row ranges, inside the noise).
SPLIT_FLOOR_ROWS = 500


def _row_ranges(rows: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous ``(offset, length)`` ranges covering ``rows``."""
    bounds = [rows * i // parts for i in range(parts + 1)]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


@ray.remote
def _run_range(path: str, offset: int, length: int, stages) -> pa.Table:
    """The stage chain over one later row range of a split fragment."""
    return run_chain(pq.read_table(path, columns=PAGES_COLUMNS).slice(offset, length), stages)


@ray.remote
def _run_fragment(
    path: str, frag: str, rows_want: int, dest: str, stages, head_rows=None, rest=()
) -> dict:
    """Read one fragment, run the stage chain, fold and check its lineage,
    then write its decisions to ``dest``; returns the fold. A fragment whose
    folded rows disagree with its input footer raises and leaves no file.
    ``dest`` is fixed for every attempt of the task, so a Ray retry or a
    late straggler rewrites the same bytes instead of adding rows.

    A split fragment's task runs the chain on its first ``head_rows`` rows
    only and appends, in order, the outputs of the ``_run_range`` tasks in
    ``rest`` (their refs come inside a list, so Ray does not wait for them
    before this task starts)."""
    table = pq.read_table(path, columns=PAGES_COLUMNS)
    if head_rows is not None:
        table = table.slice(0, head_rows)
    counts = _new_counts()
    if table.num_rows:
        table = pa.concat_tables([run_chain(table, stages), *ray.get(list(rest))])
        tagged = table.append_column("fragment_id", pa.repeat(frag, table.num_rows))
        counts = fold_lineage(tagged).get(frag, counts)
    if counts["n"]["rows"] != rows_want:
        raise RuntimeError(
            f"fragment {frag}: wrote {counts['n']['rows']} decision rows, input {path} "
            f"has {rows_want}; not committed"
        )
    if table.num_rows:
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        tmp = f"{dest}.{uuid.uuid4().hex}.tmp"  # one per attempt
        with open(tmp, "wb") as f:
            pq.write_table(table, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, dest)
    return counts


def run_job(
    pages_dir: str,
    out_dir: str,
    cfg: PipelineConfig | None = None,
    resume: bool = True,
    max_fragments: int | None = None,
) -> JobResult:
    """Run (or resume) the quality-filter job: one Ray task per fragment
    still to do, each fragment committed as soon as its task returns. With
    fewer fragments than cluster CPUs, each fragment's rows are spread over
    ``CPUs // fragments`` range tasks (fewer if a range would fall under
    ``SPLIT_FLOOR_ROWS``) whose outputs its task joins into its one file. If a
    task fails, the fragments that finished are committed and the first
    failure is raised. ``max_fragments`` bounds how many NEW fragments are
    processed this invocation (used by the resume test to simulate a kill
    between checkpoints). ``cfg.word_lm_sample_rows`` is not used here: the
    job trains no word LM."""
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

    # every footer is read before any task runs: a file that cannot be read
    # fails the invocation, with its name, and commits nothing
    rows_want = {}
    for path in todo:
        try:
            rows_want[path] = pq.read_metadata(path).num_rows
        except (OSError, pa.ArrowException) as e:
            raise type(e)(f"cannot read the Parquet footer of {path}: {e}") from e
    try:
        registry_version = load_registry(cfg.registry_path).version
    except Exception:
        registry_version = "unknown"

    # one decisions file per fragment, named for this invocation
    name = f"part-{uuid.uuid4().hex}.parquet"
    stages = quality_stages(cfg)
    # fewer fragments than CPUs: cut each into row ranges, so that the
    # chain tasks of the invocation are never more than its CPUs
    per_fragment = int(ray.cluster_resources().get("CPU", 1)) // len(todo)
    pending = {}
    for path in todo:
        frag = fragment_id_of(path)
        dest = os.path.join(out_dir, "decisions", f"fragment_id={frag}", name)
        rows = rows_want[path]
        parts = max(1, min(per_fragment, rows // SPLIT_FLOOR_ROWS))
        (_, head), *tail = _row_ranges(rows, parts)
        rest = [_run_range.remote(path, offset, n, stages) for offset, n in tail]
        pending[_run_fragment.remote(path, frag, rows, dest, stages, head, rest)] = path
    error = None
    while pending:
        [ref], _ = ray.wait(list(pending))
        path = pending.pop(ref)
        try:
            counts = ray.get(ref)
        except ray.exceptions.RayError as e:  # commit the rest, then raise
            error = error or e
            continue
        frag, n = fragment_id_of(path), counts["n"]
        lineage_rec = {
            "fragment_id": frag,
            "engine_version": engine_version,
            "registry_version": registry_version,
            "input_path": path,
            "rows": n["rows"],
            "kept": n["kept"],
            "dropped": n["rows"] - n["kept"],
            "contains_pii": n["pii"],
            "drop_reason_hist": dict(sorted(counts["hist"].items())),
            # SecurityEvent corpus analogue (SURVEY S6/S7): per-fragment
            # detection counts by recognizer type
            "detection_type_hist": dict(sorted(counts["types"].items())),
        }
        write_json_atomic(os.path.join(out_dir, "_lineage", f"{frag}.json"), lineage_rec)
        # manifest write is the commit point — lineage is durable first
        write_json_atomic(
            os.path.join(out_dir, "_manifest", f"{frag}.json"),
            {"fragment_id": frag, "rows": n["rows"]},
        )
        result.fragments_processed += 1
        result.rows_processed += n["rows"]
    if error is not None:
        raise error

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
