"""Checkpoint/resume fixture (FIXTURES.md section 8): split input into >= 8
fragments, kill the job after k fragments (simulated via max_fragments),
re-run, and assert (a) completed fragments are not recomputed and (b) the
final decisions table is identical to an uninterrupted run."""

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from safe_zone_ray.pages import synthesize_pages_dir
from safe_zone_ray.pipelines.quality_filter import PipelineConfig
from safe_zone_ray.state.lineage import run_job


@pytest.fixture(scope="module")
def small_pages(ray_session):
    # 500 docs x 4 variants / 250 rows per file -> 8 fragments
    return synthesize_pages_dir(
        "/root/testdata/sf0.001",
        out_dir="/tmp/szr_pages_resume",
        variants=4,
        rows_per_file=250,
        force=True,
    )


def _table_hash(decisions_dir: str) -> str:
    import glob

    files = sorted(glob.glob(os.path.join(decisions_dir, "**", "*.parquet"), recursive=True))
    t = pa.concat_tables(
        [pq.read_table(f, columns=["url", "keep", "drop_reason", "scrubbed_text"]) for f in files]
    )
    rows = sorted(
        f"{u}|{k}|{r}|{s}"
        for u, k, r, s in zip(
            t.column("url").to_pylist(),
            t.column("keep").to_pylist(),
            t.column("drop_reason").to_pylist(),
            t.column("scrubbed_text").to_pylist(),
        )
    )
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode())
    return h.hexdigest()


def test_resume_without_recompute(small_pages):
    cfg = PipelineConfig()
    out_a = "/tmp/szr_job_interrupted"
    out_b = "/tmp/szr_job_clean"
    import shutil

    shutil.rmtree(out_a, ignore_errors=True)
    shutil.rmtree(out_b, ignore_errors=True)

    # phase 1: process only 3 fragments, then "die"
    import glob as _glob

    n_frags = len(_glob.glob(os.path.join(small_pages, "*.parquet")))
    assert n_frags >= 8
    r1 = run_job(small_pages, out_a, cfg, max_fragments=3)
    assert r1.fragments_processed == 3
    assert r1.fragments_total == n_frags
    done_after_kill = set(os.listdir(os.path.join(out_a, "_manifest")))
    assert len(done_after_kill) == 3

    # record the completed fragments' output files + mtimes
    ddir = os.path.join(out_a, "decisions")
    before = {}
    for part in os.listdir(ddir):
        pdir = os.path.join(ddir, part)
        for f in os.listdir(pdir):
            p = os.path.join(pdir, f)
            before[p] = os.path.getmtime(p)

    # phase 2: resume — must skip the 3 committed fragments
    r2 = run_job(small_pages, out_a, cfg)
    assert r2.fragments_skipped == 3
    assert r2.fragments_processed == n_frags - 3
    # committed outputs untouched (same files, same mtimes → no recompute)
    for p, mt in before.items():
        assert os.path.exists(p), f"committed output {p} was deleted"
        assert os.path.getmtime(p) == mt, f"committed output {p} was rewritten"

    # uninterrupted reference run
    r3 = run_job(small_pages, out_b, cfg, resume=False)
    assert r3.fragments_processed == n_frags
    assert _table_hash(os.path.join(out_a, "decisions")) == _table_hash(
        os.path.join(out_b, "decisions")
    )

    # lineage records: one per fragment, rows sum to the input size
    assert len(r2.lineage) == n_frags
    assert sum(l["rows"] for l in r2.lineage) == 2000
    assert all(l["rows"] == l["kept"] + l["dropped"] for l in r2.lineage)
    hist = {}
    for l in r2.lineage:
        for k, v in l["drop_reason_hist"].items():
            hist[k] = hist.get(k, 0) + v
    assert hist, "expected non-empty drop-reason histogram"


def test_idempotent_noop_resume(small_pages):
    out = "/tmp/szr_job_interrupted"  # completed by the previous test
    import glob as _glob

    n_frags = len(_glob.glob(os.path.join(small_pages, "*.parquet")))
    r = run_job(small_pages, out, PipelineConfig())
    assert r.fragments_processed == 0
    assert r.fragments_skipped == n_frags


def test_truncated_manifest_is_recomputed(small_pages, tmp_path):
    """A manifest that does not parse is not a commit: its fragment's output
    is discarded and recomputed, committed neighbours are left alone, and no
    temporary file of the atomic writes is left behind."""
    import json

    out = str(tmp_path / "job")
    r1 = run_job(small_pages, out, PipelineConfig(), max_fragments=2)
    assert r1.fragments_processed == 2
    torn, kept = sorted(l["fragment_id"] for l in r1.lineage)
    mpath = os.path.join(out, "_manifest", f"{torn}.json")
    with open(mpath) as f:
        committed = f.read()
    with open(mpath, "w") as f:
        f.write(committed[: len(committed) // 2])

    def mtimes(frag):
        d = os.path.join(out, "decisions", f"fragment_id={frag}")
        return {p: os.path.getmtime(os.path.join(d, p)) for p in os.listdir(d)}

    torn_before, kept_before = mtimes(torn), mtimes(kept)
    r2 = run_job(small_pages, out, PipelineConfig(), max_fragments=1)
    assert r2.fragments_skipped == 1
    assert r2.fragments_processed == 1
    assert r2.rows_processed == json.loads(committed)["rows"]
    with open(mpath) as f:
        assert json.loads(f.read()) == json.loads(committed)
    assert mtimes(kept) == kept_before
    assert set(mtimes(torn)).isdisjoint(torn_before)  # old partial output gone
    for sub in ("_manifest", "_lineage"):
        assert not [f for f in os.listdir(os.path.join(out, sub)) if f.endswith(".tmp")]
