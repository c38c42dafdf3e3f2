"""Lineage of the resumable job: the fold kernel on a hand-built block, and
jobs whose lineage must equal an independent recount of the written
decisions files, whose row check and commit order hold per fragment, and
whose fragments keep one decisions file each."""

import collections
import glob
import json
import os
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

import safe_zone_ray.pipelines.quality_filter as qf
from safe_zone_ray.pipelines.quality_filter import PipelineConfig, quality_stages
from safe_zone_ray.state import lineage
from safe_zone_ray.state.lineage import fold_lineage, fragment_id_of, run_job

# the kernel wrapper below runs in Ray workers, which cannot import this file
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])

_BREAKDOWN = pa.map_(pa.string(), pa.int32())


def _block() -> pa.Table:
    # two fragments interleaved in one block; null and empty breakdowns,
    # null and empty drop reasons, null keep / contains_pii
    return pa.table({
        "fragment_id": ["f1", "f2", "f1", "f2", "f1", "f1"],
        "keep": [True, False, None, True, False, True],
        "contains_pii": [True, None, False, True, True, False],
        "drop_reason": ["", "lang", None, "", "quality:symbol_ratio", ""],
        "breakdown": pa.array(
            [[("EMAIL", 2), ("TCKN", 1)], None, [], [("EMAIL", 1)], [("TCKN", 3)], None],
            type=_BREAKDOWN,
        ),
    })


def _plain(folded: dict) -> dict:
    return {f: {k: dict(c) for k, c in v.items()} for f, v in folded.items()}


def test_fold_hand_built_block():
    assert _plain(fold_lineage(_block())) == {
        "f1": {
            "n": {"rows": 4, "kept": 2, "pii": 2},
            "hist": {"quality:symbol_ratio": 1},
            "types": {"EMAIL": 2, "TCKN": 4},
        },
        "f2": {
            "n": {"rows": 2, "kept": 1, "pii": 1},
            "hist": {"lang": 1},
            "types": {"EMAIL": 1},
        },
    }


def test_fold_of_slices_merges_to_fold_of_whole():
    """A fragment's decisions arrive in several chunks (row groups, kernel
    output); the fold of any split equals the fold of the whole block."""
    t = _block()
    chunked = pa.concat_tables([t.slice(3), t.slice(0, 1), t.slice(1, 2)])
    assert chunked.column("breakdown").num_chunks == 3
    assert _plain(fold_lineage(chunked)) == _plain(fold_lineage(t))
    assert fold_lineage(t.slice(0, 0)) == {}


@pytest.fixture(scope="module")
def pages(ray_session):
    from safe_zone_ray.pages import synthesize_pages_dir

    # 500 docs x 4 variants / 1000 rows per file -> 2 fragments
    return synthesize_pages_dir(
        "/root/testdata/sf0.001",
        out_dir="/tmp/szr_pages_lineage_fold",
        variants=4,
        rows_per_file=1000,
        force=True,
    )


def _recount(out_dir: str, frag: str) -> dict:
    """A fragment's lineage counts straight from its written files."""
    files = sorted(glob.glob(os.path.join(out_dir, "decisions", f"fragment_id={frag}", "*")))
    t = pa.concat_tables([pq.read_table(f) for f in files])
    reasons = t.filter(pc.not_equal(t.column("drop_reason"), ""))
    hist = reasons.group_by("drop_reason").aggregate([([], "count_all")])
    types = collections.Counter()
    for entries in t.column("breakdown").to_pylist():
        for key, n in entries or []:
            types[key] += n
    kept = pc.sum(t.column("keep")).as_py() or 0
    return {
        "files": len(files),
        "rows": t.num_rows,
        "kept": kept,
        "dropped": t.num_rows - kept,
        "contains_pii": pc.sum(t.column("contains_pii")).as_py() or 0,
        "drop_reason_hist": dict(sorted(zip(*(hist.column(c).to_pylist()
                                              for c in ("drop_reason", "count_all"))))),
        "detection_type_hist": dict(sorted(types.items())),
    }


def _fragments(pages):
    return sorted(glob.glob(os.path.join(pages, "*.parquet")))


def _committed(out: str, frag: str) -> dict[str, bool]:
    part = os.path.join(out, "decisions", f"fragment_id={frag}")
    return {
        "manifest": os.path.exists(os.path.join(out, "_manifest", f"{frag}.json")),
        "lineage": os.path.exists(os.path.join(out, "_lineage", f"{frag}.json")),
        "decisions": bool(glob.glob(os.path.join(part, "*.parquet"))),
    }


def test_job_lineage_equals_recount_of_written_files(pages, tmp_path):
    out = str(tmp_path / "job")
    result = run_job(pages, out)
    inputs = _fragments(pages)
    assert result.fragments_processed == len(inputs) == 2
    for path in inputs:
        frag = fragment_id_of(path)
        with open(os.path.join(out, "_lineage", f"{frag}.json")) as f:
            rec = json.load(f)
        want = _recount(out, frag)
        assert want.pop("files") == 1
        assert {k: rec[k] for k in want} == want
        assert want["rows"] == pq.ParquetFile(path).metadata.num_rows
        assert rec["input_path"] == path and rec["fragment_id"] == frag
        with open(os.path.join(out, "_manifest", f"{frag}.json")) as f:
            assert json.load(f) == {"fragment_id": frag, "rows": want["rows"]}


def test_default_plan_writes_one_file_per_fragment(pages, tmp_path):
    """Each fragment directory holds exactly one decisions file, also when
    the fragment's task runs again within the invocation (a Ray retry, a
    late straggler): it rewrites the same file with the same bytes and
    leaves no temporary file."""
    out = str(tmp_path / "job")
    run_job(pages, out)
    path = _fragments(pages)[0]
    frag = fragment_id_of(path)
    (first,) = glob.glob(os.path.join(out, "decisions", f"fragment_id={frag}", "*"))
    with open(first, "rb") as f:
        before = f.read()
    rows = pq.ParquetFile(path).metadata.num_rows
    stages = quality_stages(PipelineConfig())
    again = [lineage._run_fragment.remote(path, frag, rows, first, stages) for _ in range(2)]
    assert [c["n"]["rows"] for c in ray.get(again)] == [rows, rows]
    assert glob.glob(os.path.join(os.path.dirname(first), "*")) == [first]
    with open(first, "rb") as f:
        assert f.read() == before
    for path in _fragments(pages):
        frag = fragment_id_of(path)
        want = _recount(out, frag)
        assert want.pop("files") == 1
        with open(os.path.join(out, "_lineage", f"{frag}.json")) as f:
            rec = json.load(f)
        assert {k: rec[k] for k in want} == want


class DropOneRow:
    """Test-only decide kernel: drops the first row of a block that starts
    with ``url``."""

    def __init__(self, fn, url: str):
        self.fn, self.url = fn, url

    def __call__(self, batch: pa.Table, **kwargs) -> pa.Table:
        out = self.fn(batch, **kwargs)
        return out.slice(1) if out.column("url")[0].as_py() == self.url else out


def test_row_mismatch_commits_no_manifest(pages, tmp_path, monkeypatch):
    """A fragment whose decision rows disagree with its input footer is not
    committed: the error names it, it gets no decisions file, lineage or
    manifest, and the other fragment still commits."""
    victim, other = _fragments(pages)
    url = pq.read_table(victim, columns=["url"]).column("url")[0].as_py()
    monkeypatch.setattr(qf, "decide_batch", DropOneRow(qf.decide_batch, url))
    out = str(tmp_path / "job")
    with pytest.raises(RuntimeError, match=fragment_id_of(victim)):
        run_job(pages, out)
    assert _committed(out, fragment_id_of(victim)) == dict.fromkeys(
        ("manifest", "lineage", "decisions"), False
    )
    assert _committed(out, fragment_id_of(other)) == dict.fromkeys(
        ("manifest", "lineage", "decisions"), True
    )


def test_lineage_write_failure_commits_no_manifest(pages, tmp_path, monkeypatch):
    """The manifest is written only once the fragment's lineage record is:
    a lineage write that fails leaves that fragment uncommitted."""
    victim = fragment_id_of(_fragments(pages)[0])
    out = str(tmp_path / "job")
    write = lineage.write_json_atomic

    def failing_write(path, obj, indent=None):
        if path == os.path.join(out, "_lineage", f"{victim}.json"):
            raise OSError(f"injected lineage write failure for {victim}")
        write(path, obj, indent)

    monkeypatch.setattr(lineage, "write_json_atomic", failing_write)
    with pytest.raises(OSError, match=victim):
        run_job(pages, out)
    assert not _committed(out, victim)["manifest"]
    assert not _committed(out, victim)["lineage"]


def test_empty_input_commits_zero_rows(pages, tmp_path):
    """An input file with no rows commits ``rows: 0`` and writes no
    decisions file."""
    src = tmp_path / "pages"
    src.mkdir()
    full = _fragments(pages)[0]
    table = pq.read_table(full)
    pq.write_table(table, str(src / "a.parquet"))
    pq.write_table(table.slice(0, 0), str(src / "b.parquet"))
    out = str(tmp_path / "job")
    result = run_job(str(src), out)
    assert result.fragments_processed == 2
    assert result.rows_processed == table.num_rows
    with open(os.path.join(out, "_manifest", "b.json")) as f:
        assert json.load(f) == {"fragment_id": "b", "rows": 0}
    with open(os.path.join(out, "_lineage", "b.json")) as f:
        rec = json.load(f)
    assert (rec["rows"], rec["kept"], rec["dropped"], rec["contains_pii"]) == (0, 0, 0, 0)
    assert rec["drop_reason_hist"] == {} and rec["detection_type_hist"] == {}
    assert _committed(out, "b")["decisions"] is False
    assert _committed(out, "a")["decisions"] is True
