"""Lineage folded inside the job's Parquet write: the fold kernel on a
hand-built block, the commit-time row check, the Arrow fragment-id kernel,
and a job whose lineage records must equal an independent recount of the
written decisions files."""

import collections
import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from safe_zone_ray.sources.pages_io import PAGES_COLUMNS
from safe_zone_ray.state import lineage
from safe_zone_ray.state.lineage import (
    _tag_fragment,
    fold_lineage,
    fragment_id_of,
    merge_lineage,
    run_job,
)

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
    """Ray hands the sink sliced, multi-chunk blocks; partials of any split
    merge to the whole block's counts."""
    t = _block()
    chunked = pa.concat_tables([t.slice(3), t.slice(0, 1), t.slice(1, 2)])
    assert chunked.column("breakdown").num_chunks == 3
    whole = _plain(fold_lineage(t))
    assert _plain(fold_lineage(chunked)) == whole
    parts = [fold_lineage(t.slice(i, 1)) for i in range(t.num_rows)]
    assert _plain(merge_lineage(parts + [{}])) == whole
    assert fold_lineage(t.slice(0, 0)) == {}


@pytest.mark.parametrize(
    "path",
    [
        "/data/pages/pages-00001.parquet",
        "/data/v1.2/part-0.parquet",  # dotted directory name
        "/data/pages/noext",  # no extension
        "/data/pages/a.b.c.parquet",  # several dots in the file name
        "/data/pages/a..b",
        "/data/pages/a.",
        "/data/pages/.hidden",
        "/data/pages/..a.b",
        "/data/pages/...",
        "relative.parquet",
        "/data/pages/",
    ],
)
def test_tag_fragment_matches_fragment_id_of(path):
    tagged = _tag_fragment(pa.table({"path": [path, path], "url": ["u", None]}))
    assert tagged.column_names == ["url", "fragment_id"]
    assert tagged.column("fragment_id").to_pylist() == [fragment_id_of(path)] * 2


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


def _split_read(paths, include_paths=False, columns=None):
    """Each file read as two blocks, so each fragment's rows are written by
    several tasks and its lineage merges several partials."""
    return ray.data.read_parquet(
        paths,
        columns=columns or PAGES_COLUMNS,
        include_paths=include_paths,
        override_num_blocks=2 * len(paths),
    )


def test_job_lineage_equals_recount_of_written_files(pages, tmp_path, monkeypatch):
    monkeypatch.setattr(lineage, "read_pages", _split_read)
    out = str(tmp_path / "job")
    result = run_job(pages, out)
    inputs = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    assert result.fragments_processed == len(inputs) == 2
    for path in inputs:
        frag = fragment_id_of(path)
        with open(os.path.join(out, "_lineage", f"{frag}.json")) as f:
            rec = json.load(f)
        want = _recount(out, frag)
        assert want.pop("files") > 1, "fragment written by one task: nothing merged"
        assert {k: rec[k] for k in want} == want
        assert want["rows"] == pq.ParquetFile(path).metadata.num_rows
        assert rec["input_path"] == path and rec["fragment_id"] == frag
        with open(os.path.join(out, "_manifest", f"{frag}.json")) as f:
            assert json.load(f) == {"fragment_id": frag, "rows": want["rows"]}


def test_default_plan_writes_one_file_per_fragment(pages, tmp_path):
    """The default read plan gives each input file one block and one task,
    so each fragment directory holds exactly one decisions file."""
    out = str(tmp_path / "job")
    run_job(pages, out)
    for path in sorted(glob.glob(os.path.join(pages, "*.parquet"))):
        frag = fragment_id_of(path)
        want = _recount(out, frag)
        assert want.pop("files") == 1
        with open(os.path.join(out, "_lineage", f"{frag}.json")) as f:
            rec = json.load(f)
        assert {k: rec[k] for k in want} == want


def test_row_mismatch_commits_no_manifest(pages, tmp_path, monkeypatch):
    """Folded rows that disagree with the input file's footer stop the
    commit: the error names the fragment and its manifest is not written."""
    victim = fragment_id_of(sorted(glob.glob(os.path.join(pages, "*.parquet")))[0])
    merge = lineage.merge_lineage

    def short_merge(partials):
        merged = merge(partials)
        merged[victim]["n"]["rows"] -= 1
        return merged

    monkeypatch.setattr(lineage, "merge_lineage", short_merge)
    out = str(tmp_path / "job")
    with pytest.raises(RuntimeError, match=victim):
        run_job(pages, out, max_fragments=1)
    assert not os.path.exists(os.path.join(out, "_manifest", f"{victim}.json"))
    assert not os.path.exists(os.path.join(out, "_lineage", f"{victim}.json"))
