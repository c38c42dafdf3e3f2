"""The pages read plan is worked out from the input: one block per Parquet
file, the stages fused with the read into one operator, and a block-size
target set on the Dataset's own context, clamped to [1 MiB, Ray's default]
and never written to the global context. The plan comes from the footers
alone (no sampling task), tags rows with the paths Ray's own read gives, and
fails the build on a path without Parquet files or an unreadable footer."""

import glob
import os
import re

import pyarrow.parquet as pq
import pytest
import ray
import ray.data.context
from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE, DataContext

from safe_zone_ray.pages import synthesize_pages_dir
from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter
from safe_zone_ray.sources.pages_io import MIN_BLOCK_BYTES, PAGES_COLUMNS, read_pages


@pytest.fixture(scope="module")
def small_files(ray_session, sf_dir):
    # 500 docs x 4 variants / 500 rows per file -> 4 files
    return synthesize_pages_dir(
        sf_dir,
        out_dir="/tmp/szr_pages_read_plan",
        rows_per_file=500,
        force=True,
    )


@pytest.fixture(scope="module")
def one_file(ray_session, sf_dir):
    return synthesize_pages_dir(sf_dir)  # one file of 2000 rows


def _files(d):
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def _blocks(ds):
    return [ray.get(ref) for ref in ds.materialize().to_arrow_refs()]


def _operator_names(summary):
    names = [op.operator_name for op in summary.operators_stats]
    for parent in summary.parents:
        names += _operator_names(parent)
    return names


def _footer_bytes(path):
    meta = pq.read_metadata(path)
    return sum(
        meta.row_group(g).column(i).total_uncompressed_size
        for g in range(meta.num_row_groups)
        for i in range(meta.num_columns)
        if meta.schema.column(i).name in PAGES_COLUMNS
    )


def test_one_block_per_file(small_files):
    files = _files(small_files)
    assert len(files) == 4
    blocks = _blocks(read_pages(small_files, include_paths=True))
    assert len(blocks) == len(files)
    # each block is one whole file
    assert sorted(
        (b.column("path").unique().to_pylist(), b.num_rows) for b in blocks
    ) == [([f], pq.ParquetFile(f).metadata.num_rows) for f in files]


def test_job_file_list_gives_one_block_per_fragment(small_files):
    """The job reads a list of fragment files with their paths."""
    files = _files(small_files)[1:]
    blocks = _blocks(read_pages(files, include_paths=True))
    assert sorted(b.column("path").unique().to_pylist() for b in blocks) == [[f] for f in files]


def test_flagship_plan_is_one_fused_operator(small_files):
    out = build_quality_filter(small_files, PipelineConfig()).materialize()
    assert _operator_names(out._plan.stats().to_summary()) == [
        "ReadParquet->MapBatches(run_chain)"
    ]
    assert out.num_blocks() == len(_files(small_files))


def test_global_context_untouched(small_files):
    before = DataContext.get_current().target_max_block_size
    ds = read_pages(small_files)
    assert ds.context.target_max_block_size != before
    assert DataContext.get_current().target_max_block_size == before


def test_target_tracks_largest_file(one_file):
    (f,) = _files(one_file)
    target = read_pages(one_file).context.target_max_block_size
    assert MIN_BLOCK_BYTES < target == 2 * _footer_bytes(f) < DEFAULT_TARGET_MAX_BLOCK_SIZE


def test_target_clamped_below(small_files):
    assert 2 * max(_footer_bytes(f) for f in _files(small_files)) < MIN_BLOCK_BYTES
    assert read_pages(small_files).context.target_max_block_size == MIN_BLOCK_BYTES


def test_target_clamped_above(one_file, monkeypatch):
    """The target never exceeds Ray's default (lowered here so a small file
    exceeds it)."""
    cap = MIN_BLOCK_BYTES + 1
    monkeypatch.setattr(ray.data.context, "DEFAULT_TARGET_MAX_BLOCK_SIZE", cap)
    assert read_pages(one_file).context.target_max_block_size == cap


def _paths(ds):
    return sorted(ds.unique("path"))


def test_paths_match_ray_read_parquet(small_files):
    """The ``path`` column holds what ``ray.data.read_parquet`` writes there,
    for a directory and for a list of files."""
    files = _files(small_files)
    for source in (small_files, files[:2]):
        want = ray.data.read_parquet(source, columns=["url"], include_paths=True)
        got = read_pages(source, include_paths=True, columns=["url"])
        assert _paths(got) == _paths(want)
        assert got.count() == want.count()
        assert got.schema().names == ["url", "path"]


def test_build_submits_no_sampling_task(small_files, monkeypatch):
    """The plan comes from the footers: Ray's per-file sampling tasks (which
    estimate an encoding ratio the one-block-per-file plan never uses) are
    not launched, neither when the Dataset is built nor when it runs."""
    from ray.data._internal.datasource import parquet_datasource

    def refuse(*args, **kwargs):
        raise AssertionError("sampling task submitted")

    monkeypatch.setattr(parquet_datasource, "sample_fragments", refuse)
    with pytest.raises(AssertionError, match="sampling task"):
        ray.data.read_parquet(small_files)  # the patch does reach Ray's own read
    blocks = _blocks(read_pages(small_files))
    rows = sum(pq.ParquetFile(f).metadata.num_rows for f in _files(small_files))
    assert sum(b.num_rows for b in blocks) == rows


def test_empty_directory_fails_with_its_name(ray_session, tmp_path):
    """A path with no Parquet file fails the build, naming the path (the
    column-pruned ``ray.data.read_parquet`` failed only when run, with a
    ``KeyError`` on the first read column)."""
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(FileNotFoundError, match=re.escape(str(empty))):
        read_pages(str(empty))


def test_corrupt_file_fails_with_its_name(small_files, tmp_path):
    """A file whose footer cannot be read fails the build, naming the file,
    also when it is not the first file of the directory."""
    import shutil

    import pyarrow as pa

    d = tmp_path / "pages"
    d.mkdir()
    shutil.copy(_files(small_files)[0], d / "pages-00000.parquet")
    bad = d / "pages-00001.parquet"
    bad.write_bytes(b"not a parquet file")
    with pytest.raises(pa.ArrowInvalid, match=re.escape(str(bad))):
        read_pages(str(d))
