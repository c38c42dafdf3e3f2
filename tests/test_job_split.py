"""Row-range split of the resumable job: with fewer fragments than CPUs,
each fragment's rows run as several chain tasks whose outputs merge into the
fragment's one decisions file. The file and the commit records equal an
unsplit run's byte for byte, a worker killed in a later range is healed by
Ray's retry, a row mismatch in one range keeps only that fragment
uncommitted, and nothing is split at or above one fragment per CPU or below
the row floor."""

import glob
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

import safe_zone_ray.pipelines.quality_filter as qf
from safe_zone_ray.pipelines.quality_filter import PipelineConfig, quality_stages
from safe_zone_ray.state import lineage
from safe_zone_ray.state.lineage import SPLIT_FLOOR_ROWS, fragment_id_of, run_job

# the kernel wrappers below run in Ray workers, which cannot import this file
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])


@pytest.fixture(scope="module")
def pages(ray_session, sf_dir):
    from safe_zone_ray.pages import synthesize_pages_dir

    assert ray.cluster_resources()["CPU"] == 4
    # 500 docs x 4 variants / 1000 rows per file -> 2 fragments, each cut
    # into 2 ranges of 500 rows on 4 CPUs
    return synthesize_pages_dir(
        sf_dir, out_dir="/tmp/szr_pages_split", rows_per_file=1000, force=True
    )


def _fragments(pages):
    return sorted(glob.glob(os.path.join(pages, "*.parquet")))


@pytest.fixture(scope="module")
def unsplit(pages, tmp_path_factory):
    """An uninterrupted run with the split turned off."""
    out = str(tmp_path_factory.mktemp("unsplit") / "job")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lineage, "SPLIT_FLOOR_ROWS", 10**9)
        run_job(pages, out)
    return out


def _records(out: str) -> dict:
    """Lineage and manifest records by path, decisions files by fragment."""
    found = {}
    for p in glob.glob(os.path.join(out, "_lineage", "*.json")) + glob.glob(
        os.path.join(out, "_manifest", "*.json")
    ):
        with open(p, "rb") as f:
            found[os.path.relpath(p, out)] = f.read()
    for p in glob.glob(os.path.join(out, "decisions", "*", "*")):
        with open(p, "rb") as f:
            found.setdefault(os.path.basename(os.path.dirname(p)), []).append(f.read())
    return found


def _tmp_files(out: str) -> list[str]:
    return [os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs if f.endswith(".tmp")]


class CountRows:
    """Test-only decide kernel: appends each call's row count to ``log``."""

    def __init__(self, fn, log: str):
        self.fn, self.log = fn, log

    def __call__(self, batch, **kwargs):
        with open(self.log, "a") as f:
            f.write(f"{batch.num_rows}\n")
        return self.fn(batch, **kwargs)


def _decide_calls(monkeypatch, tmp_path, pages, **kwargs) -> list[int]:
    log = str(tmp_path / "decide.log")
    out = str(tmp_path / "job")
    with monkeypatch.context() as m:
        m.setattr(qf, "decide_batch", CountRows(qf.decide_batch, log))
        run_job(pages, out, **kwargs)
    with open(log) as f:
        return sorted(int(line) for line in f)


def test_fewer_fragments_than_cpus_split_into_ranges(pages, tmp_path, monkeypatch):
    """2 fragments on 4 CPUs: the chain runs on 4 blocks of 500 rows; 1
    fragment of 1000 rows is capped at 2 ranges by the row floor."""
    assert len(_fragments(pages)) == 2 and SPLIT_FLOOR_ROWS == 500
    assert _decide_calls(monkeypatch, tmp_path / "two", pages) == [500] * 4
    one = _decide_calls(monkeypatch, tmp_path / "one", pages, max_fragments=1)
    assert one == [500] * 2


def test_one_fragment_runs_as_one_range_per_cpu(sf_dir, tmp_path, monkeypatch):
    """1 fragment of 2000 rows on 4 CPUs runs as 4 ranges of 500 rows, and
    its file equals the unsplit task's byte for byte, so the ranges are
    joined in order."""
    from safe_zone_ray.pages import synthesize_pages_dir

    pages = synthesize_pages_dir(sf_dir)
    (path,) = _fragments(pages)
    assert _decide_calls(monkeypatch, tmp_path, pages) == [500] * 4
    (split,) = glob.glob(os.path.join(tmp_path, "job", "decisions", "*", "*"))
    frag, dest = fragment_id_of(path), str(tmp_path / "whole.parquet")
    stages = quality_stages(PipelineConfig())
    ray.get(lineage._run_fragment.remote(path, frag, 2000, dest, stages))
    with open(split, "rb") as a, open(dest, "rb") as b:
        assert a.read() == b.read()


def test_no_split_at_one_fragment_per_cpu_or_below_floor(sf_dir, tmp_path, monkeypatch):
    """4 fragments of 500 rows on 4 CPUs run unsplit even with a lower
    floor, and 2 of them run unsplit because their ranges would fall under
    the floor."""
    from safe_zone_ray.pages import synthesize_pages_dir

    pages = synthesize_pages_dir(
        sf_dir, out_dir="/tmp/szr_pages_split_500", rows_per_file=500, force=True
    )
    assert len(_fragments(pages)) == 4
    with monkeypatch.context() as m:
        m.setattr(lineage, "SPLIT_FLOOR_ROWS", 100)
        assert _decide_calls(monkeypatch, tmp_path / "four", pages) == [500] * 4
    two = _decide_calls(monkeypatch, tmp_path / "two", pages, max_fragments=2)
    assert two == [500] * 2


def test_split_output_equals_unsplit(pages, unsplit, tmp_path):
    """Each fragment's file equals the one an unsplit ``_run_fragment``
    writes, byte for byte; lineage and manifest records are identical."""
    out = str(tmp_path / "job")
    run_job(pages, out)
    assert _records(out) == _records(unsplit)
    stages = quality_stages(PipelineConfig())
    for path in _fragments(pages):
        frag = fragment_id_of(path)
        rows = pq.ParquetFile(path).metadata.num_rows
        dest = str(tmp_path / "whole" / f"{frag}.parquet")
        ray.get(lineage._run_fragment.remote(path, frag, rows, dest, stages))
        (split,) = glob.glob(os.path.join(out, "decisions", f"fragment_id={frag}", "*"))
        with open(split, "rb") as a, open(dest, "rb") as b:
            assert a.read() == b.read(), frag


class ExitInLaterRange:
    """Test-only detect kernel: the first call on a block that does not
    start a fragment creates ``marker`` and kills its worker; every later
    call runs the kernel."""

    def __init__(self, fn, marker: str, heads: set):
        self.fn, self.marker, self.heads = fn, marker, heads

    def __call__(self, batch, **kwargs):
        if batch.column("url")[0].as_py() in self.heads:
            return self.fn(batch, **kwargs)
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self.fn(batch, **kwargs)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        os._exit(1)


def test_worker_kill_in_later_range_is_retried(pages, unsplit, tmp_path, monkeypatch):
    """A worker killed inside a later range: Ray's retry of that range gives
    the same bytes, no duplicate url and no temporary file."""
    heads = {pq.read_table(p, columns=["url"]).column("url")[0].as_py() for p in _fragments(pages)}
    marker = str(tmp_path / "killed")
    monkeypatch.setattr(
        qf, "detect_scrub_batch", ExitInLaterRange(qf.detect_scrub_batch, marker, heads)
    )
    out = str(tmp_path / "job")
    result = run_job(pages, out)
    assert os.path.exists(marker)
    assert result.fragments_processed == 2
    assert _records(out) == _records(unsplit)
    for path in _fragments(pages):
        (f,) = glob.glob(os.path.join(out, "decisions", f"fragment_id={fragment_id_of(path)}", "*"))
        urls = pq.read_table(f, columns=["url"]).column("url").to_pylist()
        assert len(urls) == len(set(urls)) == pq.ParquetFile(path).metadata.num_rows
    assert _tmp_files(out) == []


class DropFirstRowOf:
    """Test-only decide kernel: drops the first row of a block that starts
    with ``url``."""

    def __init__(self, fn, url: str):
        self.fn, self.url = fn, url

    def __call__(self, batch: pa.Table, **kwargs) -> pa.Table:
        out = self.fn(batch, **kwargs)
        return out.slice(1) if out.column("url")[0].as_py() == self.url else out


def test_row_mismatch_in_later_range_commits_nothing(pages, tmp_path, monkeypatch):
    """A range that loses a row leaves its fragment with no decisions file,
    lineage or manifest, and the error names the fragment; the other
    fragment still commits."""
    victim, other = _fragments(pages)
    url = pq.read_table(victim, columns=["url"]).column("url")[500].as_py()
    monkeypatch.setattr(qf, "decide_batch", DropFirstRowOf(qf.decide_batch, url))
    out = str(tmp_path / "job")
    with pytest.raises(RuntimeError, match=fragment_id_of(victim)):
        run_job(pages, out)

    def committed(frag):
        return [
            bool(glob.glob(os.path.join(out, *parts)))
            for parts in (
                ("decisions", f"fragment_id={frag}", "*.parquet"),
                ("_lineage", f"{frag}.json"),
                ("_manifest", f"{frag}.json"),
            )
        ]

    assert committed(fragment_id_of(victim)) == [False] * 3
    assert committed(fragment_id_of(other)) == [True] * 3
