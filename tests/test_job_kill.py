"""Kill tests of the resumable job (lineage recovery in the sense of
Discretized Streams, SOSP 2013): each fragment is committed on its own as
soon as its task returns, so killing the driver mid-invocation keeps every
committed fragment and a resume recomputes only the rest; killing a worker
mid-fragment is healed by Ray's task retry without duplicating rows."""

import glob
import hashlib
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest
import ray

from perfbench.util import tree_pids
import safe_zone_ray.pipelines.quality_filter as qf
from safe_zone_ray.state.lineage import fragment_id_of, run_job

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the kernel wrapper below runs in Ray workers, which cannot import this file
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])


@pytest.fixture(scope="module")
def pages(ray_session, sf_dir):
    from safe_zone_ray.pages import synthesize_pages_dir

    # 500 docs x 4 variants / 250 rows per file -> 8 fragments
    return synthesize_pages_dir(
        sf_dir,
        out_dir="/tmp/szr_pages_kill",
        variants=4,
        rows_per_file=250,
        force=True,
    )


@pytest.fixture(scope="module")
def clean(pages, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("clean") / "job")
    run_job(pages, out, resume=False)
    return out


def _records(out: str) -> dict:
    """Every lineage and manifest record by its path under ``out``, and
    every decisions file by its fragment directory (file names differ
    between invocations)."""
    found = {}
    for sub in ("_lineage", "_manifest"):
        for p in glob.glob(os.path.join(out, sub, "*.json")):
            with open(p, "rb") as f:
                found[os.path.relpath(p, out)] = f.read()
    for p in glob.glob(os.path.join(out, "decisions", "*", "*")):
        with open(p, "rb") as f:
            found.setdefault(os.path.basename(os.path.dirname(p)), []).append(f.read())
    return found


def _digest(out: str) -> str:
    """sha256 of the decisions rows, by fragment."""
    h = hashlib.sha256()
    for frag in sorted(os.listdir(os.path.join(out, "decisions"))):
        for p in sorted(glob.glob(os.path.join(out, "decisions", frag, "*"))):
            h.update(frag.encode())
            h.update(repr(pq.read_table(p).to_pylist()).encode())
    return h.hexdigest()


def _decisions_file(out: str, frag: str) -> str | None:
    files = glob.glob(os.path.join(out, "decisions", f"fragment_id={frag}", "*.parquet"))
    return files[0] if files else None


def _tmp_files(out: str) -> list[str]:
    return [
        p for d, _, fs in os.walk(out) for p in (os.path.join(d, f) for f in fs)
        if p.endswith(".tmp")
    ]


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_driver_kill_then_resume(pages, clean, tmp_path):
    """SIGKILL the job's driver and its whole process tree once a fragment
    is committed; the resume keeps the committed fragments' files and ends
    byte-identical to an uninterrupted run."""
    fragments = [fragment_id_of(p) for p in sorted(glob.glob(os.path.join(pages, "*.parquet")))]
    assert len(fragments) >= 4
    out = str(tmp_path / "job")
    mdir = os.path.join(out, "_manifest")
    proc = subprocess.Popen(
        [sys.executable, "-m", "safe_zone_ray.cli", "run", "--input", pages,
         "--output", out, "--num-cpus", "2"],
        cwd=REPO,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 180
    try:
        while not (os.path.isdir(mdir) and any(f.endswith(".json") for f in os.listdir(mdir))):
            assert proc.poll() is None, "the job exited before committing a fragment"
            assert time.monotonic() < deadline, "no fragment committed in time"
            time.sleep(0.002)
        # freeze the job's process group so the tree collected next is the
        # whole of it, then kill every process of the tree
        os.killpg(proc.pid, signal.SIGSTOP)
        pids = tree_pids(proc.pid)
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    deadline = time.monotonic() + 30
    while any(_running(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [p for p in pids if _running(p)], "a process of the killed job is still running"

    committed = sorted(f[: -len(".json")] for f in os.listdir(mdir) if f.endswith(".json"))
    written = [f for f in fragments if _decisions_file(out, f)]
    assert 1 <= len(committed) < len(fragments)
    # fragments commit one by one: the kill came while some were not done
    assert len(written) < len(fragments)
    stat = {}
    for frag in committed:
        st = os.stat(_decisions_file(out, frag))
        stat[frag] = (st.st_ino, st.st_mtime_ns)

    result = run_job(pages, out)
    assert result.fragments_skipped == len(committed)
    assert result.fragments_processed == len(fragments) - len(committed)
    for frag, before in stat.items():
        st = os.stat(_decisions_file(out, frag))
        assert (st.st_ino, st.st_mtime_ns) == before, f"committed fragment {frag} was rewritten"
    assert _digest(out) == _digest(clean)
    assert _records(out) == _records(clean)
    assert _tmp_files(out) == []


class ExitOnFirstAttempt:
    """Test-only kernel wrapper: the first call anywhere creates ``marker``
    and kills its worker process; every later call runs the kernel."""

    def __init__(self, fn, marker: str):
        self.fn, self.marker = fn, marker

    def __call__(self, batch, **kwargs):
        try:
            fd = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return self.fn(batch, **kwargs)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        os._exit(1)


def test_worker_kill_is_retried(pages, clean, tmp_path, monkeypatch):
    """A worker killed mid-fragment on its first attempt: Ray's retry
    writes the same bytes, with no duplicate rows and no temporary file."""
    marker = str(tmp_path / "killed")
    monkeypatch.setattr(qf, "detect_scrub_batch", ExitOnFirstAttempt(qf.detect_scrub_batch, marker))
    out = str(tmp_path / "job")
    result = run_job(pages, out)
    with open(marker) as f:
        assert not _running(int(f.read()))
    assert result.fragments_processed == len(glob.glob(os.path.join(pages, "*.parquet")))
    assert _records(out) == _records(clean)
    for path in sorted(glob.glob(os.path.join(pages, "*.parquet"))):
        files = glob.glob(os.path.join(out, "decisions", f"fragment_id={fragment_id_of(path)}", "*"))
        assert len(files) == 1
        urls = pq.read_table(files[0], columns=["url"]).column("url").to_pylist()
        assert len(urls) == len(set(urls)) == pq.ParquetFile(path).metadata.num_rows
    assert _tmp_files(out) == []
