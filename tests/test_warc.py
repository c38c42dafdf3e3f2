"""WARC ingest (sources/warc.py): spec-shaped round-trip, gzip multi-member
layout, record-type filtering, lenient truncation, and pipeline smoke into
the detect stage."""

import gzip
import os

import pyarrow as pa

from safe_zone_ray.sources.warc import (
    _parse_warc_records,
    parse_warc_batch,
    read_pages_warc,
    write_warc,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RECORDS = [
    {
        "type": "response",
        "url": "http://example.com/a",
        "date": "2017-03-01T12:00:00Z",
        "html": b"<html><body>call 555-0100 now</body></html>",
    },
    {
        "type": "request",  # must be skipped
        "url": "http://example.com/a",
        "date": "2017-03-01T12:00:00Z",
        "text": "GET /a HTTP/1.1",
    },
    {
        "type": "conversion",
        "url": "http://example.com/b",
        "date": "2017-03-01T12:00:05.250Z",
        "text": "plain extracted text with an email bob@example.com",
    },
]


def _expect(table: pa.Table):
    assert table.column_names == ["url", "warc_ts", "html", "text", "lang"]
    assert table.num_rows == 2  # request record skipped
    rows = table.to_pylist()
    assert rows[0]["url"] == "http://example.com/a"
    assert rows[0]["html"] == b"<html><body>call 555-0100 now</body></html>"
    assert rows[0]["text"] is None
    assert str(rows[0]["warc_ts"]) == "2017-03-01 12:00:00"
    assert rows[1]["url"] == "http://example.com/b"
    assert rows[1]["html"] is None
    assert "bob@example.com" in rows[1]["text"]
    assert str(rows[1]["warc_ts"]) == "2017-03-01 12:00:05.250000"


def _batch_for(path):
    with open(path, "rb") as f:
        raw = f.read()
    return pa.Table.from_arrays([pa.array([raw], pa.binary())], names=["bytes"])


def test_warc_roundtrip_plain(tmp_path):
    p = str(tmp_path / "x.warc")
    write_warc(RECORDS, p)
    _expect(parse_warc_batch(_batch_for(p)))


def test_warc_roundtrip_gzip_members(tmp_path):
    p = str(tmp_path / "x.warc.gz")
    write_warc(RECORDS, p, compress=True)
    with open(p, "rb") as f:
        raw = f.read()
    # crawl-dump layout: one gzip member per record, concatenated
    assert raw[:2] == b"\x1f\x8b" and raw.count(b"\x1f\x8b\x08") >= 3
    _expect(parse_warc_batch(_batch_for(p)))


def test_warc_http_headers_stripped(tmp_path):
    p = str(tmp_path / "x.warc")
    write_warc(RECORDS, p)
    t = parse_warc_batch(_batch_for(p))
    # the HTTP status line + headers must NOT leak into the html payload
    assert not t.to_pylist()[0]["html"].startswith(b"HTTP/1.1")


def test_warc_truncated_record_stops_cleanly(tmp_path):
    p = str(tmp_path / "x.warc")
    write_warc(RECORDS, p)
    with open(p, "rb") as f:
        raw = f.read()
    clipped = raw[: len(raw) - 30]  # cut inside the final record's body
    got = list(_parse_warc_records(clipped))
    assert len(got) == 2  # first two records intact, truncated third dropped


def test_warc_inter_record_garbage_skipped(tmp_path):
    p = str(tmp_path / "x.warc")
    write_warc(RECORDS[:1], p)
    with open(p, "rb") as f:
        one = f.read()
    got = list(_parse_warc_records(b"junkjunk" + one + b"\x00\x00" + one))
    assert len(got) == 2


def test_read_pages_warc_dataset(ray_session, tmp_path):
    d = tmp_path / "warcs"
    os.makedirs(d)
    write_warc(RECORDS, str(d / "shard-0.warc"))
    write_warc(RECORDS, str(d / "shard-1.warc.gz"), compress=True)
    ds = read_pages_warc(str(d))
    t = pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)
    assert t.num_rows == 4
    assert sorted(t.column_names) == sorted(["url", "warc_ts", "html", "text", "lang"])


def test_warc_to_detect_smoke(ray_session, tmp_path):
    """Parsed WARC text flows through the detect kernel unmodified — the
    ingest is format-plumbing only."""
    from safe_zone_ray.core.detect import detect_one
    from safe_zone_ray.registry import get_compiled_registry

    p = str(tmp_path / "x.warc")
    write_warc(RECORDS, p)
    t = parse_warc_batch(_batch_for(p))
    res = detect_one(t.to_pylist()[1]["text"], get_compiled_registry(), rid="warc-smoke")
    assert any(d.type == "EMAIL" for d in res.detections)


def test_cli_convert_warc_to_pages(tmp_path):
    """`tsz convert --format warc` normalises crawl archives into the pages
    parquet layout the resumable `run` job consumes."""
    import json
    import subprocess
    import sys

    d = tmp_path / "warcs"
    os.makedirs(d)
    write_warc(RECORDS, str(d / "shard-0.warc.gz"), compress=True)
    out = tmp_path / "pages_pq"
    r = subprocess.run(
        [
            sys.executable,
            "-m",
            "safe_zone_ray.cli",
            "convert",
            "--input",
            str(d),
            "--format",
            "warc",
            "--output",
            str(out),
            "--num-cpus",
            "2",
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-500:]
    payload = json.loads(r.stdout.strip().splitlines()[-1])
    assert payload["rows"] == 2  # request record skipped


def test_warc_to_quality_filter_e2e(tmp_path):
    """Crawl archive -> `tsz convert --format warc` -> resumable `run` job:
    the WARC ingest feeds the flagship pipeline end to end (html pages get
    extracted+scored; the WET conversion record carries text only and the
    extract stage must fall through to it)."""
    import json
    import subprocess
    import sys

    d = tmp_path / "warcs"
    os.makedirs(d)
    records = []
    for i in range(6):
        records.append(
            {
                "type": "response",
                "url": f"http://site{i % 2}.example/page{i}",
                "date": "2024-05-01T10:00:00Z",
                "html": (
                    b"<html><title>t</title><body>"
                    + (b"the quick brown fox jumps over the lazy dog. " * 12)
                    + (b"call 555-0100 now. " if i == 0 else b"")
                    + b"</body></html>"
                ),
            }
        )
    records.append(
        {
            "type": "conversion",
            "url": "http://site2.example/wet",
            "date": "2024-05-01T11:00:00Z",
            "text": "plain extracted wet text " * 20,
        }
    )
    write_warc(records, str(d / "shard-0.warc.gz"), compress=True)
    pages = tmp_path / "pages"
    conv = subprocess.run(
        [sys.executable, "-m", "safe_zone_ray.cli", "convert",
         "--input", str(d), "--format", "warc",
         "--output", str(pages), "--num-cpus", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert conv.returncode == 0, conv.stderr[-2000:]
    out = subprocess.run(
        [sys.executable, "-m", "safe_zone_ray.cli", "run",
         "--input", str(pages), "--output", str(tmp_path / "job"),
         "--num-cpus", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    data = json.loads(out.stdout[out.stdout.index("{"):])
    assert data["rows_processed"] == 7


def test_write_wet_round_trip(ray_session, tmp_path):
    """Distributed WET export: kept scrubbed corpus → one .warc.gz per
    block → read back via read_pages_warc with byte-identical text, and a
    re-run overwrites (no duplicate records)."""
    import ray.data

    from safe_zone_ray.sources.warc import read_pages_warc, write_wet

    rows = [
        {"url": f"https://h.example/{i}", "scrubbed_text": f"doc {i} body ñ"}
        for i in range(10)
    ]
    ds = ray.data.from_items(rows)
    out = str(tmp_path / "wet")
    n = write_wet(ds, out)
    assert n == 10
    back = {
        r["url"]: r["text"] for r in read_pages_warc(out + "/").take_all()
    }
    assert back == {r["url"]: r["scrubbed_text"] for r in rows}
    # idempotent re-run: same content -> same file names -> no duplicates
    import os

    files_before = sorted(os.listdir(out))
    assert write_wet(ds, out) == 10
    assert sorted(os.listdir(out)) == files_before
    back2 = read_pages_warc(out + "/").take_all()
    assert len(back2) == 10
    # ISO 28500 mandatory headers on every record + a leading warcinfo
    import glob
    import gzip as _gzip

    f = sorted(glob.glob(os.path.join(out, "*.warc.gz")))[0]
    data = _gzip.open(f, "rb").read()
    n_records = data.count(b"WARC/1.0")
    assert data.count(b"WARC-Record-ID:") == n_records
    assert data.count(b"WARC-Date:") == n_records
    assert data.startswith(b"WARC/1.0\r\nWARC-Type: warcinfo")
    # no stray tmp files left inside the output dir
    assert not [p for p in os.listdir(out) if p.endswith(".part")]


def test_concurrent_wet_exports_to_sibling_dirs_both_publish(monkeypatch, tmp_path):
    """Two exports of the same rows to sibling dirs, interleaved so that both
    write their tmp file before either publishes (a barrier after the write
    forces it). Same rows means the same published name, and the tmp files
    sit side by side in the shared parent. Each export must still publish a
    correct archive, and no ``.part`` file may be left behind."""
    import threading

    import safe_zone_ray.sources.warc as warc

    urls = [f"https://h.example/{i}" for i in range(5)]
    texts = [f"doc {i} body ñ" for i in range(5)]
    ref = tmp_path / "ref.warc"
    write_warc(
        [{"type": "warcinfo", "url": None}]
        + [{"type": "conversion", "url": u, "text": t} for u, t in zip(urls, texts)],
        str(ref),
    )

    barrier = threading.Barrier(2, timeout=30)
    real_write = warc.write_warc

    def write_then_wait(records, path, compress=False):
        real_write(records, path, compress=compress)
        barrier.wait()

    monkeypatch.setattr(warc, "write_warc", write_then_wait)
    published, errors = {}, []

    def export(d):
        os.makedirs(tmp_path / d)
        try:
            published[d] = warc._publish_wet(str(tmp_path / d), urls, texts, True)
        except Exception as ex:  # surfaced by the assert below
            errors.append(ex)

    threads = [threading.Thread(target=export, args=(d,)) for d in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    assert os.path.basename(published["a"]) == os.path.basename(published["b"])
    for d in ("a", "b"):
        assert published[d].startswith(str(tmp_path / d))
        with open(published[d], "rb") as f:
            assert gzip.decompress(f.read()) == ref.read_bytes()
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]
