"""Pages synthesizer determinism + CLI smoke tests."""

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

from safe_zone_ray.pages import PAGES_SCHEMA, pages_from_documents_batch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def docs():
    return pq.read_table("/root/testdata/sf0.001/documents.parquet").slice(0, 40)


def test_pages_schema_and_determinism(docs):
    a = pages_from_documents_batch(docs, variants=3)
    b = pages_from_documents_batch(docs, variants=3)
    assert a.schema.equals(PAGES_SCHEMA)
    assert a.equals(b)
    assert a.num_rows == 120
    assert len(set(a.column("url").to_pylist())) == 120  # urls unique


def test_pages_order_independence(docs):
    """Synthesis is a pure function of (doc_id, variant): processing a slice
    yields exactly the same rows as the full batch — parallel-safe."""
    full = pages_from_documents_batch(docs, variants=2)
    part = pages_from_documents_batch(docs.slice(10, 5), variants=2)
    by_url = {u: (h, t) for u, h, t in zip(
        full.column("url").to_pylist(),
        full.column("html").to_pylist(),
        full.column("text").to_pylist(),
    )}
    for u, h, t in zip(
        part.column("url").to_pylist(),
        part.column("html").to_pylist(),
        part.column("text").to_pylist(),
    ):
        assert by_url[u] == (h, t)


def test_pages_content_mix(docs):
    t = pages_from_documents_batch(docs, variants=10)
    texts = [x or "" for x in t.column("text").to_pylist()]
    joined = "\n".join(texts)
    assert "@mail" in joined or "@" in joined  # PII injection present
    assert "PROJECT-TITAN" in joined or "ignore previous instructions" in joined
    assert t.column("text").null_count > 0


def test_cli_scan_roundtrip():
    out = subprocess.run(
        [sys.executable, "-m", "safe_zone_ray.cli", "scan", "--text",
         "reach me at x@y.co and 123-45-6789", "--rid", "t"],
        capture_output=True, text=True, cwd=ROOT,
    )
    data = json.loads(out.stdout)
    assert data["contains_pii"] is True
    assert data["breakdown"] == {"EMAIL": 1, "US_SSN": 1}
    assert "x@y.co" not in data["redacted_text"]


def test_cli_scan_block_mode_exit_code():
    out = subprocess.run(
        [sys.executable, "-m", "safe_zone_ray.cli", "scan", "--text", "a@b.co",
         "--mode", "BLOCK"],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert out.returncode == 1  # blocked → nonzero exit


def test_cli_registry_crud(tmp_path):
    import shutil

    reg = tmp_path / "reg.json"
    shutil.copy(os.path.join(ROOT, "safe_zone_ray", "rules", "registry.json"), reg)
    run = lambda *a: subprocess.run(
        [sys.executable, "-m", "safe_zone_ray.cli", "registry", *a, "--registry", str(reg)],
        capture_output=True, text=True, cwd=ROOT,
    )
    out = run("patterns", "list")
    assert '"EMAIL"' in out.stdout
    assert run("blocklist", "add", "OMEGA-13").returncode == 0
    assert "OMEGA-13" in run("blocklist", "list").stdout
    assert run("blocklist", "remove", "OMEGA-13").returncode == 0
    assert "OMEGA-13" not in run("blocklist", "list").stdout
    assert run("patterns", "add", '{"name":"ZZ","regex":"zz\\\\d+","category":"PII","is_active":true}').returncode == 0
    assert '"ZZ"' in run("patterns", "list").stdout


def test_cli_run_job(tmp_path):
    pages = tmp_path / "pages"
    synth = subprocess.run(
        [sys.executable, "-m", "safe_zone_ray.cli", "synth-pages",
         "--sf-dir", "/root/testdata/sf0.001", "--out", str(pages),
         "--variants", "2", "--rows-per-file", "500"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert synth.returncode == 0, synth.stderr[-2000:]
    out = subprocess.run(
        [sys.executable, "-m", "safe_zone_ray.cli", "run",
         "--input", str(pages), "--output", str(tmp_path / "job"),
         "--num-cpus", "4"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    data = json.loads(out.stdout[out.stdout.index("{"):])
    assert data["rows_processed"] == 1000
    assert data["fragments_processed"] == data["fragments_total"]


def test_cli_prep_subcommand(tmp_path):
    """`safe_zone_ray prep` wires args through to run_corpus_prep and prints
    the manifest JSON (own Ray session in a subprocess)."""
    import json
    import subprocess
    import sys

    out = str(tmp_path / "prep_out")
    proc = subprocess.run(
        [sys.executable, "-m", "safe_zone_ray.cli", "prep",
         "--input", "/root/testdata/sf0.001", "--output", out,
         "--seq-len", "1024", "--num-cpus", "4"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-800:]
    line = [l for l in proc.stdout.splitlines() if l.startswith("{")][-1]
    manifest = json.loads(line)
    assert manifest["input_rows"] == 500 and manifest["kept_rows"] > 0
    assert manifest["seq_len"] == 1024


def test_jsonl_and_csv_pages_roundtrip(ray_session, tmp_path):
    """JSONL/CSV ingest coerces to the exact pages schema."""
    import base64
    import json

    import pyarrow as pa

    from safe_zone_ray.sources.pages_io import (
        PAGES_COLUMNS,
        read_pages_csv,
        read_pages_jsonl,
    )

    rows = [
        {
            "url": "https://a.example/1",
            "warc_ts": "2024-01-02T03:04:05",
            "html": base64.b64encode(b"<p>mail me at x@example.com</p>").decode(),
            "text": None,
            "lang": "en",
        },
        {
            "url": "https://a.example/2",
            "warc_ts": "2024-01-02T03:04:06",
            "html": None,
            "text": "plain text row",
            "lang": "en",
        },
    ]
    jsonl = tmp_path / "pages.jsonl"
    jsonl.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    ds = read_pages_jsonl(str(jsonl))
    t = pa.Table.from_pylist(ds.take_all())
    assert t.column_names == PAGES_COLUMNS
    got = sorted(ds.take_all(), key=lambda r: r["url"])
    assert got[0]["html"] == b"<p>mail me at x@example.com</p>"
    assert got[1]["text"] == "plain text row"
    assert str(got[0]["warc_ts"]).startswith("2024-01-02")

    csv = tmp_path / "pages.csv"
    csv.write_text(
        "url,warc_ts,text,lang\n"
        "https://a.example/3,2024-01-02T03:04:07,from csv,en\n"
    )
    got = read_pages_csv(str(csv)).take_all()
    assert got[0]["url"] == "https://a.example/3"
    assert got[0]["html"] is None  # absent column -> nulls, schema intact
    assert got[0]["text"] == "from csv"


def test_cli_convert_jsonl_to_pages(tmp_path):
    """`cli convert` normalises a JSONL shard into the pages parquet layout
    the resumable `run` job consumes."""
    import base64
    import json
    import subprocess
    import sys

    src = tmp_path / "pages.jsonl"
    with open(src, "w") as f:
        for i in range(3):
            f.write(
                json.dumps(
                    {
                        "url": f"https://x.example/{i}",
                        "warc_ts": "2024-01-01T00:00:00",
                        "html": base64.b64encode(b"<p>hi</p>").decode(),
                        "text": None,
                        "lang": "en",
                    }
                )
                + "\n"
            )
    out = tmp_path / "pages_pq"
    r = subprocess.run(
        [
            sys.executable,
            "-m",
            "safe_zone_ray.cli",
            "convert",
            "--input",
            str(src),
            "--format",
            "jsonl",
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
    assert payload["rows"] == 3


def test_iso_timestamp_variants_parse(tmp_path):
    """ADVICE round-3: real crawl dumps carry fractional seconds, trailing
    Z / zone offsets and space separators — the ingest must parse all of
    them (offsets normalize to UTC wall time), not fail the convert job."""
    import json

    from safe_zone_ray.sources.pages_io import read_pages_jsonl

    variants = [
        ("2024-01-02T03:04:05", "2024-01-02 03:04:05"),
        ("2024-01-02T03:04:05.123456", "2024-01-02 03:04:05.123456"),
        ("2024-01-02T03:04:05Z", "2024-01-02 03:04:05"),
        ("2024-01-02 03:04:05", "2024-01-02 03:04:05"),
        ("2024-01-02T05:04:05+02:00", "2024-01-02 03:04:05"),  # -> UTC
    ]
    jsonl = tmp_path / "pages_ts.jsonl"
    jsonl.write_text(
        "\n".join(
            json.dumps(
                {"url": f"https://t.example/{i}", "warc_ts": ts, "text": "x", "lang": "en"}
            )
            for i, (ts, _) in enumerate(variants)
        )
        + "\n"
    )
    rows = sorted(read_pages_jsonl(str(jsonl)).take_all(), key=lambda r: r["url"])
    for (_, want), row in zip(variants, rows):
        assert str(row["warc_ts"]).startswith(want), (row["url"], row["warc_ts"])
