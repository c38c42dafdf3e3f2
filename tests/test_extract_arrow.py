"""The extract stage stays in Arrow: ``host`` comes from one RE2 kernel that
must agree with the per-row ``_host_of`` reference, and extracted text is
scattered into exactly the null-text rows."""

import pyarrow as pa
import pyarrow.parquet as pq

from safe_zone_ray.extract import extract_text
from safe_zone_ray.pages import pages_from_documents_batch
from safe_zone_ray.stages.extract import _host_of, extract_batch

EDGE_URLS = [
    "https://example.com/a/b",
    "http://example.com",  # no path
    "example.com/path",  # no scheme
    "example.com",  # neither
    "a/b://c/d",  # "://" after a "/"
    "http://h/x://y/z",  # a second "://" in the path
    "://",
    ":///",
    "x://",
    "",
    "https://üñí.example/ä",
    "http://a\nb/c",
    "mailto:someone@example.com",
]


def _pages(urls, texts, htmls):
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.nulls(n, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )


def test_host_kernel_matches_host_of_on_edge_cases():
    n = len(EDGE_URLS)
    out = extract_batch(_pages(EDGE_URLS, ["t"] * n, [None] * n))
    assert out.column("host").type == pa.string()
    assert out.column("host").to_pylist() == [_host_of(u) for u in EDGE_URLS]


def test_text_scattered_into_null_rows_only(sf_dir):
    docs = pq.read_table(f"{sf_dir}/documents.parquet").slice(0, 60)
    pages = pages_from_documents_batch(docs, variants=4)
    # a multi-chunk input with one row of invalid UTF-8 html (per-row path)
    bad = _pages(["http://bad/x"], [None], [b"<p>caf\xe9</p>"])
    for batch in (pages, pa.concat_tables([pages.slice(0, 100), pages.slice(100), bad])):
        texts = batch.column("text").to_pylist()
        assert any(t is None for t in texts) and any(t is not None for t in texts)
        want = [
            t if t is not None else extract_text(h or b"")
            for t, h in zip(texts, batch.column("html").to_pylist())
        ]
        out = extract_batch(batch)
        assert out.column("text_extracted").type == pa.string()
        assert out.column("text_extracted").to_pylist() == want
        assert out.column("host").to_pylist() == [
            _host_of(u) for u in batch.column("url").to_pylist()
        ]
