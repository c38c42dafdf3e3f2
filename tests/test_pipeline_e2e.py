"""End-to-end pipeline tests on synthesized sf0.001 pages (FIXTURES.md
sections 1 and 3): schema stability, extraction parity (byte-identical per
url), decision fusion, per-host stats."""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from safe_zone_ray.extract import extract_text
from safe_zone_ray.pages import pages_from_documents_batch, synthesize_pages_dir
from safe_zone_ray.pipelines.quality_filter import (
    PipelineConfig,
    build_quality_filter,
    per_host_stats,
)


@pytest.fixture(scope="module")
def pages_dir(ray_session):
    return synthesize_pages_dir("/root/testdata/sf0.001")


@pytest.fixture(scope="module")
def decisions(ray_session, pages_dir):
    cfg = PipelineConfig()
    ds = build_quality_filter(pages_dir, cfg)
    return ds.materialize()


def test_schema_and_rowcount(decisions, pages_dir):
    n_in = sum(
        pq.ParquetFile(f"{pages_dir}/{f}").metadata.num_rows
        for f in __import__("os").listdir(pages_dir)
        if f.endswith(".parquet")
    )
    assert decisions.count() == n_in
    names = set(decisions.schema().names)
    assert {
        "url",
        "text_extracted",
        "host",
        "lang_id",
        "lang_score",
        "perplexity",
        "quality",
        "detections",
        "scrubbed_text",
        "contains_pii",
        "pii_blocked",
        "overall_confidence",
        "keep",
        "drop_reason",
    } <= names
    assert "html" not in names  # wide column dropped at extract


def test_extraction_byte_identical_per_url(decisions):
    """The invariant from BASELINE.json input_hint: re-extracting each url's
    html yields exactly the pipeline's text_extracted."""
    rows = decisions.select_columns(["url", "text_extracted"]).take(200)
    got = {r["url"]: r["text_extracted"] for r in rows}
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    pages = pages_from_documents_batch(docs, variants=4)
    golden = {
        url: extract_text(html)
        for url, html in zip(pages.column("url").to_pylist(), pages.column("html").to_pylist())
    }
    checked = 0
    for url, text in got.items():
        assert golden[url] == text, f"extraction drift for {url}"
        checked += 1
    assert checked == 200


def test_decision_fusion(decisions):
    tbl = pa.Table.from_pylist(
        decisions.select_columns(
            ["keep", "drop_reason", "contains_pii", "pii_blocked", "lang_id", "scrubbed_text"]
        ).take_all()
    )
    keeps = tbl.column("keep").to_pylist()
    reasons = tbl.column("drop_reason").to_pylist()
    langs = tbl.column("lang_id").to_pylist()
    pii = tbl.column("contains_pii").to_pylist()
    scrubbed = tbl.column("scrubbed_text").to_pylist()
    assert any(keeps) and not all(keeps)
    for k, r in zip(keeps, reasons):
        assert k == (r == "")
    # non-English pages are gated
    for k, r, lang in zip(keeps, reasons, langs):
        if lang not in ("en",) and r == "lang":
            assert not k
    assert {r for r in reasons if r} >= {"lang"}
    # PII rows were scrubbed: some placeholder made it into the output text
    masked = [s for p, s in zip(pii, scrubbed) if p]
    assert masked and any("[" in s and "]" in s for s in masked)
    # no raw SSN-shaped value survives in any scrubbed text
    import re

    ssn = re.compile(r"\b\d{3}-\d{2}-\d{4}\b")
    assert not any(ssn.search(s) for s in scrubbed)


def test_per_host_stats(decisions):
    stats = per_host_stats(decisions).take_all()
    assert stats
    by_host = {r["host"]: r for r in stats}
    assert all(r["n_kept"] <= r["n_total"] for r in stats)
    # zipf skew: web00 must dominate
    assert max(by_host, key=lambda h: by_host[h]["n_total"]).startswith("web00")
    assert sum(r["n_total"] for r in stats) == decisions.count()
    # salted two-phase aggregation must equal the naive groupby exactly
    import collections

    naive_total = collections.Counter()
    naive_kept = collections.Counter()
    for r in decisions.select_columns(["host", "keep"]).take_all():
        naive_total[r["host"]] += 1
        naive_kept[r["host"]] += bool(r["keep"])
    assert set(by_host) == set(naive_total)
    for h in naive_total:
        assert by_host[h]["n_total"] == naive_total[h]
        assert by_host[h]["n_kept"] == naive_kept[h]


def test_actor_pool_variant(ray_session, pages_dir):
    """The actor-pool form of the langquality stage (T4 shape) produces the
    same decisions as the cached-task form."""
    cfg = PipelineConfig(langquality_actor_pool=True)
    ds = build_quality_filter(pages_dir, cfg)
    rows = {r["url"]: (r["lang_id"], r["keep"], r["drop_reason"])
            for r in ds.select_columns(["url", "lang_id", "keep", "drop_reason"]).take_all()}
    base = build_quality_filter(pages_dir, PipelineConfig())
    base_rows = {r["url"]: (r["lang_id"], r["keep"], r["drop_reason"])
                 for r in base.select_columns(["url", "lang_id", "keep", "drop_reason"]).take_all()}
    assert rows == base_rows


def test_pipeline_deterministic_across_runs(ray_session, pages_dir):
    """Two independent executions must be byte-identical row-for-row —
    the property that makes Ray task retries and job re-runs safe."""
    from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter

    cols = ["url", "lang_id", "contains_pii", "keep", "drop_reason", "scrubbed_text"]
    a = (
        build_quality_filter(pages_dir, PipelineConfig())
        .select_columns(cols)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    b = (
        build_quality_filter(pages_dir, PipelineConfig())
        .select_columns(cols)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert a.equals(b)
