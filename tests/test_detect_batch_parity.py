"""The vectorized batch path (Arrow any-hit + per-pattern prefilter) must be
indistinguishable from running the reference-faithful row kernel on every row
with every pattern."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from safe_zone_ray.core.detect import detect_one
from safe_zone_ray.pages import pages_from_documents_batch
from safe_zone_ray.stages.detect import detect_scrub_batch
from safe_zone_ray.stages.extract import extract_batch


@pytest.fixture(scope="module")
def batch():
    docs = pq.read_table("/root/testdata/sf0.001/documents.parquet").slice(0, 150)
    return extract_batch(pages_from_documents_batch(docs, variants=3))


def _f32(x):
    """A Python float as the float32 output columns hold it."""
    return None if x is None else float(np.float32(x))


def _assert_rows_match(out, compiled_registry, guardrails=()):
    """Every output column of every row equals ``detect_one`` on that row.
    Returns the number of rows with detections."""
    urls = out.column("url").to_pylist()
    texts = out.column("text_extracted").to_pylist()
    n_dirty = 0
    for i, (url, text) in enumerate(zip(urls, texts)):
        ref = detect_one(text or "", compiled_registry, mode="MASK", rid=url, guardrails=guardrails)
        got_dets = out.column("detections")[i].as_py()
        assert len(got_dets) == len(ref.detections), f"row {i} ({url})"
        for g, r in zip(got_dets, ref.detections):
            assert (g["type"], g["start"], g["end"], g["value"]) == (
                r.type,
                r.start,
                r.end,
                r.value,
            )
            assert g["placeholder"] == r.placeholder
            assert g["confidence"] == _f32(r.confidence)
        assert out.column("validator_results")[i].as_py() == [
            {"name": v["name"], "passed": v["passed"], "confidence": _f32(v["confidence"])}
            for v in ref.validator_results
        ]
        assert out.column("breakdown")[i].as_py() == list(ref.breakdown.items())
        assert out.column("scrubbed_text")[i].as_py() == ref.redacted_text
        assert out.column("contains_pii")[i].as_py() == ref.contains_pii
        assert out.column("pii_blocked")[i].as_py() == ref.blocked
        assert out.column("overall_confidence")[i].as_py() == _f32(ref.overall_confidence)
        n_dirty += bool(ref.detections)
    return n_dirty


def test_batch_path_matches_row_kernel(batch, compiled_registry):
    out = detect_scrub_batch(batch)
    n_dirty = _assert_rows_match(out, compiled_registry)
    assert n_dirty > 30  # the corpus mix actually exercised the dirty path


def test_null_text_row(batch, compiled_registry):
    texts = batch.column("text_extracted").to_pylist()
    texts[4] = None
    idx = batch.schema.get_field_index("text_extracted")
    with_null = batch.set_column(idx, "text_extracted", pa.array(texts, pa.string()))
    out = detect_scrub_batch(with_null)
    assert out.column("text_extracted").null_count == 1
    assert out.column("scrubbed_text").null_count == 0
    assert _assert_rows_match(out, compiled_registry) > 30


def test_every_row_clean(batch, compiled_registry):
    hit = pc.match_substring_regex(batch.column("text_extracted"), compiled_registry.any_hit.pattern)
    clean = batch.filter(pc.invert(pc.fill_null(hit, True)))
    assert clean.num_rows > 30
    out = detect_scrub_batch(clean)
    assert _assert_rows_match(out, compiled_registry) == 0
    assert out.column("scrubbed_text").equals(out.column("text_extracted"))


def test_zero_rows(batch):
    out = detect_scrub_batch(batch.slice(0, 0))
    assert out.num_rows == 0
    assert out.schema == detect_scrub_batch(batch.slice(0, 5)).schema


def test_validators_make_every_row_dirty(batch, compiled_registry):
    out = detect_scrub_batch(batch.slice(0, 30), guardrails=("NO_SPACES",))
    _assert_rows_match(out, compiled_registry, guardrails=("NO_SPACES",))
    assert all(len(v) == 1 for v in out.column("validator_results").to_pylist())
