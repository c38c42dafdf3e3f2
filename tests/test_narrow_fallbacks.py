"""The stage kernels' per-row fallbacks are narrow: extract sends only the
invalid-UTF-8 rows through per-row decoding, and detect drops to per-row
``re`` only for a rule pack RE2 rejects, never for an unrelated error."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from safe_zone_ray.core.detect import detect_one
from safe_zone_ray.extract import extract_text
from safe_zone_ray.pages import synthesize_pages_dir
from safe_zone_ray.registry import DEFAULT_REGISTRY_PATH, get_compiled_registry
from safe_zone_ray.stages import extract as extract_stage
from safe_zone_ray.stages.detect import detect_scrub_batch
from safe_zone_ray.stages.extract import extract_batch

INVALID_HTML = b"<p>caf\xe9 au lait</p><p>second &amp; line</p>"


@pytest.fixture(scope="module")
def block(sf_dir):
    (f,) = glob.glob(os.path.join(synthesize_pages_dir(sf_dir), "*.parquet"))
    return pq.read_table(f)  # 2000 rows, the benchmark's block shape


def _with_invalid_row(block):
    """The block with its first null-text row's html made invalid UTF-8."""
    i = block.column("text").to_pylist().index(None)
    html = block.column("html").to_pylist()
    html[i] = INVALID_HTML
    col = block.schema.get_field_index("html")
    return block.set_column(col, "html", pa.array(html, pa.binary())), i


def test_extract_invalid_row_matches_per_row_path(block, monkeypatch):
    bad, i = _with_invalid_row(block)
    calls = []

    def counted(h):
        calls.append(h)
        return extract_text(h)

    monkeypatch.setattr(extract_stage, "extract_text", counted)
    got = extract_batch(bad).column("text_extracted").to_pylist()
    want = [
        t if t is not None else extract_text(h)
        for t, h in zip(bad.column("text").to_pylist(), bad.column("html").to_pylist())
    ]
    assert got == want
    assert got[i] == extract_text(INVALID_HTML) and "�" in got[i]
    assert calls == [INVALID_HTML]  # only the invalid row took the per-row path


def _detect_ref(out, compiled):
    for i, (url, text) in enumerate(
        zip(out.column("url").to_pylist(), out.column("text_extracted").to_pylist())
    ):
        ref = detect_one(text or "", compiled, mode="MASK", rid=url)
        assert out.column("scrubbed_text")[i].as_py() == ref.redacted_text
        assert out.column("contains_pii")[i].as_py() == ref.contains_pii
        got = [(d["type"], d["start"], d["end"]) for d in out.column("detections")[i].as_py()]
        assert got == [(d.type, d.start, d.end) for d in ref.detections]


def test_detect_lookahead_pack_takes_per_row_re(block, tmp_path):
    with open(DEFAULT_REGISTRY_PATH) as f:
        reg = json.load(f)
    reg["patterns"].append(
        {
            "name": "ORDER_ID",
            "regex": r"\bORD(?=-\d{4}\b)-\d{4}",
            "description": "order id (lookahead: not RE2)",
            "category": "PII",
            "is_active": True,
        }
    )
    path = str(tmp_path / "registry.json")
    with open(path, "w") as f:
        json.dump(reg, f)
    compiled = get_compiled_registry(path)
    with pytest.raises(pa.ArrowInvalid):
        pc.match_substring_regex(pa.array(["x"]), compiled.any_hit.pattern)

    batch = extract_batch(block.slice(0, 300))
    texts = batch.column("text_extracted").to_pylist()
    texts[0] = "see ORD-1234 and ORD-99999"
    texts[1] = None  # a clean row on this path: scrubbed to "", as detect_one("")
    batch = batch.set_column(
        batch.schema.get_field_index("text_extracted"), "text_extracted", pa.array(texts)
    )
    out = detect_scrub_batch(batch, registry_path=path)
    assert out.column("breakdown")[0].as_py() == [("ORDER_ID", 1)]
    _detect_ref(out, compiled)


def test_detect_unrelated_error_propagates(block, monkeypatch):
    """A TypeError from the scoped scan is a bug, not an unsupported
    pattern: it must surface instead of switching the batch to per-row re."""
    any_hit = get_compiled_registry().any_hit.pattern
    scan = pc.match_substring_regex

    def broken(arr, pattern, **kw):
        if pattern != any_hit:
            raise TypeError("scoped scan broke")
        return scan(arr, pattern, **kw)

    batch = extract_batch(block.slice(0, 300))
    monkeypatch.setattr(pc, "match_substring_regex", broken)
    with pytest.raises(TypeError, match="scoped scan broke"):
        detect_scrub_batch(batch)
