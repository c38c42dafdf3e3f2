"""Each stage kernel's output is independent of how a block is cut into
batches: the concatenated outputs of batches of 1, 7 and 512 rows, and of
the whole block in one call, equal the whole block's output. The block
mixes in the rows that take a per-row fallback (invalid UTF-8 and entity
html for extract, ``_FALLBACK_CLASS`` text for langquality) beside rows that
stay on the vectorized paths."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from safe_zone_ray.pages import synthesize_pages_dir
from safe_zone_ray.stages.decide import decide_batch
from safe_zone_ray.stages.detect import detect_scrub_batch
from safe_zone_ray.stages.extract import extract_batch
from safe_zone_ray.stages.langquality import _FALLBACK_CLASS, langquality_batch

ROWS = 600
PLANTED = {
    3: (None, b"<p>invalid \xff\xfe bytes, mail bob@example.com</p>"),
    10: (None, b"<p>fish &amp; chips &lt;b&gt;</p><div>second line</div>"),
    515: ("the quick\xa0brown fox jumps over the lazy dog again", b""),
    516: ("東京 and the tokyo tower stand tall over the city", b""),
}
STAGE = {  # in chain order
    "extract": extract_batch,
    "langquality": langquality_batch,
    "detect": detect_scrub_batch,
    "decide": decide_batch,
}


@pytest.fixture(scope="module")
def inputs(sf_dir):
    """Each kernel's whole-block input, from one chained pass."""
    (f,) = glob.glob(os.path.join(synthesize_pages_dir(sf_dir), "*.parquet"))
    cols = pq.read_table(f).slice(0, ROWS).to_pydict()
    for i, (text, html) in PLANTED.items():
        cols["text"][i], cols["html"][i] = text, html
    block = pa.Table.from_pydict(cols, schema=pq.read_schema(f))
    out = {}
    for name, fn in STAGE.items():
        out[name] = block
        block = fn(block)
    return out


def test_block_exercises_every_fallback(inputs):
    html = inputs["extract"].column("html")
    with pytest.raises(pa.ArrowInvalid):
        pc.cast(html, pa.string())
    assert pc.sum(pc.match_substring(html, "&")).as_py() > 1
    text = inputs["langquality"].column("text_extracted")
    assert pc.sum(pc.match_substring_regex(text, _FALLBACK_CLASS)).as_py() >= 2
    assert pc.sum(inputs["decide"].column("contains_pii")).as_py() > 0


@pytest.mark.parametrize("kernel", STAGE)
@pytest.mark.parametrize("size", [1, 7, 512, ROWS])
def test_sliced_batches_match_whole_block(inputs, kernel, size):
    block = inputs[kernel]
    fn = STAGE[kernel]
    whole = fn(block)
    parts = pa.concat_tables(
        [fn(block.slice(i, size)) for i in range(0, block.num_rows, size)]
    )
    assert parts.schema == whole.schema
    for name in whole.column_names:
        assert parts.column(name).to_pylist() == whole.column(name).to_pylist(), (kernel, name)


@pytest.mark.parametrize("kernel", ["langquality", "detect"])
def test_three_chunk_text_matches_combined(inputs, kernel):
    """A ``text_extracted`` column in 3 chunks gives the same output as the
    same rows in one chunk (dictionary codes and take indices are per chunk
    unless the kernel combines them first)."""
    block = inputs[kernel]
    idx = block.schema.get_field_index("text_extracted")
    text = block.column(idx).combine_chunks()
    cuts = [0, 100, 517, block.num_rows]
    chunked = pa.chunked_array([text.slice(a, b - a) for a, b in zip(cuts, cuts[1:])])
    assert chunked.num_chunks == 3
    fn = STAGE[kernel]
    got = fn(block.set_column(idx, "text_extracted", chunked))
    want = fn(block.set_column(idx, "text_extracted", text))
    assert got.schema == want.schema
    for name in want.column_names:
        assert got.column(name).combine_chunks().equals(want.column(name).combine_chunks()), name
