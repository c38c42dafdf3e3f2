"""The flagship plan runs the four stage kernels once per read block: its
decisions must not depend on how the read splits the input, nor on the
langquality execution mode, and the traced-kernel hook of the benchmark must
keep seeing every row of every layer."""

import pytest
import ray

from safe_zone_ray.pages import synthesize_pages_dir
from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter
from safe_zone_ray.sources.pages_io import PAGES_COLUMNS

COLS = ["url", "keep", "drop_reason", "scrubbed_text", "lang_id"]


@pytest.fixture(scope="module")
def pages_dir(ray_session, sf_dir):
    return synthesize_pages_dir(sf_dir)


def _read(pages_dir, num_blocks=None):
    return ray.data.read_parquet(
        pages_dir, columns=PAGES_COLUMNS, override_num_blocks=num_blocks
    )


def _decisions(ds):
    rows = ds.select_columns(COLS).take_all()
    out = {r["url"]: tuple(r[c] for c in COLS[1:]) for r in rows}
    assert len(out) == len(rows)  # urls are unique in the pages table
    return out


def test_one_output_block_per_read_block(pages_dir):
    """No re-bundling: the default plan emits exactly one block per read
    block, i.e. one kernel call (and one task) per read block."""
    read_blocks = _read(pages_dir).materialize().num_blocks()
    assert read_blocks > 1
    out = build_quality_filter(_read(pages_dir), PipelineConfig()).materialize()
    assert out.num_blocks() == read_blocks


def test_decisions_invariant_to_layout_and_mode(pages_dir):
    """(keep, drop_reason, scrubbed_text, lang_id) per url are byte-identical
    for 1, 3 and 8 read blocks, in task mode and in actor-pool mode."""
    base = _decisions(build_quality_filter(pages_dir, PipelineConfig()))
    assert len(base) == 2000
    for actor_pool in (False, True):
        cfg = PipelineConfig(langquality_actor_pool=actor_pool)
        for num_blocks in (1, 3, 8):
            got = _decisions(build_quality_filter(_read(pages_dir, num_blocks), cfg))
            assert got == base, (actor_pool, num_blocks)


def test_traced_kernels_cover_every_row(pages_dir):
    """The benchmark's per-layer ledger rebinds the four kernel names the
    pipeline resolves at build time; a default pipeline built under that hook
    must report spans of all four layers covering every input row, one
    extract call per read block."""
    from perfbench import trace

    sink = trace.SpanSink.remote()
    try:
        with trace.traced_kernels(sink):
            ds = build_quality_filter(_read(pages_dir), PipelineConfig())
        n = ds.materialize().count()
        spans = trace.gather(sink, n)
    finally:
        ray.kill(sink)
    rows = {layer: 0 for layer in trace.LAYERS}
    calls = {layer: 0 for layer in trace.LAYERS}
    for s in spans:
        rows[s["layer"]] += s["rows"]
        calls[s["layer"]] += 1
    assert rows == {layer: n for layer in trace.LAYERS}
    read_blocks = _read(pages_dir).materialize().num_blocks()
    assert calls == {layer: read_blocks for layer in trace.LAYERS}
