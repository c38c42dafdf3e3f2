"""Detect/scrub stage: the TSZ recognizer registry as an Arrow batch kernel.

Stateless ``map_batches`` tasks (SURVEY.md section 7.2): the compiled registry
is process-cached (``get_compiled_registry`` lru) — the Ray analogue of the
reference's process-global regex ``sync.Map`` (guardrails.go:19-32). A fused
any-hit prefilter regex (one linear scan) marks the dirty rows, ~10% of a web
corpus; only those become Python strings and run the reference-faithful
``detect_one`` with ``rid = url``. Their results are scattered back into the
output columns: ``scrubbed_text`` by ``replace_with_mask`` over the text, the
other columns by a ``take`` that gives every clean row one shared empty
result, so clean rows never leave Arrow.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from safe_zone_ray.core.detect import detect_one
from safe_zone_ray.registry import get_compiled_registry

DETECTION_TYPE = pa.list_(
    pa.struct(
        [
            ("type", pa.string()),
            ("value", pa.string()),
            ("placeholder", pa.string()),
            ("start", pa.int32()),
            ("end", pa.int32()),
            ("confidence", pa.float32()),
        ]
    )
)
VALIDATOR_TYPE = pa.list_(
    pa.struct([("name", pa.string()), ("passed", pa.bool_()), ("confidence", pa.float32())])
)
BREAKDOWN_TYPE = pa.map_(pa.string(), pa.int32())


def detect_scrub_batch(
    batch: pa.Table,
    registry_path: str | None = None,
    mode: str = "MASK",
    guardrails: tuple[str, ...] = (),
    text_column: str = "text_extracted",
    context_scoring: bool = False,
) -> pa.Table:
    import pyarrow.compute as pc

    from safe_zone_ray.core.confidence import get_allow_threshold, get_block_threshold

    compiled = get_compiled_registry(registry_path)
    run_validators = bool(guardrails)
    thresholds = (
        get_allow_threshold(compiled.registry.allow_threshold),
        get_block_threshold(compiled.registry.block_threshold),
    )

    # one chunk: take indices and the replace mask are then batch-wide
    text_arr = batch.column(text_column)
    if isinstance(text_arr, pa.ChunkedArray):
        text_arr = text_arr.combine_chunks()
    dirty, subsets = _dirty_rows(text_arr, compiled, run_validators)

    # Only the dirty rows become Python objects and run detect_one; their
    # results are scattered back, every clean row gets the empty result and
    # keeps its text as it is.
    rows = np.flatnonzero(dirty)
    texts = text_arr.take(rows).to_pylist()
    urls = batch.column("url").take(rows).to_pylist()
    det_col, val_col, brk_col = [], [], []
    scrubbed, contains_pii, blocked, overall = [], [], [], []
    for url, text, subset in zip(urls, texts, subsets or [None] * len(rows)):
        res = detect_one(
            text or "",
            compiled,
            mode=mode,
            rid=url,
            guardrails=guardrails,
            context_scoring=context_scoring,
            pattern_subset=subset,
            thresholds=thresholds,
        )
        det_col.append(
            [
                {
                    "type": d.type,
                    "value": d.value,
                    "placeholder": d.placeholder,
                    "start": d.start,
                    "end": d.end,
                    "confidence": d.confidence,
                }
                for d in res.detections
            ]
        )
        val_col.append(
            [
                {"name": v["name"], "passed": v["passed"], "confidence": v["confidence"]}
                for v in res.validator_results
            ]
        )
        brk_col.append(res.breakdown)
        scrubbed.append(res.redacted_text)
        contains_pii.append(res.contains_pii)
        blocked.append(res.blocked)
        overall.append(res.overall_confidence)

    # position of each row's value in [dirty results..., empty result]
    slot = np.full(len(text_arr), len(rows), dtype=np.int64)
    slot[rows] = np.arange(len(rows))

    def scatter(values: list, typ: pa.DataType, empty) -> pa.Array:
        return pa.concat_arrays([pa.array(values, typ), pa.array([empty], typ)]).take(slot)

    scrubbed_text = pc.replace_with_mask(
        pc.fill_null(text_arr, ""), pa.array(dirty), pa.array(scrubbed, pa.string())
    )
    return (
        batch.append_column("detections", scatter(det_col, DETECTION_TYPE, []))
        .append_column("validator_results", scatter(val_col, VALIDATOR_TYPE, []))
        .append_column("breakdown", scatter(brk_col, BREAKDOWN_TYPE, {}))
        .append_column("scrubbed_text", scrubbed_text)
        .append_column("contains_pii", scatter(contains_pii, pa.bool_(), False))
        .append_column("pii_blocked", scatter(blocked, pa.bool_(), False))
        .append_column("overall_confidence", scatter(overall, pa.float32(), 0.0))
    )


def _dirty_rows(text_arr: pa.Array, compiled, run_validators: bool):
    """Which rows need ``detect_one``, as a numpy bool mask, and for each of
    them the patterns it can match (``None``: scan them all).

    With validators every row is dirty. Otherwise a fused any-hit RE2 scan
    (one linear pass) marks the rows with a candidate, ~10% of a web corpus;
    per-pattern scans over that subset then narrow each row's pattern set, so
    ``detect_one`` scans 1-2 patterns per dirty row instead of 20. A user
    rule pack with a construct RE2 rejects (a lookaround, a backreference)
    falls back to Python ``re`` for the any-hit test of this batch."""
    import pyarrow.compute as pc

    if compiled.any_hit is None or run_validators:
        return np.ones(len(text_arr), dtype=bool), None
    try:
        dirty = pc.fill_null(
            pc.match_substring_regex(text_arr, compiled.any_hit.pattern), True
        ).to_numpy(zero_copy_only=False)
        dirty_arr = text_arr.filter(pa.array(dirty))
        per_row: list[set[str]] = [set() for _ in range(len(dirty_arr))]
        for name, scoped in compiled.scoped_patterns:
            hits = pc.fill_null(pc.match_substring_regex(dirty_arr, scoped), True)
            for j in np.flatnonzero(hits.to_numpy(zero_copy_only=False)):
                per_row[j].add(name)
        return dirty, [frozenset(s) for s in per_row]
    except pa.ArrowInvalid:
        texts = text_arr.to_pylist()
        dirty = np.array([compiled.any_hit.search(t or "") is not None for t in texts], bool)
        return dirty, None
