"""Detect/scrub stage: the TSZ recognizer registry as an Arrow batch kernel.

Stateless ``map_batches`` tasks (SURVEY.md section 7.2): the compiled registry
is process-cached (``get_compiled_registry`` lru) — the Ray analogue of the
reference's process-global regex ``sync.Map`` (guardrails.go:19-32). Each row
runs the reference-faithful ``detect_one`` with ``rid = url``; a fused any-hit
prefilter regex (one linear scan) short-circuits the ~90% of corpus rows with
no candidates, so the full 20-pattern pass only runs on dirty rows.
"""

from __future__ import annotations

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

    text_arr = batch.column(text_column)
    texts = text_arr.to_pylist()
    urls = batch.column("url").to_pylist()

    # Vectorized any-hit prefilter: ONE Arrow RE2 scan over the whole column
    # decides which rows need the full per-pattern pass (clean rows — the
    # overwhelming majority of a web corpus — take the fast path below).
    subsets: list[frozenset[str] | None] = [None] * len(texts)
    if compiled.any_hit is not None and not run_validators:
        try:
            dirty = pc.fill_null(
                pc.match_substring_regex(text_arr, compiled.any_hit.pattern), True
            ).to_pylist()
            # Per-pattern vectorized prefilter over the dirty subset only:
            # each RE2 kernel call marks which rows that pattern can match,
            # so detect_one scans 1-2 patterns per dirty row instead of 20.
            dirty_idx = [i for i, d in enumerate(dirty) if d]
            if dirty_idx:
                dirty_arr = text_arr.take(pa.array(dirty_idx, pa.int64()))
                per_row: list[set[str]] = [set() for _ in dirty_idx]
                for name, scoped in compiled.scoped_patterns:
                    hits = pc.fill_null(
                        pc.match_substring_regex(dirty_arr, scoped), True
                    ).to_pylist()
                    for j, h in enumerate(hits):
                        if h:
                            per_row[j].add(name)
                for j, i in enumerate(dirty_idx):
                    subsets[i] = frozenset(per_row[j])
        except pa.ArrowInvalid:
            # user rule pack with a construct RE2 rejects (a lookaround, a
            # backreference) → per-row re fallback for this batch
            dirty = [compiled.any_hit.search(t or "") is not None for t in texts]
    else:
        dirty = [True] * len(texts)

    det_col, val_col, brk_col = [], [], []
    scrubbed, contains_pii, blocked, overall = [], [], [], []
    for url, text, is_dirty, subset in zip(urls, texts, dirty, subsets):
        text = text or ""
        if not is_dirty:
            # clean fast path — no candidates anywhere in the text
            det_col.append([])
            val_col.append([])
            brk_col.append({})
            scrubbed.append(text)
            contains_pii.append(False)
            blocked.append(mode == "BLOCK" and False)
            overall.append(0.0)
            continue
        res = detect_one(
            text,
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

    return (
        batch.append_column("detections", pa.array(det_col, DETECTION_TYPE))
        .append_column("validator_results", pa.array(val_col, VALIDATOR_TYPE))
        .append_column("breakdown", pa.array(brk_col, BREAKDOWN_TYPE))
        .append_column("scrubbed_text", pa.array(scrubbed, pa.string()))
        .append_column("contains_pii", pa.array(contains_pii, pa.bool_()))
        .append_column("pii_blocked", pa.array(blocked, pa.bool_()))
        .append_column("overall_confidence", pa.array(overall, pa.float32()))
    )
