"""Detect/scrub stage: the TSZ recognizer registry as an Arrow batch kernel.

Stateless ``map_batches`` tasks (SURVEY.md section 7.2): the compiled registry
is process-cached (``get_compiled_registry`` lru) — the Ray analogue of the
reference's process-global regex ``sync.Map`` (guardrails.go:19-32).

Rows are split by what RE2 can decide on them (the row classes of
``registry.re2_spelling``):

- ASCII rows, every character in ``[\\t\\n\\f\\r\\x20-\\x7e]`` (most of a web
  corpus). RE2 and Python ``re`` agree there on ``\\b \\d \\s \\w (?i)``. A
  fused any-hit regex marks the dirty rows and per-pattern scans tell which
  patterns hit each one. RE2 then finds every match of every pattern and
  blocklist word on those rows, and recovers its offsets from the lengths of
  the pieces around it (the extract-all trick of ``functions/outlinks.py``).
  The allowlist, the stable (start, -end) sort and the greedy overlap filter
  of ``detect_one`` follow. Only rows hit by a pattern with no exact RE2
  spelling (an anchor, a lookaround) run ``detect_one``.
- Other rows. A widened RE2 prefilter that is a superset of Python on them
  marks the dirty rows; the rare rows with a non-ASCII digit or whitespace
  outside RE2's ``\\s`` take Python's own any-hit test instead. Dirty rows run
  the reference-faithful ``detect_one`` with ``rid = url``.

Validators (``guardrails``) make every row dirty, and ``context_scoring``
sends every dirty row to ``detect_one``. The results are scattered back into
the output columns: ``scrubbed_text`` by ``replace_with_mask`` over the text,
the other columns by a ``take`` that gives every clean row one shared empty
result, so clean rows never leave Arrow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from safe_zone_ray.core.confidence import (
    ConfidenceContext,
    compute_confidence,
    get_allow_threshold,
    get_block_threshold,
    resolve_action,
    round_confidence,
)
from safe_zone_ray.core.detect import detect_one
from safe_zone_ray.core.placeholders import BLOCKLIST_PLACEHOLDER, make_placeholder
from safe_zone_ray.registry import EXOTIC_TEXT, NON_ASCII_TEXT, get_compiled_registry
from safe_zone_ray.stages import pylist

DETECTION = pa.struct(
    [
        ("type", pa.string()),
        ("value", pa.string()),
        ("placeholder", pa.string()),
        ("start", pa.int32()),
        ("end", pa.int32()),
        ("confidence", pa.float32()),
    ]
)
DETECTION_TYPE = pa.list_(DETECTION)
VALIDATOR_TYPE = pa.list_(
    pa.struct([("name", pa.string()), ("passed", pa.bool_()), ("confidence", pa.float32())])
)
BREAKDOWN_TYPE = pa.map_(pa.string(), pa.int32())
_SEP = "\x1f"  # brackets each match for the span recovery; never in an ASCII row
_NO_ROWS = np.zeros(0, dtype=np.int64)
_GROUP = 5  # patterns per fused scan in _pattern_hits


@dataclass
class _Rows:
    """Output values for some rows of the batch: ``rows`` (positions) and,
    aligned with them, one list or Arrow array per output column."""

    rows: np.ndarray = field(default_factory=lambda: _NO_ROWS)
    detections: list | pa.Array = field(default_factory=list)
    validators: list | pa.Array = field(default_factory=list)
    breakdown: list = field(default_factory=list)
    scrubbed: list = field(default_factory=list)
    contains_pii: list | pa.Array = field(default_factory=list)
    blocked: list = field(default_factory=list)
    overall: list = field(default_factory=list)


def detect_scrub_batch(
    batch: pa.Table,
    registry_path: str | None = None,
    mode: str = "MASK",
    guardrails: tuple[str, ...] = (),
    text_column: str = "text_extracted",
    context_scoring: bool = False,
) -> pa.Table:
    compiled = get_compiled_registry(registry_path)
    thresholds = (
        get_allow_threshold(compiled.registry.allow_threshold),
        get_block_threshold(compiled.registry.block_threshold),
    )

    # one chunk: take indices and the replace mask are then batch-wide
    text_arr = batch.column(text_column)
    if isinstance(text_arr, pa.ChunkedArray):
        text_arr = text_arr.combine_chunks()
    text = pc.fill_null(text_arr, "")
    urls = batch.column("url")
    if guardrails or compiled.any_hit is None:
        # validators run on every row; no pattern and no word: nothing to find
        fast = _Rows()
        slow_rows = np.arange(len(text)) if guardrails else _NO_ROWS
        subsets = [None] * len(slow_rows)
    else:
        fast_rows, fast_hits, slow_rows, subsets = _dirty_rows(
            text, compiled, not context_scoring
        )
        fast = _ascii_detections(text, urls, fast_rows, fast_hits, compiled, mode, thresholds)
    slow = _detect_one_rows(
        text, urls, slow_rows, subsets, compiled, mode, guardrails, context_scoring, thresholds
    )

    # position of each row's value in [fast results..., slow results..., empty]
    n_fast = len(fast.rows)
    slot = np.full(len(text), n_fast + len(slow.rows), dtype=np.int64)
    slot[fast.rows] = np.arange(n_fast)
    slot[slow.rows] = n_fast + np.arange(len(slow.rows))

    def scatter(name: str, typ: pa.DataType, empty) -> pa.Array:
        parts = [getattr(fast, name), getattr(slow, name), [empty]]
        return pa.concat_arrays([_array(p, typ) for p in parts]).take(slot)

    changed = slot < n_fast + len(slow.rows)
    scrubbed = pa.concat_arrays(
        [_array(fast.scrubbed, pa.string()), _array(slow.scrubbed, pa.string())]
    ).take(slot[changed])
    return (
        batch.append_column("detections", scatter("detections", DETECTION_TYPE, []))
        .append_column("validator_results", scatter("validators", VALIDATOR_TYPE, []))
        .append_column("breakdown", scatter("breakdown", BREAKDOWN_TYPE, {}))
        .append_column("scrubbed_text", pc.replace_with_mask(text, pa.array(changed), scrubbed))
        .append_column("contains_pii", scatter("contains_pii", pa.bool_(), False))
        .append_column("pii_blocked", scatter("blocked", pa.bool_(), False))
        .append_column("overall_confidence", scatter("overall", pa.float32(), 0.0))
    )


def _array(values, typ: pa.DataType) -> pa.Array:
    return values if isinstance(values, pa.Array) else pa.array(values, typ)


def _mask(matches: pa.Array) -> np.ndarray:
    return matches.to_numpy(zero_copy_only=False)


def _dirty_rows(text: pa.Array, compiled, spans_in_re2: bool):
    """Sort the dirty rows: ``(fast_rows, fast_hits, slow_rows, subsets)``.

    ``fast_rows`` are the ASCII rows whose detections RE2 finds exactly, and
    ``fast_hits[k]`` those of them hit by active pattern ``k``.
    ``slow_rows`` run ``detect_one``, each scanning only the patterns in its
    entry of ``subsets`` (``None``: all of them). A class whose prefilter has
    no RE2 spelling (a lookaround, a backreference) takes Python's any-hit
    test row by row."""
    all_rows = np.arange(len(text))
    non_ascii = _mask(pc.match_substring_regex(text, NON_ASCII_TEXT))
    classes = [(all_rows[~non_ascii], compiled.ascii_prefilter)]
    if non_ascii.any():
        other = all_rows[non_ascii]
        exotic = _mask(pc.match_substring_regex(text.take(other), EXOTIC_TEXT))
        classes += [(other[~exotic], compiled.wide_prefilter), (other[exotic], None)]

    fast_rows, fast_hits = _NO_ROWS, [_NO_ROWS] * len(compiled.active_patterns)
    slow_rows, subsets = [], []
    for cls, (rows, prefilter) in enumerate(classes):
        if not len(rows):
            continue
        part = text if len(rows) == len(text) else text.take(rows)
        if prefilter is None:
            dirty = np.array(
                [compiled.any_hit.search(t) is not None for t in pylist(part)], dtype=bool
            )
            slow_rows.append(rows[dirty])
            subsets += [None] * int(dirty.sum())
            continue
        dirty = _mask(pc.match_substring_regex(part, prefilter.any_hit))
        rows, part = rows[dirty], part.filter(pa.array(dirty))
        hits = _pattern_hits(part, [scoped for _, scoped in prefilter.scoped])
        # an ASCII row hit only by patterns with exact spans stays in RE2
        slow = np.full(len(rows), cls > 0 or not spans_in_re2)
        for h, exact in zip(hits, compiled.exact_spans):
            if exact is None:
                slow[h] = True
        if cls == 0:
            fast_rows, fast_hits = rows[~slow], [rows[h[~slow[h]]] for h in hits]
        names = [[] for _ in range(len(rows))]
        for (name, _), h in zip(prefilter.scoped, hits):
            for j in h[slow[h]].tolist():
                names[j].append(name)
        slow_rows.append(rows[slow])
        subsets += [frozenset(names[j]) for j in np.flatnonzero(slow)]
    return fast_rows, fast_hits, np.concatenate(slow_rows + [_NO_ROWS]), subsets


def _pattern_hits(part: pa.Array, scoped: list[str]) -> list[np.ndarray]:
    """For each regex, the rows of ``part`` it matches. A fused scan per
    group of ``_GROUP`` regexes first narrows the rows each one scans: on a
    web corpus that halves the bytes RE2 reads."""
    hits = []
    for g in range(0, len(scoped), _GROUP):
        group = scoped[g : g + _GROUP]
        rows = _NO_ROWS
        if len(part):  # pyarrow compiles the regex even for no rows
            rows = np.flatnonzero(_mask(pc.match_substring_regex(part, "|".join(group))))
        sub = part.take(rows)
        hits += [rows[_mask(pc.match_substring_regex(sub, s))] if len(rows) else rows
                 for s in group]
    return hits


def _detect_one_rows(
    text, urls, rows, subsets, compiled, mode, guardrails, context_scoring, thresholds
) -> _Rows:
    """The reference-faithful row kernel on ``rows``."""
    out = _Rows(rows)
    texts = pylist(text.take(rows))
    for url, t, subset in zip(pylist(urls.take(rows)), texts, subsets):
        res = detect_one(
            t,
            compiled,
            mode=mode,
            rid=url,
            guardrails=guardrails,
            context_scoring=context_scoring,
            pattern_subset=subset,
            thresholds=thresholds,
        )
        out.detections.append(
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
        out.validators.append(
            [
                {"name": v["name"], "passed": v["passed"], "confidence": v["confidence"]}
                for v in res.validator_results
            ]
        )
        out.breakdown.append(res.breakdown)
        out.scrubbed.append(res.redacted_text)
        out.contains_pii.append(res.contains_pii)
        out.blocked.append(res.blocked)
        out.overall.append(res.overall_confidence)
    return out


def _marked_spans(marked: pa.Array):
    """Every match bracketed by ``_SEP`` in ``marked`` → (index of its row in
    ``marked``, start, end, value). The pieces between separators alternate
    text, match, text, ...; a match starts where the lengths of the pieces
    before it in its row add up to."""
    parts = pc.split_pattern(marked, _SEP)
    pieces = pc.list_flatten(parts)
    per_row = _mask(pc.list_value_length(parts)).astype(np.int64)
    row = np.repeat(np.arange(len(marked)), per_row)
    first = np.cumsum(per_row) - per_row  # index of each row's first piece
    lens = _mask(pc.binary_length(pieces)).astype(np.int64)
    before = np.cumsum(lens) - lens
    start = before - before[first][row]
    is_match = (np.arange(len(lens)) - first[row]) % 2 == 1
    return (row[is_match], start[is_match], (start + lens)[is_match],
            pieces.filter(pa.array(is_match)))


def _ascii_detections(text, urls, fast_rows, fast_hits, compiled, mode, thresholds) -> _Rows:
    """``detect_one``'s output for ``fast_rows``, from RE2
    matches. On ASCII rows RE2's spans equal ``finditer``'s and byte offsets
    equal ``str`` offsets. ``kind`` orders candidates as ``detect_one``
    inserts them: blocklist words in registry order, then patterns."""
    if not len(fast_rows):
        return _Rows()
    n_words = len(compiled.blocklist)
    found = []  # (kind, row, start, end, value) arrays per word and pattern
    # one scan for all blocklist words, then each word on the rows it may hit
    with_word = fast_rows[
        _mask(pc.match_substring_regex(text.take(fast_rows), compiled.words_re2))
    ]
    part = text.take(with_word)
    for kind, word in enumerate(compiled.blocklist):
        rows = with_word[_mask(pc.match_substring(part, word))] if word else _NO_ROWS
        if len(rows):
            idx, *spans = _marked_spans(
                pc.replace_substring(text.take(rows), word, _SEP + word + _SEP)
            )
            found.append((kind, rows[idx], *spans))
    allow = pa.array(sorted(compiled.allowlist), pa.string())
    for k, rows in enumerate(fast_hits):
        if len(rows):
            marked = pc.replace_substring_regex(
                text.take(rows), compiled.exact_spans[k], _SEP + "\\0" + _SEP
            )
            idx, start, end, value = _marked_spans(marked)
            keep = _mask(pc.invert(pc.is_in(value, allow)))
            found.append((n_words + k, rows[idx][keep], start[keep], end[keep],
                          value.filter(pa.array(keep))))
    if not found:
        return _Rows()

    kind = np.concatenate([np.full(len(f[1]), f[0]) for f in found])
    row, start, end = (np.concatenate([f[i] for f in found]) for i in (1, 2, 3))
    value = pa.concat_arrays([f[4] for f in found])
    # detect_one's stable (start ASC, end DESC) sort, within each row; found
    # is in insertion order, and lexsort is stable
    order = np.lexsort((-end, start, row))
    # its greedy overlap filter
    kept, prev_row, cursor = [], -1, 0
    for j, r, s, e in zip(order.tolist(), row[order].tolist(), start[order].tolist(),
                          end[order].tolist()):
        if r != prev_row:
            prev_row, cursor = r, 0
        if s >= cursor:
            kept.append(j)
            cursor = e
    kept = np.array(kept, dtype=np.int64)
    kind, row, start, end, value = kind[kept], row[kept], start[kept], end[kept], value.take(kept)

    patterns = [p for p, _ in compiled.active_patterns]
    names = ["BLOCKLIST"] * n_words + [p.name for p in patterns]
    conf = [0.0] * n_words + [
        round_confidence(compute_confidence(ConfidenceContext(
            pattern_category=p.category, pattern_active=p.is_active, source="REGEX"
        )))
        for p in patterns
    ]
    blocks = [resolve_action(c, *thresholds) == "BLOCK" for c in conf]
    out_rows, first, count = np.unique(row, return_index=True, return_counts=True)
    texts = pylist(text.take(out_rows))
    rids = pylist(urls.take(out_rows))
    kinds, starts, ends = kind.tolist(), start.tolist(), end.tolist()
    placeholders = []
    out = _Rows(out_rows, contains_pii=pa.array(np.ones(len(out_rows), dtype=bool)))
    for t, rid, lo, n in zip(texts, rids, first.tolist(), count.tolist()):
        # detect_one steps 5-6 and the masking splice, in detection order
        pieces, breakdown, overall, weight, cursor = [], {}, 0.0, 0.0, 0
        blocked = (mode or "MASK") == "BLOCK"
        for i in range(lo, lo + n):
            k, s, e = kinds[i], starts[i], ends[i]
            name = names[k]
            ph = BLOCKLIST_PLACEHOLDER if k < n_words else make_placeholder(name, rid, s, e)
            placeholders.append(ph)
            pieces += [t[cursor:s], ph]
            cursor = e
            breakdown[name] = breakdown.get(name, 0) + 1
            blocked = blocked or blocks[k]
            w = 2.0 if name == "BLOCKLIST" else 1.0
            overall += conf[k] * w
            weight += w
        pieces.append(t[cursor:])
        out.scrubbed.append("".join(pieces))
        out.breakdown.append(breakdown)
        out.blocked.append(blocked)
        out.overall.append(round_confidence(overall / weight))
    offsets = pa.array(np.concatenate([[0], np.cumsum(count)]).astype(np.int32))
    out.detections = pa.ListArray.from_arrays(
        offsets,
        pa.StructArray.from_arrays(
            [
                pa.array(names, pa.string()).take(kind),
                value,
                pa.array(placeholders, pa.string()),
                pa.array(start, pa.int32()),
                pa.array(end, pa.int32()),
                pa.array(conf, pa.float32()).take(kind),
            ],
            fields=list(DETECTION),
        ),
    )
    out.validators = pa.array([[]] * len(out_rows), VALIDATOR_TYPE)
    return out
