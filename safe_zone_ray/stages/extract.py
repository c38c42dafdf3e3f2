"""Extraction stage: ``html: binary`` → ``text: string`` (stateless tasks).

Ray mapping of the reference ingest boundary (SURVEY.md section 3.5): a
stateless ``map_batches`` kernel. Only null-text rows pay for extraction; the
wide ``html`` column is dropped immediately afterwards so it never travels
further through the object store (memory-pressure rule, SURVEY.md section 7.4
item 4). Also derives the ``host`` partitioning key used by the per-host stats
shuffle.
"""

from __future__ import annotations

import pyarrow as pa

from safe_zone_ray.extract import extract_text
from safe_zone_ray.stages import pylist


# ``_host_of`` as one RE2 kernel: everything up to the FIRST "://" (if any)
# is the scheme, the host runs to the next "/"
_HOST_RE = r"(?s)^(?:.*?://)?(?P<host>[^/]*)"


def _host_of(url: str) -> str:
    """Per-row reference for ``_HOST_RE`` (pinned by tests/test_extract_arrow.py)."""
    i = url.find("://")
    start = i + 3 if i >= 0 else 0
    j = url.find("/", start)
    return url[start:j] if j >= 0 else url[start:]


def _extract_html(htmls_bin: pa.Array) -> pa.Array:
    """Binary html → extracted text. The vectorized Arrow RE2 chain
    (extract.extract_text_column) takes every row it can; per-row Python
    only for rows it can't express exactly: entities and exotic whitespace
    (inside extract_text_column) and invalid UTF-8 (here, through
    extract_text's decode-replace)."""
    import numpy as np
    import pyarrow.compute as pc

    from safe_zone_ray.extract import extract_text_column

    try:
        return extract_text_column(pc.cast(htmls_bin, pa.string()))
    except pa.ArrowInvalid:
        pass
    # the cast failed: find the invalid rows, keep the rest vectorized
    raws = pylist(htmls_bin)
    bad = np.zeros(len(raws), dtype=bool)
    for i, h in enumerate(raws):
        if h is not None:
            try:
                h.decode("utf-8")
            except UnicodeDecodeError:
                bad[i] = True
    good = extract_text_column(pc.cast(htmls_bin.filter(pa.array(~bad)), pa.string()))
    fixed = pa.array([extract_text(raws[i]) for i in np.flatnonzero(bad)], pa.string())
    out = pc.replace_with_mask(pa.nulls(len(raws), pa.string()), pa.array(~bad), good)
    return pc.replace_with_mask(out, pa.array(bad), fixed)


def extract_batch(batch: pa.Table) -> pa.Table:
    """pages(url, warc_ts, html, text, lang) →
    (url, warc_ts, text_extracted, claimed_lang, host)."""
    import pyarrow.compute as pc

    # rows that already carry text stay in Arrow untouched; only null-text
    # rows pay for html materialisation + extraction, and their results are
    # scattered back in.
    texts = pc.cast(batch.column("text").combine_chunks(), pa.string())
    if texts.null_count:
        is_null = pc.is_null(texts)
        htmls_bin = pc.filter(batch.column("html"), is_null).combine_chunks()
        texts = pc.replace_with_mask(texts, is_null, _extract_html(htmls_bin))
    hosts = pc.struct_field(pc.extract_regex(batch.column("url"), _HOST_RE), [0])
    arrays = [
        batch.column("url"),
        batch.column("warc_ts"),
        texts,
        batch.column("lang"),
        hosts,
    ]
    names = ["url", "warc_ts", "text_extracted", "claimed_lang", "host"]
    # pass through job bookkeeping columns (e.g. fragment_id for lineage)
    for extra in batch.schema.names:
        if extra not in ("url", "warc_ts", "html", "text", "lang"):
            arrays.append(batch.column(extra))
            names.append(extra)
    return pa.Table.from_arrays(arrays, names=names)
