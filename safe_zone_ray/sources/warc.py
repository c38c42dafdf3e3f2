"""WARC ingest: web-crawl archives (ISO 28500 / WARC 1.0-1.1, the Common
Crawl container format) -> the pages schema.

Beyond-reference source format (the reference ingests only JSON request
bodies — `/root/reference/main.go` /detect); a web-scale corpus engine must
read crawl archives natively. Implemented from the PUBLIC spec only:

  - A WARC file is a concatenation of records; each record is a version
    line (``WARC/1.0``), CRLF-separated named headers, a blank line, a
    content block of exactly ``Content-Length`` bytes, and a trailing
    CRLF CRLF.
  - Crawl dumps gzip each record as its OWN gzip member and concatenate
    the members (`.warc.gz`), so whole-file decompression with a
    multi-member-aware reader recovers the raw stream.
  - ``response`` records carry an HTTP response in the content block
    (status line + headers + CRLF CRLF + the raw HTML body);
    ``conversion`` records (WET files) carry extracted plain text.

Scale shape: parallelism is PER FILE — ``ray.data.read_binary_files`` makes
each archive one task's input, which is the only correct partitioning for a
record-concatenated container (records cannot be split without scanning).
Crawl shards are ~1 GiB by convention, so one file per task is also the
right granularity for a 256-node cluster: thousands of shards stream
through the pool with backpressure, and the parsed pages rows flow straight
into the same pruned-column pipeline as the Parquet ingest. The record
scan itself is byte-slicing (no per-byte Python work): each record costs
one header split + one memoryview slice.
"""

from __future__ import annotations

import gzip
import io

import pyarrow as pa
import ray.data

from safe_zone_ray.sources.pages_io import PAGES_COLUMNS, _parse_iso_ts

_CRLF2 = b"\r\n\r\n"


def _maybe_gunzip(raw: bytes) -> bytes:
    """Whole-archive decompression, multi-member aware (crawl dumps store
    one gzip member per record, concatenated)."""
    if raw[:2] != b"\x1f\x8b":
        return raw
    out = io.BytesIO()
    with gzip.GzipFile(fileobj=io.BytesIO(raw)) as gz:  # GzipFile reads all members
        while True:
            chunk = gz.read(1 << 20)
            if not chunk:
                break
            out.write(chunk)
    return out.getvalue()


def _parse_warc_records(raw: bytes):
    """Yield (headers: dict, content: bytes) per record. Tolerates leading
    noise between records (spec allows padding) by seeking the next
    ``WARC/`` magic; malformed trailing garbage ends the scan rather than
    raising, matching lenient crawl readers."""
    view = memoryview(raw)
    pos = 0
    n = len(raw)
    while pos < n:
        start = raw.find(b"WARC/", pos)
        if start < 0:
            return
        head_end = raw.find(_CRLF2, start)
        if head_end < 0:
            return
        header_block = raw[start:head_end].decode("utf-8", errors="replace")
        lines = header_block.split("\r\n")
        headers: dict[str, str] = {}
        for line in lines[1:]:  # line 0 is the WARC/x.y version
            k, sep, v = line.partition(":")
            if sep:
                headers[k.strip().lower()] = v.strip()
        try:
            clen = int(headers.get("content-length", ""))
        except ValueError:
            pos = head_end + 4
            continue
        body_start = head_end + 4
        if body_start + clen > n:
            return  # truncated record: stop cleanly
        yield headers, bytes(view[body_start : body_start + clen])
        pos = body_start + clen


def _http_body(content: bytes) -> bytes:
    """Split an ``application/http`` content block into (headers, body) and
    return the body (the raw HTML bytes). No headers separator -> the whole
    block is the body (lenient)."""
    sep = content.find(_CRLF2)
    return content[sep + 4 :] if sep >= 0 else content


def parse_warc_batch(batch: pa.Table) -> pa.Table:
    """``read_binary_files`` batch (``bytes`` column) -> pages-schema rows.
    Keeps ``response`` records (html populated from the HTTP body) and
    ``conversion``/WET records (text populated); everything else
    (warcinfo, request, metadata) is skipped."""
    urls: list[str | None] = []
    tss: list[str | None] = []
    htmls: list[bytes | None] = []
    texts: list[str | None] = []
    for raw in batch.column("bytes").to_pylist():
        for headers, content in _parse_warc_records(_maybe_gunzip(raw)):
            rtype = headers.get("warc-type", "")
            if rtype == "response":
                html: bytes | None = _http_body(content)
                text: str | None = None
            elif rtype == "conversion":
                html = None
                text = content.decode("utf-8", errors="replace")
            else:
                continue
            urls.append(headers.get("warc-target-uri"))
            tss.append(headers.get("warc-date"))
            htmls.append(html)
            texts.append(text)
    ts = _parse_iso_ts(pa.array(tss, pa.string()))
    return pa.Table.from_arrays(
        [
            pa.array(urls, pa.string()),
            ts,
            pa.array(htmls, pa.binary()),
            pa.array(texts, pa.string()),
            pa.nulls(len(urls), pa.string()),  # lang: unknown at ingest
        ],
        names=PAGES_COLUMNS,
    )


def read_pages_warc(paths: str | list[str]) -> ray.data.Dataset:
    """Streaming WARC ingest to the pages schema. One archive per task (see
    module docstring for why that is the correct partitioning)."""
    return ray.data.read_binary_files(paths).map_batches(
        parse_warc_batch, batch_format="pyarrow"
    )


DEFAULT_WARC_DATE = "1970-01-01T00:00:00Z"  # deterministic (retry-safe)


def _record_id(rec: dict) -> str:
    """Deterministic mandatory WARC-Record-ID: urn:uuid built from the
    record's identity (type + url + date) so a re-executed task reproduces
    byte-identical archives."""
    import hashlib

    h = hashlib.md5(
        f"{rec.get('type')}|{rec.get('url', '')}|{rec.get('date', '')}".encode()
    ).hexdigest()
    return f"<urn:uuid:{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:32]}>"


def write_warc(records: list[dict], path: str, compress: bool = False) -> None:
    """Spec-shaped WARC writer (fixtures, round-trip tool, WET sink).
    Each record dict: ``type`` (warcinfo/response/conversion/...), ``url``,
    ``date`` (ISO string; mandatory per ISO 28500 so a deterministic epoch
    default is emitted when absent), and either ``html`` bytes (wrapped in
    a stub HTTP/1.1 200 response block) or ``text``. Every record carries
    the mandatory ``WARC-Record-ID`` (deterministic urn:uuid). With
    ``compress``, each record becomes its own gzip member — the crawl-dump
    layout."""
    out = io.BytesIO()
    for rec in records:
        rtype = rec["type"]
        if rtype == "response":
            body = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n" + rec["html"]
            ctype = "application/http; msgtype=response"
        elif rtype == "warcinfo":
            body = rec.get("text", "software: safe-zone-ray\r\n").encode("utf-8")
            ctype = "application/warc-fields"
        else:
            body = rec.get("text", "").encode("utf-8")
            ctype = "text/plain"
        head = (
            "WARC/1.0\r\n"
            f"WARC-Type: {rtype}\r\n"
            + (f"WARC-Target-URI: {rec['url']}\r\n" if rec.get("url") else "")
            + f"WARC-Date: {rec.get('date') or DEFAULT_WARC_DATE}\r\n"
            + f"WARC-Record-ID: {_record_id(rec)}\r\n"
            + f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("utf-8")
        record = head + body + b"\r\n\r\n"
        out.write(gzip.compress(record) if compress else record)
    with open(path, "wb") as f:
        f.write(out.getvalue())


def _publish_wet(out_dir: str, urls: list, texts: list, compress: bool) -> str:
    """Write one WET archive of ``urls``/``texts`` into ``out_dir``; return its
    path (md5 of the url set, so a re-executed task overwrites its own file).
    The tmp file lives NEXT TO ``out_dir`` (same filesystem, atomic
    ``os.replace``), not inside it where ``read_pages_warc`` would scan it.
    Its name carries the ``out_dir`` basename and a pid + uuid token, so two
    exports of the same rows never share it; a failed write removes it."""
    import hashlib
    import os
    import uuid

    name = hashlib.md5("\n".join(urls).encode()).hexdigest()[:16]
    path = os.path.join(out_dir, f"wet-{name}{'.warc.gz' if compress else '.warc'}")
    out_abs = os.path.abspath(out_dir)
    tmp = os.path.join(
        os.path.dirname(out_abs),
        f".wet-{os.path.basename(out_abs)}-{name}.{os.getpid()}-{uuid.uuid4().hex}.part",
    )
    try:
        write_warc(
            [{"type": "warcinfo", "url": None}]
            + [{"type": "conversion", "url": u, "text": t or ""} for u, t in zip(urls, texts)],
            tmp,
            compress=compress,
        )
        os.replace(tmp, path)  # atomic publish (resume rule)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    return path


def write_wet(
    ds: ray.data.Dataset,
    out_dir: str,
    url_col: str = "url",
    text_col: str = "scrubbed_text",
    compress: bool = True,
) -> int:
    """DISTRIBUTED WET export sink: the kept/scrubbed corpus as ISO 28500
    ``conversion`` records (the Common-Crawl WET layout downstream trainers
    ingest), one ``.warc[.gz]`` file per output block — the archive-side
    counterpart of the Parquet decisions files. Retry-safe: each task derives its
    file name from the md5 of its url set, so a re-executed task (same
    batch) overwrites its own file instead of duplicating records, and the
    tmp file is published atomically OUTSIDE the output dir (a crashed
    task can never leave a half-written archive where readers scan).
    Scope note: retry-safety assumes the SAME batch layout — resuming with
    a different parallelism re-batches the input and writes a second file
    set; export into a fresh directory (or wipe the old one) when the
    layout changes. Returns the number of records written.

    Scale shape: pure ``map_batches`` fan-out — no exchange, no driver
    materialisation; each task streams its batch straight to its own gzip
    members. Round-trip verified against ``read_pages_warc``."""
    import os

    os.makedirs(out_dir, exist_ok=True)

    def write_batch(batch: "pa.Table") -> "pa.Table":
        urls = batch.column(url_col).to_pylist()
        if urls:
            _publish_wet(out_dir, urls, batch.column(text_col).to_pylist(), compress)
        return pa.Table.from_arrays([pa.array([len(urls)], pa.int64())], names=["n"])

    counts = ds.select_columns([url_col, text_col]).map_batches(
        write_batch, batch_format="pyarrow"
    )
    return sum(r["n"] for r in counts.take_all())
