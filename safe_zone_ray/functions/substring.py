"""Exact substring deduplication over the ``documents`` table.

The operator family from Lee et al. 2022, "Deduplicating Training Data Makes
Language Models Better" (arXiv:2107.06499): find every length-``L`` character
gram that occurs at two or more (doc, position) sites anywhere in the corpus,
and report the per-document duplicated-character coverage
(``exact_substring_dup_stats``).

Re-expressed Ray-Data-first instead of the paper's corpus-global suffix
array:

1. one ``map_batches`` pass emits, per character position, a 128-bit rolling
   Rabin-Karp fingerprint of the L-char window (two independent odd-base
   polynomial hashes over the codepoint array, mod 2^64) plus
   ``(doc_id, pos)`` — 28 B/position, the gram text never ships;
2. fingerprints are hash-bucketed into ``N_SUB_BUCKETS`` groups (equal
   fingerprint ⇒ equal bucket) and ONE ``groupby(bucket).map_groups`` does a
   vectorized lexsort-segmentation per bucket — the same shape as the
   Jaccard-verify / banded-Hamming buckets, never one Python call per gram;
3. the surviving duplicated positions (a small fraction of the corpus) take
   a second, doc-bucketed exchange for the per-document interval union
   (``np.add.reduceat`` over doc boundaries).

Scale notes (100 TB):
- the position exchange is corpus_chars × 28 B — inherently the price of
  this operator (the reference design, a suffix array, is corpus × ~9 B but
  must be built with a corpus-global sort; ours is a single hash shuffle);
- keying on a fingerprint rather than the gram bytes follows the
  ``exact_dedup`` precedent (ship the digest, not the payload). Two
  independent 64-bit polynomial hashes give < 2^-64 collision odds per pair
  (≈ n²/2^129 expected collisions corpus-wide: ~10^-14 at 10^12 positions
  on non-adversarial data). An adversarially-robust variant would carry the
  L×4-byte codepoint window as the key; the DuckDB oracle compares the
  actual substrings, so a fingerprint collision is CAUGHT, not masked;
- duplicated positions cluster heavily (a repeated passage of length P
  yields P−L+1 consecutive positions), so the second exchange is usually
  ≪ corpus-sized; the interval union collapses it to one row per document.

Semantics are pinned by the SQL twin (the entry is oracle-checked):
- a position is DUPLICATED iff its L-gram occurs at ≥ 2 sites corpus-wide;
- interval union of [pos, pos+L): a new span starts when the gap to the
  previous marked position exceeds L; each position contributes
  min(L, gap) characters (L for the first).

Reference parity: the reference has no substring-level dedup (its dedup is
request-level caching); this is a beyond-reference LLM-pipeline operator per
the driver brief, sibling to ``dedup.duplicate_passages`` (near-dup anchors)
and ``textstats.dedup_lines_scrub`` (C4 line rule).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

SUB_L = 50  # gram length, chars (Lee et al. use 50 BPE tokens; chars here)
N_SUB_BUCKETS = 64  # fingerprint-hash buckets for the marking exchange
N_DOC_BUCKETS = 64  # doc_id-hash buckets for the interval-union exchange

_B1 = np.uint64(0x9E3779B97F4A7C15)  # odd ⇒ invertible mod 2^64
_B2 = np.uint64(0xC2B2AE3D27D4EB4F)

_EMPTY_MARKED = pa.Table.from_arrays(
    [pa.array([], pa.int64()), pa.array([], pa.int64())], names=["doc_id", "pos"]
)


def _read(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


def _window_fingerprints(text: str, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) uint64 polynomial fingerprints of every L-char window.

    Direct form h_i = Σ_j cp[i+j]·B^(L-1-j) (mod 2^64): L vectorized
    multiply-adds over the m = n−L+1 positions, same technique as
    ``textstats._winnow_fingerprints_np`` (identical values to the rolling
    form, no per-position Python)."""
    cp = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    m = len(cp) - L + 1
    if m <= 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    h1 = np.zeros(m, dtype=np.uint64)
    h2 = np.zeros(m, dtype=np.uint64)
    for j in range(L):
        w = cp[j : j + m]
        h1 = h1 * _B1 + w
        h2 = h2 * _B2 + w
    return h1, h2


def _gram_rows(batch: pa.Table, L: int) -> pa.Table:
    """Doc batch → (bucket, h1, h2, doc_id, pos) rows, one per char position
    (pos is 0-based; the SQL twin's 1-based substr positions differ only by
    a constant, which cancels in every gap/interval computation)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    texts = batch.column("text").to_pylist()
    h1s, h2s, dids, poss = [], [], [], []
    for did, text in zip(ids, texts):
        h1, h2 = _window_fingerprints(text or "", L)
        if len(h1) == 0:
            continue
        h1s.append(h1)
        h2s.append(h2)
        dids.append(np.full(len(h1), did, dtype=np.int64))
        poss.append(np.arange(len(h1), dtype=np.int64))
    if not h1s:
        return pa.Table.from_arrays(
            [
                pa.array([], pa.int64()),
                pa.array([], pa.uint64()),
                pa.array([], pa.uint64()),
                pa.array([], pa.int64()),
                pa.array([], pa.int64()),
            ],
            names=["bucket", "h1", "h2", "doc_id", "pos"],
        )
    h1 = np.concatenate(h1s)
    h2 = np.concatenate(h2s)
    bucket = ((h1 ^ (h2 >> np.uint64(3))) % np.uint64(N_SUB_BUCKETS)).astype(np.int64)
    return pa.Table.from_arrays(
        [
            pa.array(bucket),
            pa.array(h1),
            pa.array(h2),
            pa.array(np.concatenate(dids)),
            pa.array(np.concatenate(poss)),
        ],
        names=["bucket", "h1", "h2", "doc_id", "pos"],
    )


def _mark_bucket(group: pa.Table) -> pa.Table:
    """One fingerprint bucket → (doc_id, pos) for every position whose
    gram occurs ≥ 2 times corpus-wide. All sites of a gram share a bucket,
    so segmentation here IS the global decision. Vectorized: lexsort by
    (h1, h2, doc, pos), segment on fingerprint change."""
    if group.num_rows == 0 or "h1" not in group.column_names:
        return _EMPTY_MARKED
    h1 = group.column("h1").to_numpy(zero_copy_only=False)
    h2 = group.column("h2").to_numpy(zero_copy_only=False)
    ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    pos = group.column("pos").to_numpy(zero_copy_only=False).astype(np.int64)
    o = np.lexsort((pos, ids, h2, h1))
    h1, h2, ids, pos = h1[o], h2[o], ids[o], pos[o]
    n = len(h1)
    first = np.empty(n, dtype=bool)
    first[0] = True
    first[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, n))
    dup_seg = sizes >= 2
    in_dup = np.repeat(dup_seg, sizes)
    if not in_dup.any():
        return _EMPTY_MARKED
    return pa.Table.from_arrays(
        [pa.array(ids[in_dup]), pa.array(pos[in_dup])], names=["doc_id", "pos"]
    )


def _marked_positions(sf_dir: str, L: int) -> ray.data.Dataset:
    """(doc_id, pos) for every duplicated position — exchange 1."""
    grams = _read(sf_dir).map_batches(
        lambda b: _gram_rows(b, L), batch_format="pyarrow"
    )
    return grams.groupby("bucket").map_groups(_mark_bucket, batch_format="pyarrow")


def _doc_bucket(batch: pa.Table) -> pa.Table:
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
    b = ((ids * _B1) % np.uint64(N_DOC_BUCKETS)).astype(np.int64)
    return batch.append_column("dbucket", pa.array(b))


def exact_substring_dup_stats(sf_dir: str, L: int = SUB_L) -> ray.data.Dataset:
    """Per document with ≥ 1 duplicated position: contiguous duplicated-span
    count and duplicated-character coverage (interval union of [pos, pos+L)
    over ALL duplicated positions, first sites included — "how much of
    this doc participates in corpus-level duplication")."""
    marked = _marked_positions(sf_dir, L)

    def per_bucket(group: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["doc_id", "dup_spans", "dup_chars"],
        )
        if group.num_rows == 0 or "doc_id" not in group.column_names:
            return empty
        ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = group.column("pos").to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((pos, ids))
        ids, pos = ids[o], pos[o]
        n = len(ids)
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = ids[1:] != ids[:-1]
        gap = np.empty(n, dtype=np.int64)
        gap[0] = L + 1
        gap[1:] = pos[1:] - pos[:-1]
        gap[first] = L + 1  # doc-initial position always starts a span
        contrib = np.minimum(gap, L)
        new_span = (gap > L).astype(np.int64)
        starts = np.flatnonzero(first)  # non-empty: n > 0 here
        return pa.Table.from_arrays(
            [
                pa.array(ids[starts]),
                pa.array(np.add.reduceat(new_span, starts)),
                pa.array(np.add.reduceat(contrib, starts)),
            ],
            names=["doc_id", "dup_spans", "dup_chars"],
        )

    return (
        marked.map_batches(_doc_bucket, batch_format="pyarrow")
        .groupby("dbucket")
        .map_groups(per_bucket, batch_format="pyarrow")
    )


def _grams_cte(L: int) -> str:
    # DuckDB's range() table function rejects lateral column refs, so the
    # per-doc position range comes from unnest(generate_series(...))
    return f"""
        grams AS (
            SELECT doc_id, CAST(pos AS BIGINT) AS pos,
                   substr(text, CAST(pos AS INTEGER), {L}) AS g
            FROM (
                SELECT doc_id, text,
                       unnest(generate_series(
                           1, greatest(length(text) - {L} + 1, 0))) AS pos
                FROM documents
            )
        )"""


def exact_substring_dup_stats_oracle_sql(L: int = SUB_L) -> str:
    """DuckDB twin: duplicates decided on the ACTUAL substrings (a Ray-side
    fingerprint collision would hash-mismatch here, not hide)."""
    return f"""
        WITH {_grams_cte(L)},
        dup AS (
            SELECT doc_id, pos FROM (
                SELECT doc_id, pos, count(*) OVER (PARTITION BY g) AS c FROM grams
            ) WHERE c > 1
        ),
        gaps AS (
            SELECT doc_id,
                   pos - lag(pos) OVER (PARTITION BY doc_id ORDER BY pos) AS gap
            FROM dup
        )
        SELECT doc_id,
               CAST(sum(CASE WHEN gap IS NULL OR gap > {L} THEN 1 ELSE 0 END) AS BIGINT)
                   AS dup_spans,
               CAST(sum(CASE WHEN gap IS NULL THEN {L} ELSE least(gap, {L}) END) AS BIGINT)
                   AS dup_chars
        FROM gaps GROUP BY doc_id
    """
