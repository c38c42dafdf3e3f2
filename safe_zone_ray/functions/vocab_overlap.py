"""Cross-source vocabulary overlap (Jaccard between per-source token
vocabularies), ORACLE-CHECKED.

The audit a curator runs before mixing sources: a pair of sources with
near-total vocabulary overlap adds redundancy, not coverage; a pair with
tiny overlap signals a domain (or language) gap the mixture weights
should respect. Output: one row per unordered source pair with
``|V_a ∩ V_b|``, ``|V_a ∪ V_b|`` and their Jaccard ratio.

Scale shape (ONE vocabulary-sized exchange, then mask algebra):

1. Per-batch combiner emits DISTINCT (token, source) pairs, each tagged
   with a crc32 token bucket (64 coarse shuffle groups — the
   Jaccard-verify segmentation pattern), so every copy of a
   token co-locates in one group.
2. Inside each group one vectorized fold ORs the source bits per token
   (OR is idempotent — cross-batch duplicate pairs collapse for free;
   the mask fits an int64 for up to 63 sources, asserted) and emits
   (mask, count) partials. A final ``groupby(mask).sum`` is at most
   ``2^|sources|`` rows, from which the driver reconstructs every
   pairwise intersection/union by mask algebra — no quadratic token
   work, no token string ever shipped twice.

Determinism: integer counts end-to-end; Jaccard rounded to 6 dp at
emission. Tokenization parity: ``\\w+`` on the lowercased text, the same
RE2 class as ``tfidf``/``zipf_law_fit``.

Reference parity: no reference counterpart (SURVEY.md §2.7);
beyond-reference audit alongside ``lang_source_mi``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from safe_zone_ray.functions.rounding import round_half_away
from safe_zone_ray.functions.textstats import read_documents

_N_BUCKETS = 64


def _distinct_token_source(batch: pa.Table) -> pa.Table:
    text = pc.fill_null(batch.column("text"), "")
    tok_lists = pc.split_pattern_regex(pc.utf8_lower(text), r"\W+")
    flat = pc.list_flatten(tok_lists)
    parent = pc.list_parent_indices(tok_lists).to_numpy(zero_copy_only=False)
    words = flat.to_numpy(zero_copy_only=False)
    keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
    words, parent = words[keep], parent[keep]
    src = batch.column("source").to_numpy(zero_copy_only=False)[parent]
    if len(words) == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.string()), pa.array([], pa.int64())],
            names=["token", "source", "bucket"],
        )
    pairs = np.char.add(np.char.add(src.astype(str), "\x1f"), words.astype(str))
    uniq = np.unique(pairs)
    split = np.char.partition(uniq, "\x1f")
    toks = split[:, 2]
    tok_u, tok_inv = np.unique(toks, return_inverse=True)
    buckets = np.array(
        [zlib.crc32(t.encode("utf-8")) % _N_BUCKETS for t in tok_u], dtype=np.int64
    )[tok_inv]
    return pa.Table.from_arrays(
        [
            pa.array(toks.astype(object), pa.string()),
            pa.array(split[:, 0].astype(object), pa.string()),
            pa.array(buckets),
        ],
        names=["token", "source", "bucket"],
    )


def source_vocab_overlap(sf_dir: str) -> pa.Table:
    """(source_a, source_b, n_common, n_union, jaccard) per unordered
    source pair, source_a < source_b lexicographically."""
    sources = sorted(
        r["source"]
        for r in ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source"]
        )
        .groupby("source")
        .count()
        .take_all()
    )
    assert len(sources) <= 63, "source bitmask packs into int64"
    code = {s: np.int64(1) << i for i, s in enumerate(sources)}

    def fold_masks(group: pa.Table) -> pa.Table:
        if group.num_rows == 0 or "token" not in group.column_names:
            return pa.Table.from_arrays(
                [pa.array([], pa.int64()), pa.array([], pa.int64())],
                names=["mask", "n"],
            )
        toks = group.column("token").to_numpy(zero_copy_only=False)
        src = group.column("source").to_numpy(zero_copy_only=False)
        masks = np.array([code[s] for s in src], dtype=np.int64)
        _, inv = np.unique(toks, return_inverse=True)
        folded = np.zeros(inv.max() + 1, dtype=np.int64)
        np.bitwise_or.at(folded, inv, masks)
        mask_vals, mask_counts = np.unique(folded, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(mask_vals), pa.array(mask_counts.astype(np.int64))],
            names=["mask", "n"],
        )

    rows = (
        read_documents(sf_dir, ["text", "source"])
        .map_batches(_distinct_token_source, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(fold_masks, batch_format="pyarrow")
        .groupby("mask")
        .sum("n")
        .take_all()  # bounded: <= 2^|sources| rows
    )
    masks = np.array([r["mask"] for r in rows], dtype=np.int64)
    counts = np.array([r["sum(n)"] for r in rows], dtype=np.int64)
    out_a, out_b, out_c, out_u, out_j = [], [], [], [], []
    for i, a in enumerate(sources):
        size_a = int(counts[(masks & code[a]) != 0].sum())
        for b in sources[i + 1 :]:
            size_b = int(counts[(masks & code[b]) != 0].sum())
            common = int(
                counts[((masks & code[a]) != 0) & ((masks & code[b]) != 0)].sum()
            )
            if common == 0:
                continue  # SQL twin's inner join emits overlapping pairs only
            union = size_a + size_b - common
            out_a.append(a)
            out_b.append(b)
            out_c.append(common)
            out_u.append(union)
            out_j.append(round_half_away(common / union, 6) if union else 0.0)
    return pa.table(
        {
            "source_a": pa.array(out_a, pa.string()),
            "source_b": pa.array(out_b, pa.string()),
            "n_common": pa.array(out_c, pa.int64()),
            "n_union": pa.array(out_u, pa.int64()),
            "jaccard": pa.array(out_j, pa.float64()),
        }
    )


def source_vocab_overlap_oracle_sql() -> str:
    return """
        WITH tok AS (
          SELECT DISTINCT source,
                 unnest(regexp_extract_all(lower(text), '\\w+')) AS token
          FROM documents
        ),
        sizes AS (
          SELECT source, CAST(count(*) AS BIGINT) AS n FROM tok GROUP BY 1
        ),
        pairs AS (
          SELECT a.source AS source_a, b.source AS source_b,
                 CAST(count(*) AS BIGINT) AS n_common
          FROM tok a JOIN tok b
            ON a.token = b.token AND a.source < b.source
          GROUP BY 1, 2
        )
        SELECT p.source_a, p.source_b, p.n_common,
               sa.n + sb.n - p.n_common AS n_union,
               round(p.n_common / CAST(sa.n + sb.n - p.n_common AS DOUBLE), 6)
                 AS jaccard
        FROM pairs p
        JOIN sizes sa ON sa.source = p.source_a
        JOIN sizes sb ON sb.source = p.source_b
    """
