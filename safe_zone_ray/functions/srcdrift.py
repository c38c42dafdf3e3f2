"""Per-source token-distribution KL divergence from the corpus,
ORACLE-CHECKED.

``KL(P_source ‖ P_corpus)`` over token unigram distributions is the
standard "which provenance is most atypical" fingerprint (the importance
weight DSIR integrates per-document, aggregated to provenance level; cf.
Xie et al. 2023): near-zero for sources that look like the mixture,
large for boilerplate mills and off-domain feeds. Emitted per source in
exact integer micro-nats: each token term ``c_st·ln(c_st·N/(c_s·c_t))``
is quantized to int64 micro-units (order-independent sum), the final
division is floor, and both engines clamp the sum at 0 (real-arithmetic
KL is ≥ 0; term rounding may push a near-zero sum a few micros negative,
and DuckDB's ``//`` truncates toward zero where numpy floors — the clamp
removes the only case where they disagree).

Scale shape: per-batch (source, token) count combiner → ONE
``groupby(source, token)`` exchange (vocab × |sources| bounded) → a
second exchange keyed by token-crc bucket (64 buckets) so each bucket holds EVERY source's rows for its tokens and computes the
global token marginal locally — the per-bucket fold is vectorized over
the whole bucket (np.unique + bincount), never per token. Source
marginals are a tiny broadcast (|sources| rows). The driver folds
≤ 64 × |sources| partial rows.

Reference parity: no reference counterpart; beyond-reference corpus
audit alongside ``corpusstats.lang_source_mi`` and
``search.dsir_weights``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from safe_zone_ray.functions.rounding import round_half_away_int64_np

MICRO = 1_000_000
N_KL_BUCKETS = 64


def _st_partial(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: (source, token) → occurrence count."""
    text = pc.fill_null(batch.column("text"), "")
    tok_lists = pc.split_pattern_regex(pc.utf8_lower(text), r"\W+")
    flat = pc.list_flatten(tok_lists)
    owner = pc.list_parent_indices(tok_lists)
    keep = pc.greater(pc.utf8_length(flat), 0)
    src = batch.column("source").take(owner.filter(keep))
    toks = flat.filter(keep)
    t = pa.Table.from_arrays(
        [src, toks], names=["source", "token"]
    ).append_column("c", pa.array(np.ones(len(toks), np.int64)))
    agg = t.group_by(["source", "token"]).aggregate([("c", "sum")])
    return pa.Table.from_arrays(
        [agg.column("source"), agg.column("token"), agg.column("c_sum")],
        names=["source", "token", "c"],
    )


def _add_bucket(t: pa.Table) -> pa.Table:
    """crc32 token bucket so every copy of a token co-locates; computed on
    the batch's *unique* tokens (vocabulary-sized), scattered back."""
    toks = t.column("token").to_numpy(zero_copy_only=False)
    tok_u, tok_inv = np.unique(toks, return_inverse=True)
    buckets = np.array(
        [zlib.crc32(x.encode("utf-8")) % N_KL_BUCKETS for x in tok_u],
        dtype=np.int64,
    )[tok_inv]
    return t.append_column("bucket", pa.array(buckets))


def source_token_kl(sf_dir: str) -> pa.Table:
    """(source, n_tokens, kl_micro) — one row per source, int micro-nats."""
    merged = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["source", "text"]
        )
        .map_batches(_st_partial, batch_format="pyarrow")
        .groupby(["source", "token"])
        .sum("c")
    )

    # tiny marginals: tokens per source, and the corpus total
    src_rows = merged.groupby("source").sum("sum(c)").take_all()
    cs = {r["source"]: int(r["sum(sum(c))"]) for r in src_rows}
    nn = sum(cs.values())
    cs_ref = ray.put(cs)

    def bucket_fold(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {"source": pa.array([], pa.string()), "s": pa.array([], pa.int64())}
            )
        cs_local = ray.get(cs_ref)
        src = group.column("source").to_numpy(zero_copy_only=False)
        c = group.column("sum(c)").to_numpy(zero_copy_only=False).astype(np.float64)
        toks = group.column("token").to_numpy(zero_copy_only=False)
        tu, ti = np.unique(toks, return_inverse=True)
        ct = np.bincount(ti, weights=c)  # bucket owns ALL copies of its tokens
        cs_arr = np.array([cs_local[s] for s in src], dtype=np.float64)
        # ratio association mirrors the SQL: (c*N exact) / (cs_double * ct)
        term = c * np.log((c * float(nn)) / (cs_arr * ct[ti]))
        micro = round_half_away_int64_np(term * MICRO)
        su, si = np.unique(src, return_inverse=True)
        sums = np.bincount(si, weights=micro).astype(np.int64)
        return pa.table(
            {"source": pa.array(su.astype(object), pa.string()), "s": pa.array(sums)}
        )

    parts = (
        merged.map_batches(_add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_fold, batch_format="pyarrow")
        .take_all()  # ≤ 64 × |sources| rows
    )
    totals: dict[str, int] = {}
    for r in parts:
        totals[r["source"]] = totals.get(r["source"], 0) + int(r["s"])
    out_src = sorted(cs)
    kl = [max(totals.get(s, 0), 0) // cs[s] for s in out_src]
    return pa.table(
        {
            "source": pa.array(out_src, pa.string()),
            "n_tokens": pa.array([cs[s] for s in out_src], pa.int64()),
            "kl_micro": pa.array(kl, pa.int64()),
        }
    )


def source_token_kl_oracle_sql() -> str:
    return """
        WITH tok AS (
          SELECT source, unnest(regexp_extract_all(lower(text), '\\w+')) AS t
          FROM documents
        ),
        st AS (SELECT source, t, CAST(count(*) AS BIGINT) AS c
               FROM tok GROUP BY 1, 2),
        s AS (SELECT source, CAST(sum(c) AS BIGINT) AS cs FROM st GROUP BY 1),
        n AS (SELECT CAST(sum(c) AS BIGINT) AS nn FROM st),
        tt AS (SELECT t, CAST(sum(c) AS BIGINT) AS ct FROM st GROUP BY 1),
        terms AS (
          SELECT st.source,
                 CAST(round(st.c * ln((st.c * nn) /
                        (CAST(s.cs AS DOUBLE) * tt.ct)) * 1000000, 0)
                      AS BIGINT) AS term
          FROM st JOIN s USING (source) JOIN tt USING (t) CROSS JOIN n
        )
        SELECT source, s.cs AS n_tokens,
               GREATEST(CAST(sum(term) AS BIGINT), 0) // s.cs AS kl_micro
        FROM terms JOIN s USING (source)
        GROUP BY source, s.cs
    """
