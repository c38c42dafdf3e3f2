"""Distributed classifier-evaluation metrics: exact tie-corrected ROC-AUC
and reciprocal-rank fusion of quality signals, ORACLE-CHECKED.

Every quality-filter deployment evaluates its scorer against held-out
labels before trusting it to gate a corpus (Fawcett 2006 "An introduction
to ROC analysis"). The evaluated pairing
here is fully deterministic so DuckDB can replay it end-to-end: the score
is the English-stopword density of the document (the classic langid /
quality feature — `stopword_hits / n_words` in integer micro-units, the
same regex constants `textstats.EN_STOPWORD_PATTERN` / `WORD_REGEX` the
`doc_quality_stats` oracle already pins) and the label is whether the
document's `lang` claim is English. AUC answers "does stopword density
discriminate English documents?". (On the synthetic test tables
the generator draws text independently of `lang`, so AUC lands near 0.5
there — the planted-truth test pins the discrimination semantics.)

Distributed shape — score-histogram exchange, never a global sort:
1. each batch folds to a distinct-(score -> n_pos, n_neg) partial
   histogram (Arrow hash group-by inside the batch, one row per distinct
   micro-score, never per document);
2. ONE ``groupby(score)`` merges the partials. Because the score is an
   integer in [0, 1_000_000], the exchange and the driver-side fold are
   bounded by 1e6 + 1 rows REGARDLESS of corpus size — this is the
   standard quantized-score trick that makes exact AUC feasible at 100 TB
   where a rank-based formula would need a corpus-wide sort;
3. the driver computes the tie-corrected Mann-Whitney form in exact
   Python integers (pair counts overflow int64 beyond ~3e9 docs/class):
   AUC = sum_s pos(s) * (2*cum_neg_below(s) + neg(s)) / (2 * P * N),
   emitted as ``auc_micro`` via integer floor division so the SQL twin
   (window-function cumulative sum over the same histogram) hashes
   identically — no float rounding anywhere.

Reference parity: no reference counterpart (the Go service has no model
evaluation surface); beyond-reference training-data operator.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from safe_zone_ray.functions.textstats import EN_STOPWORD_PATTERN, WORD_REGEX

MICRO = 1_000_000
POS_LANG = "en"


def _scored_partial(batch: pa.Table) -> pa.Table:
    """(score, n_pos, n_neg) partial histogram for one batch — the combiner.
    score = stopword_hits * 1e6 // max(n_words, 1) in [0, 1e6]."""
    text = batch.column("text")
    hits = pc.cast(
        pc.count_substring_regex(pc.utf8_lower(text), EN_STOPWORD_PATTERN), pa.int64()
    ).to_numpy(zero_copy_only=False)
    words = pc.cast(pc.count_substring_regex(text, WORD_REGEX), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    score = hits * MICRO // np.maximum(words, 1)
    is_pos = pc.equal(batch.column("lang"), POS_LANG).to_numpy(zero_copy_only=False)
    t = pa.table(
        {
            "score": pa.array(score),
            "n_pos": pa.array(is_pos.astype(np.int64)),
            "n_neg": pa.array((~is_pos).astype(np.int64)),
        }
    )
    return (
        t.group_by("score")
        .aggregate([("n_pos", "sum"), ("n_neg", "sum")])
        .rename_columns(["score", "n_pos", "n_neg"])
    )


def _read(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["text", "lang"]
    )


def classifier_auc(sf_dir: str) -> pa.Table:
    """One row (n_pos, n_neg, auc_micro): exact tie-corrected ROC-AUC of
    stopword density as a predictor of ``lang = 'en'``, in integer
    millionths (floor division — byte-identical to the SQL twin)."""
    rows = (
        _read(sf_dir)
        .map_batches(_scored_partial, batch_format="pyarrow")
        .groupby("score")
        .sum(["n_pos", "n_neg"])
        .take_all()  # ≤ 1e6 + 1 rows, bounded regardless of corpus size
    )
    score = np.array([r["score"] for r in rows], dtype=np.int64)
    order = np.argsort(score, kind="stable")
    # exact Python ints: pos*(2*cneg+neg) overflows int64 past ~3e9/class
    pos = [int(rows[i]["sum(n_pos)"]) for i in order]
    neg = [int(rows[i]["sum(n_neg)"]) for i in order]
    n_pos, n_neg = sum(pos), sum(neg)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC undefined: one class is empty")
    num2 = 0
    cneg = 0
    for p, n in zip(pos, neg):
        num2 += p * (2 * cneg + n)
        cneg += n
    auc_micro = num2 * MICRO // (2 * n_pos * n_neg)
    return pa.table(
        {
            "n_pos": pa.array([n_pos], pa.int64()),
            "n_neg": pa.array([n_neg], pa.int64()),
            "auc_micro": pa.array([auc_micro], pa.int64()),
        }
    )


def classifier_auc_oracle_sql() -> str:
    stop_sql = EN_STOPWORD_PATTERN.replace("'", "''")
    return f"""
        WITH scored AS (
          SELECT (CAST(length(regexp_extract_all(lower(text), '{stop_sql}')) AS BIGINT)
                    * {MICRO})
                   // GREATEST(CAST(length(regexp_extract_all(text, '{WORD_REGEX}')) AS BIGINT), 1)
                   AS score,
                 CAST(lang = '{POS_LANG}' AS BIGINT) AS is_pos
          FROM documents
        ), hist AS (
          SELECT score,
                 CAST(SUM(is_pos) AS BIGINT) AS pos,
                 CAST(SUM(1 - is_pos) AS BIGINT) AS neg
          FROM scored GROUP BY score
        ), cum AS (
          SELECT pos, neg,
                 CAST(COALESCE(SUM(neg) OVER (ORDER BY score
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS cneg
          FROM hist
        )
        SELECT CAST(SUM(pos) AS BIGINT) AS n_pos,
               CAST(SUM(neg) AS BIGINT) AS n_neg,
               CAST(SUM(pos * (2 * cneg + neg)) * {MICRO}
                    // (2 * SUM(pos) * SUM(neg)) AS BIGINT) AS auc_micro
        FROM cum
    """


# ---------------------------------------------------------------------------
# Reciprocal-rank fusion of quality signals — distributed ranking without a
# global sort (Cormack, Clarke & Buettcher 2009, "Reciprocal Rank Fusion").
# ---------------------------------------------------------------------------

RRF_K = 60
RRF_SCALE = 1_000_000_000
# signal id -> output column
RRF_SIGNALS = [(0, "rank_words"), (1, "rank_stopword"), (2, "rank_distinct")]


def _rrf_signals(batch: pa.Table) -> tuple[pa.Array, list[np.ndarray]]:
    """Per-doc integer signals: n_words; stopword density micro; distinct-word
    ratio micro. All reproducible verbatim by the SQL twin."""
    text = batch.column("text")
    lower = pc.utf8_lower(text)
    words = pc.cast(pc.count_substring_regex(text, WORD_REGEX), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    hits = pc.cast(
        pc.count_substring_regex(lower, EN_STOPWORD_PATTERN), pa.int64()
    ).to_numpy(zero_copy_only=False)
    denom = np.maximum(words, 1)
    # distinct lowercased \w+ tokens per row: Arrow hash group-by on the
    # flattened (row, token) pairs — exact string distinct, no hashing tricks
    toks = pc.split_pattern_regex(lower, r"\W+")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    keep = pc.not_equal(flat, "")
    pairs = pa.table({"row": parent.filter(keep), "tok": flat.filter(keep)})
    per_row = (
        pairs.group_by(["row", "tok"])
        .aggregate([])
        .group_by("row")
        .aggregate([("tok", "count")])
    )
    distinct = np.zeros(batch.num_rows, np.int64)
    distinct[per_row.column("row").to_numpy(zero_copy_only=False)] = per_row.column(
        "tok_count"
    ).to_numpy(zero_copy_only=False)
    return batch.column("doc_id"), [
        words,
        hits * MICRO // denom,
        distinct * MICRO // denom,
    ]


def quality_rank_fusion(sf_dir: str) -> pa.Table:
    """(doc_id, rank_words, rank_stopword, rank_distinct, rrf_micro):
    per-signal competition rank (ties share the min rank — SQL ``RANK()``
    semantics, descending) and the fused reciprocal-rank score
    sum_k RRF_SCALE // (RRF_K + rank_k), all in exact integers.

    Distributed shape — histogram-CDF ranking, never a corpus sort:
    1. one pass folds each batch to distinct (signal_id, value, n) partials
       (all three signals share ONE exchange);
    2. one ``groupby(signal, value)`` merge; the merged histogram is bounded
       by the signals' value domains (n_words by max doc length; the two
       micro-ratios by 1e6 + 1) — independent of corpus size;
    3. the driver turns each histogram into a value -> rank map
       (rank = docs strictly better + 1, i.e. a reversed exclusive CDF),
       broadcast once via ``ray.put``;
    4. a second pass recomputes the signals per batch and resolves ranks by
       ``np.searchsorted`` — shuffle-free, row-parallel.
    """
    import ray

    def hist_partial(batch: pa.Table) -> pa.Table:
        _, sigs = _rrf_signals(batch)
        tables = []
        for (sig_id, _), vals in zip(RRF_SIGNALS, sigs):
            t = pa.table(
                {
                    "sig": pa.array(np.full(len(vals), sig_id, np.int64)),
                    "value": pa.array(vals),
                    "n": pa.array(np.ones(len(vals), np.int64)),
                }
            )
            tables.append(t)
        merged = pa.concat_tables(tables)
        return (
            merged.group_by(["sig", "value"])
            .aggregate([("n", "sum")])
            .rename_columns(["sig", "value", "n"])
        )

    src = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    rows = (
        src.map_batches(hist_partial, batch_format="pyarrow")
        .groupby(["sig", "value"])
        .sum("n")
        .take_all()  # bounded by the signals' value domains
    )
    rank_maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for sig_id, _ in RRF_SIGNALS:
        sub = [(r["value"], r["sum(n)"]) for r in rows if r["sig"] == sig_id]
        sub.sort()  # values ascending
        vals = np.array([v for v, _ in sub], dtype=np.int64)
        cnts = np.array([c for _, c in sub], dtype=np.int64)
        # rank for value v (DESC order) = count strictly greater + 1
        greater = np.concatenate([np.cumsum(cnts[::-1])[::-1][1:], [0]])
        rank_maps[sig_id] = (vals, greater + 1)
    maps_ref = ray.put(rank_maps)

    def annotate(batch: pa.Table) -> pa.Table:
        maps = ray.get(maps_ref)
        doc_id, sigs = _rrf_signals(batch)
        cols = [doc_id]
        names = ["doc_id"]
        rrf = np.zeros(batch.num_rows, np.int64)
        for (sig_id, col_name), vals in zip(RRF_SIGNALS, sigs):
            mvals, mranks = maps[sig_id]
            rank = mranks[np.searchsorted(mvals, vals)]
            cols.append(pa.array(rank))
            names.append(col_name)
            rrf += RRF_SCALE // (RRF_K + rank)
        cols.append(pa.array(rrf))
        names.append("rrf_micro")
        return pa.Table.from_arrays(cols, names=names)

    return src.map_batches(annotate, batch_format="pyarrow")


def quality_rank_fusion_oracle_sql() -> str:
    stop_sql = EN_STOPWORD_PATTERN.replace("'", "''")
    return f"""
        WITH sig AS (
          SELECT doc_id,
                 CAST(length(regexp_extract_all(text, '{WORD_REGEX}')) AS BIGINT)
                   AS s_words,
                 (CAST(length(regexp_extract_all(lower(text), '{stop_sql}')) AS BIGINT)
                    * {MICRO})
                   // GREATEST(CAST(length(regexp_extract_all(text, '{WORD_REGEX}')) AS BIGINT), 1)
                   AS s_stop,
                 (CAST(length(list_distinct(regexp_extract_all(lower(text), '\\w+'))) AS BIGINT)
                    * {MICRO})
                   // GREATEST(CAST(length(regexp_extract_all(text, '{WORD_REGEX}')) AS BIGINT), 1)
                   AS s_distinct
          FROM documents
        ), ranked AS (
          SELECT doc_id,
                 RANK() OVER (ORDER BY s_words DESC) AS r1,
                 RANK() OVER (ORDER BY s_stop DESC) AS r2,
                 RANK() OVER (ORDER BY s_distinct DESC) AS r3
          FROM sig
        )
        SELECT doc_id,
               CAST(r1 AS BIGINT) AS rank_words,
               CAST(r2 AS BIGINT) AS rank_stopword,
               CAST(r3 AS BIGINT) AS rank_distinct,
               CAST({RRF_SCALE} // ({RRF_K} + r1)
                  + {RRF_SCALE} // ({RRF_K} + r2)
                  + {RRF_SCALE} // ({RRF_K} + r3) AS BIGINT) AS rrf_micro
        FROM ranked
    """
