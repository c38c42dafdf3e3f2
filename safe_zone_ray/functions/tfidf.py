"""Per-document TF-IDF top-k terms — the classic keyword-extraction /
feature-selection operator over the crawl corpus, ORACLE-CHECKED.

Scale shape (the only exchange is vocabulary-sized):

1. DF pass: each batch tokenizes (shared ``\\W+`` RE2 split, lowercased)
   and emits per-batch DISTINCT (term, n_docs) partials — a doc never
   spans batches, so per-batch doc-presence counts sum exactly. One
   vocabulary-sized ``groupby(term).sum`` finishes; the result is
   collected once and broadcast via ``ray.put`` as sorted arrays (a
   10^12-doc crawl still has only ~10^7-10^8 distinct words, well inside
   driver memory).
2. Score pass: each batch recomputes its (doc, term, tf) counts with one
   ``np.unique`` over integer-coded pairs, resolves df by vectorized
   ``searchsorted`` against the broadcast vocabulary, scores
   ``tf · ln(N/df)``, rounds to 6 dp BEFORE the per-doc top-k cut (rounded
   order == emitted order, so the cut is batch-layout-independent), and
   emits each doc's top ``K`` terms with their rank. No shuffle: a doc's
   terms never leave its batch.

Determinism: ties at the rounded score order by term ASC (matches the SQL
``row_number() OVER (... ORDER BY tfidf DESC, term)``).

Reference parity: no reference counterpart (the Go service does no corpus
analytics); beyond-reference LLM-pipeline operator alongside bm25/dsir
(``functions/search.py``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from safe_zone_ray.functions.textstats import read_documents

TFIDF_TOP_K = 5
_ROUND = 1e6


def _doc_term_counts(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(doc_ids_per_pair, terms_per_pair, tf, docs_in_batch): one np.unique
    over integer-coded (row, term) pairs — vectorized, no Python row loop."""
    text = pc.fill_null(batch.column("text"), "")
    tok_lists = pc.split_pattern_regex(pc.utf8_lower(text), r"\W+")
    flat = pc.list_flatten(tok_lists)
    parent = pc.list_parent_indices(tok_lists).to_numpy(zero_copy_only=False)
    words = flat.to_numpy(zero_copy_only=False)
    keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
    words, parent = words[keep], parent[keep]
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    if len(words) == 0:
        e = np.array([], dtype=np.int64)
        return e, np.array([], dtype=object), e, doc_ids
    vocab, codes = np.unique(words, return_inverse=True)
    combined = parent.astype(np.int64) * len(vocab) + codes
    uniq, tf = np.unique(combined, return_counts=True)
    return (
        doc_ids[uniq // len(vocab)],
        vocab[uniq % len(vocab)],
        tf.astype(np.int64),
        doc_ids,
    )


def _df_table(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Distributed document-frequency table: per-batch distinct-presence
    combiner → one vocabulary-sized groupby-sum. Returns (sorted terms,
    df) ready for searchsorted lookup."""

    def partial(batch: pa.Table) -> pa.Table:
        _, terms, _, _ = _doc_term_counts(batch)
        uniq, n = np.unique(terms, return_counts=True)
        return pa.Table.from_arrays(
            [pa.array(uniq.astype(object), pa.string()), pa.array(n.astype(np.int64))],
            names=["term", "nd"],
        )

    rows = (
        read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .sum("nd")
        .take_all()
    )
    terms = np.array([r["term"] for r in rows], dtype=object)
    df = np.array([r["sum(nd)"] for r in rows], dtype=np.float64)
    order = np.argsort(terms)
    return terms[order], df[order]


def tfidf_top_terms(sf_dir: str, k: int = TFIDF_TOP_K) -> ray.data.Dataset:
    """(doc_id, term, tfidf, term_rank) — each doc's top-``k`` terms by
    ``tf · ln(N/df)``, rounded to 6 dp before the cut; ties by term ASC."""
    n_docs = float(
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"]).count()
    )
    terms_sorted, df_sorted = _df_table(sf_dir)
    idf_ref = ray.put((terms_sorted, np.log(n_docs / df_sorted)))

    def score(batch: pa.Table) -> pa.Table:
        terms_b, idf_b = ray.get(idf_ref)
        doc_ids, terms, tf, _ = _doc_term_counts(batch)
        if len(terms) == 0:
            return pa.Table.from_arrays(
                [
                    pa.array([], pa.int64()),
                    pa.array([], pa.string()),
                    pa.array([], pa.float64()),
                    pa.array([], pa.int64()),
                ],
                names=["doc_id", "term", "tfidf", "term_rank"],
            )
        idx = np.searchsorted(terms_b, terms)
        scores = tf.astype(np.float64) * idf_b[idx]
        # round BEFORE the cut: the emitted order must equal the emitted
        # values (DuckDB round() is half-away — mirror exactly)
        scores = np.floor(np.abs(scores) * _ROUND + 0.5) * np.sign(scores) / _ROUND
        # per-doc rank by (tfidf DESC, term ASC); docs are batch-local
        order = np.lexsort((terms, -scores, doc_ids))
        d, s, t = doc_ids[order], scores[order], terms[order]
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        pos = np.arange(len(d)) - np.repeat(starts, np.diff(np.r_[starts, len(d)]))
        keep = pos < k
        return pa.Table.from_arrays(
            [
                pa.array(d[keep]),
                pa.array(t[keep].astype(object), pa.string()),
                pa.array(s[keep]),
                pa.array((pos[keep] + 1).astype(np.int64)),
            ],
            names=["doc_id", "term", "tfidf", "term_rank"],
        )

    return read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


def tfidf_oracle_sql(k: int = TFIDF_TOP_K) -> str:
    return f"""
        WITH tok AS (
          SELECT doc_id, unnest(regexp_extract_all(lower(text), '\\w+')) AS term
          FROM documents
        ),
        tf AS (
          SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
          FROM tok GROUP BY 1, 2
        ),
        df AS (
          SELECT term, CAST(count(DISTINCT doc_id) AS DOUBLE) AS df
          FROM tok GROUP BY 1
        ),
        n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
        scored AS (
          SELECT tf.doc_id, tf.term, round(tf.tf * ln(n.n / df.df), 6) AS tfidf
          FROM tf JOIN df USING (term) CROSS JOIN n
        )
        SELECT doc_id, term, tfidf, CAST(term_rank AS BIGINT) AS term_rank
        FROM (
          SELECT doc_id, term, tfidf,
                 row_number() OVER (
                   PARTITION BY doc_id ORDER BY tfidf DESC, term
                 ) AS term_rank
          FROM scored
        )
        WHERE term_rank <= {k}
    """
