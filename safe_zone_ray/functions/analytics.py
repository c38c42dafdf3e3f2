"""Relational-analytics operators: global NTILE order statistics without a
full sort, and a windowed word co-occurrence / PMI table (the word2vec-style
matrix build).

Each operator is combiner-first and oracle-mirrored (DuckDB SQL twins in
``__ray_entry__.oracle_sql``); hot paths are Arrow/numpy-vectorized with the
same RE2 kernels the oracles use. Reference parity: the reference engine has
no analytics of this class (its only aggregation is the per-request
breakdown, `/root/reference/internal/detector/engine.go`); these extend the
beyond-reference LLM-corpus toolkit in the same house style as
``functions/textstats.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from safe_zone_ray.functions.textstats import read_documents

# --------------------------------------------------------------------------
# 1. Global NTILE / row_number without a full sort
# --------------------------------------------------------------------------

NTILE_K = 10
NTILE_RANGE = 64  # token-count width of one rank-prefix range


def doc_token_deciles(sf_dir: str, k: int = NTILE_K) -> ray.data.Dataset:
    """Global ORDER-STATISTICS window (row_number + NTILE(k) over the whole
    corpus ordered by (token count, doc_id)) WITHOUT a global sort.

    Distributed rank assignment: (1) one vectorized pass counts tokens per
    doc and range-keys each row by ``n_tokens // NTILE_RANGE`` — a key that
    PRESERVES the global order between ranges; (2) a tiny
    groupby(range).count gives the driver per-range row counts, whose
    running total is each range's global rank base (bytes, not rows);
    (3) groupby(range).map_groups sorts each range locally by (n_tokens,
    doc_id) — ties can never straddle ranges because the key is a function
    of n_tokens — and adds the broadcast base. NTILE uses SQL's exact
    bucket-size rule (first n % k buckets get one extra row). The only
    all-to-all is the range-keyed shuffle of (doc_id, n_tokens) — no
    payloads, no ``ds.sort`` of the corpus.
    """
    import ray

    def counts(batch: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.count_substring_regex(pc.fill_null(batch.column("text"), ""), r"\S+"),
            pa.int64(),
        )
        rng = pc.divide(n_tok, pa.scalar(NTILE_RANGE, pa.int64()))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), n_tok, rng], names=["doc_id", "n_tokens", "rng"]
        )

    per_doc = read_documents(sf_dir).map_batches(counts, batch_format="pyarrow")

    sizes = {int(r["rng"]): int(r["count()"]) for r in per_doc.groupby("rng").count().take_all()}
    base, acc = {}, 0
    for b in sorted(sizes):
        base[b] = acc
        acc += sizes[b]
    n_total = acc
    q, r = divmod(n_total, k) if k else (0, 0)
    base_ref = ray.put(base)

    def rank_range(group: pa.Table) -> pa.Table:
        bases = ray.get(base_ref)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        toks = group.column("n_tokens").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, toks))
        ids, toks = ids[order], toks[order]
        rank0 = bases[int(toks[0]) // NTILE_RANGE] + np.arange(len(ids), dtype=np.int64)
        head = (q + 1) * r  # rows living in the k-sized-(q+1) head buckets
        if q:
            tile = np.where(rank0 < head, rank0 // (q + 1), r + (rank0 - head) // q) + 1
        else:  # fewer rows than buckets: one row per bucket
            tile = rank0 + 1
        return pa.Table.from_arrays(
            [pa.array(ids), pa.array(toks), pa.array(rank0 + 1), pa.array(tile.astype(np.int64))],
            names=["doc_id", "n_tokens", "global_rank", "decile"],
        )

    return per_doc.groupby("rng").map_groups(rank_range, batch_format="pyarrow")


def doc_token_deciles_oracle_sql(k: int = NTILE_K) -> str:
    return f"""
        WITH t AS (
          SELECT doc_id,
                 CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
          FROM documents
        )
        SELECT doc_id, n_tokens,
               CAST(row_number() OVER w AS BIGINT) AS global_rank,
               CAST(ntile({int(k)}) OVER w AS BIGINT) AS decile
        FROM t WINDOW w AS (ORDER BY n_tokens, doc_id)
    """


# --------------------------------------------------------------------------
# 2. Windowed word co-occurrence + PMI (the word2vec-style matrix build)
# --------------------------------------------------------------------------

PMI_WINDOW = 2  # pair (w_i, w_{i+d}) for d in 1..WINDOW, shared with the oracle
PMI_MIN_PAIRS = 5
PMI_TOP_K = 100


def word_cooccurrence_pmi(sf_dir: str) -> ray.data.Dataset:
    """Top-``PMI_TOP_K`` skip-gram pairs by pointwise mutual information:
    ordered word pairs (w1 before w2, gap ≤ ``PMI_WINDOW`` tokens) with
    pair count ≥ ``PMI_MIN_PAIRS``, PMI = ln((c_ab/N_pairs) /
    ((c_a/N_tok)·(c_b/N_tok))) rounded to 6 dp BEFORE the final sort so the
    cut order is engine-independent.

    Pipeline: two tokenize passes (the shared `\\W+` RE2 split) feed the
    pair partials and the unigram partials as shifted-array numpy
    uniques — combiner-first, so the exchanges carry per-batch DISTINCT
    (pair → count) rows, not tokens; two global groupby sums; a
    count-floor filter BEFORE unigram resolution (the big cardinality
    drop); then a broadcast vectorized-searchsorted lookup resolves
    (c_a, c_b) per pair and a bounded sort+limit emits the top-k. The only
    driver pull is the vocabulary-sized unigram aggregate.
    """
    docs = read_documents(sf_dir, columns=["text"])

    def tok_arrays(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        text = pc.fill_null(batch.column("text"), "")
        tok_lists = pc.split_pattern_regex(pc.utf8_lower(text), r"\W+")
        flat = pc.list_flatten(tok_lists)
        parent = pc.list_parent_indices(tok_lists).to_numpy(zero_copy_only=False)
        words = flat.to_numpy(zero_copy_only=False)
        keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
        return words[keep], parent[keep]

    def pair_partials(batch: pa.Table) -> pa.Table:
        words, parent = tok_arrays(batch)
        w1_all, w2_all = [], []
        for d in range(1, PMI_WINDOW + 1):
            if len(words) <= d:
                continue
            ok = parent[:-d] == parent[d:]
            w1_all.append(words[:-d][ok])
            w2_all.append(words[d:][ok])
        if not w1_all:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["w1", "w2", "c_ab"],
            )
        w1 = np.concatenate(w1_all)
        w2 = np.concatenate(w2_all)
        vocab, codes1 = np.unique(w1, return_inverse=True)
        vocab2, codes2 = np.unique(w2, return_inverse=True)
        combined = codes1.astype(np.int64) * len(vocab2) + codes2
        uniq, cnt = np.unique(combined, return_counts=True)
        return pa.Table.from_arrays(
            [
                pa.array(vocab[uniq // len(vocab2)]),
                pa.array(vocab2[uniq % len(vocab2)]),
                pa.array(cnt.astype(np.int64)),
            ],
            names=["w1", "w2", "c_ab"],
        )

    def uni_partials(batch: pa.Table) -> pa.Table:
        words, parent = tok_arrays(batch)
        # n_prs: this batch's pair-universe size (for the PMI denominator)
        n_prs = sum(
            int((parent[:-d] == parent[d:]).sum())
            for d in range(1, PMI_WINDOW + 1)
            if len(words) > d
        )
        vocab, cnt = np.unique(words, return_counts=True)
        t = pa.Table.from_arrays(
            [pa.array(vocab), pa.array(cnt.astype(np.int64))], names=["w", "c"]
        )
        # totals ride the same exchange as two sentinel rows ('#' cannot
        # appear in a \w+ token, so they can never collide with a word)
        meta = pa.Table.from_arrays(
            [pa.array(["#tok", "#pairs"]), pa.array([int(len(words)), n_prs], pa.int64())],
            names=["w", "c"],
        )
        return pa.concat_tables([t, meta])

    # Dataset-level renames throughout: per-batch renames are skipped on
    # EMPTY groupby partitions, leaving stale "sum(x)" schemas that poison
    # downstream joins (acero FieldRef lookup) when a hash partition is empty
    pairs = (
        docs.map_batches(pair_partials, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .sum("c_ab")
        .rename_columns({"sum(c_ab)": "c_ab"})
        .filter(expr=f"c_ab >= {PMI_MIN_PAIRS}")
    )
    uni = (
        docs.map_batches(uni_partials, batch_format="pyarrow")
        .groupby("w")
        .sum("c")
        .rename_columns({"sum(c)": "c"})
        # vocabulary-sized aggregate with THREE consumers (totals pull, w1
        # join side, w2 join side): pin it once instead of re-running the
        # tokenize+groupby lineage per consumer; spillable if vocab is huge
        .materialize()
    )
    # the totals sentinels: tiny bounded pull (2 rows)
    tot = {r["w"]: int(r["c"]) for r in uni.filter(expr="w == '#tok' or w == '#pairs'").take_all()}
    n_tok, n_pairs = tot["#tok"], tot["#pairs"]

    # Broadcast the unigram table ONCE (ray.put) and resolve (c_a, c_b) with
    # a vectorized binary search inside map_batches — the standard
    # broadcast-small-side join: the pair stream (the big side) never
    # re-shuffles, and the vocabulary ships to each worker once per node,
    # not per batch. The pull is bounded by the COUNT-FLOORED vocabulary:
    # each occurrence of a word contributes at most PMI_WINDOW instances of
    # any one pair (as w1: offsets d=1..WINDOW can all hit the same w2;
    # symmetrically as w2), so c_ab <= PMI_WINDOW * min(c_a, c_b) and any
    # word in a surviving pair has unigram count >= ceil(PMI_MIN_PAIRS /
    # PMI_WINDOW). Flooring at THAT bound (not at PMI_MIN_PAIRS itself —
    # 'zq y y' repeated 3x gives c_ab=6 with c_zq=3) drops the Zipf tail
    # without losing any referenced word — result-identical, and the
    # driver-side array shrinks by the tail fraction. At >RAM floored
    # vocabularies swap this for the native hash-shuffle Dataset.join.
    import ray

    _UNI_FLOOR = -(-PMI_MIN_PAIRS // PMI_WINDOW)  # ceil
    uni_rows = uni.filter(
        expr=f"w != '#tok' and w != '#pairs' and c >= {_UNI_FLOOR}"
    ).take_all()
    words_arr = np.array([r["w"] for r in uni_rows], dtype=object)
    counts_arr = np.array([r["c"] for r in uni_rows], dtype=np.int64)
    order = np.argsort(words_arr, kind="stable")
    uni_ref = ray.put((words_arr[order], counts_arr[order]))

    def pmi_kernel(batch: pa.Table) -> pa.Table:
        vocab, counts = ray.get(uni_ref)
        w1 = batch.column("w1").to_numpy(zero_copy_only=False)
        w2 = batch.column("w2").to_numpy(zero_copy_only=False)
        c_ab = batch.column("c_ab").to_numpy(zero_copy_only=False).astype(np.float64)
        c_a = counts[np.searchsorted(vocab, w1)].astype(np.float64)
        c_b = counts[np.searchsorted(vocab, w2)].astype(np.float64)
        # same expression shape as the SQL twin: one division, one log
        pmi = np.round(
            np.log((c_ab * float(n_tok) * float(n_tok)) / (float(n_pairs) * c_a * c_b)), 6
        )
        return pa.Table.from_arrays(
            [
                batch.column("w1"),
                batch.column("w2"),
                pc.cast(batch.column("c_ab"), pa.int64()),
                pa.array(pmi),
            ],
            names=["w1", "w2", "c_ab", "pmi"],
        )

    scored = pairs.map_batches(pmi_kernel, batch_format="pyarrow")
    return scored.sort(["pmi", "w1", "w2"], descending=[True, False, False]).limit(PMI_TOP_K)


def word_cooccurrence_pmi_oracle_sql() -> str:
    return f"""
        WITH tok AS (
          SELECT doc_id, t.val AS w, t.i AS pos
          FROM (SELECT doc_id, regexp_extract_all(lower(text), '\\w+') AS l FROM documents),
               LATERAL (SELECT unnest(l) AS val, generate_subscripts(l, 1) AS i) t
        ),
        stats AS (
          SELECT CAST(count(*) AS DOUBLE) AS n_tok,
                 CAST((SELECT count(*) FROM tok a JOIN tok b
                       ON a.doc_id = b.doc_id
                      AND b.pos - a.pos BETWEEN 1 AND {PMI_WINDOW}) AS DOUBLE) AS n_pairs
          FROM tok
        ),
        pairs AS (
          SELECT a.w AS w1, b.w AS w2, CAST(count(*) AS BIGINT) AS c_ab
          FROM tok a JOIN tok b
            ON a.doc_id = b.doc_id AND b.pos - a.pos BETWEEN 1 AND {PMI_WINDOW}
          GROUP BY 1, 2 HAVING count(*) >= {PMI_MIN_PAIRS}
        ),
        uni AS (SELECT w, CAST(count(*) AS DOUBLE) AS c FROM tok GROUP BY w)
        SELECT p.w1, p.w2, p.c_ab,
               round(ln((CAST(p.c_ab AS DOUBLE) * s.n_tok * s.n_tok)
                        / (s.n_pairs * a.c * b.c)), 6) AS pmi
        FROM pairs p, stats s
        JOIN uni a ON a.w = p.w1
        JOIN uni b ON b.w = p.w2
        ORDER BY pmi DESC, p.w1, p.w2
        LIMIT {PMI_TOP_K}
    """
