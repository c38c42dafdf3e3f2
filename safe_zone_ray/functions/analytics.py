"""Relational-analytics operators the round-3 surface still lacked: a
one-exchange ROLLUP (grouping sets), a PIVOT matrix, global NTILE order
statistics without a full sort, and a windowed word co-occurrence / PMI table
(the word2vec-style matrix build).

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

from safe_zone_ray.functions.textstats import histogram_quantiles, read_documents

# --------------------------------------------------------------------------
# 1. ROLLUP (grouping sets) in ONE exchange
# --------------------------------------------------------------------------

ROLLUP_ALL = "ALL"  # grouping-set sentinel, shared with the SQL oracle


def source_lang_rollup(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY ROLLUP(source, lang): doc counts and char sums at the
    (source, lang), (source, ALL) and (ALL, ALL) levels.

    Combiner-first grouping sets: each batch pre-aggregates ALL THREE
    levels locally (an Arrow hash groupby plus two re-aggregations of the
    already-tiny finest partial), so one global groupby over at most
    3 × |sources| × |langs| rows per batch finishes the job — the rollup
    costs one exchange, identical to a plain GROUP BY, instead of three
    passes or a driver-side re-aggregation.
    """
    return _grouping_sets(sf_dir, with_lang_marginal=False)


def _grouping_levels(batch: pa.Table, with_lang_marginal: bool) -> pa.Table:
    """Shared combiner for ROLLUP and CUBE: the finest (source, lang)
    partial plus the requested marginal levels, all computed locally.
    String columns are built with explicit types so a ZERO-ROW batch
    (empty fragment) concatenates cleanly instead of inferring null type."""
    fine = batch.group_by(["source", "lang"]).aggregate(
        [("n_chars", "sum"), ("n_chars", "count")]
    )
    n_docs = pc.cast(fine.column("n_chars_count"), pa.int64())
    fine = pa.Table.from_arrays(
        [
            pc.cast(fine.column("source"), pa.string()),
            pc.cast(fine.column("lang"), pa.string()),
            n_docs,
            pc.cast(fine.column("n_chars_sum"), pa.int64()),
        ],
        names=["source", "lang", "n_docs", "sum_chars"],
    )

    def marginal(key: str) -> pa.Table:
        m = fine.group_by([key]).aggregate([("n_docs", "sum"), ("sum_chars", "sum")])
        alls = pa.array([ROLLUP_ALL] * len(m), pa.string())
        keyed = pc.cast(m.column(key), pa.string())
        cols = [keyed, alls] if key == "source" else [alls, keyed]
        return pa.Table.from_arrays(
            [cols[0], cols[1], m.column("n_docs_sum"), m.column("sum_chars_sum")],
            names=["source", "lang", "n_docs", "sum_chars"],
        )

    top = pa.Table.from_arrays(
        [
            pa.array([ROLLUP_ALL], pa.string()),
            pa.array([ROLLUP_ALL], pa.string()),
            pa.array([int(pc.sum(fine.column("n_docs")).as_py() or 0)], pa.int64()),
            pa.array([int(pc.sum(fine.column("sum_chars")).as_py() or 0)], pa.int64()),
        ],
        names=["source", "lang", "n_docs", "sum_chars"],
    )
    parts = [fine, marginal("source")]
    if with_lang_marginal:
        parts.append(marginal("lang"))
    parts.append(top)
    return pa.concat_tables(parts)


def _grouping_sets(sf_dir: str, with_lang_marginal: bool) -> ray.data.Dataset:
    ds = read_documents(sf_dir, columns=["source", "lang", "n_chars"])
    summed = (
        ds.map_batches(
            lambda t: _grouping_levels(t, with_lang_marginal),
            batch_format="pyarrow",
        )
        .groupby(["source", "lang"])
        .sum(["n_docs", "sum_chars"])
    )
    return summed.rename_columns({"sum(n_docs)": "n_docs", "sum(sum_chars)": "sum_chars"})


def source_lang_rollup_oracle_sql() -> str:
    return f"""
        SELECT CASE WHEN GROUPING(source) = 1 THEN '{ROLLUP_ALL}' ELSE source END AS source,
               CASE WHEN GROUPING(lang)   = 1 THEN '{ROLLUP_ALL}' ELSE lang   END AS lang,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS sum_chars
        FROM documents
        GROUP BY ROLLUP(source, lang)
    """


def source_lang_cube(sf_dir: str) -> ray.data.Dataset:
    """GROUP BY CUBE(source, lang): the full grouping-set lattice —
    (source, lang), (source, ALL), (ALL, lang) and (ALL, ALL) — in the
    same ONE-exchange combiner-first shape as ``source_lang_rollup``
    (each batch pre-aggregates all four levels from its finest partial;
    the extra (ALL, lang) level the rollup lacks is one more tiny local
    re-aggregation, not another pass — `_grouping_levels` is shared with
    the rollup so the combiner logic cannot drift)."""
    return _grouping_sets(sf_dir, with_lang_marginal=True)


def source_lang_cube_oracle_sql() -> str:
    return f"""
        SELECT CASE WHEN GROUPING(source) = 1 THEN '{ROLLUP_ALL}' ELSE source END AS source,
               CASE WHEN GROUPING(lang)   = 1 THEN '{ROLLUP_ALL}' ELSE lang   END AS lang,
               CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(n_chars) AS BIGINT) AS sum_chars
        FROM documents
        GROUP BY CUBE(source, lang)
    """


# --------------------------------------------------------------------------
# 2. PIVOT: per-source row, one count column per language
# --------------------------------------------------------------------------

PIVOT_LANGS = ("de", "en", "es", "fr", "zh")  # contract, shared with the oracle


def lang_count_matrix(sf_dir: str) -> pa.Table:
    """PIVOT (crosstab): one row per source, one ``n_<lang>`` column per
    contract language, cell = document count.

    The wide work is a plain distributed groupby((source, lang)).count();
    the pivot itself reshapes the BOUNDED post-aggregate result
    (|sources| × |langs| rows) — standard two-phase pivot, the only driver
    step is over the tiny aggregate. A language outside the contract raises
    rather than silently dropping counts.
    """
    ds = read_documents(sf_dir, columns=["source", "lang"])
    agg = ds.groupby(["source", "lang"]).count().take_all()  # bounded post-aggregate
    sources = sorted({r["source"] for r in agg})
    idx = {s: i for i, s in enumerate(sources)}
    cols = {lang: np.zeros(len(sources), dtype=np.int64) for lang in PIVOT_LANGS}
    for r in agg:
        if r["lang"] not in cols:
            raise ValueError(f"lang {r['lang']!r} outside PIVOT_LANGS contract")
        cols[r["lang"]][idx[r["source"]]] = r["count()"]
    return pa.Table.from_arrays(
        [pa.array(sources)] + [pa.array(cols[lang]) for lang in PIVOT_LANGS],
        names=["source"] + [f"n_{lang}" for lang in PIVOT_LANGS],
    )


def lang_count_matrix_oracle_sql() -> str:
    cells = ",\n               ".join(
        f"CAST(sum(CASE WHEN lang = '{lang}' THEN 1 ELSE 0 END) AS BIGINT) AS n_{lang}"
        for lang in PIVOT_LANGS
    )
    return f"""
        SELECT source,
               {cells}
        FROM documents
        GROUP BY source
    """


# --------------------------------------------------------------------------
# 3. Global NTILE / row_number without a full sort
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
# 4. Windowed word co-occurrence + PMI (the word2vec-style matrix build)
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

# --------------------------------------------------------------------------
# 5. Grouped exact quantiles via the distinct-value counting histogram
# --------------------------------------------------------------------------

GROUPED_QS = (0.5, 0.9, 0.99)


def doc_length_quantiles_by_lang(
    sf_dir: str, qs: tuple[float, ...] = GROUPED_QS
) -> pa.Table:
    """Per-GROUP exact quantiles — the grouped variant of
    ``textstats.doc_length_quantiles``: value at 1-based rank ceil(q·n_g)
    of each language's sorted n_chars column.

    Same scale shape as the global version: per-batch (lang, n_chars,
    count) partials bound the exchange to the DISTINCT (group, value)
    universe regardless of row count; the merged histogram is cumulated
    per group driver-side (tiny for integer-valued columns). No sort of
    the data, no per-group map_groups over raw rows.
    """
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        agg = batch.group_by(["lang", "n_chars"]).aggregate([("n_chars", "count")])
        return pa.Table.from_arrays(
            [
                agg.column("lang"),
                agg.column("n_chars"),
                pc.cast(agg.column("n_chars_count"), pa.int64()),
            ],
            names=["lang", "n_chars", "cnt"],
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "n_chars"])
        .sum("cnt")
        .sort(["lang", "n_chars"])
        .to_pandas()
    )  # one row per distinct (lang, length) — tiny at any scale
    out_lang, out_q, out_v = [], [], []
    for lang, grp in hist.groupby("lang", sort=True):
        out_lang += [lang] * len(qs)
        out_q += list(qs)
        out_v += histogram_quantiles(grp["n_chars"].to_numpy(), grp["sum(cnt)"].to_numpy(), qs)
    return pa.Table.from_arrays(
        [
            pa.array(out_lang),
            pa.array(out_q, pa.float64()),
            pa.array(out_v, pa.int64()),
        ],
        names=["lang", "q", "n_chars"],
    )


def doc_length_quantiles_by_lang_oracle_sql(qs: tuple[float, ...] = GROUPED_QS) -> str:
    values = ", ".join(f"({q})" for q in qs)
    return f"""
        WITH s AS (
          SELECT lang, n_chars,
                 row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
                 count(*) OVER (PARTITION BY lang) AS n
          FROM documents)
        SELECT s.lang, CAST(qs.q AS DOUBLE) AS q, s.n_chars
        FROM (VALUES {values}) qs(q)
        JOIN s ON s.rn = GREATEST(1, CAST(ceil(CAST(qs.q AS DOUBLE) * s.n) AS BIGINT))
    """

# --------------------------------------------------------------------------
# 6. Mergeable sufficient statistics: grouped Pearson correlation
# --------------------------------------------------------------------------


def doc_len_token_correlation(sf_dir: str) -> ray.data.Dataset:
    """Per-language Pearson correlation between document length (n_chars)
    and whitespace token count — the mergeable SUFFICIENT-STATISTICS
    aggregate class (count, Σx, Σy, Σx², Σy², Σxy): each batch emits one
    partial row per group, one tiny groupby merges them, and the closed
    form runs on the merged integers.

    Both inputs are integers, so every sum is EXACT and the Ray and DuckDB
    results are bit-identical before the final float division — the oracle
    spells out the same closed form instead of calling corr() (whose
    streaming implementation differs in the last ulp). Guarded against
    zero variance (r := 0 by convention here, matching the SQL twin).
    At 10^12 docs the int64 Σx² terms approach overflow for ~10^3-char
    docs; the extreme-scale path is the same shape over decimal128.
    """
    ds = read_documents(sf_dir, columns=["lang", "text", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        lang = batch.column("lang").to_numpy(zero_copy_only=False)
        x = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        y = (
            pc.cast(
                pc.count_substring_regex(pc.fill_null(batch.column("text"), ""), r"\S+"),
                pa.int64(),
            )
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        langs_u, codes = np.unique(lang, return_inverse=True)
        k = len(langs_u)
        return pa.Table.from_arrays(
            [
                pa.array(langs_u),
                pa.array(np.bincount(codes, minlength=k).astype(np.int64)),
                pa.array(np.bincount(codes, weights=x, minlength=k).astype(np.int64)),
                pa.array(np.bincount(codes, weights=y, minlength=k).astype(np.int64)),
                pa.array(np.bincount(codes, weights=x * x, minlength=k).astype(np.int64)),
                pa.array(np.bincount(codes, weights=y * y, minlength=k).astype(np.int64)),
                pa.array(np.bincount(codes, weights=x * y, minlength=k).astype(np.int64)),
            ],
            names=["lang", "n", "sx", "sy", "sxx", "syy", "sxy"],
        )

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .sum(["n", "sx", "sy", "sxx", "syy", "sxy"])
        .rename_columns(
            {
                "sum(n)": "n",
                "sum(sx)": "sx",
                "sum(sy)": "sy",
                "sum(sxx)": "sxx",
                "sum(syy)": "syy",
                "sum(sxy)": "sxy",
            }
        )
    )

    def finalize(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        sx = batch.column("sx").to_numpy(zero_copy_only=False).astype(np.float64)
        sy = batch.column("sy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxx = batch.column("sxx").to_numpy(zero_copy_only=False).astype(np.float64)
        syy = batch.column("syy").to_numpy(zero_copy_only=False).astype(np.float64)
        sxy = batch.column("sxy").to_numpy(zero_copy_only=False).astype(np.float64)
        num = n * sxy - sx * sy
        den = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(den > 0, num / den, 0.0)
        return pa.Table.from_arrays(
            [
                batch.column("lang"),
                pc.cast(batch.column("n"), pa.int64()),
                pa.array(np.round(r, 6)),
            ],
            names=["lang", "n_docs", "pearson_r"],
        )

    return merged.map_batches(finalize, batch_format="pyarrow")


def doc_len_token_correlation_oracle_sql() -> str:
    # the SAME closed form over exact integer sums — not corr(), whose
    # streaming accumulation differs from the merged-sums formula in the
    # last ulp and would break 6-dp rounding parity at scale
    return """
        WITH s AS (
          SELECT lang,
                 CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(n_chars) AS BIGINT) AS sx,
                 CAST(sum(length(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS sy,
                 CAST(sum(n_chars * n_chars) AS BIGINT) AS sxx,
                 CAST(sum(length(regexp_extract_all(text, '\\S+'))
                          * length(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS syy,
                 CAST(sum(n_chars * length(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS sxy
          FROM documents GROUP BY lang
        )
        SELECT lang, n AS n_docs,
               CASE WHEN (CAST(n AS DOUBLE) * sxx - CAST(sx AS DOUBLE) * sx)
                         * (CAST(n AS DOUBLE) * syy - CAST(sy AS DOUBLE) * sy) > 0
                    THEN round((CAST(n AS DOUBLE) * sxy - CAST(sx AS DOUBLE) * sy)
                               / sqrt((CAST(n AS DOUBLE) * sxx - CAST(sx AS DOUBLE) * sx)
                                      * (CAST(n AS DOUBLE) * syy - CAST(sy AS DOUBLE) * sy)), 6)
                    ELSE 0.0 END AS pearson_r
        FROM s
    """

# --------------------------------------------------------------------------
# 7. Per-language percentile rank (distributed window function, no sort)
# --------------------------------------------------------------------------


def doc_length_percentile(sf_dir: str) -> ray.data.Dataset:
    """percent_rank() OVER (PARTITION BY lang ORDER BY n_chars) for every
    document, emitted in integer micro-units so the comparison with the SQL
    twin is exact.

    Shape: the classic two-pass distributed window function. Pass 1 builds
    the per-(lang, n_chars) HISTOGRAM — a combiner inside ``map_batches``
    pre-collapses each batch, so the only corpus-sized exchange carries one
    row per distinct (lang, length) pair, not per document. Pass 2 turns
    each language's histogram into a CDF with one ``map_groups`` per lang
    (a language's distinct-length histogram is bounded by the max document
    length, fits trivially), and the resulting (lang, len) -> rank mapping
    — histogram-sized, NOT corpus-sized — is broadcast once with
    ``ray.put`` and applied to every document in a final vectorized pass.
    No global sort, no per-doc shuffle: the corpus is read exactly twice
    and only pruned columns move.

    percent_rank parity: SQL defines it as (rank - 1) / (n - 1) with rank =
    1 + count of strictly-smaller peers, and 0 for single-row partitions.
    Both engines perform the SAME int/int double division before the
    micro-unit floor, so the doubles (hence the floors) agree bit-for-bit.
    """
    import ray

    cols = ["doc_id", "lang", "n_chars"]
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=cols)

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.Table.from_arrays(
            [
                batch.column("lang"),
                pc.cast(batch.column("n_chars"), pa.int64()),
                pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            ],
            names=["lang", "len", "one"],
        )
        return (
            t.group_by(["lang", "len"])
            .aggregate([("one", "sum")])
            .rename_columns(["lang", "len", "cnt"])
        )

    hist = ds.map_batches(partial, batch_format="pyarrow").groupby(["lang", "len"]).sum("cnt")

    def cdf(group: pa.Table) -> pa.Table:
        lens = group.column("len").to_numpy(zero_copy_only=False).astype(np.int64)
        cnts = group.column("cnt_sum" if "cnt_sum" in group.column_names else "sum(cnt)")
        cnts = cnts.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(lens)
        lens, cnts = lens[order], cnts[order]
        rank_lt = np.concatenate(([0], np.cumsum(cnts)[:-1]))
        n = int(cnts.sum())
        if n > 1:
            pct = np.floor(rank_lt / np.float64(n - 1) * 1e6 + 0.5).astype(np.int64)
        else:
            pct = np.zeros(len(lens), dtype=np.int64)
        lang = group.column("lang")[0].as_py()
        return pa.Table.from_arrays(
            [pa.array([lang] * len(lens), pa.string()), pa.array(lens), pa.array(pct)],
            names=["lang", "len", "pct_micro"],
        )

    mapping = {}
    for row in hist.groupby("lang").map_groups(cdf, batch_format="pyarrow").take_all():
        mapping[(row["lang"], int(row["len"]))] = int(row["pct_micro"])
    map_ref = ray.put(mapping)

    def apply(batch: pa.Table) -> pa.Table:
        m = ray.get(map_ref)
        langs = batch.column("lang").to_pylist()
        lens = pc.cast(batch.column("n_chars"), pa.int64()).to_pylist()
        pct = pa.array([m[(la, ln)] for la, ln in zip(langs, lens)], pa.int64())
        return pa.Table.from_arrays(
            [batch.column("doc_id"), batch.column("lang"),
             pc.cast(batch.column("n_chars"), pa.int64()), pct],
            names=["doc_id", "lang", "n_chars", "pct_micro"],
        )

    return ds.map_batches(apply, batch_format="pyarrow")


def doc_length_percentile_oracle_sql() -> str:
    return """
        SELECT doc_id, lang, CAST(n_chars AS BIGINT) AS n_chars,
               CAST(floor(percent_rank() OVER (PARTITION BY lang ORDER BY n_chars)
                          * 1000000 + 0.5) AS BIGINT) AS pct_micro
        FROM documents
    """
