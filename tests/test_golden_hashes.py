"""Frozen-golden value hashes for the queries the driver can only rows-check.

The rows-only ``queries()`` entries have no DuckDB oracle (uint64-wraparound
MinHash/SimHash/LSH arithmetic, k-means cluster lists and other kernels
SQL cannot express).
Planted-truth tests pin their SEMANTICS; these fixtures pin their exact
OUTPUT: the driver-style order-insensitive value hash (sorted columns,
stringified rows, sorted, sha256 — same algorithm as
``scripts/check_oracle.py::value_hash``) frozen at round 3 over
``/root/testdata/sf0.001``. A refactor that silently shifts any signature,
cluster label, or feature value fails here even though row counts match.

Regenerate deliberately (after an INTENTIONAL semantic change) with the
one-liner in each assert message.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pytest

# (value_hash, n_rows) per query, frozen 2026-08-17 (round 3) after the
# reduceat-sentinel + Unicode-whitespace tokenization fixes landed.
GOLDEN = {
    "approx_distinct_tokens": ("32c2643e0dc65524", 1),
    "minhash_dedup_pairs": ("88963e140533b426", 28),
    "dedup_clusters": ("4d1a993dea4322b1", 45),
    "simhash_pairs": ("0f3312c877a7f213", 22),
    "ngram_jaccard_pairs": ("3739bfccd8343ddc", 28),
    "embedding_dedup_pairs": ("758e6cf73c58e6b5", 133),
    # added round 3 with the operator itself (IVF k-means lists — not
    # SQL-expressible, recall-pinned in tests/test_ann_partitioned.py)
    "ann_ivf_topk": ("07858b019bf95186", 30),
    "near_dedup_kept": ("267d080ab8a83b7f", 476),
    # quality-aware retention (longest member survives — planted-truth
    # semantics in tests/test_dedup_best.py)
    "near_dedup_kept_best": ("792404a24b71f50a", 476),
    # SemDeDup over the synthetic near-orthogonal embeddings (demo
    # threshold 0.2 ≈ 1.6σ of random-pair cosine, so it flags a large
    # fraction by design — real corpora use 0.95+)
    "semdedup_pairs": ("6ae1146ff753e361", 351),
    "semdedup_kept": ("af2448c0ec834dee", 149),
    "corpus_prep_manifest": ("ca99ea8c033a6870", 1),
    "duplicate_passages": ("8acbf857a27fbb14", 23),
    # MinHash ∪ SimHash pair streams -> one connected-components pass
    "multi_signal_dedup_clusters": ("c2c5bb613e028107", 51),
    # grouped HLL (blake2b — deterministic); accuracy vs the exact DuckDB
    # count is pinned in tests/test_sketch_grouped.py
    "per_host_distinct_urls": ("b6131234bced25d5", 50),
    # round-3 continuation: zlib ratio (fixed zlib level inside the
    # container; cross-zlib-version drift would surface here by design)
    "compression_ratio_stats": ("3ae8a8ed2c9e5406", 500),
    # MinHash broadcast join vs the doc_id%50 benchmark slice (hash
    # verified identical at 4/8 CPUs — signatures are batch-independent)
    "benchmark_fuzzy_contamination": ("78bf79f359b57413", 3),
}


def _value_hash(df: pd.DataFrame) -> str:
    """Identical to scripts/check_oracle.py::value_hash (the driver's
    order-insensitive compare)."""
    df = df.reindex(sorted(df.columns), axis=1)
    rows = df.astype(str).apply(lambda r: "|".join(r.values), axis=1).sort_values()
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    return obj.to_pandas()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_rows_only_query_output_is_frozen(ray_session, sf_dir, name):
    import __ray_entry__ as e

    df = _to_pandas(e.queries()[name](sf_dir))
    want_hash, want_rows = GOLDEN[name]
    assert len(df) == want_rows, f"{name}: row count drifted from frozen golden"
    got = _value_hash(df)
    assert got == want_hash, (
        f"{name}: value hash {got} != frozen {want_hash}. If the semantic "
        "change was intentional, regenerate from the repo root: "
        "python -c \"import sys; "
        "sys.path[:0]=['.','scripts']; import ray; "
        "ray.init(address='local', num_cpus=8); from check_oracle import "
        "to_pandas, value_hash; import __ray_entry__ as e; "
        f"df=to_pandas(e.queries()['{name}']('/root/testdata/sf0.001')); "
        "print(value_hash(df), len(df))\""
    )


# Driver-scale (sf0.01) goldens for the heavy dedup family — the driver's
# own compare is rows-only for these, so this locks their exact output at
# the scale the driver actually runs. (approx_distinct_tokens matches its
# sf0.001 hash because both synthetic corpora share the same fixed 31-token
# vocabulary — confirmed against the exact oracle-checked count.)
GOLDEN_SF001 = {
    "minhash_dedup_pairs": ("5d3ce290b8e96b40", 25),
    "simhash_pairs": ("c4ef7b1248c0eb0a", 18),
    "ngram_jaccard_pairs": ("c77f941674d6cdaa", 25),
    "dedup_clusters": ("5af6769753c7da3c", 47),
    "near_dedup_kept": ("b236b037a6a3eea4", 476),
    "near_dedup_kept_best": ("622ac779040d13e4", 476),
    "embedding_dedup_pairs": ("afcea61523e10b3f", 162),
    "duplicate_passages": ("569156a78152d2af", 23),
    "approx_distinct_tokens": ("32c2643e0dc65524", 1),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SF001))
def test_rows_only_query_output_frozen_at_driver_scale(ray_session, name):
    import __ray_entry__ as e

    df = _to_pandas(e.queries()[name]("/root/testdata/sf0.01"))
    want_hash, want_rows = GOLDEN_SF001[name]
    assert len(df) == want_rows, f"{name}@sf0.01: row count drifted"
    assert _value_hash(df) == want_hash, f"{name}@sf0.01: value hash drifted"
