"""Fragment-layout invariance: a 100-TB input is thousands of parquet files,
so every operator must produce IDENTICAL results whether the documents table
is one file or a many-fragment directory (in any fragment order)."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def split_docs_dir(ray_session, sf_dir, tmp_path_factory):
    """sf0.001 documents re-materialized as a 5-file directory with small row
    groups, deliberately NOT in doc_id order across files."""
    d = tmp_path_factory.mktemp("split")
    (d / "documents.parquet").mkdir()
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    n = t.num_rows
    fifth = n // 5
    # shuffle fragment order: file names force a read order != doc_id order
    slices = [t.slice(i * fifth, n - 4 * fifth if i == 4 else fifth) for i in range(5)]
    for name_idx, part in zip([2, 0, 4, 1, 3], slices):
        pq.write_table(
            part,
            d / "documents.parquet" / f"part-{name_idx}.parquet",
            row_group_size=max(1, fifth // 3),
        )
    return str(d)


def _df(obj) -> pd.DataFrame:
    return obj if isinstance(obj, pd.DataFrame) else obj.to_pandas()


@pytest.mark.parametrize(
    "qname",
    [
        "exact_dedup",
        "sequence_packing",
        "global_shuffle_order",
        "lang_stratified_sample",
        "top_bigrams",
        "doc_length_quantiles",
        "doc_fingerprints",
        "minhash_dedup_pairs",
        # round-3 continuation ops whose intermediate sketches ARE
        # batch-dependent (Bloom partials, MG summaries, LM gram batches):
        # the confirm/merge passes must erase that dependence exactly
        "incremental_dedup",
        "frequent_tokens",
        "ccnet_lm_scores",
        "boilerplate_lines_scrub",
        # round-5 continuation ops
        "prefix_dedup",
        "dup_cluster_size_histogram",
        "outlink_host_edges",
        "outlink_degree_stats",
        "host_cocitation_pairs",
    ],
)
def test_query_invariant_to_fragment_layout(ray_session, sf_dir, split_docs_dir, qname):
    import __ray_entry__ as e

    q = e.queries()[qname]
    a = _df(q(sf_dir))
    b = _df(q(split_docs_dir))
    # sort by hashable scalar columns only (list-typed columns can't key a sort)
    key = [c for c in a.columns if not isinstance(a[c].iloc[0], (list, tuple)) and a[c].dtype != object or isinstance(a[c].iloc[0], str)]
    key = key or [a.columns[0]]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    for c in a.columns:
        av, bv = a[c], b[c]
        if len(av) and isinstance(av.iloc[0], (list, tuple)) or str(av.dtype) == "object" and len(av) and not isinstance(av.iloc[0], str):
            assert [list(x) for x in av] == [list(x) for x in bv], c
        else:
            pd.testing.assert_series_equal(av, bv, check_names=False)
