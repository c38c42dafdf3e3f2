"""BM25 retrieval + DSIR importance weighting: oracle parity, planted
ranking truth, and batch-composition invariance."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from safe_zone_ray.functions.search import (
    BM25_TERMS,
    bm25_oracle_sql,
    bm25_topk,
    dsir_oracle_sql,
    dsir_weights,
    _tokenize_buckets,
)


@pytest.fixture(scope="module")
def con(sf_dir):
    c = duckdb.connect()
    c.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    return c


def test_bm25_matches_oracle(ray_session, sf_dir, con):
    got = bm25_topk(sf_dir).to_pandas().reset_index(drop=True)
    want = con.sql(bm25_oracle_sql()).df().reset_index(drop=True)
    assert got.equals(want)


def test_bm25_planted_ranking(ray_session, tmp_path):
    # doc 2 mentions the rare term thrice — must outrank the common-term docs
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "scan scan scan vector",
                    "slow vector scan",
                    "dup dup dup",
                    "nothing relevant here at all",
                ]
            ),
        }
    )
    import pyarrow.parquet as pq

    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = bm25_topk(str(tmp_path), k=4).to_pandas()
    ranks = {d: i for i, d in enumerate(out.doc_id)}
    # three rare-'dup' hits outrank three common-'scan' hits (idf spread)
    assert ranks[2] < ranks[0]
    assert list(out.doc_id)[-1] == 3 and out.score.iloc[-1] == 0.0


def test_bm25_term_sanity():
    # the fixed demo terms must be \w+-only (the \b counting identity
    # bm25 relies on only holds for pure word-char terms)
    for t in BM25_TERMS:
        assert t.isalnum()


def test_dsir_matches_oracle(ray_session, sf_dir, con):
    got = (
        dsir_weights(sf_dir)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = con.sql(dsir_oracle_sql()).df().sort_values("doc_id").reset_index(drop=True)
    assert got.equals(want)
    # weights must discriminate: not all equal
    assert got.weight_micro.nunique() > 1


def test_dsir_favors_target_language(ray_session, tmp_path):
    # target-slice-typical tokens get positive log-ratios: an English-token
    # doc must outweigh a doc of tokens that only appear outside the target
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "hello world hello world",
                    "hello world again",
                    "bonjour monde bonjour",
                    "hello bonjour",
                ]
            ),
            "lang": pa.array(["en", "en", "fr", "fr"]),
        }
    )
    import pyarrow.parquet as pq

    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = dsir_weights(str(tmp_path)).to_pandas().set_index("doc_id").weight_micro
    assert out[0] > out[2]  # en-typical tokens outweigh fr-only tokens
    assert out[1] > out[3]


def test_tokenize_buckets_empty_and_trailing_empty_docs(ray_session):
    # the reduceat-with-empty-segments trap from ADVICE round 3: a trailing
    # empty doc must not steal tokens from its neighbour
    text = pa.chunked_array([pa.array(["alpha beta", "", "gamma", "  ", ""])])
    buckets, offsets = _tokenize_buckets(text, 64)
    counts = np.diff(offsets)
    assert list(counts) == [2, 0, 1, 0, 0]
    solo_b, solo_off = _tokenize_buckets(pa.chunked_array([pa.array(["alpha beta"])]), 64)
    assert list(buckets[:2]) == list(solo_b)


def test_dsir_weight_batch_invariance(ray_session, tmp_path):
    # same corpus split across different fragment layouts → identical weights
    import pyarrow.parquet as pq

    rows = [
        (0, "hello world", "en"),
        (1, "", "en"),
        (2, "bonjour monde", "fr"),
        (3, "hello bonjour world", "fr"),
        (4, "   ", "en"),
    ]
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array([r[2] for r in rows]),
        }
    )
    d1 = tmp_path / "one"
    d1.mkdir()
    pq.write_table(t, str(d1 / "documents.parquet"))
    w1 = dsir_weights(str(d1)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d1}/documents.parquet')"
    )
    want = con.sql(dsir_oracle_sql()).df().sort_values("doc_id").reset_index(drop=True)
    assert w1.equals(want)
    assert w1.weight_micro[1] == 0 and w1.weight_micro[4] == 0


def test_null_text_and_lang_rows(ray_session, tmp_path):
    """NULL text reads as an empty doc and NULL lang as non-target in both
    bm25 and dsir — repo-wide guard parity with sequence_packing/embed."""
    import pyarrow.parquet as pq

    t = pa.Table.from_arrays(
        [
            pa.array([0, 1, 2], pa.int64()),
            pa.array(["dup vector scan slow", None, "dup dup"], pa.string()),
            pa.array(["en", None, "fr"], pa.string()),
        ],
        names=["doc_id", "text", "lang"],
    )
    d = tmp_path / "nulls"
    d.mkdir()
    pq.write_table(t, d / "documents.parquet")

    top = bm25_topk(str(d), k=3).to_pydict()
    assert top["doc_id"][0] == 0  # all four terms hit doc 0
    assert 1 in top["doc_id"]  # null-text doc scores 0, still rankable

    w = sorted(dsir_weights(str(d)).take_all(), key=lambda r: r["doc_id"])
    assert [r["doc_id"] for r in w] == [0, 1, 2]
    assert w[1]["weight_micro"] == 0  # empty doc: empty token sum


def test_term_postings_matches_oracle(ray_session, sf_dir, con):
    from safe_zone_ray.functions.search import term_postings, term_postings_oracle_sql

    got = term_postings(sf_dir).to_pandas().reset_index(drop=True)
    want = (
        con.sql(term_postings_oracle_sql())
        .df()
        .sort_values(["term", "doc_id"])
        .reset_index(drop=True)
    )
    assert got.astype(str).equals(want.astype(str))


def test_term_postings_partition_pruning(ray_session, tmp_path):
    """Only the queried terms' bucket directories are opened; the rest of
    the index tree is never read."""
    import os

    import pyarrow.parquet as pq

    from safe_zone_ray.functions.search import (
        INDEX_NBUCKETS,
        _md5_buckets,
        build_inverted_index,
        term_postings,
    )

    docs = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(["alpha beta alpha", "beta gamma"]),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    idx = str(tmp_path / "index")
    build_inverted_index(str(tmp_path), idx)
    buckets_on_disk = {d for d in os.listdir(idx) if d.startswith("bucket=")}
    assert 1 <= len(buckets_on_disk) <= 3  # three distinct terms
    out = term_postings(str(tmp_path), terms=("alpha",), index_dir=idx)
    d = out.to_pydict()
    assert d["term"] == ["alpha"] and d["doc_id"] == [0] and d["tf"] == [2]
    # the probe set is exactly the term's bucket — others never globbed
    want_bucket = int(_md5_buckets(pa.array(["alpha"]), INDEX_NBUCKETS)[0])
    assert f"bucket={want_bucket}" in buckets_on_disk


def test_inverted_index_staleness_rebuild(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from safe_zone_ray.functions.search import build_inverted_index, term_postings

    pq.write_table(
        pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array(["dup dup"])}),
        str(tmp_path / "documents.parquet"),
    )
    idx = str(tmp_path / "index")
    build_inverted_index(str(tmp_path), idx)
    assert term_postings(str(tmp_path), terms=("dup",), index_dir=idx).to_pydict()["tf"] == [2]
    import os
    import time

    time.sleep(0.01)
    pq.write_table(
        pa.table({"doc_id": pa.array([0], pa.int64()), "text": pa.array(["dup"])}),
        str(tmp_path / "documents.parquet"),
    )
    os.utime(str(tmp_path / "documents.parquet"))
    # regenerated source -> fingerprint mismatch -> rebuild, not stale serve
    assert term_postings(str(tmp_path), terms=("dup",), index_dir=idx).to_pydict()["tf"] == [1]


def test_dsir_select_keeps_top_fraction(ray_session, sf_dir, con):
    from safe_zone_ray.functions.search import dsir_select, dsir_weights

    all_w = sorted(
        (r["weight_micro"] for r in dsir_weights(sf_dir).take_all()), reverse=True
    )
    kept = dsir_select(sf_dir).take_all()
    n = len(all_w)
    rank = (7 * n + 9) // 10
    cut = all_w[rank - 1]
    # value-threshold semantics: everything >= cut kept, nothing below
    assert all(r["weight_micro"] >= cut for r in kept)
    assert len(kept) == sum(1 for w in all_w if w >= cut)
    assert len(kept) >= rank  # ties at the cut only ADD docs


def test_dsir_select_matches_oracle(ray_session, sf_dir, con):
    from safe_zone_ray.functions.search import dsir_select, dsir_select_oracle_sql

    got = (
        dsir_select(sf_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    want = (
        con.sql(dsir_select_oracle_sql())
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.equals(want)
