"""classifier_auc / quality_rank_fusion (functions/evalmetrics.py): oracle
parity at sf0.001, a hand-computed planted-truth AUC (ties included), and
fusion tie handling."""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


def _duck(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = f"{sf_dir}/documents.parquet"
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
    return con.execute(sql).df()


def test_classifier_auc_oracle_parity(ray_session):
    from safe_zone_ray.functions.evalmetrics import (
        classifier_auc,
        classifier_auc_oracle_sql,
    )

    got = classifier_auc(SF_DIR).to_pandas()
    want = _duck(SF_DIR, classifier_auc_oracle_sql())
    assert got.n_pos[0] == want.n_pos[0]
    assert got.n_neg[0] == want.n_neg[0]
    assert got.auc_micro[0] == want.auc_micro[0]
    # range sanity only: the synthetic generator draws text independently
    # of the lang column, so AUC ~ 0.5 here; discrimination semantics are
    # pinned by the planted test below.
    assert 0 <= got.auc_micro[0] <= 1_000_000


def test_classifier_auc_planted(ray_session, tmp_path):
    from safe_zone_ray.functions.evalmetrics import classifier_auc

    # scores by construction: "the and of" -> 3/3 stopwords (score 1e6),
    # "the cat sat" -> 1/3, "xyz abc def" -> 0/3; ties across classes.
    rows = [
        ("en", "the and of is a"),  # pos, score 1.0
        ("en", "the cat sat here now x"),  # pos, score ~1/6
        ("de", "xyz abc def qrs tuv wxy"),  # neg, score 0
        ("de", "the cat sat here now x"),  # neg, tied with pos #2
    ]
    t = pa.table(
        {
            "doc_id": pa.array(np.arange(len(rows)), pa.int64()),
            "lang": pa.array([r[0] for r in rows]),
            "text": pa.array([r[1] for r in rows]),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    got = classifier_auc(str(tmp_path)).to_pandas()
    # pairs: P=2, N=2 -> 4 pairs. pos1(1.0) beats both negs = 2 wins;
    # pos2(1/6) beats neg(0) = 1 win, ties neg(1/6) = 0.5. AUC = 3.5/4.
    assert got.n_pos[0] == 2 and got.n_neg[0] == 2
    assert got.auc_micro[0] == 875_000


def test_quality_rank_fusion_oracle_parity(ray_session):
    from safe_zone_ray.functions.evalmetrics import (
        quality_rank_fusion,
        quality_rank_fusion_oracle_sql,
    )

    got = (
        quality_rank_fusion(SF_DIR)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = (
        _duck(SF_DIR, quality_rank_fusion_oracle_sql())
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )
    n = len(got)
    # competition-rank invariants: ranks in [1, n]; best rank is 1
    for c in ["rank_words", "rank_stopword", "rank_distinct"]:
        assert got[c].min() == 1 and got[c].max() <= n


def test_quality_rank_fusion_ties(ray_session, tmp_path):
    from safe_zone_ray.functions.evalmetrics import quality_rank_fusion

    # two identical docs must share every rank (competition ranking) and
    # the next doc skips to rank 3
    rows = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",
        "tiny",
    ]
    t = pa.table(
        {
            "doc_id": pa.array(range(len(rows)), pa.int64()),
            "text": pa.array(rows, pa.string()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    got = quality_rank_fusion(str(tmp_path)).to_pandas().set_index("doc_id")
    assert got.loc[0, "rank_words"] == 1 and got.loc[1, "rank_words"] == 1
    assert got.loc[2, "rank_words"] == 3
    assert (got.loc[0] == got.loc[1]).all()
