"""k-anonymity report (functions/privacy.py) and split n-gram leakage
(functions/leakage.py): oracle parity at sf0.001 and planted-truth leakage
on a tiny corpus."""

import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


def _duck(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    p = f"{sf_dir}/documents.parquet"
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
    return con.execute(sql).df()


def _cmp(got: pd.DataFrame, want: pd.DataFrame, by) -> None:
    got = got.sort_values(by).reset_index(drop=True)
    want = want.sort_values(by).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )


def test_k_anonymity_oracle_parity(ray_session):
    from safe_zone_ray.functions.privacy import (
        k_anonymity_oracle_sql,
        k_anonymity_report,
    )

    got = k_anonymity_report(SF_DIR).to_pandas()
    want = _duck(SF_DIR, k_anonymity_oracle_sql())
    _cmp(got, want, ["lang", "len_bucket"])
    # l-diversity never exceeds class size; k flag consistent with size
    assert (got.l_diversity <= got.class_size).all()
    assert ((got.class_size >= 5) == (got.k_anonymous == 1)).all()


def test_split_ngram_leakage_oracle_parity(ray_session):
    from safe_zone_ray.functions.leakage import (
        split_ngram_leakage,
        split_ngram_leakage_oracle_sql,
    )

    got = split_ngram_leakage(SF_DIR).to_pandas()
    want = _duck(SF_DIR, split_ngram_leakage_oracle_sql())
    assert len(got) == len(want)
    if len(got):
        _cmp(got, want, ["split_a", "split_b"])
        assert (got.n_cross_pairs >= got.n_shared_ngrams).all()


def test_split_ngram_leakage_planted(ray_session, tmp_path):
    from safe_zone_ray.functions.leakage import _split_idx, split_ngram_leakage
    import numpy as np

    # find doc_ids landing in each split under the hash rule
    ids = np.arange(1, 400, dtype=np.int64)
    sidx = _split_idx(ids)
    train_id = int(ids[sidx == 1][0])
    valid_id = int(ids[sidx == 2][0])
    test_id = int(ids[sidx == 0][0])
    other_train = int(ids[sidx == 1][1])
    leak = "alpha bravo charlie delta echo foxtrot golf hotel"  # one 8-gram
    uniq = "one two three four five six seven eight"
    t = pa.table(
        {
            "doc_id": pa.array(
                [train_id, valid_id, test_id, other_train], pa.int64()
            ),
            "text": pa.array(
                [
                    f"{leak} trailing words here",
                    f"prefix words {leak}",
                    uniq,
                    f"{leak} again in train",
                ],
                pa.string(),
            ),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    got = (
        split_ngram_leakage(str(tmp_path))
        .to_pandas()
        .set_index(["split_a", "split_b"])
    )
    # the leak 8-gram family spans train(2 docs) x valid(1 doc); windows
    # sliding over the trailing words add train-only grams, no cross pairs
    assert ("train", "valid") in got.index
    row = got.loc[("train", "valid")]
    assert row.n_shared_ngrams == 1
    assert row.n_cross_pairs == 2  # 2 train docs x 1 valid doc
    assert ("test", "train") not in got.index
    assert ("test", "valid") not in got.index


def test_doc_ngram_novelty_oracle_parity(ray_session):
    from safe_zone_ray.functions.leakage import (
        doc_ngram_novelty,
        doc_ngram_novelty_oracle_sql,
    )

    got = doc_ngram_novelty(SF_DIR).to_pandas()
    want = _duck(SF_DIR, doc_ngram_novelty_oracle_sql())
    _cmp(got, want, "doc_id")


def test_doc_ngram_novelty_planted(ray_session, tmp_path):
    from safe_zone_ray.functions.leakage import doc_ngram_novelty

    shared = "alpha bravo charlie delta echo foxtrot golf hotel"  # 8 tokens
    rows = [
        (1, f"{shared} unique1 unique2"),  # 3 grams: 1 shared + 2 novel
        (2, f"{shared}"),  # 1 gram, shared with doc 1 -> novelty 0
        (3, "one two three four five six seven"),  # 7 tokens: no grams
        (4, "w x y z p q r s t u"),  # 3 grams, all novel
    ]
    t = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "text": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    got = doc_ngram_novelty(str(tmp_path)).to_pandas().set_index("doc_id")
    assert 3 not in got.index  # <8 tokens: omitted
    assert got.loc[1, "n_grams"] == 3 and got.loc[1, "n_novel"] == 2
    assert got.loc[1, "novelty_micro"] == 666_666
    assert got.loc[2, "n_grams"] == 1 and got.loc[2, "n_novel"] == 0
    assert got.loc[4, "n_grams"] == 3 and got.loc[4, "novelty_micro"] == 1_000_000
