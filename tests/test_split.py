"""Deterministic hash split: hand-computed bucket truths, band fractions,
and stability under re-crawl (id-pure)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from safe_zone_ray.functions.split import (
    KNUTH,
    N_BUCKETS,
    TRAIN_LT,
    VALID_LT,
    _buckets,
    train_split_assignment,
)


def test_bucket_formula_hand_check():
    ids = np.array([0, 1, 2, 12345], dtype=np.int64)
    want = [(i * KNUTH) % (1 << 32) % N_BUCKETS for i in [0, 1, 2, 12345]]
    assert list(_buckets(ids)) == want
    assert _buckets(np.array([0]))[0] == 0  # doc 0 → bucket 0 → train


def test_split_is_id_pure_and_stable(ray_session, tmp_path):
    # same ids in a different table/order → identical assignment
    for name, ids in [("a", [5, 9, 100]), ("b", [100, 5, 9])]:
        d = tmp_path / name
        d.mkdir()
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(["x"] * len(ids)),
                    "lang": pa.array(["en"] * len(ids)),
                }
            ),
            str(d / "documents.parquet"),
        )
    a = train_split_assignment(str(tmp_path / "a")).to_pandas().set_index("doc_id")
    b = train_split_assignment(str(tmp_path / "b")).to_pandas().set_index("doc_id")
    assert a.sort_index().equals(b.sort_index())
    assert (a.bucket == [(i * KNUTH) % (1 << 32) % N_BUCKETS for i in a.index]).all()


def test_band_fractions_on_corpus(ray_session, sf_dir):
    df = train_split_assignment(sf_dir).to_pandas()
    assert set(df.split) == {"train", "valid", "test"}
    n = len(df)
    frac_train = (df.split == "train").mean()
    # 80/10/10 bands: at 500 uniform-hashed docs the train share lands
    # well inside ±10 points of 0.8
    assert abs(frac_train - TRAIN_LT / N_BUCKETS) < 0.10
    # band membership is exactly the bucket rule, not approximately
    want = np.where(
        df.bucket < TRAIN_LT, "train", np.where(df.bucket < VALID_LT, "valid", "test")
    )
    assert (df.split == want).all()
    assert df.doc_id.nunique() == n  # one row per doc
