"""Mixture interleave schedule (functions/mixture.py): planted-truth
interleave on a tiny two-source table and closed-form-vs-ORDER-BY parity at
sf0.001."""

import hashlib
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


def _value_hash(df: pd.DataFrame) -> str:
    df = df.reindex(sorted(df.columns), axis=1)
    rows = df.astype(str).apply(lambda r: "|".join(r.values), axis=1).sort_values()
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _duck(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    return con.execute(sql).df()


def test_mixture_schedule_planted_interleave(ray_session, tmp_path):
    from safe_zone_ray.functions.mixture import mixture_schedule

    # source a: 2 docs, source b: 4 docs → keys a: 1/2, 2/2; b: 1/4 .. 4/4.
    # global order: b1(.25) a1(.5=tie)… a(1/2)=b(2/4) tie → 'a' sorts first.
    t = pa.table(
        {
            "doc_id": pa.array([10, 20, 1, 2, 3, 4], pa.int64()),
            "source": pa.array(["a", "a", "b", "b", "b", "b"], pa.string()),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    got = (
        mixture_schedule(str(tmp_path))
        .to_pandas()
        .sort_values("mix_order")
        .reset_index(drop=True)
    )
    # expected order: b1 (.25), a1 (.5, ties b2, a<b), b2 (.5), b3 (.75),
    # a2 (1.0, ties b4), b4 (1.0)
    assert list(zip(got.source, got.src_rank)) == [
        ("b", 1),
        ("a", 1),
        ("b", 2),
        ("b", 3),
        ("a", 2),
        ("b", 4),
    ]
    assert list(got.mix_order) == [1, 2, 3, 4, 5, 6]
    # doc ids map to per-source doc_id order
    assert list(got[got.source == "a"].doc_id) == [10, 20]


def test_mixture_schedule_oracle_parity(ray_session):
    from safe_zone_ray.functions.mixture import (
        mixture_schedule,
        mixture_schedule_oracle_sql,
    )

    got = mixture_schedule(SF_DIR).to_pandas()
    want = _duck(SF_DIR, mixture_schedule_oracle_sql())
    assert len(got) == len(want)
    assert _value_hash(got) == _value_hash(want)
    # mix_order is a permutation of 1..N
    assert sorted(got.mix_order) == list(range(1, len(got) + 1))
