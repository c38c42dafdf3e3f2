"""Snapshot language drift (functions/drift.py): oracle parity at sf0.001
and the PSI invariants."""

import os

import duckdb
import pandas as pd

SF_DIR = "/root/testdata/sf0.001"


def _duck(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("events", "documents"):
        p = f"{sf_dir}/{t}.parquet"
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    return con.execute(sql).df()


def _sorted(df: pd.DataFrame, by) -> pd.DataFrame:
    return df.sort_values(by).reset_index(drop=True)


def test_snapshot_lang_drift_oracle_parity(ray_session):
    from safe_zone_ray.functions.drift import (
        snapshot_lang_drift,
        snapshot_lang_drift_oracle_sql,
    )

    got = _sorted(snapshot_lang_drift(SF_DIR).to_pandas(), "lang")
    want = _sorted(_duck(SF_DIR, snapshot_lang_drift_oracle_sql()), "lang")
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )


def test_snapshot_lang_drift_invariants(ray_session):
    from safe_zone_ray.functions.drift import snapshot_lang_drift

    df = snapshot_lang_drift(SF_DIR).to_pandas()
    # shares each sum to ~1 (6dp rounding slack, one term per language)
    assert abs(df.share_base.sum() - 1.0) < 1e-4
    assert abs(df.share_snap.sum() - 1.0) < 1e-4
    # PSI terms are non-negative: (p-q)·ln(p/q) ≥ 0 pointwise
    assert (df.psi >= -1e-9).all()
    # base counts match a direct count
    n = _duck(SF_DIR, "SELECT count(*) AS n FROM documents").n[0]
    assert df.n_base.sum() == n

