"""MERGE apply (functions/snapshot.snapshot_merge): DuckDB hash parity at
sf0.001 plus key-set invariants.
"""

import hashlib

import duckdb
import pandas as pd
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


# --------------------------------------------------------------------------
# MERGE apply
# --------------------------------------------------------------------------


def test_snapshot_merge_equals_rebuilt_snapshot(ray_session):
    from safe_zone_ray.functions.snapshot import (
        snapshot_merge,
        snapshot_merge_oracle_sql,
    )

    got = snapshot_merge(SF_DIR).to_pandas()
    want = _duck(SF_DIR, snapshot_merge_oracle_sql())
    assert len(got) == len(want)
    assert _value_hash(got) == _value_hash(want)
    # deletes really are gone, inserts really are present
    base = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id"])
    ids = set(base.column("doc_id").to_pylist())
    merged = set(got.doc_id)
    from safe_zone_ray.functions.snapshot import (
        SNAP_DELETE_MOD,
        SNAP_INSERT_MOD,
        SNAP_INSERT_OFFSET,
    )

    assert not any(i % SNAP_DELETE_MOD == 0 for i in merged if i < SNAP_INSERT_OFFSET)
    assert all(
        (i + SNAP_INSERT_OFFSET) in merged for i in ids if i % SNAP_INSERT_MOD == 0
    )


def test_snapshot_merge_consistent_with_diff(ray_session):
    # applying the diff's change kinds to the base key set must yield the
    # merged key set: keys = base - deletes + inserts (updates keep keys)
    from safe_zone_ray.functions.snapshot import snapshot_diff, snapshot_merge

    diff = snapshot_diff(SF_DIR).to_pandas()
    merged = set(snapshot_merge(SF_DIR).to_pandas().doc_id)
    base = set(
        pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_pylist()
    )
    expect = (
        base - set(diff[diff.change == "delete"].doc_id)
    ) | set(diff[diff.change == "insert"].doc_id)
    assert merged == expect

