"""Local stand-in for the driver's correctness gate: run each queries() entry
and its oracle_sql() twin at a given sf, compare row count, column names, and
an order-insensitive value hash. Usage: python scripts/check_oracle.py [sf_dir]
"""

from __future__ import annotations

import hashlib
import os
import sys

# the checkout this script lives in, not whatever copy is on the path
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd
import pyarrow as pa


def to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df.reindex(sorted(df.columns), axis=1)
    rows = df.astype(str).apply(lambda r: "|".join(r.values), axis=1).sort_values()
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def main(sf_dir: str, only: set[str] | None = None) -> int:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    con = duckdb.connect()
    for t in "documents embeddings".split():
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    oracles = e.oracle_sql(sf_dir)
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as ex:
            print(f"[FAIL] {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        if name not in oracles:
            print(f"[rows-only] {name}: {len(got)} rows, cols={list(got.columns)}")
            continue
        try:
            want = con.sql(oracles[name]).df()
        except Exception as ex:
            print(f"[FAIL] {name}: oracle raised {ex}")
            failures += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if sorted(got.columns) != sorted(want.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(want.columns)}")
        elif value_hash(got) != value_hash(want):
            problems.append("value-hash mismatch")
            merged = got.sort_values(list(sorted(got.columns))).reset_index(drop=True)
            mw = want.reindex(sorted(want.columns), axis=1).sort_values(
                list(sorted(want.columns))
            ).reset_index(drop=True)
            mg = got.reindex(sorted(got.columns), axis=1).sort_values(
                list(sorted(got.columns))
            ).reset_index(drop=True)
            diff = (mg.astype(str) != mw.astype(str)).any(axis=1)
            if diff.any():
                i = diff.idxmax()
                problems.append(f"first diff row {i}:\n  ray={mg.iloc[i].to_dict()}\n  sql={mw.iloc[i].to_dict()}")
        if problems:
            failures += 1
            print(f"[FAIL] {name}: " + "; ".join(problems))
        else:
            print(f"[OK]   {name}: {len(got)} rows")
    print(f"\n{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(
        main(
            sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01",
            set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None,
        )
    )
