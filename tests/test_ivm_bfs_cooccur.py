"""Incremental view maintenance (snapshot.incremental_lang_stats) and PII
type co-occurrence (__ray_entry__): DuckDB parity at sf0.001 plus
structural invariants."""

import hashlib

import duckdb
import pandas as pd

SF_DIR = "/root/testdata/sf0.001"


def _value_hash(df: pd.DataFrame) -> str:
    df = df.reindex(sorted(df.columns), axis=1)
    rows = df.astype(str).apply(lambda r: "|".join(r.values), axis=1).sort_values()
    h = hashlib.sha256()
    for r in rows:
        h.update(r.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def _duck(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF_DIR}/documents.parquet')"
    )
    return con.execute(sql).df()


def test_incremental_lang_stats_parity_and_delta(ray_session):
    from safe_zone_ray.functions.snapshot import (
        incremental_lang_stats,
        incremental_lang_stats_oracle_sql,
    )

    got = incremental_lang_stats(SF_DIR).to_pandas()
    want = _duck(incremental_lang_stats_oracle_sql())
    assert len(got) == len(want)
    assert _value_hash(got) == _value_hash(want)
    # the maintained view must actually DIFFER from the base aggregate
    # (otherwise the delta path isn't exercised)
    base = _duck(
        "SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,"
        " CAST(sum(length(text)) AS BIGINT) AS n_chars FROM documents GROUP BY lang"
    )
    merged = got.merge(base, on="lang", suffixes=("", "_base"))
    assert (merged.n_docs != merged.n_docs_base).any() or (
        merged.n_chars != merged.n_chars_base
    ).any()


def test_pii_type_cooccurrence_parity(ray_session):
    import __ray_entry__ as e

    q = e.queries()["pii_type_cooccurrence"]
    o = e.oracle_sql(SF_DIR)["pii_type_cooccurrence"]
    got = q(SF_DIR).to_pandas()
    con = duckdb.connect()
    want = con.execute(o).df()
    assert len(got) == len(want)
    assert _value_hash(got) == _value_hash(want)
    # pairs are canonically ordered and positive
    assert (got.type_a < got.type_b).all()
    assert (got.n_docs > 0).all()
