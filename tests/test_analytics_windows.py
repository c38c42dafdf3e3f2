"""Per-source quota (per_source_quota): planted-truth, oracle-equality, and
fragment-layout invariance (the combiner cut must not depend on batch
boundaries)."""

import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SCRIPTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts"
)


def _write(tmp_path, name, table, n_fragments=1):
    d = str(tmp_path / name)
    os.makedirs(d, exist_ok=True)
    if n_fragments == 1:
        pq.write_table(table, os.path.join(d, f"{name.split('_')[0]}.parquet"))
    else:
        sub = os.path.join(d, name.split("_")[0] + ".parquet")
        os.makedirs(sub)
        step = (table.num_rows + n_fragments - 1) // n_fragments
        for i in range(n_fragments):
            part = table.slice(i * step, step)
            pq.write_table(part, os.path.join(sub, f"part-{i}.parquet"))
    return d


def test_per_source_quota_planted_and_fragment_invariant(ray_session, tmp_path):
    from safe_zone_ray.functions.textstats import per_source_quota

    # source A: 7 docs with a tie at the quota boundary (doc_id ASC wins);
    # source B: fewer docs than the quota
    src = ["A"] * 7 + ["B"] * 2
    nch = [50, 40, 40, 40, 30, 20, 10, 5, 9]
    t = pa.Table.from_arrays(
        [
            pa.array(src, pa.string()),
            pa.array(list(range(9)), pa.int64()),
            pa.array(nch, pa.int64()),
        ],
        names=["source", "doc_id", "n_chars"],
    )
    expected = [
        ("A", 0, 50, 1),
        ("A", 1, 40, 2),
        ("A", 2, 40, 3),
        ("A", 3, 40, 4),
        ("A", 4, 30, 5),
        ("B", 7, 5, 2),
        ("B", 8, 9, 1),
    ]
    for frags in (1, 4):
        d = _write(tmp_path, f"documents_q{frags}", t, n_fragments=frags)
        got = sorted(
            (r["source"], r["doc_id"], r["n_chars"], r["quota_rank"])
            for r in per_source_quota(d, k=5).take_all()
        )
        assert got == expected, f"fragments={frags}"


def test_per_source_quota_matches_oracle_sf(ray_session, sf_dir):
    import sys

    sys.path.insert(0, SCRIPTS)
    from check_oracle import value_hash

    from safe_zone_ray.functions.textstats import (
        per_source_quota,
        per_source_quota_oracle_sql,
    )

    got = per_source_quota(sf_dir).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf_dir}/documents.parquet')"
    )
    want = con.sql(per_source_quota_oracle_sql()).df()
    assert len(got) == len(want)
    assert value_hash(got) == value_hash(want)
