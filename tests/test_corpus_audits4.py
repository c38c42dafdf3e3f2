"""char_entropy (functions/entropy.py) and good_turing_report
(functions/corpusstats.py): hand truths on planted inputs plus DuckDB oracle
parity on the sf corpus."""

import math
import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


def _docs_view(con, sf_dir=SF_DIR):
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )


# ---------------------------------------------------------------------------
# char_entropy
# ---------------------------------------------------------------------------


def test_char_entropy_planted(ray_session, tmp_path):
    from safe_zone_ray.functions.entropy import char_entropy

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(["aaaa", "ab", "", "中中xy"]),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    got = char_entropy(str(tmp_path)).to_pandas().set_index("doc_id")
    # uniform single char -> H = 0 (ln(4)*1e6 rounded minus 4·ln4·1e6//4)
    assert got.loc[1, "char_entropy_micronats"] == 0
    assert got.loc[1, "n_cp"] == 4
    # two distinct chars, one each -> H = ln 2
    assert got.loc[2, "char_entropy_micronats"] == round(math.log(2) * 1e6)
    # empty doc -> 0 by convention
    assert got.loc[3, "char_entropy_micronats"] == 0
    assert got.loc[3, "n_cp"] == 0
    # counts are per CODEPOINT: {中:2, x:1, y:1} over n=4
    # H = ln(4) - (2ln2 + 0 + 0)/4 = 2ln2 - ln2/2 = 1.5·ln2
    want = round(math.log(4) * 1e6) - (
        math.floor(2 * math.log(2) * 1e6 + 0.5) // 4
    )
    assert got.loc[4, "char_entropy_micronats"] == want
    assert got.loc[4, "n_cp"] == 4


def test_char_entropy_oracle_parity(ray_session):
    from safe_zone_ray.functions.entropy import (
        char_entropy,
        char_entropy_oracle_sql,
    )

    got = (
        char_entropy(SF_DIR).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    _docs_view(con)
    want = (
        con.execute(char_entropy_oracle_sql())
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )
    # natural text should land well above 2 nats
    assert got.char_entropy_micronats.min() > 2_000_000


# ---------------------------------------------------------------------------
# good_turing_report
# ---------------------------------------------------------------------------


def test_good_turing_planted(ray_session, tmp_path):
    from safe_zone_ray.functions.corpusstats import good_turing_report

    # tokens: the=3, cat=2, dog=2, sat=1, mat=1, rug=1
    # N=10, V=6, N1=3, N2=2
    t = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(
                ["the cat sat. the dog!", "the cat, dog mat rug"]
            ),
        }
    )
    pq.write_table(t, os.path.join(str(tmp_path), "documents.parquet"))
    got = good_turing_report(str(tmp_path)).to_pandas().iloc[0]
    assert got.n_tokens == 10
    assert got.n_types == 6
    assert got.n_singletons == 3
    assert got.n_doubletons == 2
    assert got.unseen_mass_micro == 3 * 1_000_000 // 10
    assert got.singleton_r_star_micro == 2 * 2 * 1_000_000 // 3


def test_good_turing_oracle_parity(ray_session):
    from safe_zone_ray.functions.corpusstats import (
        good_turing_report,
        good_turing_report_oracle_sql,
    )

    got = good_turing_report(SF_DIR).to_pandas()
    con = duckdb.connect()
    _docs_view(con)
    want = con.execute(good_turing_report_oracle_sql()).df()
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)], check_dtype=False
    )
