"""Flesch reading ease: hand truths + DuckDB parity."""

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from safe_zone_ray.functions.readability import (
    flesch_scores,
    flesch_scores_oracle_sql,
)


def test_flesch_hand_truth(ray_session, tmp_path):
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "text": pa.array(
                [
                    # 4 words, 2 sentences, syllable groups:
                    # "the"=1 "cat"=1 "sat"=1 "down"=1 -> 4
                    "The cat sat. Down!",
                    # no punctuation -> sentences floored at 1
                    "hello world",
                ],
                pa.string(),
            ),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = flesch_scores(str(tmp_path)).to_pandas().set_index("doc_id")
    r0 = out.loc[0]
    assert (r0.n_words, r0.n_sentences, r0.n_syllables) == (4, 2, 4)
    expected0 = round(206.835 - 1.015 * (4 / 2) - 84.6 * (4 / 4), 4)
    assert r0.flesch == expected0
    r1 = out.loc[1]
    # vowel groups: hello -> e, o (2); world -> o (1). No punctuation:
    # the RAW sentence count is 0 — only the formula floors it at 1.
    assert (r1.n_words, r1.n_sentences, r1.n_syllables) == (2, 0, 3)
    expected1 = round(206.835 - 1.015 * (2 / 1) - 84.6 * (3 / 2), 4)
    assert r1.flesch == expected1


def test_flesch_duckdb_parity(ray_session, sf_dir):
    a = flesch_scores(sf_dir).to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf_dir}/documents.parquet')"
    )
    o = (
        con.execute(flesch_scores_oracle_sql())
        .fetchdf()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, o[a.columns], check_exact=True)
