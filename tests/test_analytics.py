"""Relational-analytics operators (functions/analytics.py): planted-truth,
DuckDB-oracle equality, boundary semantics (NTILE tie/boundary behavior,
n < k), and fragment-layout invariance."""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from safe_zone_ray.functions import analytics as A


def _write(tmp_path, table_name, table, n_fragments=1):
    d = str(tmp_path / f"{table_name}_dir")
    os.makedirs(d, exist_ok=True)
    if n_fragments == 1:
        pq.write_table(table, os.path.join(d, f"{table_name}.parquet"))
    else:
        sub = os.path.join(d, f"{table_name}.parquet")
        os.makedirs(sub)
        step = (table.num_rows + n_fragments - 1) // n_fragments
        for i in range(n_fragments):
            pq.write_table(table.slice(i * step, step), os.path.join(sub, f"part-{i}.parquet"))
    return d


def _oracle(sql, **views):
    con = duckdb.connect()
    for name, path in views.items():
        p = f"{path}/{name}.parquet"
        if os.path.isdir(p):
            p = f"{p}/*.parquet"
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM '{p}'")
    return con.execute(sql).df()


def _rows(res):
    import pandas as pd

    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    df = df[sorted(df.columns)]
    return sorted(map(tuple, df.astype(str).values.tolist()))


def _docs_table(texts):
    n = len(texts)
    return pa.Table.from_arrays(
        [
            pa.array(range(n), pa.int64()),
            pa.array(texts),
            pa.array(["en"] * n),
            pa.array(["src0"] * n),
            pa.array([len(t) for t in texts], pa.int64()),
        ],
        names=["doc_id", "text", "lang", "source", "n_chars"],
    )


# ------------------------------------------------------------------ ntile


def test_doc_token_deciles_oracle(ray_session, tmp_path):
    # token counts straddle the NTILE_RANGE=64 boundary and carry heavy
    # ties; doc_id breaks them — matches the SQL window tie-break
    rng = np.random.default_rng(11)
    counts = np.concatenate(
        [rng.integers(0, 130, 180), np.full(20, 64), np.full(20, 63)]
    )
    texts = ["tok " * int(c) for c in counts]
    t = _docs_table(texts)
    d1 = _write(tmp_path, "documents", t)
    ora = _rows(_oracle(A.doc_token_deciles_oracle_sql(), documents=d1))
    assert _rows(A.doc_token_deciles(d1)) == ora
    d3 = _write(tmp_path / "f", "documents", t, n_fragments=6)
    assert _rows(A.doc_token_deciles(d3)) == ora


def test_doc_token_deciles_fewer_rows_than_buckets(ray_session, tmp_path):
    t = _docs_table(["a b", "a", "a b c"])
    d = _write(tmp_path, "documents", t)
    got = sorted(
        (r["doc_id"], r["n_tokens"], r["global_rank"], r["decile"])
        for r in A.doc_token_deciles(d).take_all()
    )
    # n=3 < k=10: NTILE gives one row per bucket 1..3 in rank order
    assert got == [(0, 2, 2, 2), (1, 1, 1, 1), (2, 3, 3, 3)]


# -------------------------------------------------------------------- pmi


def test_word_cooccurrence_pmi_oracle_and_fragments(ray_session, tmp_path):
    rng = np.random.default_rng(5)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = [
        " ".join(rng.choice(vocab, rng.integers(5, 40)))
        # a planted strong collocation: "alpha beta" far above chance
        + " alpha beta" * int(rng.integers(0, 4))
        for _ in range(120)
    ]
    t = _docs_table(texts)
    d1 = _write(tmp_path, "documents", t)
    ora = _rows(_oracle(A.word_cooccurrence_pmi_oracle_sql(), documents=d1))
    assert _rows(A.word_cooccurrence_pmi(d1)) == ora
    d3 = _write(tmp_path / "f", "documents", t, n_fragments=5)
    assert _rows(A.word_cooccurrence_pmi(d3)) == ora


def test_word_cooccurrence_pmi_planted_collocation(ray_session, tmp_path):
    # "north pole" always adjacent; fillers uniform -> top-PMI pair must be
    # (north, pole) with c_ab >= PMI_MIN_PAIRS
    texts = ["north pole " + "x y z w " * 5 for _ in range(10)]
    t = _docs_table(texts)
    d = _write(tmp_path, "documents", t)
    rows = A.word_cooccurrence_pmi(d).take_all()
    assert rows, "expected at least one pair"
    top = max(rows, key=lambda r: (r["pmi"], r["w1"], r["w2"]))
    assert (top["w1"], top["w2"]) == ("north", "pole")
    assert all(r["c_ab"] >= A.PMI_MIN_PAIRS for r in rows)


def test_word_cooccurrence_pmi_rare_word_window_amplified_pair(ray_session, tmp_path):
    """Regression for the vocabulary count-floor: a word whose unigram
    count is BELOW PMI_MIN_PAIRS can still anchor a surviving pair, because
    one occurrence pairs with up to PMI_WINDOW same-typed neighbors
    ('zq y y' -> two (zq, y) pairs per doc). The floored broadcast must
    still resolve it — exact oracle parity on the counter-example corpus."""
    # 3 docs of 'zq y y': c_zq = 3 < PMI_MIN_PAIRS=5, pair (zq,y) c_ab = 6.
    # Filler docs give the exchange some bulk and a second surviving pair.
    texts = ["zq y y"] * 3 + ["p q p q p q p q"] * 4
    t = _docs_table(texts)
    d = _write(tmp_path, "documents", t)
    ora = _rows(_oracle(A.word_cooccurrence_pmi_oracle_sql(), documents=d))
    got = _rows(A.word_cooccurrence_pmi(d))
    assert got == ora
    assert any("zq" in r for r in map(str, got)), "amplified pair missing"
