"""Relational-analytics operators (functions/analytics.py): planted-truth,
DuckDB-oracle equality, boundary semantics (NTILE tie/boundary behavior,
n < k), and fragment-layout invariance."""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

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


def _docs_table(texts, langs=None, sources=None):
    n = len(texts)
    return pa.Table.from_arrays(
        [
            pa.array(range(n), pa.int64()),
            pa.array(texts),
            pa.array(langs or ["en"] * n),
            pa.array(sources or ["src0"] * n),
            pa.array([len(t) for t in texts], pa.int64()),
        ],
        names=["doc_id", "text", "lang", "source", "n_chars"],
    )


# ----------------------------------------------------------------- rollup


def test_source_lang_rollup_oracle_and_fragments(ray_session, tmp_path):
    rng = np.random.default_rng(3)
    n = 300
    t = _docs_table(
        ["word " * int(k) for k in rng.integers(1, 9, n)],
        langs=list(rng.choice(["en", "de", "fr"], n)),
        sources=list(rng.choice(["src0", "src1", "src2", "src3"], n)),
    )
    d1 = _write(tmp_path, "documents", t)
    ora = _rows(_oracle(A.source_lang_rollup_oracle_sql(), documents=d1))
    assert _rows(A.source_lang_rollup(d1)) == ora
    d3 = _write(tmp_path / "f", "documents", t, n_fragments=7)
    assert _rows(A.source_lang_rollup(d3)) == ora


def test_source_lang_rollup_levels(ray_session, tmp_path):
    t = _docs_table(
        ["aa", "bbbb", "c"], langs=["en", "en", "de"], sources=["s1", "s1", "s2"]
    )
    d = _write(tmp_path, "documents", t)
    got = {
        (r["source"], r["lang"]): (r["n_docs"], r["sum_chars"])
        for r in A.source_lang_rollup(d).take_all()
    }
    assert got == {
        ("s1", "en"): (2, 6),
        ("s2", "de"): (1, 1),
        ("s1", "ALL"): (2, 6),
        ("s2", "ALL"): (1, 1),
        ("ALL", "ALL"): (3, 7),
    }


# ------------------------------------------------------------------ pivot


def test_lang_count_matrix_planted(ray_session, tmp_path):
    t = _docs_table(
        ["x"] * 5,
        langs=["en", "en", "de", "zh", "fr"],
        sources=["s1", "s2", "s1", "s1", "s2"],
    )
    d = _write(tmp_path, "documents", t)
    out = A.lang_count_matrix(d)
    rows = {r["source"]: r for r in out.to_pylist()}
    assert rows["s1"] == {"source": "s1", "n_de": 1, "n_en": 1, "n_es": 0, "n_fr": 0, "n_zh": 1}
    assert rows["s2"] == {"source": "s2", "n_de": 0, "n_en": 1, "n_es": 0, "n_fr": 1, "n_zh": 0}


def test_lang_count_matrix_rejects_unknown_lang(ray_session, tmp_path):
    t = _docs_table(["x"], langs=["xx"], sources=["s1"])
    d = _write(tmp_path, "documents", t)
    with pytest.raises(ValueError, match="PIVOT_LANGS"):
        A.lang_count_matrix(d)


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


# ------------------------------------------------------- grouped quantiles


def test_doc_length_quantiles_by_lang_oracle(ray_session, tmp_path):
    rng = np.random.default_rng(17)
    n = 400
    langs = list(rng.choice(["en", "de", "zh"], n))
    texts = ["x" * int(k) for k in rng.integers(1, 200, n)]
    t = _docs_table(texts, langs=langs)
    d = _write(tmp_path, "documents", t, n_fragments=5)
    ora = _rows(_oracle(A.doc_length_quantiles_by_lang_oracle_sql(), documents=d))
    assert _rows(A.doc_length_quantiles_by_lang(d)) == ora


def test_doc_length_quantiles_by_lang_single_row_group(ray_session, tmp_path):
    # a lang with ONE row: every quantile must be that row's length
    t = _docs_table(["abc", "x" * 10, "x" * 20], langs=["fr", "en", "en"])
    d = _write(tmp_path, "documents", t)
    got = {
        (r["lang"], r["q"]): r["n_chars"]
        for r in A.doc_length_quantiles_by_lang(d).to_pylist()
    }
    assert got[("fr", 0.5)] == 3 and got[("fr", 0.99)] == 3
    assert got[("en", 0.5)] == 10 and got[("en", 0.99)] == 20


# -------------------------------------------------------------- correlation


def test_doc_len_token_correlation_oracle_and_fragments(ray_session, tmp_path):
    rng = np.random.default_rng(29)
    n = 300
    texts = ["word " * int(k) + "x" * int(rng.integers(0, 50)) for k in rng.integers(1, 80, n)]
    t = _docs_table(texts, langs=list(rng.choice(["en", "de"], n)))
    d1 = _write(tmp_path, "documents", t)
    ora = _rows(_oracle(A.doc_len_token_correlation_oracle_sql(), documents=d1))
    assert _rows(A.doc_len_token_correlation(d1)) == ora
    d3 = _write(tmp_path / "f", "documents", t, n_fragments=6)
    assert _rows(A.doc_len_token_correlation(d3)) == ora


def test_doc_len_token_correlation_degenerate(ray_session, tmp_path):
    # zero variance in one axis (all docs same length) -> r = 0 by the
    # documented convention; single-doc group also degenerate
    t = _docs_table(["abc", "def", "g h"], langs=["en", "en", "fr"])
    d = _write(tmp_path, "documents", t)
    got = {r["lang"]: (r["n_docs"], r["pearson_r"]) for r in A.doc_len_token_correlation(d).take_all()}
    assert got["en"] == (2, 0.0)  # n_chars constant -> den == 0
    assert got["fr"] == (1, 0.0)


# ------------------------------------------------- doc_length_percentile


def test_doc_length_percentile_planted(ray_session, tmp_path):
    # en lengths: 1, 3, 3, 5  -> pct ranks 0, 1/3, 1/3, 1 (micro: 0, 333333, 1000000)
    # fr: single doc -> 0
    t = _docs_table(
        ["a", "bbb", "ccc", "ddddd", "xx"],
        langs=["en", "en", "en", "en", "fr"],
    )
    d = _write(tmp_path, "documents", t)
    got = A.doc_length_percentile(d).to_pandas().sort_values("doc_id")
    assert list(got["pct_micro"]) == [0, 333333, 333333, 1000000, 0]
    want = _oracle(A.doc_length_percentile_oracle_sql(), documents=d)
    assert _rows(got) == _rows(want)


def test_doc_length_percentile_fragment_invariance(ray_session, tmp_path):
    rng = np.random.default_rng(31)
    n = 400
    texts = ["x" * int(k) for k in rng.integers(1, 40, size=n)]
    langs = [["en", "fr", "de"][i % 3] for i in range(n)]
    t = _docs_table(texts, langs=langs)
    baseline = None
    for n_frag in (1, 5):
        d = _write(tmp_path / f"f{n_frag}", "documents", t, n_fragments=n_frag)
        got = _rows(A.doc_length_percentile(d).to_pandas())
        assert got == _rows(_oracle(A.doc_length_percentile_oracle_sql(), documents=d))
        baseline = baseline or got
        assert got == baseline


def test_source_lang_cube_oracle_and_fragments(ray_session, tmp_path):
    rng = np.random.default_rng(9)
    n = 300
    t = _docs_table(
        ["word " * int(k) for k in rng.integers(1, 9, n)],
        langs=list(rng.choice(["en", "de", "fr"], n)),
        sources=list(rng.choice(["src0", "src1", "src2", "src3"], n)),
    )
    d1 = _write(tmp_path, "documents", t)
    ora = _rows(_oracle(A.source_lang_cube_oracle_sql(), documents=d1))
    assert _rows(A.source_lang_cube(d1)) == ora
    d3 = _write(tmp_path / "f", "documents", t, n_fragments=7)
    assert _rows(A.source_lang_cube(d3)) == ora
    # the cube is the rollup plus exactly the (ALL, lang) marginal rows
    rollup = {(r["source"], r["lang"]) for r in A.source_lang_rollup(d1).take_all()}
    cube = {(r["source"], r["lang"]) for r in A.source_lang_cube(d1).take_all()}
    extra = cube - rollup
    assert extra and all(s == "ALL" and l != "ALL" for s, l in extra)


def test_grouping_sets_empty_fragment(ray_session, tmp_path):
    """A zero-row fragment must not poison the grouping-set combiner
    (review finding: untyped empty pa.array inferred null type and broke
    concat_tables); an entirely empty table yields the grand-total row
    with zero counts, matching SQL's () grouping set."""
    t = _docs_table(["aa", "bb"], langs=["en", "de"], sources=["s1", "s2"])
    # n_fragments=3 over 2 rows leaves the third fragment EMPTY
    d = _write(tmp_path, "documents", t, n_fragments=3)
    got = {
        (r["source"], r["lang"]): (r["n_docs"], r["sum_chars"])
        for r in A.source_lang_cube(d).take_all()
    }
    assert got[("ALL", "ALL")] == (2, 4)
    assert got[("s1", "en")] == (1, 2)
    assert got[("ALL", "de")] == (1, 2)


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
