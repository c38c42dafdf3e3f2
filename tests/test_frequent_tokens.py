"""Two-pass heavy hitters: MG truncation truth + oracle parity."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from safe_zone_ray.functions import sketch


@pytest.fixture(scope="module")
def skewed_dir(ray_session, tmp_path_factory):
    """A corpus whose vocabulary (5000+ singletons) far exceeds the MG
    counter budget at phi_denom=10 (k=20), so per-batch summaries MUST
    truncate — exactness then hinges on the confirm pass."""
    d = tmp_path_factory.mktemp("skew")
    rng = np.random.RandomState(11)
    docs = []
    for i in range(40):
        noise = [f"tok{rng.randint(0, 5000)}" for _ in range(120)]
        heavy = ["alpha"] * 30 + ["beta"] * 18
        rng.shuffle(noise)
        docs.append(" ".join(heavy + noise))
    t = pa.Table.from_arrays(
        [pa.array(list(range(len(docs))), pa.int64()), pa.array(docs, pa.string())],
        names=["doc_id", "text"],
    )
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    return str(d)


def test_heavy_hitters_exact_on_skew(skewed_dir):
    rows = {r["token"]: r["n"] for r in sketch.frequent_tokens(skewed_dir, phi_denom=10).take_all()}
    # N = 40*168 = 6720, threshold 672; alpha: 1200 > 672, beta: 720 > 672
    assert rows == {"alpha": 1200, "beta": 720}


def test_heavy_hitters_matches_oracle(skewed_dir):
    import duckdb

    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{skewed_dir}/documents.parquet')"
    )
    want = (
        con.sql(sketch.frequent_tokens_oracle_sql(phi_denom=10))
        .df()
        .sort_values("token")
        .reset_index(drop=True)
    )
    got = (
        sketch.frequent_tokens(skewed_dir, phi_denom=10)
        .to_pandas()
        .sort_values("token")
        .reset_index(drop=True)
    )
    assert got.equals(want)


def test_mg_summary_bounds():
    toks = pa.array(["a"] * 50 + ["b"] * 10 + [f"x{i}" for i in range(100)])
    vals, low = sketch._mg_summary(toks, k=5)
    assert len(low) <= 5
    d = dict(zip(vals.to_pylist(), low.tolist()))
    # undercount per counter is at most n/(k+1) = 160/6 < 27
    assert 50 - 27 <= d["a"] <= 50
    # exact when vocabulary fits the budget
    vals2, low2 = sketch._mg_summary(pa.array(["a", "a", "b"]), k=5)
    assert dict(zip(vals2.to_pylist(), low2.tolist())) == {"a": 2, "b": 1}


# ---------------------------------------------------------------------------
# Corpus-wide boilerplate line removal
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def boiler_dir(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("boiler")
    nav = "Home | About | Contact"
    cookie = "We use cookies to improve your experience"
    docs = [
        f"{nav}\nUnique article one body\n{cookie}",
        f"{nav}\nAnother unique body text\n{cookie}\n{cookie}",
        f"{nav}\nThird body entirely different",
        "No boilerplate here at all\n\nJust content",
        "",
    ]
    t = pa.Table.from_arrays(
        [pa.array(list(range(len(docs))), pa.int64()), pa.array(docs, pa.string())],
        names=["doc_id", "text"],
    )
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    return str(d)


def test_boilerplate_scrub_planted(boiler_dir):
    from safe_zone_ray.functions.textstats import boilerplate_lines_scrub

    rows = {
        r["doc_id"]: r
        for r in boilerplate_lines_scrub(boiler_dir, min_docs=3).take_all()
    }
    # nav appears in 3 docs -> removed everywhere; cookie in only 2 -> kept
    assert rows[0]["clean_text"] == "Unique article one body\nWe use cookies to improve your experience"
    assert rows[0]["n_removed"] == 1
    # multiplicity counts: doc 1 keeps both cookie copies (not boilerplate)
    assert rows[1]["n_removed"] == 1
    assert rows[2]["clean_text"] == "Third body entirely different"
    # blank lines are never candidates
    assert rows[3]["clean_text"] == "No boilerplate here at all\n\nJust content"
    assert rows[3]["n_removed"] == 0
    assert rows[4]["clean_text"] == "" and rows[4]["n_removed"] == 0


def test_boilerplate_scrub_matches_oracle(boiler_dir):
    import duckdb

    from safe_zone_ray.functions.textstats import (
        boilerplate_lines_scrub,
        boilerplate_lines_scrub_oracle_sql,
    )

    con = duckdb.connect()
    con.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{boiler_dir}/documents.parquet')"
    )
    want = (
        con.sql(boilerplate_lines_scrub_oracle_sql(min_docs=3))
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = (
        boilerplate_lines_scrub(boiler_dir, min_docs=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.equals(want)
