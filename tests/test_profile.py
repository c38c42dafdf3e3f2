"""Distributed table profiler (functions/profile.py): oracle parity on the
real documents table plus a null-bearing synthetic table exercising the
all-null / partial-null merge paths the testdata lacks."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

from safe_zone_ray.functions.profile import (
    _distinct_partial,
    _stats_partial,
    documents_profile,
    documents_profile_oracle_sql,
    profile_oracle_sql,
    table_profile,
)


def test_documents_profile_matches_duckdb(ray_session):
    sf = "/root/testdata/sf0.001"
    got = documents_profile(sf)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'"
    )
    want = con.execute(documents_profile_oracle_sql()).fetch_arrow_table()
    assert got.column_names == want.column_names
    assert got.to_pylist() == want.to_pylist()


def test_events_profile_timestamp_double_parity(ray_session):
    """timestamp[us] and double min/max must render identically to DuckDB's
    CAST(.. AS VARCHAR) (both sides shortest-round-trip doubles and
    fraction-omitting ISO timestamps)."""
    sf = "/root/testdata/sf0.001"
    cols = ["event_id", "ts", "user_id", "event_type", "value", "props"]
    got = table_profile(f"{sf}/events.parquet", cols)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(profile_oracle_sql("events", cols)).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()


def test_profile_nulls_and_int_minmax_merge(ray_session, tmp_path, monkeypatch):
    """int64 min/max must merge numerically across batches ('9' < '10'
    string-wise would be wrong), nulls are excluded from distinct/min/max,
    and an all-null column profiles as (n_nulls=n_rows, 0 distinct, NULL
    min/max) — COUNT(DISTINCT) semantics."""
    import safe_zone_ray.functions.profile as prof

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([9, 10, 2, None], pa.int64()),
            "text": pa.array(["b", None, "a", "a"], pa.string()),
            "lang": pa.array([None, None, None, None], pa.string()),
            "source": pa.array(["s", "s", "s", "s"], pa.string()),
            "n_chars": pa.array([1, 1, 2, 3], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet", row_group_size=2)
    got = documents_profile(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = con.execute(documents_profile_oracle_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    by_col = {r["col_name"]: r for r in got.to_pylist()}
    assert by_col["doc_id"] == {
        "col_name": "doc_id",
        "n_rows": 4,
        "n_nulls": 1,
        "n_distinct": 3,
        "min_val": "2",
        "max_val": "10",
    }
    assert by_col["lang"]["n_distinct"] == 0
    assert by_col["lang"]["min_val"] is None


def test_profile_partials_bounded():
    """Each batch contributes exactly one stats row per column, and the
    distinct exchange carries 32-hex digests, never values."""
    batch = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["x" * 10_000, "y" * 10_000], pa.string()),
        }
    )
    s = _stats_partial(batch)
    assert s.num_rows == 2  # one per column
    d = _distinct_partial(batch)
    assert set(d.column_names) == {"col_name", "digest"}
    assert all(len(x) == 32 for x in d.column("digest").to_pylist())


def test_constraint_report_matches_duckdb(ray_session):
    from safe_zone_ray.functions.profile import (
        documents_constraint_report,
        documents_constraint_report_oracle_sql,
    )

    sf = "/root/testdata/sf0.001"
    got = documents_constraint_report(sf)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{sf}/documents.parquet'")
    want = con.execute(documents_constraint_report_oracle_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    by = {r["constraint_name"]: r for r in got.to_pylist()}
    assert by["text_min_length_100"]["n_violations"] > 0  # non-vacuous fail
    assert by["doc_id_unique"]["passed"] is True


def test_constraint_report_planted_violations(ray_session, tmp_path):
    """Nulls, duplicate ids, out-of-domain lang, n_chars drift and bad
    source patterns must each be counted with exact SQL null semantics
    (IS DISTINCT FROM, NULL-as-out-of-domain)."""
    from safe_zone_ray.functions.profile import (
        documents_constraint_report,
        documents_constraint_report_oracle_sql,
    )

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([1, 1, None, 4], pa.int64()),
            "text": pa.array(["x" * 150, None, "y" * 150, "z" * 50], pa.string()),
            "lang": pa.array(["en", "xx", None, "de"], pa.string()),
            "source": pa.array(["src1", "bad", None, "src22"], pa.string()),
            "n_chars": pa.array([150, None, 150, 49], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet", row_group_size=2)
    got = documents_constraint_report(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = con.execute(documents_constraint_report_oracle_sql()).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    by = {r["constraint_name"]: r["n_violations"] for r in got.to_pylist()}
    assert by == {
        "doc_id_not_null": 1,
        "doc_id_unique": 1,  # duplicates among NON-NULL ids: {1,1} -> 1
        "lang_in_domain": 2,  # 'xx' and NULL
        "n_chars_matches_text": 1,  # row4 49 != 50 (row2 has BOTH null -> not distinct)
        "n_chars_positive": 1,  # NULL n_chars
        "source_matches_pattern": 2,  # 'bad' and NULL
        "text_min_length_100": 2,  # NULL text and the 50-char text
    }


def test_profile_approx_accuracy_vs_exact(ray_session):
    """HLL distinct estimates must stay within 5% of exact per column (the
    bench cardinalities sit in HLL's linear-counting range, where it is
    near-exact); all non-distinct columns are identical to the exact
    profiler's output."""
    from safe_zone_ray.functions.profile import (
        documents_profile,
        documents_profile_approx,
    )

    sf = "/root/testdata/sf0.001"
    exact = {r["col_name"]: r for r in documents_profile(sf).to_pylist()}
    approx = {r["col_name"]: r for r in documents_profile_approx(sf).to_pylist()}
    assert set(exact) == set(approx)
    for name, e in exact.items():
        a = approx[name]
        for k in ("n_rows", "n_nulls", "min_val", "max_val"):
            assert a[k] == e[k], (name, k)
        rel = abs(a["n_distinct_approx"] - e["n_distinct"]) / max(e["n_distinct"], 1)
        assert rel <= 0.05, (name, a["n_distinct_approx"], e["n_distinct"])


def test_table_profile_directory_input(ray_session, tmp_path):
    """Directory (multi-fragment) inputs must profile identically to a
    single-file read — schema probing picks the first fragment's footer."""
    from safe_zone_ray.functions.profile import table_profile

    t = pa.Table.from_pydict(
        {"doc_id": pa.array([3, 1], pa.int64()), "lang": pa.array(["en", "de"])}
    )
    t2 = pa.Table.from_pydict(
        {"doc_id": pa.array([2, 3], pa.int64()), "lang": pa.array(["en", "fr"])}
    )
    d = tmp_path / "frags"
    d.mkdir()
    pq.write_table(t, d / "a.parquet")
    pq.write_table(t2, d / "b.parquet")
    got = {r["col_name"]: r for r in table_profile(str(d), ["doc_id", "lang"]).to_pylist()}
    assert got["doc_id"] == {
        "col_name": "doc_id",
        "n_rows": 4,
        "n_nulls": 0,
        "n_distinct": 3,
        "min_val": "1",
        "max_val": "3",
    }
    assert got["lang"]["n_distinct"] == 3


def test_constraint_report_empty_table(ray_session, tmp_path):
    """An EMPTY shard must still report every constraint as passed with 0
    rows (review finding: row-local constraints vanished on empty input)."""
    from safe_zone_ray.functions.profile import (
        documents_constraint_report,
        documents_constraint_report_oracle_sql,
    )

    t = pa.Table.from_pydict(
        {
            "doc_id": pa.array([], pa.int64()),
            "text": pa.array([], pa.string()),
            "lang": pa.array([], pa.string()),
            "source": pa.array([], pa.string()),
            "n_chars": pa.array([], pa.int64()),
        }
    )
    pq.write_table(t, tmp_path / "documents.parquet")
    got = documents_constraint_report(str(tmp_path))
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{tmp_path}/documents.parquet'"
    )
    want = con.execute(documents_constraint_report_oracle_sql()).fetch_arrow_table()
    assert got.num_rows == 7
    assert got.to_pylist() == want.to_pylist()
    assert all(r["passed"] for r in got.to_pylist())


def test_parquet_schema_empty_dir_raises(tmp_path):
    from safe_zone_ray.functions.profile import _parquet_schema

    import pytest

    with pytest.raises(ValueError, match="no .parquet files"):
        _parquet_schema(str(tmp_path))


def test_constraint_engine_generalizes_to_events(ray_session):
    """The rule-driven engine works on any table: a custom rule set over
    events (uniqueness, domain, positivity) matches its generated SQL."""
    from safe_zone_ray.functions.profile import (
        Constraint,
        constraint_oracle_sql,
        constraint_report,
    )

    rules = (
        Constraint("event_id_unique", "unique", "event_id"),
        Constraint(
            "type_in_domain",
            "in_set",
            "event_type",
            values=("click", "view", "purchase", "signup", "error"),
        ),
        Constraint("value_positive", "positive", "value"),
        Constraint("props_shape", "matches_regex", "props", pattern=r"^\{.*\}$"),
    )
    sf = "/root/testdata/sf0.001"
    got = constraint_report(
        f"{sf}/events.parquet", ["event_id", "event_type", "value", "props"], rules
    )
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{sf}/events.parquet'")
    want = con.execute(constraint_oracle_sql("events", rules)).fetch_arrow_table()
    assert got.to_pylist() == want.to_pylist()
    assert got.num_rows == 4


def test_constraint_rule_validation_and_escaping():
    from safe_zone_ray.functions.profile import (
        Constraint,
        _validate_rules,
        constraint_oracle_sql,
    )

    import pytest

    with pytest.raises(ValueError, match="duplicate"):
        _validate_rules((Constraint("a", "not_null", "x"), Constraint("a", "positive", "x")))
    with pytest.raises(ValueError, match="reserved"):
        _validate_rules((Constraint("_nulls_x", "not_null", "x"),))
    with pytest.raises(ValueError, match="one 'unique'"):
        _validate_rules((Constraint("u1", "unique", "x"), Constraint("u2", "unique", "x")))
    with pytest.raises(ValueError, match="unknown"):
        _validate_rules((Constraint("z", "frobnicate", "x"),))
    # quoted values/pattern must produce parseable SQL
    sql = constraint_oracle_sql(
        "t",
        (
            Constraint("s", "in_set", "col", values=("it's",)),
            Constraint("r", "matches_regex", "col", pattern="a'b"),
        ),
    )
    import duckdb as _d

    con = _d.connect()
    con.execute("CREATE TABLE t AS SELECT 'x' AS col")
    assert con.execute(sql).fetchall()  # parses and runs
