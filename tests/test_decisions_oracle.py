"""The generated DuckDB SQL oracle for the flagship pipeline must agree with
the Ray pipeline row-for-row, and the corpus-scoped simplifications the SQL
makes (documented in safe_zone_ray/oracle/decisions_sql.py) must actually hold
on the synthesized corpus."""

from __future__ import annotations

import re

import duckdb
import pandas as pd
import pytest

from safe_zone_ray.oracle.decisions_sql import (
    pages_glob_for,
    sql_for,
    winnow_oracle_sql,
)
from safe_zone_ray.pages import synthesize_pages_dir

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def pages_dir():
    return synthesize_pages_dir(SF)


@pytest.fixture(scope="module")
def con(pages_dir):
    c = duckdb.connect()
    c.sql(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{SF}/documents.parquet')"
    )
    return c


@pytest.fixture(scope="module")
def decisions_df(ray_session, pages_dir):
    from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter

    return build_quality_filter(pages_dir, PipelineConfig()).to_pandas()


def _cmp(ray_df: pd.DataFrame, sql_df: pd.DataFrame, keys: list[str]):
    ray_df = ray_df.sort_values(keys).reset_index(drop=True)
    sql_df = sql_df.reindex(ray_df.columns, axis=1).sort_values(keys).reset_index(drop=True)
    assert len(ray_df) == len(sql_df)
    for col in ray_df.columns:
        neq = ray_df[col].astype(str) != sql_df[col].astype(str)
        assert not neq.any(), (
            f"column {col}: {int(neq.sum())} diffs; first: "
            f"ray={ray_df[col][neq].iloc[0]!r} sql={sql_df[col][neq].iloc[0]!r}"
        )


def test_corpus_assumptions_hold(con, pages_dir, decisions_df):
    """The documented corpus-scoped simplifications of the SQL chain."""
    texts = decisions_df["text_extracted"].tolist()
    ent = re.compile(r"&#?\w+;")
    assert not any(ent.search(t or "") for t in texts), "corpus grew HTML entities"
    assert not any(
        any(ord(c) >= 0x2E80 for c in (t or "")) for t in texts
    ), "corpus grew CJK codepoints (SQL omits the CJK langid short-circuit)"
    # perplexity threshold safety margin: float-sum ordering differs between
    # numpy and DuckDB, so no document may sit within 1e-3 of the threshold
    margin = (decisions_df["perplexity"].astype(float) - 26.0).abs().min()
    assert margin > 1e-3, f"perplexity margin too small: {margin}"


def test_decisions_sql_matches_pipeline(con, pages_dir, decisions_df):
    sql_df = con.sql(
        sql_for(
            "SELECT url, host, lang_id, contains_pii, pii_blocked, keep,"
            " drop_reason, scrubbed_text FROM final",
            pages_glob_for(SF),
        )
    ).df()
    ray_df = decisions_df[
        ["url", "host", "lang_id", "contains_pii", "pii_blocked", "keep", "drop_reason", "scrubbed_text"]
    ]
    _cmp(ray_df, sql_df, ["url"])


def test_kept_detections_match_pipeline(con, pages_dir, decisions_df):
    rows = []
    for url, dets in zip(decisions_df["url"], decisions_df["detections"]):
        for d in dets:
            rows.append((url, d["type"], d["value"], d["start"], d["end"]))
    ray_df = pd.DataFrame(rows, columns=["url", "type", "val", "mstart", "mend"])
    sql_df = con.sql(
        sql_for("SELECT url, type, val, mstart, mend FROM kept", pages_glob_for(SF))
    ).df()
    _cmp(
        ray_df.sort_values(["url", "mstart", "mend", "type"]),
        sql_df.sort_values(["url", "mstart", "mend", "type"]),
        ["url", "mstart", "mend", "type"],
    )
    assert len(ray_df) > 100, "corpus should contain plenty of detections"


def test_winnow_sql_matches_python(con):
    import pyarrow.parquet as pq

    from safe_zone_ray.functions.textstats import winnow_fingerprints_of

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    rows = []
    for doc_id, t in zip(docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()):
        for h in winnow_fingerprints_of(t or ""):
            rows.append((doc_id, h))
    ray_df = pd.DataFrame(rows, columns=["doc_id", "fingerprint"])
    sql_df = con.sql(winnow_oracle_sql()).df()
    _cmp(
        ray_df.sort_values(["doc_id", "fingerprint"]),
        sql_df.sort_values(["doc_id", "fingerprint"]),
        ["doc_id", "fingerprint"],
    )


def test_extract_sql_refuses_case_fold_tag_names():
    """Tag names spelled with ı, İ or ſ fold differently in RE2 and in the
    frozen extractor, so the SQL extraction must raise on them rather than
    return text that differs from ``extract_text``; other rows pass."""
    from safe_zone_ray.extract import extract_text
    from safe_zone_ray.oracle.decisions_sql import _extract_expr

    c = duckdb.connect()
    sql = f"SELECT {_extract_expr('h')} FROM (SELECT ? AS h)"
    for html in ("a<p>b", "a <b>ı</b> b"):
        assert c.execute(sql, [html]).fetchone()[0] == extract_text(html)
    for html in (
        "a<lı>b", "a<scrİpt>x</script>b", "<ſcript>x</script>y", "x<ſtyle>q</style>z"
    ):
        with pytest.raises(duckdb.Error, match="Kelvin sign"):
            c.execute(sql, [html]).fetchone()


def test_rule_ablation_oracle_parity_and_invariants(ray_session, pages_dir):
    """Per-rule ablation: exact DuckDB parity (same bitmask re-derived in
    the recursive chain) + the structural invariants that make the report
    trustworthy: unique drops <= priority-attributed <= independent flags,
    and attributed counts sum to the total dropped-doc count."""
    from safe_zone_ray.oracle.decisions_sql import decision_oracle_sqls
    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
        rule_ablation,
    )

    got = rule_ablation(
        build_quality_filter(pages_dir, PipelineConfig())
    ).to_pandas()
    sql = decision_oracle_sqls(pages_glob_for(SF))["quality_filter_rule_ablation"]
    want = duckdb.connect().execute(sql).df()
    g = got.sort_values("rule").reset_index(drop=True)
    w = want.sort_values("rule").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        g, w[g.columns].astype(g.dtypes.to_dict()), check_dtype=False
    )
    assert (got.n_unique_drops <= got.n_attributed).all()
    assert (got.n_attributed <= got.n_flagged).all()
    # attribution partitions the dropped docs exactly
    dec = build_quality_filter(pages_dir, PipelineConfig()).select_columns(["keep"])
    n_dropped = sum(
        int((~b.column("keep").to_numpy(zero_copy_only=False)).sum())
        for b in dec.iter_batches(batch_format="pyarrow")
    )
    assert int(got.n_attributed.sum()) == n_dropped
    assert int(got.n_flagged.sum()) > 0


def test_rule_overlap_matrix_oracle_parity_and_symmetry(ray_session, pages_dir):
    """Rule x rule co-occurrence: DuckDB parity, symmetry, and diagonal ==
    the ablation report's independent flag counts."""
    from safe_zone_ray.oracle.decisions_sql import decision_oracle_sqls
    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
        rule_ablation,
        rule_overlap_matrix,
    )

    dec = build_quality_filter(pages_dir, PipelineConfig())
    got = rule_overlap_matrix(dec).to_pandas()
    sql = decision_oracle_sqls(pages_glob_for(SF))["quality_filter_rule_overlap"]
    want = duckdb.connect().execute(sql).df()
    key = ["rule_a", "rule_b"]
    g = got.sort_values(key).reset_index(drop=True)
    w = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w[g.columns], check_dtype=False)
    # symmetric matrix
    m = got.set_index(key)["n_both"]
    for (a, b), v in m.items():
        assert m[(b, a)] == v
    # diagonal equals the ablation report's n_flagged
    abl = rule_ablation(
        build_quality_filter(pages_dir, PipelineConfig())
    ).to_pandas().set_index("rule")
    for r, v in abl.n_flagged.items():
        assert m[(r, r)] == v


def test_pii_position_histogram_oracle_parity(ray_session, con, pages_dir):
    """Span-locality histogram: DuckDB parity + totals equal the kept
    detection count and every decile sits in [0, 9]."""
    from safe_zone_ray.oracle.decisions_sql import decision_oracle_sqls
    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
        pii_position_histogram,
    )

    dec = build_quality_filter(pages_dir, PipelineConfig())
    got = pii_position_histogram(dec).to_pandas()
    sql = decision_oracle_sqls(pages_glob_for(SF))["pii_position_histogram"]
    want = con.sql(sql).df()
    key = ["type", "pos_decile"]
    g = got.sort_values(key).reset_index(drop=True)
    w = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w[g.columns], check_dtype=False)
    assert got.pos_decile.between(0, 9).all()
    n_kept = con.sql(
        sql_for("SELECT count(*) AS n FROM kept", pages_glob_for(SF))
    ).df()["n"][0]
    assert int(got.n_detections.sum()) == int(n_kept)


def test_keep_rate_by_length_bucket_oracle_parity(ray_session, con, pages_dir):
    """Length-bucket calibration: DuckDB parity + doc totals partition the
    corpus and the ppm rate is the exact floor-division of its own counts."""
    from safe_zone_ray.oracle.decisions_sql import decision_oracle_sqls
    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
        keep_rate_by_length_bucket,
    )

    dec = build_quality_filter(pages_dir, PipelineConfig())
    got = keep_rate_by_length_bucket(dec).to_pandas()
    sql = decision_oracle_sqls(pages_glob_for(SF))["keep_rate_by_length_bucket"]
    want = con.sql(sql).df()
    g = got.sort_values("length_bucket").reset_index(drop=True)
    w = want.sort_values("length_bucket").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w[g.columns], check_dtype=False)
    n_total = con.sql(
        sql_for("SELECT count(*) AS n FROM final", pages_glob_for(SF))
    ).df()["n"][0]
    assert int(got.n_docs.sum()) == int(n_total)
    assert (
        got.keep_rate_ppm == (got.n_kept * 1_000_000) // got.n_docs
    ).all()
    assert got.length_bucket.is_monotonic_increasing


def test_host_lang_diversity_oracle_parity(ray_session, con, pages_dir):
    """Per-host Simpson index: DuckDB parity + ppm bounds and the
    monolingual-host invariant (n_langs == 1 -> simpson_ppm == 1e6 when
    n_docs > 1)."""
    from safe_zone_ray.oracle.decisions_sql import decision_oracle_sqls
    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
        host_lang_diversity,
    )

    dec = build_quality_filter(pages_dir, PipelineConfig())
    got = host_lang_diversity(dec).to_pandas()
    sql = decision_oracle_sqls(pages_glob_for(SF))["host_lang_diversity"]
    want = con.sql(sql).df()
    g = got.sort_values("host").reset_index(drop=True)
    w = want.sort_values("host").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w[g.columns], check_dtype=False)
    assert got.simpson_ppm.between(0, 1_000_000).all()
    mono = got[(got.n_langs == 1) & (got.n_docs > 1)]
    assert (mono.simpson_ppm == 1_000_000).all()
    assert len(got) == got.host.nunique()


def test_host_lang_diversity_widen_rejects_pair_count_overflow():
    """c*(c-1) must be checked before it is computed: a (host, lang) count
    above ~3.04e9 would wrap int64 silently."""
    import pyarrow as pa

    from safe_zone_ray.pipelines.quality_filter import _MAX_PAIR_COUNT, _widen_lang_counts

    def part(c):
        return pa.table({"host": ["h"], "lang_id": ["en"], "sum(c)": pa.array([c], pa.int64())})

    top = _widen_lang_counts(part(_MAX_PAIR_COUNT))
    assert top.column("c2").to_pylist() == [_MAX_PAIR_COUNT * (_MAX_PAIR_COUNT - 1)]
    for c in (_MAX_PAIR_COUNT + 1, 3_100_000_000):
        with pytest.raises(OverflowError):
            _widen_lang_counts(part(c))


def test_keep_rate_by_crawl_day_oracle_parity(ray_session, con, pages_dir):
    """Crawl-day drift: DuckDB parity + day totals partition the corpus and
    days span the generator's 30-day window."""
    from safe_zone_ray.oracle.decisions_sql import decision_oracle_sqls
    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
        keep_rate_by_crawl_day,
    )

    dec = build_quality_filter(pages_dir, PipelineConfig())
    got = keep_rate_by_crawl_day(dec).to_pandas()
    sql = decision_oracle_sqls(pages_glob_for(SF))["keep_rate_by_crawl_day"]
    want = con.sql(sql).df()
    g = got.sort_values("crawl_day").reset_index(drop=True)
    w = want.sort_values("crawl_day").reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w[g.columns], check_dtype=False)
    n_total = con.sql(
        sql_for("SELECT count(*) AS n FROM final", pages_glob_for(SF))
    ).df()["n"][0]
    assert int(got.n_docs.sum()) == int(n_total)
    assert got.crawl_day.max() - got.crawl_day.min() <= 30


def test_pii_confidence_histogram_oracle_parity(ray_session, con, pages_dir):
    """Confidence histogram: DuckDB parity + totals equal the kept detection
    count and buckets are plausible centi-confidences."""
    from safe_zone_ray.oracle.decisions_sql import decision_oracle_sqls
    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
        pii_confidence_histogram,
    )

    dec = build_quality_filter(pages_dir, PipelineConfig())
    got = pii_confidence_histogram(dec).to_pandas()
    sql = decision_oracle_sqls(pages_glob_for(SF))["pii_confidence_histogram"]
    want = con.sql(sql).df()
    key = ["type", "conf_centi"]
    g = got.sort_values(key).reset_index(drop=True)
    w = want.sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w[g.columns], check_dtype=False)
    # BLOCKLIST detections carry confidence 0; pattern hits are positive
    assert got.conf_centi.between(0, 100).all()
    assert (got.loc[got.type != "BLOCKLIST", "conf_centi"] > 0).all()
    n_kept = con.sql(
        sql_for("SELECT count(*) AS n FROM kept", pages_glob_for(SF))
    ).df()["n"][0]
    assert int(got.n_detections.sum()) == int(n_kept)
