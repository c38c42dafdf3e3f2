"""Dev harness: compare each CTE stage of the decisions SQL oracle against the
Ray pipeline, stage by stage, at a small sf. Usage:
    python scripts/dev_oracle_probe.py [sf_dir] [stage...]
Stages: extract langid metrics cand kept scrub decisions
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import pandas as pd

from safe_zone_ray.oracle.decisions_sql import pages_glob_for, sql_for
from safe_zone_ray.pages import synthesize_pages_dir
from safe_zone_ray.pipelines.quality_filter import PipelineConfig, build_quality_filter


def pipeline_df(sf_dir: str) -> pd.DataFrame:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    ds = build_quality_filter(synthesize_pages_dir(sf_dir), PipelineConfig())
    return ds.to_pandas()


def diff_report(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame, keys=("url",)) -> int:
    ray_df = ray_df.sort_values(list(keys)).reset_index(drop=True)
    sql_df = sql_df.sort_values(list(keys)).reset_index(drop=True)
    if len(ray_df) != len(sql_df):
        print(f"[{name}] ROW MISMATCH ray={len(ray_df)} sql={len(sql_df)}")
        rk = set(map(tuple, ray_df[list(keys)].values.tolist()))
        sk = set(map(tuple, sql_df[list(keys)].values.tolist()))
        print("  only-ray:", list(rk - sk)[:5])
        print("  only-sql:", list(sk - rk)[:5])
        return 1
    bad = 0
    for col in ray_df.columns:
        if col in keys:
            continue
        a, b = ray_df[col], sql_df[col]
        neq = a.astype(str) != b.astype(str)
        if neq.any():
            bad += 1
            i = neq.idxmax()
            print(f"[{name}] col {col}: {int(neq.sum())}/{len(a)} differ; first @ {ray_df.iloc[i][list(keys)].to_dict()}")
            print(f"   ray={a.iloc[i]!r}\n   sql={b.iloc[i]!r}")
    if not bad:
        print(f"[{name}] OK ({len(ray_df)} rows)")
    return bad


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    stages = sys.argv[2:] or ["extract", "langid", "metrics", "cand", "decisions"]
    synthesize_pages_dir(sf_dir)
    glob = pages_glob_for(sf_dir)
    con = duckdb.connect()
    pdf = pipeline_df(sf_dir)
    fails = 0

    if "extract" in stages:
        sql_df = con.sql(sql_for("SELECT url, host, text FROM norm", glob)).df()
        ray_df = pdf[["url", "host", "text_extracted"]].rename(columns={"text_extracted": "text"})
        fails += diff_report("extract", ray_df, sql_df)

    if "langid" in stages:
        sql_df = con.sql(
            sql_for(
                "SELECT n.url, COALESCE(li.lang_id, 'und') AS lang_id FROM norm n "
                "LEFT JOIN langid li USING (url)",
                glob,
            )
        ).df()
        fails += diff_report("langid", pdf[["url", "lang_id"]], sql_df)

    if "metrics" in stages:
        sql_df = con.sql(
            sql_for(
                "SELECT n.url, COALESCE(t.n_words, 0) AS n_words,"
                " COALESCE(t.word_chars, 0) AS word_chars, n.sym_hits,"
                " COALESCE(t.hits_en, 0) AS hits_en,"
                " COALESCE(ls.n_lines, 0) AS n_lines, COALESCE(ls.n_uniq, 0) AS n_uniq,"
                " round(COALESCE(p.ppl, 39.0), 6) AS ppl6"
                " FROM norm n LEFT JOIN tokstats t USING (url)"
                " LEFT JOIN linestats ls USING (url) LEFT JOIN ppl p USING (url)",
                glob,
            )
        ).df()
        import numpy as np

        q = pdf["quality"]
        ray_df = pd.DataFrame(
            {
                "url": pdf["url"],
                "n_words": [x["n_words"] for x in q],
                "ppl6": np.round(pdf["perplexity"].astype(float), 6),
            }
        )
        # compare only n_words + rounded ppl here (word_chars etc. are internal)
        merged = ray_df.merge(sql_df[["url", "n_words", "ppl6"]], on="url", suffixes=("_r", "_s"))
        nw_bad = (merged["n_words_r"] != merged["n_words_s"]).sum()
        # perplexity column in pipeline is float32 — compare loosely
        pp_bad = (abs(merged["ppl6_r"] - merged["ppl6_s"]) > 1e-3).sum()
        print(f"[metrics] n_words diffs={nw_bad} ppl>1e-3 diffs={pp_bad}")
        if nw_bad or pp_bad:
            fails += 1
            bad = merged[(merged["n_words_r"] != merged["n_words_s"])].head(3)
            print(bad)
            badp = merged[abs(merged["ppl6_r"] - merged["ppl6_s"]) > 1e-3].head(3)
            print(badp)

    if "cand" in stages:
        sql_df = con.sql(
            sql_for("SELECT url, type, val, mstart, mend FROM cand ORDER BY url, mstart, mend, type", glob)
        ).df()
        # ray side: re-run detect_one per row to get raw candidate spans is
        # overkill; compare against kept detections instead (subset check) —
        # full kept comparison happens via 'decisions'/'scrub'.
        rows = []
        for url, dets in zip(pdf["url"], pdf["detections"]):
            for d in dets:
                rows.append((url, d["type"], d["value"], d["start"], d["end"]))
        ray_kept = pd.DataFrame(rows, columns=["url", "type", "val", "mstart", "mend"])
        sql_kept = con.sql(
            sql_for("SELECT url, type, val, mstart, mend FROM kept ORDER BY url, rn", glob)
        ).df()
        fails += diff_report(
            "kept-detections",
            ray_kept.sort_values(["url", "mstart", "mend", "type"]).reset_index(drop=True),
            sql_kept.sort_values(["url", "mstart", "mend", "type"]).reset_index(drop=True),
            keys=("url", "mstart"),
        )
        print(f"[cand] sql candidate rows: {len(sql_df)} (ray kept rows: {len(ray_kept)})")

    if "decisions" in stages:
        sql_df = con.sql(
            sql_for(
                "SELECT url, host, lang_id, contains_pii, pii_blocked, keep, drop_reason,"
                " scrubbed_text FROM final",
                glob,
            )
        ).df()
        ray_df = pdf[
            ["url", "host", "lang_id", "contains_pii", "pii_blocked", "keep", "drop_reason", "scrubbed_text"]
        ]
        fails += diff_report("decisions", ray_df, sql_df)

    print(f"\n{fails} failing stages")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
