"""Redirect-chain pointer doubling: controlled multi-hop fixture + the
corpus-level parity that backs the `redirect_final_targets` oracle entry."""

import duckdb
import pyarrow as pa

from safe_zone_ray.functions.redirects import (
    redirect_final_targets,
    redirect_final_targets_oracle_sql,
    resolve_redirects,
)
from safe_zone_ray.oracle.decisions_sql import pages_glob_for
from safe_zone_ray.pages import synthesize_pages_dir

SF = "/root/testdata/sf0.001"


def test_resolve_redirects_full_three_hop_chain(ray_session):
    """A same-host chain /4/3 → /4/2 → /4/1 → /4/0 (d=4, d%4<2) must fully
    resolve in the two doubling rounds — the case the real corpus rarely
    exercises because hosts differ per variant."""
    import ray.data

    urls = [f"https://chain.example/4/{v}" for v in range(4)]  # d=4 redirects
    urls += [f"https://chain.example/3/{v}" for v in range(4)]  # d=3 terminal
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls, pa.string())})
    )
    got = {r["url"]: (r["final_url"], r["hops"]) for r in resolve_redirects(ds).take_all()}
    assert len(got) == 8
    for v in range(4):
        assert got[f"https://chain.example/4/{v}"] == (
            "https://chain.example/4/0",
            v,
        )
        assert got[f"https://chain.example/3/{v}"] == (
            f"https://chain.example/3/{v}",
            0,
        )


def test_resolve_redirects_phantom_target_terminates(ray_session):
    """A redirect whose target page was never crawled resolves to the
    phantom url with one hop (identity at unknown keys — the SQL walk's
    stop semantics)."""
    import ray.data

    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(["https://x.example/8/1"], pa.string())})
    )
    rows = resolve_redirects(ds).take_all()
    assert rows == [
        {"url": "https://x.example/8/1", "final_url": "https://x.example/8/0", "hops": 1}
    ]


def test_redirect_final_targets_oracle_parity(ray_session):
    synthesize_pages_dir(SF)
    got = {
        r["url"]: (r["final_url"], r["hops"])
        for r in redirect_final_targets(SF).take_all()
    }
    want = {
        r[0]: (r[1], r[2])
        for r in duckdb.sql(
            redirect_final_targets_oracle_sql(pages_glob_for(SF))
        ).fetchall()
    }
    assert got == want
    assert len(got) == 2000
    assert any(h > 0 for _, h in got.values()), "corpus must contain redirects"
