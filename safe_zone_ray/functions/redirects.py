"""Redirect-chain resolution by DISTRIBUTED pointer doubling, oracle-backed.

Crawl archives carry redirect hops (3xx chains); curation needs every URL
resolved to its final destination before dedup/canonicalization. The repo's
connected-components already use pointer doubling, but components have no
SQL twin (iterative); THIS operator is the oracle-backed demonstration of
the same technique: successor-function composition f -> f∘f -> f⁴ in
ceil(log2(max_hops)) distributed rounds, verified hash-exact against a
DuckDB ``WITH RECURSIVE`` walk of the same chains.

Derived-input discipline (``functions/outlinks.py``): page ``/d/v``
redirects to ``/d/(v-1)`` iff ``d % 4 < 2`` and ``v > 0`` — hosts with
``d % 4 < 2`` carry chains ``/d/3 → /d/2 → /d/1 → /d/0`` of up to 3 hops,
so one doubling round is insufficient and the composition logic is
genuinely exercised.

Scale shape: the mapping is (url, next, hops) rows; each composition round
is ONE url-keyed union+groupby (query rows keyed by their current target,
answer rows keyed by their source; ``map_groups`` joins them — no driver
materialisation, no broadcast of anything corpus-sized).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

RED_M, RED_T = 4, 2  # /d/v redirects iff d % 4 < 2 and v > 0
MAX_HOPS = 3  # v in 0..3 in the synthesized corpus
_URL_RE = r"://(?P<h>[^/]+)/(?P<d>[0-9]+)/(?P<v>[0-9]+)$"


def _initial_map(batch: pa.Table) -> pa.Table:
    """url → (next, hops): one redirect step, or self with 0 hops. A url
    that does not match ://host/<digits>/<digits> (or is null) is terminal
    — the same semantics as the SQL twin's non-matching regexp_extract."""
    urls = pc.fill_null(batch.column("url"), "")
    ex = pc.extract_regex(urls, _URL_RE)
    valid = pc.is_valid(ex).to_numpy(zero_copy_only=False)
    h = pc.struct_field(ex, "h").to_numpy(zero_copy_only=False)
    d_raw = pc.struct_field(ex, "d").to_numpy(zero_copy_only=False)
    v_raw = pc.struct_field(ex, "v").to_numpy(zero_copy_only=False)
    d = np.where(valid, d_raw, 0).astype(np.int64)
    v = np.where(valid, v_raw, 0).astype(np.int64)
    u = urls.to_numpy(zero_copy_only=False)
    redirects = valid & (d % RED_M < RED_T) & (v > 0)
    nxt = u.astype(object).copy()
    ridx = np.nonzero(redirects)[0]
    nxt[ridx] = [
        f"https://{h[i]}/{d[i]}/{v[i] - 1}" for i in ridx
    ]  # string build only for the redirecting minority
    return pa.table(
        {
            "url": pa.array(u, pa.string()),
            "next": pa.array(nxt, pa.string()),
            "hops": pa.array(redirects.astype(np.int64)),
        }
    )


def _compose(mapping: ray.data.Dataset) -> ray.data.Dataset:
    """One doubling round: g(u) = f(f(u)), hops added. Union+groupby join:
    query rows keyed by f(u), answer rows keyed by u — every key holds
    exactly one answer row (f is total), so each group joins locally."""

    def tag_query(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t.column("next"),
                "url": t.column("url"),
                "hops": t.column("hops"),
                "next": t.column("next"),
                "is_answer": pa.array(np.zeros(t.num_rows, dtype=np.int8)),
            }
        )

    def tag_answer(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "key": t.column("url"),
                "url": t.column("url"),
                "hops": t.column("hops"),
                "next": t.column("next"),
                "is_answer": pa.array(np.ones(t.num_rows, dtype=np.int8)),
            }
        )

    tagged = mapping.map_batches(tag_query, batch_format="pyarrow").union(
        mapping.map_batches(tag_answer, batch_format="pyarrow")
    )

    def join_group(t: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [
                pa.array([], pa.string()),
                pa.array([], pa.string()),
                pa.array([], pa.int64()),
            ],
            names=["url", "next", "hops"],
        )
        is_a = t.column("is_answer").to_numpy(zero_copy_only=False).astype(bool)
        if is_a.all():
            return empty  # answer-only key: no queries point here
        if is_a.any():
            a_next = t.column("next").to_numpy(zero_copy_only=False)[is_a][0]
            a_hops = int(t.column("hops").to_numpy(zero_copy_only=False)[is_a][0])
        else:
            # key not in the mapping: a redirect TARGET that is not itself a
            # crawled page (hosts differ per variant, so /d/(v-1) may be
            # phantom). Identity there — exactly where the SQL recursive
            # walk stops because no step row joins.
            a_next = t.column("key").to_numpy(zero_copy_only=False)[0]
            a_hops = 0
        q_urls = t.column("url").to_numpy(zero_copy_only=False)[~is_a]
        q_hops = t.column("hops").to_numpy(zero_copy_only=False)[~is_a]
        return pa.table(
            {
                "url": pa.array(q_urls, pa.string()),
                "next": pa.array([a_next] * len(q_urls), pa.string()),
                "hops": pa.array(q_hops + a_hops, pa.int64()),
            }
        )

    return tagged.groupby("key").map_groups(join_group, batch_format="pyarrow")


def resolve_redirects(
    urls_ds: ray.data.Dataset, max_hops: int = MAX_HOPS
) -> ray.data.Dataset:
    """Pointer-doubling resolution of a url Dataset (module docstring)."""
    import math

    mapping = urls_ds.map_batches(_initial_map, batch_format="pyarrow")
    for _ in range(max(1, math.ceil(math.log2(max_hops + 1)))):
        # checkpoint each round: _compose self-unions the mapping, and Ray
        # Data unions re-execute upstream lineage — without this the read +
        # every earlier round re-runs 2^rounds times. Iterative-fixpoint
        # state is the legitimate exception to the no-mid-pipeline-
        # materialize rule (state is O(urls) rows of 3 short columns).
        mapping = _compose(mapping.materialize())
    return mapping.map_batches(
        lambda t: t.rename_columns(["url", "final_url", "hops"]),
        batch_format="pyarrow",
    )


def redirect_final_targets(sf_dir: str, pages_dir: str | None = None) -> ray.data.Dataset:
    """(url, final_url, hops) for every page URL (module docstring)."""
    from safe_zone_ray.pages import synthesize_pages_dir

    pages_dir = pages_dir or synthesize_pages_dir(sf_dir)
    return resolve_redirects(ray.data.read_parquet(pages_dir, columns=["url"]))


def redirect_final_targets_oracle_sql(pages_glob: str) -> str:
    return f"""
WITH RECURSIVE p AS (
  SELECT url,
         regexp_extract(url, '://([^/]+)', 1) AS host,
         CAST(regexp_extract(url, '://[^/]+/([0-9]+)/', 1) AS BIGINT) AS d,
         CAST(regexp_extract(url, '/([0-9]+)$', 1) AS BIGINT) AS v
  FROM read_parquet('{pages_glob}')
),
step AS (
  SELECT url,
         CASE WHEN d % {RED_M} < {RED_T} AND v > 0
              THEN 'https://' || host || '/' || d || '/' || (v - 1)
         END AS nxt
  FROM p
),
walk AS (
  SELECT url, url AS cur, 0 AS hops FROM p
  UNION ALL
  SELECT w.url, s.nxt AS cur, w.hops + 1 AS hops
  FROM walk w JOIN step s ON s.url = w.cur
  WHERE s.nxt IS NOT NULL
)
SELECT url, cur AS final_url, CAST(hops AS BIGINT) AS hops
FROM (
  SELECT *, row_number() OVER (PARTITION BY url ORDER BY hops DESC) AS rn
  FROM walk
) WHERE rn = 1
"""
