"""URL canonicalization + host-level filtering over the pages table.

RefinedWeb/CCNet-style URL hygiene (Penedo et al. 2023, arXiv:2306.01116
§3.1 "URL filtering"): before any content-based scoring, a crawl pipeline
canonicalizes every URL and drops documents whose host is on a blocklist
or whose URL shape signals boilerplate (deep paths, tracking queries).

``url_filter_stats`` emits, per page:

- ``host_norm``  — lowercased registrable host: userinfo (``user@``) and
  ``:port`` stripped, a single leading ``www.`` removed.
- ``path_depth`` — number of non-empty ``/``-separated path segments.
- ``has_query``  — URL carries a ``?query`` part.
- ``url_len``    — total URL length (Gopher drops absurdly long URLs).
- ``is_blocked`` — ``host_norm`` is on the (broadcast) host blocklist.

Everything is one vectorized Arrow RE2 pass per batch — the same regexes
run in the DuckDB oracle, so the result is hash-verified end-to-end. The
blocklist is a small broadcast side (``ray.put`` once at 100-TB scale; here
it is a module constant compiled into both engines), never a shuffle join.

Reference parity note: the reference engine (thyrisAI/safe-zone) scans
content only — URL hygiene is a driver-brief "beyond the reference"
training-data operator.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# Seed blocklist: the most Zipf-loaded synthetic host (exercises the skew
# path — ~25% of pages) plus classic link-farm shapes a real list carries.
BLOCKED_HOSTS = (
    "web00.example-com",
    "ads.example-net",
    "tracker.example-org",
)

# scheme://[userinfo@]host[:port]/path[?query][#fragment]
# Named group (RE2 names are still numbered: group 1 in DuckDB, field
# "g" for pyarrow extract_regex — same pattern string in both engines).
_AUTHORITY_RE = r"^[a-z][a-z0-9+.\-]*://(?P<g>[^/?#]*)"
_PATH_RE = r"^[a-z][a-z0-9+.\-]*://[^/?#]*(?P<g>[^?#]*)"


def _canonical_hosts(urls: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Vectorized host canonicalization (lower, strip userinfo/port/www)."""
    lower = pc.utf8_lower(pc.fill_null(urls, ""))
    auth = pc.extract_regex(lower, _AUTHORITY_RE)
    auth = pc.fill_null(pc.struct_field(auth, "g"), "")
    # strip userinfo: keep everything after the LAST '@'
    auth = pc.replace_substring_regex(auth, r"^.*@", "")
    # strip :port
    auth = pc.replace_substring_regex(auth, r":\d*$", "")
    # strip ONE leading www.
    auth = pc.replace_substring_regex(auth, r"^www\.", "")
    if isinstance(auth, pa.ChunkedArray):
        auth = auth.combine_chunks()
    return auth


def url_filter_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-page URL canonicalization + blocklist stats (see module doc)."""
    from safe_zone_ray.pages import synthesize_pages_dir

    pages_dir = synthesize_pages_dir(sf_dir)
    blocked = np.array(sorted(BLOCKED_HOSTS), dtype=object)

    def kernel(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        lower = pc.utf8_lower(pc.fill_null(urls, ""))
        host = _canonical_hosts(urls)
        path = pc.fill_null(
            pc.struct_field(pc.extract_regex(lower, _PATH_RE), "g"), ""
        )
        depth = pc.cast(pc.count_substring_regex(path, r"[^/]+"), pa.int64())
        has_query = pc.match_substring_regex(lower, r"^[^#]*\?")
        url_len = pc.cast(pc.utf8_length(pc.fill_null(urls, "")), pa.int64())
        is_blocked = pa.array(
            np.isin(host.to_numpy(zero_copy_only=False), blocked)
        )
        return pa.Table.from_arrays(
            [urls, host, depth, has_query, url_len, is_blocked],
            names=[
                "url",
                "host_norm",
                "path_depth",
                "has_query",
                "url_len",
                "is_blocked",
            ],
        )

    return ray.data.read_parquet(pages_dir, columns=["url"]).map_batches(
        kernel, batch_format="pyarrow"
    )


def url_filter_oracle_sql(pages_glob: str) -> str:
    """DuckDB twin over the same pages parquet (same RE2 patterns)."""
    blocked = ", ".join(f"'{h}'" for h in sorted(BLOCKED_HOSTS))
    return f"""
        WITH u AS (
            SELECT url, lower(coalesce(url, '')) AS lu
            FROM read_parquet('{pages_glob}')
        ),
        h AS (
            SELECT url, lu,
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(
                         coalesce(regexp_extract(lu, '{_AUTHORITY_RE}', 1), ''),
                         '^.*@', ''),
                       ':\\d*$', ''),
                     '^www\\.', '') AS host_norm,
                   coalesce(regexp_extract(lu, '{_PATH_RE}', 1), '') AS path
            FROM u
        )
        SELECT url,
               host_norm,
               CAST(length(regexp_extract_all(path, '[^/]+')) AS BIGINT) AS path_depth,
               regexp_matches(lu, '^[^#]*\\?') AS has_query,
               CAST(length(coalesce(url, '')) AS BIGINT) AS url_len,
               host_norm IN ({blocked}) AS is_blocked
        FROM h
    """


def canonical_url_dedup(sf_dir: str) -> ray.data.Dataset:
    """Crawl-level URL dedup: pages whose CANONICAL url (lowercased host
    with userinfo/port/www stripped + path with query/fragment dropped and
    trailing slashes trimmed) collides keep only the EARLIEST capture
    (min (warc_ts, url) — the deterministic total order the oracle uses).
    Output (canon_url, url, warc_ts, n_dups).

    Scale shape: the kernel projects each page to (canon, url, ts) before
    the exchange — the shuffle never carries html/text payloads, and the
    groupby key is the canonical url (same cardinality class as the page
    count). Reference: crawl dedup by canonicalized URL is the first
    dedup stage of CCNet/RefinedWeb-style pipelines."""
    from safe_zone_ray.pages import synthesize_pages_dir

    pages_dir = synthesize_pages_dir(sf_dir)

    def kernel(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        lower = pc.utf8_lower(pc.fill_null(urls, ""))
        host = _canonical_hosts(urls)
        path = pc.fill_null(pc.struct_field(pc.extract_regex(lower, _PATH_RE), "g"), "")
        path = pc.replace_substring_regex(path, r"/+$", "")
        canon = pc.binary_join_element_wise(host, path, "")
        return pa.Table.from_arrays(
            [canon, urls, batch.column("warc_ts")],
            names=["canon_url", "url", "warc_ts"],
        )

    def keep_first(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group, sort_keys=[("warc_ts", "ascending"), ("url", "ascending")]
        )
        first = group.take(order[:1])
        return first.append_column(
            "n_dups", pa.array([group.num_rows], pa.int64())
        )

    return (
        ray.data.read_parquet(pages_dir, columns=["url", "warc_ts"])
        .map_batches(kernel, batch_format="pyarrow")
        .groupby("canon_url")
        .map_groups(keep_first, batch_format="pyarrow")
    )


def canonical_url_dedup_oracle_sql(pages_glob: str) -> str:
    return f"""
        WITH c AS (
            SELECT url, warc_ts,
                   regexp_replace(
                     regexp_replace(
                       regexp_replace(
                         coalesce(regexp_extract(lower(coalesce(url, '')), '{_AUTHORITY_RE}', 1), ''),
                         '^.*@', ''),
                       ':\\d*$', ''),
                     '^www\\.', '')
                   || regexp_replace(
                        coalesce(regexp_extract(lower(coalesce(url, '')), '{_PATH_RE}', 1), ''),
                        '/+$', '') AS canon_url
            FROM read_parquet('{pages_glob}')
        ),
        r AS (
            SELECT canon_url, url, warc_ts,
                   row_number() OVER (PARTITION BY canon_url
                                      ORDER BY warc_ts, url) AS rn,
                   count(*) OVER (PARTITION BY canon_url) AS n_dups
            FROM c
        )
        SELECT canon_url, url, warc_ts, CAST(n_dups AS BIGINT) AS n_dups
        FROM r WHERE rn = 1
    """
