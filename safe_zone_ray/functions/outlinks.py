"""Outlink extraction → host link graph, end-to-end through REAL html parsing.

The web-curation link graph (PageRank seeds, spam-farm detection, crawl
frontier scoring) starts from ``<a href>`` extraction over raw page html.
This module runs that path honestly on Ray Data:

1. a synth stage derives a linked-pages batch from ``documents`` — html
   bytes with PLANTED anchors whose targets follow a closed-form integer
   formula (``dsti = (doc_id*SPREAD + k*STRIDE) % PRIME % n_hosts``, ``k <
   doc_id % (MAX_LINKS+1)``), so the oracle can re-derive every input
   row from ``documents`` alone;
2. an extract stage recovers every href with the VECTORIZED Arrow RE2
   extract-all trick (``replace_substring_regex`` collapsing each
   ``href="..."`` match to its capture + unit separator, then
   ``split_pattern`` + ``list_flatten`` — no per-row Python in the hot
   path), maps each target to its host (another RE2 rewrite), and emits
   (src_host, dst_host) pairs;
3. one bounded groupby folds the pairs to weighted edges.

ORACLE-CHECKED: the DuckDB twin computes the expected edge list directly
from the planting formula (``generate_series`` per doc joined to the sorted
host index) — parity proves the html round-trip recovered exactly the
planted links. Scale shape: the html never crosses an exchange (synth and
extract fuse into one streaming stage chain); the only shuffle carries
(src_host, dst_host) pairs, bounded by hosts² after the per-batch combiner.

Extractor scope (documented heuristic, as in public curation pipelines):
double-quoted ``href`` attributes anywhere in a tag, case-insensitive;
absolute ``scheme://host/...`` targets contribute their host (a null-safe
EXTRACT — malformed targets drop, they can never leak the raw URL), anything
else (relative links, fragments) is dropped; null html rows extract nothing;
literal U+001F bytes are stripped before the collapse so crawl-byte noise
cannot forge separators.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from safe_zone_ray.functions.graph import EDGE_PRIME, EDGE_SPREAD, _hosts

LINK_STRIDE = 40_503
MAX_LINKS = 4  # n_links(doc) = doc_id % (MAX_LINKS + 1)  in 0..4
_SEP = "\x1f"


def linked_pages_batch(batch: pa.Table, hosts: np.ndarray) -> pa.Table:
    """documents(doc_id, source) → (src_host, html) with planted anchors."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    srcs = batch.column("source").to_pylist()
    n_hosts = len(hosts)
    htmls = []
    for doc_id, src in zip(ids.tolist(), srcs):
        n_links = doc_id % (MAX_LINKS + 1)
        anchors = "".join(
            '<a class="ext" href="https://%s/out/%d">ref %d</a>'
            % (hosts[(doc_id * EDGE_SPREAD + k * LINK_STRIDE) % EDGE_PRIME % n_hosts], k, k)
            for k in range(n_links)
        )
        htmls.append(
            "<html><body><p>Crawl stub %d from %s.</p>%s</body></html>"
            % (doc_id, src, anchors)
        )
    return pa.Table.from_arrays(
        [pa.array(srcs, pa.string()), pa.array(htmls, pa.string())],
        names=["src_host", "html"],
    )


def extract_href_hosts(html: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, np.ndarray]:
    """Vectorized href extract-all: returns (flat host array, parent row
    index per host). RE2 all the way — each ``href="..."`` occurrence is
    rewritten to its capture + a unit separator, the tail after the last
    match is cut at the final separator, and the list is flattened."""
    if isinstance(html, pa.ChunkedArray):
        html = html.combine_chunks()
    # null rows extract nothing; a literal U+001F in the input would forge
    # phantom separators (crawl bytes do contain C0 controls), so strip it
    # before using it as the collapse marker
    html = pc.replace_substring(pc.fill_null(html, ""), _SEP, "")
    # every prefix ending in href="..." collapses to the captured target
    # ((?i): HREF=/Href= are legal and common in real html)
    collapsed = pc.replace_substring_regex(
        html, r'(?is).*?href="([^"]+)"', "\\1" + _SEP
    )
    lists = pc.split_pattern(collapsed, _SEP)
    # the final list element is the post-last-match tail (or the whole row
    # when there are no matches) — drop it via a slice on each list
    n_per_row = pc.list_value_length(lists).to_numpy(zero_copy_only=False) - 1
    flat = pc.list_flatten(lists)
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(n_per_row + 1, out=offsets[1:])
    keep_mask = np.ones(len(flat), dtype=bool)
    keep_mask[offsets[1:] - 1] = False  # tail element of every row
    flat = flat.filter(pa.array(keep_mask))
    parent = np.repeat(np.arange(len(lists), dtype=np.int64), n_per_row)
    # absolute targets only: scheme://host/... → host; relative links,
    # fragments and malformed targets extract null and are dropped (an
    # extract, not a rewrite — a non-matching row can never leak the raw
    # URL into the host column)
    ex = pc.extract_regex(flat, r"^[A-Za-z][A-Za-z0-9+.-]*://(?P<host>[^/?#\s]+)")
    valid = pc.is_valid(ex)
    hosts = pc.struct_field(ex.filter(valid), "host")
    parent = parent[valid.to_numpy(zero_copy_only=False)]
    return hosts, parent


def outlink_host_edges(sf_dir: str) -> ray.data.Dataset:
    """Weighted (src_host, dst_host, n_links) edges recovered by REAL href
    extraction over the derived linked-pages html (module docstring)."""
    hosts_arr = np.array(_hosts(sf_dir), dtype=object)
    hosts_ref = ray.put(hosts_arr)

    def synth_and_extract(batch: pa.Table) -> pa.Table:
        pages = linked_pages_batch(batch, ray.get(hosts_ref))
        dst, parent = extract_href_hosts(pages.column("html"))
        src = pages.column("src_host").take(pa.array(parent, pa.int64()))
        t = pa.Table.from_arrays([src, dst], names=["src_host", "dst_host"])
        # per-batch combiner: fold duplicate pairs before the exchange
        return (
            t.group_by(["src_host", "dst_host"])
            .aggregate([([], "count_all")])
            .rename_columns(["src_host", "dst_host", "n_links"])
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    ).map_batches(synth_and_extract, batch_format="pyarrow")
    out = ds.groupby(["src_host", "dst_host"]).sum("n_links")
    return out.map_batches(
        lambda t: t.rename_columns(["src_host", "dst_host", "n_links"]),
        batch_format="pyarrow",
    )


def outlink_host_edges_oracle_sql() -> str:
    return f"""
WITH hosts AS (
  SELECT source AS node,
         row_number() OVER (ORDER BY source) - 1 AS idx
  FROM (SELECT DISTINCT source FROM documents)
),
links AS (
  SELECT d.source AS src_host,
         (d.doc_id * {EDGE_SPREAD} + t.k * {LINK_STRIDE}) % {EDGE_PRIME}
           % (SELECT count(*) FROM hosts) AS dsti
  FROM documents d,
       LATERAL unnest(generate_series(0, d.doc_id % {MAX_LINKS + 1} - 1)) t(k)
)
SELECT l.src_host, h.node AS dst_host, CAST(count(*) AS BIGINT) AS n_links
FROM links l JOIN hosts h ON h.idx = l.dsti
GROUP BY l.src_host, h.node
"""


def outlink_degree_stats(sf_dir: str) -> ray.data.Dataset:
    """Per-host degree profile over the EXTRACTED link graph: total planted
    links out/in and distinct neighbor counts both ways — the crawl-frontier
    scoring table (hub vs authority vs isolate). Built from
    ``outlink_host_edges`` with the union+groupby discipline (no join): each
    edge row projects an out-view and an in-view, one host-keyed groupby
    folds them. ORACLE-CHECKED against the planting-formula twin."""

    edges = outlink_host_edges(sf_dir)

    def views(t: pa.Table) -> pa.Table:
        n = t.column("n_links")
        ones = pa.array(np.ones(len(n), dtype=np.int64))
        zeros = pa.array(np.zeros(len(n), dtype=np.int64))
        out_view = pa.Table.from_arrays(
            [t.column("src_host"), n, ones, zeros, zeros],
            names=["host", "out_links", "out_hosts", "in_links", "in_hosts"],
        )
        in_view = pa.Table.from_arrays(
            [t.column("dst_host"), zeros, zeros, n, ones],
            names=["host", "out_links", "out_hosts", "in_links", "in_hosts"],
        )
        return pa.concat_tables([out_view, in_view])

    out = (
        edges.map_batches(views, batch_format="pyarrow")
        .groupby("host")
        .sum(["out_links", "out_hosts", "in_links", "in_hosts"])
    )
    return out.map_batches(
        lambda t: t.rename_columns(
            ["host", "out_links", "out_hosts", "in_links", "in_hosts"]
        ),
        batch_format="pyarrow",
    )


def outlink_degree_stats_oracle_sql() -> str:
    return f"""
WITH hosts AS (
  SELECT source AS node,
         row_number() OVER (ORDER BY source) - 1 AS idx
  FROM (SELECT DISTINCT source FROM documents)
),
raw AS (
  SELECT d.source AS src_host,
         (d.doc_id * {EDGE_SPREAD} + t.k * {LINK_STRIDE}) % {EDGE_PRIME}
           % (SELECT count(*) FROM hosts) AS dsti
  FROM documents d,
       LATERAL unnest(generate_series(0, d.doc_id % {MAX_LINKS + 1} - 1)) t(k)
),
e AS (
  SELECT r.src_host, h.node AS dst_host, count(*) AS n
  FROM raw r JOIN hosts h ON h.idx = r.dsti
  GROUP BY r.src_host, h.node
),
views AS (
  SELECT src_host AS host, n AS out_links, 1 AS out_hosts,
         0 AS in_links, 0 AS in_hosts FROM e
  UNION ALL
  SELECT dst_host AS host, 0, 0, n, 1 FROM e
)
SELECT host,
       CAST(sum(out_links) AS BIGINT) AS out_links,
       CAST(sum(out_hosts) AS BIGINT) AS out_hosts,
       CAST(sum(in_links) AS BIGINT) AS in_links,
       CAST(sum(in_hosts) AS BIGINT) AS in_hosts
FROM views GROUP BY host
"""


COCITE_SUPERNODE_CUTOFF = 64  # drop targets linked by more hosts than this
COCITE_MIN_COMMON = 2


def host_cocitation_pairs(
    sf_dir: str,
    min_common: int = COCITE_MIN_COMMON,
    supernode_cutoff: int = COCITE_SUPERNODE_CUTOFF,
) -> ray.data.Dataset:
    """Bibliographic coupling over the EXTRACTED link graph: unordered host
    pairs sharing at least ``min_common`` distinct outlink targets, with the
    shared-target count — the spam-farm fingerprint (template sites link the
    same target set). Classic co-citation shape made shuffle-safe:

    - targets linked by more than ``supernode_cutoff`` hosts are dropped
      FIRST (a supernode target is non-discriminative and its pair
      expansion is in-degree² — the standard skew guard, mirrored in the
      SQL twin so parity covers the cutoff semantics);
    - pair expansion happens inside ``groupby(dst).map_groups`` — per-group
      work is bounded by cutoff²; the pair exchange carries (host_a,
      host_b, 1) rows only.

    ORACLE-CHECKED against the planting-formula twin (self-join on dst with
    the same HAVING guards)."""
    edges = outlink_host_edges(sf_dir).select_columns(["src_host", "dst_host"])

    def pairs_of_group(t: pa.Table) -> pa.Table:
        empty = pa.Table.from_arrays(
            [
                pa.array([], pa.string()),
                pa.array([], pa.string()),
                pa.array([], pa.int64()),
            ],
            names=["host_a", "host_b", "n_common"],
        )
        srcs = np.sort(t.column("src_host").to_numpy(zero_copy_only=False))
        k = len(srcs)
        if k < 2 or k > supernode_cutoff:
            return empty
        i, j = np.triu_indices(k, k=1)
        return pa.Table.from_arrays(
            [
                pa.array(srcs[i], pa.string()),
                pa.array(srcs[j], pa.string()),
                pa.array(np.ones(len(i), dtype=np.int64)),
            ],
            names=["host_a", "host_b", "n_common"],
        )

    pairs = edges.groupby("dst_host").map_groups(
        pairs_of_group, batch_format="pyarrow"
    )
    folded = pairs.groupby(["host_a", "host_b"]).sum("n_common")

    def finish(t: pa.Table) -> pa.Table:
        # threshold applied inside the rename map_batches (NOT filter(expr):
        # map_groups-origin pipelines can carry schema-less empty blocks
        # that poison expression filters — see .claude/skills/verify)
        t = t.rename_columns(["host_a", "host_b", "n_common"])
        return t.filter(pc.greater_equal(t.column("n_common"), min_common))

    return folded.map_batches(finish, batch_format="pyarrow")


def host_cocitation_pairs_oracle_sql(
    min_common: int = COCITE_MIN_COMMON,
    supernode_cutoff: int = COCITE_SUPERNODE_CUTOFF,
) -> str:
    return f"""
WITH hosts AS (
  SELECT source AS node,
         row_number() OVER (ORDER BY source) - 1 AS idx
  FROM (SELECT DISTINCT source FROM documents)
),
raw AS (
  SELECT d.source AS src_host,
         (d.doc_id * {EDGE_SPREAD} + t.k * {LINK_STRIDE}) % {EDGE_PRIME}
           % (SELECT count(*) FROM hosts) AS dsti
  FROM documents d,
       LATERAL unnest(generate_series(0, d.doc_id % {MAX_LINKS + 1} - 1)) t(k)
),
e AS (
  SELECT DISTINCT r.src_host, h.node AS dst_host
  FROM raw r JOIN hosts h ON h.idx = r.dsti
),
keepdst AS (
  SELECT dst_host FROM e GROUP BY dst_host
  HAVING count(*) BETWEEN 2 AND {supernode_cutoff}
),
ee AS (SELECT e.* FROM e JOIN keepdst USING (dst_host))
SELECT a.src_host AS host_a, b.src_host AS host_b,
       CAST(count(*) AS BIGINT) AS n_common
FROM ee a JOIN ee b ON a.dst_host = b.dst_host AND a.src_host < b.src_host
GROUP BY a.src_host, b.src_host
HAVING count(*) >= {min_common}
"""
