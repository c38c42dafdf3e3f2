"""Host-level link-graph operators: distributed edge aggregation and an
integer-exact PageRank.

A real crawl pipeline builds a host graph from <a href> targets and uses
PageRank-style centrality as a quality prior (Common Crawl publishes exactly
this artifact as its host-level webgraph ranking). The synthetic pages carry
no links, so the driver entries derive a DETERMINISTIC edge list from the
``documents`` table with the same multiplicative-hash convention the rest of
the repo uses for SQL parity: each document contributes one edge
``source -> sorted_hosts[(doc_id * SPREAD) % PRIME % H]``. The derivation is
arbitrary by construction; the OPERATORS are generic over any weighted edge
Dataset.

Scale notes (the part that matters at 10^12 docs):

- ``host_link_edges`` is the corpus-sized pass: a pruned 2-column read,
  per-batch edge synthesis, then ONE ``groupby((src, dst)).count()`` exchange
  that collapses a doc-sized stream to a host-graph-sized table. Payload on
  the wire is two short strings per doc — text never ships.
- ``host_pagerank`` iterates over the AGGREGATED edge table only. Ranks are
  carried in integer micro-units (total mass = 10^12) with floor division,
  so every per-destination sum is an int64 sum — associative, commutative,
  batching/parallelism-independent, and reproducible bit-for-bit in SQL
  (float PageRank cannot be oracle-checked this way). Per iteration: ranks +
  out-degrees broadcast once via ``ray.put`` (hosts number ~10^7 at web
  scale — tens of MB of int64s, comfortably broadcastable; beyond that the
  documented fallback is a ranks-table hash join keyed by ``src``), a
  ``map_batches`` producing per-batch pre-aggregated (dst, contrib)
  partials, and a host-sized ``groupby(dst).sum`` — the only exchange is
  host-graph-sized, never corpus-sized.

Reference parity: the reference engine has no graph operators; this is part
of the beyond-reference training-data-pipeline surface (SURVEY.md section
2.7) alongside dedup/sampling/sketches.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

# Same spirit as textstats' shuffle constants: a multiplicative spread mod a
# prime keeps the Ray kernel and the DuckDB oracle on identical integers.
EDGE_PRIME = 1_000_003
EDGE_SPREAD = 48_271

PR_TOTAL = 10**12  # total rank mass, in micro-units
PR_DAMP_NUM = 85  # damping d = 0.85 as the exact rational 85/100
PR_DAMP_DEN = 100
PR_ITERS = 10


def _hosts(sf_dir: str) -> list[str]:
    """Sorted distinct sources (the node set). Host-count-sized, tiny."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["source"])
    return sorted(ds.unique("source"))


def host_link_edges(sf_dir: str) -> ray.data.Dataset:
    """Weighted host->host edge list ``(src, dst, m)`` derived
    deterministically from documents (see module docstring)."""
    hosts = _hosts(sf_dir)
    n_hosts = len(hosts)
    hosts_arr = np.array(hosts, dtype=object)
    hosts_ref = ray.put(hosts_arr)

    def edges(batch: pa.Table) -> pa.Table:
        harr = ray.get(hosts_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        idx = (ids * EDGE_SPREAD) % EDGE_PRIME % n_hosts
        return pa.table(
            {
                "src": batch.column("source"),
                "dst": pa.array(harr[idx], pa.string()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    ).map_batches(edges, batch_format="pyarrow")
    out = ds.groupby(["src", "dst"]).count()
    return out.map_batches(
        lambda t: t.rename_columns(["src", "dst", "m"]), batch_format="pyarrow"
    )


def host_link_edges_oracle_sql() -> str:
    return f"""
WITH hosts AS (
  SELECT source AS node,
         row_number() OVER (ORDER BY source) - 1 AS idx
  FROM (SELECT DISTINCT source FROM documents)
),
e0 AS (
  SELECT d.source AS src,
         (d.doc_id * {EDGE_SPREAD}) % {EDGE_PRIME} % (SELECT count(*) FROM hosts) AS dsti
  FROM documents d
)
SELECT e0.src, h.node AS dst, CAST(count(*) AS BIGINT) AS m
FROM e0 JOIN hosts h ON h.idx = e0.dsti
GROUP BY e0.src, h.node
"""


def host_pagerank(sf_dir: str, iters: int = PR_ITERS):
    """Integer-exact PageRank over the derived host graph.

    rank_0(v)   = TOTAL // N
    rank_i+1(v) = (15*TOTAL) // (100*N)
                  + sum over inbound edges (u, v, m) of
                      m * ((rank_i(u) * 85) // (100 * outdeg(u)))

    where ``outdeg(u)`` counts edge multiplicity. Every floor division is
    part of the spec, so the DuckDB oracle reproduces the values exactly.
    Every node appears as a source (each host owns >= 1 document), so there
    are no dangling nodes by construction. Returns (host, rank_micro).
    """
    edges = host_link_edges(sf_dir).materialize()  # host-graph-sized, tiny

    outdeg = {
        r["src"]: int(r["sum(m)"])
        for r in edges.groupby("src").sum("m").take_all()
    }
    nodes = sorted(outdeg)
    n = len(nodes)
    rank = {v: PR_TOTAL // n for v in nodes}
    base = (15 * PR_TOTAL) // (100 * n)
    outdeg_ref = ray.put(outdeg)

    for _ in range(iters):
        rank_ref = ray.put(rank)

        def contrib(batch: pa.Table, _rref=rank_ref) -> pa.Table:
            r = ray.get(_rref)
            od = ray.get(outdeg_ref)
            src = batch.column("src").to_pylist()
            m = batch.column("m").to_numpy(zero_copy_only=False).astype(np.int64)
            # per-edge unit contribution depends only on src; vectorize over
            # the few distinct srcs in the batch
            unit = np.fromiter(
                (
                    (r[s] * PR_DAMP_NUM) // (PR_DAMP_DEN * od[s])
                    for s in src
                ),
                dtype=np.int64,
                count=len(src),
            )
            t = pa.table({"dst": batch.column("dst"), "c": pa.array(m * unit)})
            # per-batch combiner: collapse to one row per dst before the
            # exchange
            return (
                t.group_by("dst").aggregate([("c", "sum")]).rename_columns(["dst", "c"])
            )

        agg = edges.map_batches(contrib, batch_format="pyarrow").groupby("dst").sum("c")
        inc = {r["dst"]: int(r["sum(c)"]) for r in agg.take_all()}
        rank = {v: base + inc.get(v, 0) for v in nodes}

    return pa.table(
        {
            "host": pa.array(nodes, pa.string()),
            "rank_micro": pa.array([rank[v] for v in nodes], pa.int64()),
        }
    )


def host_pagerank_oracle_sql(iters: int = PR_ITERS) -> str:
    """Chained-CTE (unrolled) integer PageRank — no recursion, portable."""
    ctes = [
        """hosts AS (
  SELECT source AS node,
         row_number() OVER (ORDER BY source) - 1 AS idx
  FROM (SELECT DISTINCT source FROM documents)
)""",
        f"""e0 AS (
  SELECT d.source AS src,
         (d.doc_id * {EDGE_SPREAD}) % {EDGE_PRIME} % (SELECT count(*) FROM hosts) AS dsti
  FROM documents d
)""",
        """edges AS (
  SELECT e0.src, h.node AS dst, CAST(count(*) AS BIGINT) AS m
  FROM e0 JOIN hosts h ON h.idx = e0.dsti
  GROUP BY e0.src, h.node
)""",
        """outdeg AS (SELECT src, CAST(sum(m) AS BIGINT) AS od FROM edges GROUP BY src)""",
        f"""pr0 AS (
  SELECT node, CAST({PR_TOTAL} // (SELECT count(*) FROM hosts) AS BIGINT) AS rank
  FROM hosts
)""",
    ]
    base = f"(CAST({15 * PR_TOTAL} AS BIGINT) // (100 * (SELECT count(*) FROM hosts)))"
    for i in range(iters):
        ctes.append(
            f"""pr{i + 1} AS (
  SELECT h.node,
         CAST({base} + COALESCE(s.c, 0) AS BIGINT) AS rank
  FROM hosts h
  LEFT JOIN (
    SELECT e.dst,
           CAST(SUM(e.m * ((p.rank * {PR_DAMP_NUM}) // ({PR_DAMP_DEN} * o.od))) AS BIGINT) AS c
    FROM edges e
    JOIN pr{i} p ON p.node = e.src
    JOIN outdeg o ON o.src = e.src
    GROUP BY e.dst
  ) s ON s.dst = h.node
)"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT node AS host, rank AS rank_micro FROM pr{iters}"
    )


LPA_ITERS = 5


def host_communities(sf_dir: str, iters: int = LPA_ITERS) -> pa.Table:
    """Community detection on the host graph via deterministic SYNCHRONOUS
    label propagation (Raghavan et al. 2007, made engine-comparable):

    label_0(v) = v; each round every node adopts the label with the
    highest inbound edge-weight total among its neighbours' CURRENT
    labels (ties broken by lexicographically smallest label; nodes with
    no inbound edges keep their label). Synchronous updates + total
    tie-break make the result a pure function of the graph — no
    randomness, no update order — so the unrolled-CTE DuckDB twin
    reproduces it EXACTLY.

    Shape per round (same contract as ``host_pagerank``): labels
    broadcast via ``ray.put`` (one entry per host — the host graph is
    node-bounded by construction, see module docstring), edge stream
    map_batches with a per-batch (dst, label) combiner, ONE
    graph-sized ``groupby((dst, label)).sum`` exchange, vectorized
    driver argmax. Corpus-sized work happens once, inside
    ``host_link_edges``.
    """
    edges = host_link_edges(sf_dir).materialize()  # host-graph-sized, tiny
    nodes = sorted(r["src"] for r in edges.groupby("src").count().take_all())
    labels = {v: v for v in nodes}

    for _ in range(iters):
        lab_ref = ray.put(labels)

        def contrib(batch: pa.Table, _lr=lab_ref) -> pa.Table:
            lab = ray.get(_lr)
            src = batch.column("src").to_pylist()
            t = pa.table(
                {
                    "dst": batch.column("dst"),
                    "lbl": pa.array([lab[s] for s in src], pa.string()),
                    "w": batch.column("m"),
                }
            )
            return (
                t.group_by(["dst", "lbl"])
                .aggregate([("w", "sum")])
                .rename_columns(["dst", "lbl", "w"])
            )

        rows = (
            edges.map_batches(contrib, batch_format="pyarrow")
            .groupby(["dst", "lbl"])
            .sum("w")
            .take_all()  # host-graph-sized, same bound as host_pagerank
        )
        dst = np.array([r["dst"] for r in rows], dtype=object)
        lbl = np.array([r["lbl"] for r in rows], dtype=object)
        w = np.array([r["sum(w)"] for r in rows], dtype=np.int64)
        order = np.lexsort((lbl, -w, dst))
        d_s, l_s = dst[order], lbl[order]
        first = np.r_[True, d_s[1:] != d_s[:-1]] if len(d_s) else np.array([], bool)
        new = dict(zip(d_s[first], l_s[first]))
        labels = {v: new.get(v, labels[v]) for v in nodes}

    return pa.table(
        {
            "host": pa.array(nodes, pa.string()),
            "community": pa.array([labels[v] for v in nodes], pa.string()),
        }
    )


def host_communities_oracle_sql(iters: int = LPA_ITERS) -> str:
    """Unrolled label-propagation CTE chain (the host_pagerank pattern)."""
    ctes = [
        """hosts AS (
  SELECT source AS node,
         row_number() OVER (ORDER BY source) - 1 AS idx
  FROM (SELECT DISTINCT source FROM documents)
)""",
        f"""e0 AS (
  SELECT d.source AS src,
         (d.doc_id * {EDGE_SPREAD}) % {EDGE_PRIME} % (SELECT count(*) FROM hosts) AS dsti
  FROM documents d
)""",
        """edges AS (
  SELECT e0.src, h.node AS dst, CAST(count(*) AS BIGINT) AS m
  FROM e0 JOIN hosts h ON h.idx = e0.dsti
  GROUP BY e0.src, h.node
)""",
        """l0 AS (SELECT node, node AS label FROM hosts)""",
    ]
    for i in range(iters):
        ctes.append(
            f"""l{i + 1} AS (
  SELECT h.node, COALESCE(p.label, l.label) AS label
  FROM hosts h
  JOIN l{i} l ON l.node = h.node
  LEFT JOIN (
    SELECT node, label FROM (
      SELECT a.node, a.label,
             row_number() OVER (PARTITION BY a.node
                                ORDER BY a.w DESC, a.label) AS rn
      FROM (
        SELECT e.dst AS node, lp.label, CAST(sum(e.m) AS BIGINT) AS w
        FROM edges e JOIN l{i} lp ON lp.node = e.src
        GROUP BY 1, 2
      ) a
    ) WHERE rn = 1
  ) p ON p.node = h.node
)"""
        )
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT node AS host, label AS community FROM l{iters}"
    )
