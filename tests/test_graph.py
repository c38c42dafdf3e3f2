"""Host link-graph operators (functions/graph.py): derived-edge determinism,
integer PageRank vs the DuckDB chained-CTE oracle, mass conservation,
centrality sanity on a planted hub, fragment-layout invariance, and the
single-host degenerate case."""

import os

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from safe_zone_ray.functions import graph as G


def _write(tmp_path, table, n_fragments=1, name="documents"):
    d = str(tmp_path / f"docs_dir_{n_fragments}")
    os.makedirs(d, exist_ok=True)
    if n_fragments == 1:
        pq.write_table(table, os.path.join(d, f"{name}.parquet"))
    else:
        sub = os.path.join(d, f"{name}.parquet")
        os.makedirs(sub)
        step = (table.num_rows + n_fragments - 1) // n_fragments
        for i in range(n_fragments):
            pq.write_table(table.slice(i * step, step), os.path.join(sub, f"part-{i}.parquet"))
    return d


def _oracle(sql, d):
    con = duckdb.connect()
    p = f"{d}/documents.parquet"
    if os.path.isdir(p):
        p = f"{p}/*.parquet"
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{p}'")
    return con.execute(sql).df()


def _rows(res):
    import pandas as pd

    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    df = df[sorted(df.columns)]
    return sorted(map(tuple, df.astype(str).values.tolist()))


def _docs(doc_ids, sources):
    n = len(doc_ids)
    return pa.Table.from_arrays(
        [
            pa.array(doc_ids, pa.int64()),
            pa.array(["t"] * n),
            pa.array(["en"] * n),
            pa.array(sources),
            pa.array([1] * n, pa.int64()),
        ],
        names=["doc_id", "text", "lang", "source", "n_chars"],
    )


def test_edges_match_oracle_and_derivation(ray_session, tmp_path):
    rng = np.random.default_rng(5)
    ids = list(range(200))
    srcs = [f"h{int(rng.integers(0, 7))}" for _ in ids]
    d = _write(tmp_path, _docs(ids, srcs))
    got = G.host_link_edges(d).to_pandas()
    assert _rows(got) == _rows(_oracle(G.host_link_edges_oracle_sql(), d))
    # spot-check the derivation rule on one row
    hosts = sorted(set(srcs))
    i = 17
    want_dst = hosts[(i * G.EDGE_SPREAD) % G.EDGE_PRIME % len(hosts)]
    sub = got[(got.src == srcs[i]) & (got.dst == want_dst)]
    assert len(sub) == 1 and int(sub.m.iloc[0]) >= 1
    # total edge mass == doc count
    assert int(got.m.sum()) == len(ids)


def test_pagerank_matches_oracle_and_conserves_mass(ray_session, tmp_path):
    rng = np.random.default_rng(9)
    ids = list(range(300))
    srcs = [f"h{int(rng.integers(0, 9))}" for _ in ids]
    d = _write(tmp_path, _docs(ids, srcs))
    got = G.host_pagerank(d).to_pandas()
    ora = _oracle(G.host_pagerank_oracle_sql(), d)
    assert _rows(got) == _rows(ora)
    # floors lose < 1 micro-unit per (node, iteration)
    n = got.shape[0]
    assert abs(int(got.rank_micro.sum()) - G.PR_TOTAL) <= n * (G.PR_ITERS + 1) * 100


def test_pagerank_hub_ranks_highest(ray_session, tmp_path):
    # Hand-planted edges: pick doc_ids whose derived dst is host index 0
    # ("hub") from many distinct sources -> hub must out-rank everyone.
    hosts = [f"h{i}" for i in range(5)]
    ids, srcs = [], []
    next_id = 0
    per_src = {h: 0 for h in hosts}
    while min(per_src.values()) < 4 or len(ids) < 120:
        dst_idx = (next_id * G.EDGE_SPREAD) % G.EDGE_PRIME % len(hosts)
        src = hosts[next_id % len(hosts)]
        if dst_idx == 0 or per_src[src] < 4:
            ids.append(next_id)
            srcs.append(src)
            per_src[src] += 1
        next_id += 1
        if next_id > 5000:
            break
    d = _write(tmp_path, _docs(ids, srcs))
    got = G.host_pagerank(d).to_pandas().set_index("host")
    edges = G.host_link_edges(d).to_pandas()
    indeg = edges.groupby("dst").m.sum()
    hub = indeg.idxmax()
    assert got.loc[hub, "rank_micro"] == got.rank_micro.max()


def test_pagerank_fragment_invariance(ray_session, tmp_path):
    rng = np.random.default_rng(13)
    ids = list(range(250))
    srcs = [f"h{int(rng.integers(0, 6))}" for _ in ids]
    t = _docs(ids, srcs)
    base = None
    for n_frag in (1, 5):
        d = _write(tmp_path, t, n_fragments=n_frag)
        r = _rows(G.host_pagerank(d))
        assert r == _rows(_oracle(G.host_pagerank_oracle_sql(), d))
        base = base or r
        assert r == base


def test_pagerank_single_host(ray_session, tmp_path):
    d = _write(tmp_path, _docs([0, 1, 2], ["only"] * 3))
    got = G.host_pagerank(d).to_pandas()
    assert list(got.host) == ["only"]
    # all mass (minus floor dust) stays on the single node
    assert abs(int(got.rank_micro.iloc[0]) - G.PR_TOTAL) <= 100
    assert _rows(got) == _rows(_oracle(G.host_pagerank_oracle_sql(), d))
