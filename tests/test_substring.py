"""Exact substring dedup (functions/substring.py): planted shared-passage
truths, a seeded brute-force fuzz of the per-doc stats, and parity with the
DuckDB twin on the fuzz corpora (the same compare the driver runs at
sf0.01)."""

import os
import random

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

from safe_zone_ray.functions.substring import (
    exact_substring_dup_stats,
    exact_substring_dup_stats_oracle_sql,
    _window_fingerprints,
)


def _write_docs(tmp_path, texts) -> str:
    d = str(tmp_path)
    t = pa.table(
        {
            "doc_id": pa.array(range(1, len(texts) + 1), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    return d


def _brute(texts, L):
    """Pure-Python reference: duplicated positions and per-doc
    interval-union stats."""
    sites = {}
    for did, text in enumerate(texts, 1):
        for p in range(len(text) - L + 1):
            sites.setdefault(text[p : p + L], []).append((did, p))
    dup = {}
    for occ in sites.values():
        if len(occ) < 2:
            continue
        for did, p in occ:
            dup.setdefault(did, set()).add(p)
    def union(ps):
        spans = []
        for p in sorted(ps):
            if spans and p <= spans[-1][1]:
                spans[-1][1] = p + L
            else:
                spans.append([p, p + L])
        return spans
    return {
        did: (len(union(ps)), sum(e - s for s, e in union(ps)))
        for did, ps in dup.items()
    }


def _rand_corpus(rng, n_docs=20, alpha="ab", lo=0, hi=40):
    # binary-ish alphabet with short docs forces heavy gram collisions
    return [
        "".join(rng.choice(alpha) for _ in range(rng.randint(lo, hi)))
        for _ in range(n_docs)
    ]


def test_fingerprints_match_direct_hash():
    rng = random.Random(3)
    for _ in range(20):
        s = "".join(rng.choice("xyz√é") for _ in range(rng.randint(0, 30)))
        L = rng.randint(1, 8)
        h1, h2 = _window_fingerprints(s, L)
        assert len(h1) == max(0, len(s) - L + 1)
        # equal windows ⇒ equal fingerprints; sampled unequal ⇒ unequal
        for i in range(len(h1)):
            for j in range(i + 1, len(h1)):
                if s[i : i + L] == s[j : j + L]:
                    assert h1[i] == h1[j] and h2[i] == h2[j]


def test_planted_shared_passage(ray_session, tmp_path):
    L = 10
    passage = "0123456789ABCDEFGHIJ"  # 20 chars: 11 dup positions, 1 span
    texts = [
        "aaaa" + passage + "bbbb",
        "cccc" + passage + "dddd",
        "eeeeeeeeeeeeeeeeeeeeeeee",  # self-repetitive: dup within one doc
    ]
    d = _write_docs(tmp_path, texts)
    stats = {
        r["doc_id"]: (r["dup_spans"], r["dup_chars"])
        for r in exact_substring_dup_stats(d, L=L).take_all()
    }
    # both docs carry one 20-char duplicated span; doc 3's 24-char run of e's
    # repeats internally (pos 0 vs pos 1 share the same 10-gram)
    assert stats[1] == (1, len(passage))
    assert stats[2] == (1, len(passage))
    assert stats[3] == (1, 24)


def test_fuzz_matches_bruteforce_and_sql(ray_session, tmp_path):
    rng = random.Random(11)
    for trial in range(3):
        L = rng.choice([3, 5, 8])
        texts = _rand_corpus(rng)
        d = _write_docs(tmp_path, texts)
        stats = _brute(texts, L)
        got_stats = {
            r["doc_id"]: (r["dup_spans"], r["dup_chars"])
            for r in exact_substring_dup_stats(d, L=L).take_all()
        }
        assert got_stats == stats, f"trial {trial} L={L}"
        # SQL twin parity on the same corpus
        con = duckdb.connect()
        con.sql(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{d}/documents.parquet')"
        )
        want = {
            int(r[0]): (int(r[1]), int(r[2]))
            for r in con.sql(exact_substring_dup_stats_oracle_sql(L=L)).fetchall()
        }
        assert want == stats
        con.close()


def test_short_and_empty_docs(ray_session, tmp_path):
    d = _write_docs(tmp_path, ["", "ab", "abcde", "abcde"])
    stats = exact_substring_dup_stats(d, L=5).take_all()
    assert {r["doc_id"]: (r["dup_spans"], r["dup_chars"]) for r in stats} == {
        3: (1, 5),
        4: (1, 5),
    }
