"""Seeded input generator.

Documents are drawn from the seed (the sf0.1 ``documents`` vocabulary and
shape: 10-100 words from a 31-word vocabulary, five languages) under doc ids
shifted by the seed, then turned into pages by the program's own
``pages.pages_from_documents_batch``. Pages are cached per (seed,
``GENERATOR_VERSION``, page count) under the benchmark's work directory, so
generation never counts toward ``setup_s``.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

WORDS = (
    "a agg batch big column customer data dup fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
LANGS = ("en", "zh", "es", "fr", "de")
LANG_WEIGHTS = (41, 15, 15, 15, 14)
DOCS_PER_FRAGMENT = 500  # x4 variants = 2000 pages per input fragment
MIN_FRAGMENTS = 4  # small input sets are split finer, so the job can stop halfway
ORACLE_ROWS = 500  # pages of fragment 0 checked against the DuckDB oracle
KEEP_INPUT_SETS = 16  # cached (seed, size) input sets kept in the work dir


def documents(seed: int, n_docs: int) -> pa.Table:
    rng = random.Random(seed)
    base = seed * 10_000_000
    texts, langs = [], []
    for _ in range(n_docs):
        texts.append(" ".join(rng.choice(WORDS) for _ in range(rng.randint(10, 100))))
        langs.append(rng.choices(LANGS, LANG_WEIGHTS)[0])
    return pa.table(
        {
            "doc_id": pa.array(range(base, base + n_docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )


def extracted_text(pages: pa.Table) -> pa.Array:
    """The text each page carries after extraction: its ``text`` column, or
    the frozen extractor's output where that is null."""
    from safe_zone_ray.extract import extract_text

    texts = pages.column("text").to_pylist()
    htmls = pages.column("html").to_pylist()
    return pa.array(
        [t if t is not None else extract_text(h) for t, h in zip(texts, htmls)], pa.string()
    )


def prefilter_mask(texts: pa.Array) -> pa.Array:
    """Rows that pass the compiled registry's any-hit prefilter."""
    from safe_zone_ray.registry import get_compiled_registry

    pattern = get_compiled_registry().any_hit.pattern
    return pc.fill_null(pc.match_substring_regex(texts, pattern), True)


def input_set(workdir: str, seed: int, n_pages: int) -> dict:
    """Generate (or reuse) the pages for ``seed``. Returns a dict with the
    pages directory, the fragment paths and the input mix."""
    from safe_zone_ray.pages import GENERATOR_VERSION, pages_from_documents_batch

    root = os.path.join(workdir, "inputs")
    base = os.path.join(root, f"s{seed}_{GENERATOR_VERSION}_n{n_pages}")
    meta_path = os.path.join(base, "mix.json")
    if not os.path.exists(meta_path):
        shutil.rmtree(base, ignore_errors=True)
        os.makedirs(os.path.join(base, "pages"))
        docs = documents(seed, n_pages // 4)
        per_fragment = max(1, min(DOCS_PER_FRAGMENT, docs.num_rows // MIN_FRAGMENTS))
        n_null = n_pre = n_non_en = 0
        for i, off in enumerate(range(0, docs.num_rows, per_fragment)):
            pages = pages_from_documents_batch(docs.slice(off, per_fragment), variants=4)
            pq.write_table(pages, os.path.join(base, "pages", f"pages-{i:05d}.parquet"))
            n_null += pages.column("text").null_count
            n_pre += pc.sum(prefilter_mask(extracted_text(pages))).as_py() or 0
            n_non_en += pc.sum(pc.not_equal(pages.column("lang"), "en")).as_py() or 0
        mix = {
            "pages": n_pages,
            "null_text_frac": n_null / n_pages,
            "prefilter_frac": n_pre / n_pages,
            "non_en_frac": n_non_en / n_pages,
        }
        with open(meta_path + ".tmp", "w") as f:
            json.dump(mix, f)
        os.replace(meta_path + ".tmp", meta_path)
        _prune(root, keep=base)
    with open(meta_path) as f:
        mix = json.load(f)
    pages_dir = os.path.join(base, "pages")
    fragments = sorted(
        os.path.join(pages_dir, f) for f in os.listdir(pages_dir) if f.endswith(".parquet")
    )
    return {"base": base, "pages_dir": pages_dir, "fragments": fragments, "mix": mix}


def _prune(root: str, keep: str) -> None:
    sets = sorted(
        (os.path.join(root, d) for d in os.listdir(root)),
        key=os.path.getmtime,
        reverse=True,
    )
    for d in sets[KEEP_INPUT_SETS:]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


def oracle_decisions(inputs: dict) -> dict[str, tuple]:
    """DuckDB oracle decisions ``url -> (keep, drop_reason, scrubbed_text)``
    for the first ``ORACLE_ROWS`` pages of fragment 0, cached beside the
    input set (the full chain costs about 4 ms per page)."""
    import duckdb

    from safe_zone_ray.oracle.decisions_sql import sql_for

    cached = os.path.join(inputs["base"], "oracle.parquet")
    if not os.path.exists(cached):
        sub = os.path.join(inputs["base"], "oracle_input.parquet")
        pq.write_table(pq.read_table(inputs["fragments"][0]).slice(0, ORACLE_ROWS), sub)
        con = duckdb.connect()
        try:
            table = con.sql(
                sql_for("SELECT url, keep, drop_reason, scrubbed_text FROM final", sub)
            ).fetch_arrow_table()
        finally:
            con.close()
        pq.write_table(table, cached + ".tmp")
        os.replace(cached + ".tmp", cached)
    d = pq.read_table(cached).to_pydict()
    return {
        u: (k, r, s)
        for u, k, r, s in zip(d["url"], d["keep"], d["drop_reason"], d["scrubbed_text"])
    }


def request_set(seed: int, workdir: str, n: int) -> list[dict]:
    """/detect request bodies: the seed's extracted page texts with a
    MASK/BLOCK/DETECT mix; about 3% of requests name registry validators."""
    inputs = input_set(workdir, seed, max(n, 4 * MIN_FRAGMENTS))
    texts = []
    for path in inputs["fragments"]:
        texts.extend(extracted_text(pq.read_table(path)).to_pylist())
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for i, text in enumerate(texts[:n]):
        req = {"text": text or ".", "mode": rng.choices(("MASK", "BLOCK", "DETECT"), (70, 15, 15))[0],
               "rid": f"bench-{seed}-{i}"}
        if rng.random() < 0.03:
            req["guardrails"] = [rng.choice(("PII_ID_GLOBAL", "TOXIC_LANGUAGE", "PCI_STRICT"))]
        out.append(req)
    return out
