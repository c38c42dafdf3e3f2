"""Snapshot DIFF — table reconciliation / change-data-capture between two
versions of the documents table: emit one row per changed key, labelled
``insert`` / ``delete`` / ``update`` (unchanged rows are dropped).

The "later" snapshot is a DETERMINISTIC function of the base table (so the
DuckDB twin can rebuild it exactly): every ``doc_id % 17 == 0`` row is
deleted, every surviving ``doc_id % 13 == 0`` row has ``' [rev2]'``
appended to its text (an update), and every ``doc_id % 19 == 0`` row is
re-inserted under ``doc_id + 1_000_000`` (an insert; base ids stay far
below the offset). The RULE is test scaffolding — the OPERATOR is the
general diff and takes any two keyed datasets.

Distributed shape — the one-exchange digest diff:
1. both sides map to (doc_id, md5-hex digest, side tag) — the text itself
   never enters the exchange, 32 hex bytes per row do (the
   ``exact_dedup`` precedent; ``hashing.md5_hex_batch`` is byte-parity
   with DuckDB's ``md5()``, so the oracle compares the SAME digests and a
   collision would be caught, not masked);
2. ONE ``groupby(doc_id)`` with four native mergeable aggregates — count,
   sum(tag), min(digest), max(digest) — classifies every key with no
   per-group Python: count=1 ⇒ one-sided (tag says which side), count=2 ⇒
   both sides, min(digest) ≠ max(digest) ⇒ content changed;
3. a stateless decode batch-filter labels the three change kinds and drops
   the unchanged majority.

This is the reconciliation primitive behind CDC backfills, replica
verification, and incremental-materialization invalidation; at corpus
scale the exchange is O(rows) × 50 B and the output is only the churn.

Reference parity: no reference counterpart (its storage is a live
row-store, `/root/reference/internal/storage/`); beyond-reference
lakehouse-practice operator alongside ``functions/compact.py``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ray.data.aggregate import Count, Max, Min, Sum

from safe_zone_ray.functions.hashing import md5_hex_batch

SNAP_DELETE_MOD = 17
SNAP_UPDATE_MOD = 13
SNAP_INSERT_MOD = 19
SNAP_INSERT_OFFSET = 1_000_000
SNAP_REV_SUFFIX = " [rev2]"


def _read(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def _side_rows(batch: pa.Table, tag: int, snapshot: bool) -> pa.Table:
    """(doc_id, digest, tag) rows for one side; ``snapshot=True`` applies
    the deterministic delete/update/insert rule batch-locally first."""
    ids = batch.column("doc_id")
    text = batch.column("text")
    if snapshot:
        idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
        survive = idv % SNAP_DELETE_MOD != 0
        upd = survive & (idv % SNAP_UPDATE_MOD == 0)
        kept_text = pc.if_else(
            pa.array(upd[survive]),
            pc.binary_join_element_wise(
                pc.cast(text.filter(pa.array(survive)), pa.string()),
                pa.scalar(SNAP_REV_SUFFIX),
                "",
            ),
            pc.cast(text.filter(pa.array(survive)), pa.string()),
        )
        kept_ids = pa.array(idv[survive])
        ins = idv % SNAP_INSERT_MOD == 0
        ins_ids = pa.array(idv[ins] + SNAP_INSERT_OFFSET)
        ins_text = pc.cast(text.filter(pa.array(ins)), pa.string())
        ids = pa.concat_arrays([kept_ids, ins_ids])
        text = pa.concat_arrays([kept_text.combine_chunks() if isinstance(kept_text, pa.ChunkedArray) else kept_text,
                                 ins_text.combine_chunks() if isinstance(ins_text, pa.ChunkedArray) else ins_text])
    n = len(ids)
    return pa.Table.from_arrays(
        [
            ids if isinstance(ids, pa.Array) else ids.combine_chunks(),
            md5_hex_batch(text),
            pa.array(np.full(n, tag, np.int64)),
        ],
        names=["doc_id", "digest", "tag"],
    )


def snapshot_diff(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, change) for every key that differs between the base
    documents table and its deterministic later snapshot — change ∈
    {'insert', 'delete', 'update'}; unchanged keys are dropped."""
    base = _read(sf_dir).map_batches(
        lambda t: _side_rows(t, tag=0, snapshot=False), batch_format="pyarrow"
    )
    snap = _read(sf_dir).map_batches(
        lambda t: _side_rows(t, tag=1, snapshot=True), batch_format="pyarrow"
    )
    agg = (
        base.union(snap)
        .groupby("doc_id")
        .aggregate(
            Count(alias_name="n"),
            Sum("tag", alias_name="sum_tag"),
            Min("digest", alias_name="d_min"),
            Max("digest", alias_name="d_max"),
        )
    )

    def decode(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        st = batch.column("sum_tag").to_numpy(zero_copy_only=False).astype(np.int64)
        differ = pc.not_equal(batch.column("d_min"), batch.column("d_max")).to_numpy(
            zero_copy_only=False
        )
        change = np.where(
            n == 1,
            np.where(st == 1, "insert", "delete"),
            np.where(differ, "update", ""),
        )
        keep = change != ""
        return pa.Table.from_arrays(
            [
                batch.column("doc_id").filter(pa.array(keep)),
                pa.array(change[keep].astype(object), pa.string()),
            ],
            names=["doc_id", "change"],
        )

    return agg.map_batches(decode, batch_format="pyarrow")


def snapshot_merge(sf_dir: str) -> ray.data.Dataset:
    """MERGE INTO — apply the change feed to the base table and emit the
    merged table state as (doc_id, digest): the lakehouse upsert/delete
    primitive that ``snapshot_diff`` detects and this operator APPLIES.
    Correctness is self-certifying: merging the diff into the base must
    reproduce the later snapshot exactly, so the oracle simply digests the
    rebuilt snapshot.

    Distributed shape — one exchange, native aggregates only: both the base
    rows and the change rows map to (doc_id, priority-prefixed digest) where
    changes carry prefix '1:' (upsert payload digest, or the DELETE
    sentinel) and base rows '0:'. ``groupby(doc_id).aggregate(Max)`` makes
    the change win wherever one exists — MERGE's WHEN MATCHED/NOT MATCHED
    arms collapse into one lexicographic max — and a stateless decode strips
    the prefix and drops deletes. The text never enters the exchange: change
    payloads are digested batch-locally, so the exchange is ~36 B/row at any
    corpus size (the ``snapshot_diff`` scale argument)."""
    _DEL = "1:~DELETE"  # '~' > any hex digit, but prefix '1:' decides first

    base = _read(sf_dir).map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("doc_id"),
                "key": pc.binary_join_element_wise(
                    pa.array(np.full(t.num_rows, "0:", object), pa.string()),
                    md5_hex_batch(t.column("text")),
                    "",
                ),
            }
        ),
        batch_format="pyarrow",
    )

    def change_rows(batch: pa.Table) -> pa.Table:
        """The deterministic change feed, digested batch-locally: deletes,
        updates (rev2 text) and inserts (offset ids) with '1:' priority."""
        idv = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        text = pc.cast(batch.column("text"), pa.string())
        ids_out: list[pa.Array] = []
        keys_out: list[pa.Array] = []
        dele = idv % SNAP_DELETE_MOD == 0
        if dele.any():
            ids_out.append(pa.array(idv[dele]))
            keys_out.append(pa.array(np.full(dele.sum(), _DEL, object), pa.string()))
        upd = (~dele) & (idv % SNAP_UPDATE_MOD == 0)
        if upd.any():
            new_text = pc.binary_join_element_wise(
                text.filter(pa.array(upd)), pa.scalar(SNAP_REV_SUFFIX), ""
            )
            ids_out.append(pa.array(idv[upd]))
            keys_out.append(
                pc.binary_join_element_wise(
                    pa.array(np.full(upd.sum(), "1:", object), pa.string()),
                    md5_hex_batch(new_text),
                    "",
                )
            )
        ins = idv % SNAP_INSERT_MOD == 0
        if ins.any():
            ids_out.append(pa.array(idv[ins] + SNAP_INSERT_OFFSET))
            keys_out.append(
                pc.binary_join_element_wise(
                    pa.array(np.full(ins.sum(), "1:", object), pa.string()),
                    md5_hex_batch(text.filter(pa.array(ins))),
                    "",
                )
            )
        if not ids_out:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "key": pa.array([], pa.string())}
            )
        return pa.table(
            {
                "doc_id": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in ids_out]),
                "key": pa.concat_arrays([a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in keys_out]),
            }
        )

    changes = _read(sf_dir).map_batches(change_rows, batch_format="pyarrow")
    merged = base.union(changes).groupby("doc_id").aggregate(Max("key", alias_name="k"))

    def decode(batch: pa.Table) -> pa.Table:
        k = batch.column("k")
        keep = pc.not_equal(k, pa.scalar(_DEL))
        return pa.table(
            {
                "doc_id": batch.column("doc_id").filter(keep),
                "digest": pc.utf8_slice_codeunits(k.filter(keep), 2),
            }
        )

    return merged.map_batches(decode, batch_format="pyarrow")


def snapshot_merge_oracle_sql() -> str:
    # merge(base, diff) must equal the rebuilt snapshot — digest it directly
    return f"""
        SELECT doc_id, md5(text) AS digest FROM (
            SELECT doc_id,
                   CASE WHEN doc_id % {SNAP_UPDATE_MOD} = 0
                        THEN text || '{SNAP_REV_SUFFIX}' ELSE text END AS text
            FROM documents WHERE doc_id % {SNAP_DELETE_MOD} <> 0
            UNION ALL
            SELECT doc_id + {SNAP_INSERT_OFFSET} AS doc_id, text
            FROM documents WHERE doc_id % {SNAP_INSERT_MOD} = 0
        )
    """


def incremental_lang_stats(sf_dir: str) -> ray.data.Dataset:
    """Incremental materialized-view maintenance: per-language
    (n_docs, n_chars) of the LATER snapshot, computed WITHOUT ever scanning
    the snapshot — one streaming pass over the base emits both the base
    aggregate partials and the change-feed deltas (delete −1/−len,
    update +len(suffix), insert +1/+len), and one language-cardinality-sized
    ``groupby(lang).sum`` folds them. The oracle recomputes the same stats
    by direct aggregation over the rebuilt snapshot, so the maintenance
    arithmetic is verified exactly.

    This is the Δ-maintenance primitive behind incremental pipelines: at
    10^12 docs the view refresh costs one pass over the CHANGES (here fused
    with the base pass because the demo feed derives from base rows), never
    a re-aggregation of the full snapshot. ``utf8_length`` counts code
    points, matching DuckDB ``length()``."""
    suffix_chars = len(SNAP_REV_SUFFIX)

    def partial(batch: pa.Table) -> pa.Table:
        idv = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        lang = batch.column("lang")
        chars = pc.cast(
            pc.utf8_length(pc.cast(batch.column("text"), pa.string())), pa.int64()
        ).to_numpy(zero_copy_only=False)
        langs: list[pa.Array] = []
        d_docs: list[np.ndarray] = []
        d_chars: list[np.ndarray] = []
        # base contribution
        langs.append(lang)
        d_docs.append(np.ones(len(idv), np.int64))
        d_chars.append(chars)
        # delta: deletes
        dele = idv % SNAP_DELETE_MOD == 0
        if dele.any():
            m = pa.array(dele)
            langs.append(lang.filter(m))
            d_docs.append(np.full(int(dele.sum()), -1, np.int64))
            d_chars.append(-chars[dele])
        # delta: updates (text grows by the suffix; doc count unchanged)
        upd = (~dele) & (idv % SNAP_UPDATE_MOD == 0)
        if upd.any():
            m = pa.array(upd)
            langs.append(lang.filter(m))
            d_docs.append(np.zeros(int(upd.sum()), np.int64))
            d_chars.append(np.full(int(upd.sum()), suffix_chars, np.int64))
        # delta: inserts (same lang and text under the offset id)
        ins = idv % SNAP_INSERT_MOD == 0
        if ins.any():
            m = pa.array(ins)
            langs.append(lang.filter(m))
            d_docs.append(np.ones(int(ins.sum()), np.int64))
            d_chars.append(chars[ins])
        t = pa.table(
            {
                "lang": pa.concat_arrays(
                    [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a for a in langs]
                ),
                "n_docs": pa.array(np.concatenate(d_docs)),
                "n_chars": pa.array(np.concatenate(d_chars)),
            }
        )
        return (
            t.group_by("lang")
            .aggregate([("n_docs", "sum"), ("n_chars", "sum")])
            .rename_columns(["lang", "n_docs", "n_chars"])
        )

    return (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
        )
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .sum(["n_docs", "n_chars"])
        .map_batches(
            lambda t: t.rename_columns(["lang", "n_docs", "n_chars"]),
            batch_format="pyarrow",
        )
    )


def incremental_lang_stats_oracle_sql() -> str:
    # direct (non-incremental) aggregation over the rebuilt snapshot
    return f"""
        SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
               CAST(sum(length(text)) AS BIGINT) AS n_chars
        FROM (
            SELECT lang,
                   CASE WHEN doc_id % {SNAP_UPDATE_MOD} = 0
                        THEN text || '{SNAP_REV_SUFFIX}' ELSE text END AS text
            FROM documents WHERE doc_id % {SNAP_DELETE_MOD} <> 0
            UNION ALL
            SELECT lang, text FROM documents WHERE doc_id % {SNAP_INSERT_MOD} = 0
        ) GROUP BY lang
    """


def snapshot_diff_oracle_sql() -> str:
    return f"""
        WITH snap AS (
            SELECT doc_id,
                   CASE WHEN doc_id % {SNAP_UPDATE_MOD} = 0
                        THEN text || '{SNAP_REV_SUFFIX}' ELSE text END AS text
            FROM documents WHERE doc_id % {SNAP_DELETE_MOD} <> 0
            UNION ALL
            SELECT doc_id + {SNAP_INSERT_OFFSET} AS doc_id, text
            FROM documents WHERE doc_id % {SNAP_INSERT_MOD} = 0
        ),
        b AS (SELECT doc_id, md5(text) AS d FROM documents),
        s AS (SELECT doc_id, md5(text) AS d FROM snap)
        SELECT COALESCE(b.doc_id, s.doc_id) AS doc_id,
               CASE WHEN b.doc_id IS NULL THEN 'insert'
                    WHEN s.doc_id IS NULL THEN 'delete'
                    ELSE 'update' END AS change
        FROM b FULL OUTER JOIN s ON b.doc_id = s.doc_id
        WHERE b.doc_id IS NULL OR s.doc_id IS NULL OR b.d <> s.d
    """
