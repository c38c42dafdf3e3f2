"""Distributed DISTINCT set operations (INTERSECT / EXCEPT) between two
corpus slices in ONE exchange.

SURVEY.md §2.7 lists set ops among the SQL operator surface; the dedicated
entry here makes the pattern explicit: instead of materialising each side's
distinct set and diffing (two exchanges + a join), every batch emits its
LOCAL distinct keys per side as (key, in_a, in_b) flag partials, and a
single ``groupby(key).aggregate(Max(in_a), Max(in_b))`` yields the full
membership table — intersect = both flags, except = one flag. The exchange
carries one row per (batch, distinct key, side), fixed width; skewed keys
collapse in the combiner.

Driver query: the distinct document lengths seen in English vs German docs
(all three branches are non-empty on the bench corpus) — the SQL twin is a
literal INTERSECT / EXCEPT ALL-free chain.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def length_setops_en_de(sf_dir: str) -> ray.data.Dataset:
    """(n_chars, op) rows: op in {'intersect', 'en_minus_de',
    'de_minus_en'} over the distinct NON-NULL n_chars values of en / de
    docs. NULL keys are excluded BY SPEC on both sides (the SQL twin
    filters ``n_chars IS NOT NULL``): SQL set ops treat NULL as a member,
    but a distributed groupby key of NULL is better excluded explicitly
    than matched accidentally."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"]
    )

    def flag_partial(batch: pa.Table) -> pa.Table:
        keys, in_a, in_b = [], [], []
        for lang, col in (("en", "a"), ("de", "b")):
            side = batch.filter(pc.equal(batch.column("lang"), lang))
            uniq = pc.unique(side.column("n_chars").combine_chunks().drop_null())
            keys.append(uniq)
            ones = [1] * len(uniq)
            zeros = [0] * len(uniq)
            in_a.append(pa.array(ones if col == "a" else zeros, pa.int64()))
            in_b.append(pa.array(ones if col == "b" else zeros, pa.int64()))
        return pa.Table.from_arrays(
            [
                pa.concat_arrays([k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k for k in keys]),
                pa.concat_arrays(in_a),
                pa.concat_arrays(in_b),
            ],
            names=["n_chars", "in_a", "in_b"],
        )

    agg = (
        ds.map_batches(flag_partial, batch_format="pyarrow")
        .groupby("n_chars")
        .aggregate(ray.data.aggregate.Max("in_a"), ray.data.aggregate.Max("in_b"))
    )

    def label(batch: pa.Table) -> pa.Table:
        a = batch.column("max(in_a)")
        b = batch.column("max(in_b)")
        both = pc.and_(pc.equal(a, 1), pc.equal(b, 1))
        only_a = pc.and_(pc.equal(a, 1), pc.equal(b, 0))
        op = pc.if_else(
            both,
            pa.scalar("intersect"),
            pc.if_else(only_a, pa.scalar("en_minus_de"), pa.scalar("de_minus_en")),
        )
        return pa.Table.from_arrays(
            [batch.column("n_chars"), op], names=["n_chars", "op"]
        )

    return agg.map_batches(label, batch_format="pyarrow")


def length_setops_en_de_oracle_sql() -> str:
    return """
        WITH en AS (SELECT DISTINCT n_chars FROM documents
                    WHERE lang = 'en' AND n_chars IS NOT NULL),
             de AS (SELECT DISTINCT n_chars FROM documents
                    WHERE lang = 'de' AND n_chars IS NOT NULL)
        SELECT n_chars, 'intersect' AS op
          FROM (SELECT * FROM en INTERSECT SELECT * FROM de)
        UNION ALL
        SELECT n_chars, 'en_minus_de'
          FROM (SELECT * FROM en EXCEPT SELECT * FROM de)
        UNION ALL
        SELECT n_chars, 'de_minus_en'
          FROM (SELECT * FROM de EXCEPT SELECT * FROM en)
        ORDER BY op, n_chars
    """
