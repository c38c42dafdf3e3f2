"""List-column (nested-type) coverage: per-vector statistics over
the embeddings table's ``list<float>`` column with an EXACT SQL twin.

The nested-column class the scalar profiler skips: ``len(list)`` and an
L2 norm computed to bit-parity with DuckDB's lambda pipeline
``sqrt(list_sum(list_transform(embedding, x -> CAST(x AS DOUBLE) * x)))``:

  - float32 -> float64 conversion is exact on both sides, so the element
    products are bit-identical doubles;
  - DuckDB's ``list_sum`` accumulates left to right; ``np.cumsum`` is by
    definition the same sequential order (plain ``np.sum`` is pairwise
    above numpy's block threshold and diverges in the last ulp — measured);
  - IEEE-754 ``sqrt`` is correctly rounded in both engines.

The final ``round(.., 6)`` uses the repo's half-away-from-zero rule
(DuckDB ``round`` semantics; Python's builtin ``round`` is half-even).
One shuffle-free pass; output is row-per-vector (the driver compares it
whole at sf scale; a 100-TB run would write it, not collect it).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from safe_zone_ray.functions.rounding import round_half_away, round_half_away_int64_np

NORM_DIGITS = 6


def _flat_values(col: pa.ListArray) -> tuple[np.ndarray, np.ndarray]:
    """(float64 child values with NULL slots as 0.0, child validity mask).
    SQL ``list_sum`` / ``SUM`` skip NULL elements; adding an exact +0.0 in
    the NULL's position is bit-identical for finite partial sums, so the
    sequential-order parity argument survives null elements."""
    vals = col.values
    elem_valid = np.asarray(pc.is_valid(vals).to_numpy(zero_copy_only=False))
    flat = np.asarray(
        pc.fill_null(vals, 0.0).to_numpy(zero_copy_only=False), dtype=np.float64
    )
    return flat, elem_valid


def _norm_batch(batch: pa.Table) -> pa.Table:
    col = batch.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
    dims = np.diff(col.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
    flat, elem_valid = _flat_values(col)
    sq = np.where(elem_valid, flat * flat, 0.0)  # list_sum skips NULL == +0.0
    ends = np.cumsum(dims)
    # rows whose elements are ALL null: list_sum skips everything -> NULL
    n_valid_elems = np.zeros(len(dims), dtype=np.int64)
    if len(flat):
        row_of = np.repeat(np.arange(len(dims)), dims)
        np.add.at(n_valid_elems, row_of, elem_valid.astype(np.int64))
    # per-row sums must be ROW-LOCAL sequential adds for list_sum
    # bit-parity — a cumsum over the flat array would carry earlier rows'
    # accumulator into each row, which is NOT the same float64 result.
    # Rows stack by dim class so one cumsum(axis=1) covers each class.
    norms = [None] * len(dims)
    for d in np.unique(dims):
        idx = np.flatnonzero((dims == d) & valid & (n_valid_elems > 0))
        if d == 0 or len(idx) == 0:
            continue  # list_sum([]) / all-null list is NULL in SQL
        gather = (ends[idx] - d)[:, None] + np.arange(d)[None, :]
        sums = np.cumsum(sq[gather], axis=1)[:, -1]
        for i, v in zip(idx, np.sqrt(sums)):
            norms[i] = round_half_away(float(v), NORM_DIGITS)
    out_dims = [int(d) if ok else None for d, ok in zip(dims, valid)]
    return pa.Table.from_arrays(
        [
            batch.column("vec_id"),
            pa.array(out_dims, pa.int64()),
            pa.array(norms, pa.float64()),
        ],
        names=["vec_id", "dims", "norm"],
    )


def embedding_norm_stats(sf_dir: str) -> ray.data.Dataset:
    """(vec_id, dims, norm) per embedding row, norm rounded half-away to 6
    decimals from a bit-exact sequential float64 sum."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return ds.map_batches(_norm_batch, batch_format="pyarrow")


def embedding_norm_stats_oracle_sql() -> str:
    return f"""
        SELECT vec_id,
               len(embedding) AS dims,
               round(sqrt(list_sum(list_transform(embedding,
                     x -> CAST(x AS DOUBLE) * x))), {NORM_DIGITS}) AS norm
        FROM embeddings
        ORDER BY vec_id
    """


MICRO = 1_000_000


def _dim_partial(batch: pa.Table) -> pa.Table:
    """Combiner-first UNNEST aggregate: each batch explodes its vectors and
    pre-aggregates per dimension, so the exchange carries n_dims rows per
    batch (NOT n_rows x n_dims unnested rows — the naive explode would
    multiply the shuffle by the vector width). Element values go to exact
    int64 micro-units (round half-away, DuckDB `round` semantics) so the
    distributed sum is order-independent and bit-identical to SQL."""
    col = batch.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = np.asarray(pc.is_valid(col).to_numpy(zero_copy_only=False))
    dims = np.diff(col.offsets.to_numpy(zero_copy_only=False)).astype(np.int64)
    flat, elem_valid = _flat_values(col)
    micro = round_half_away_int64_np(flat * MICRO)
    micro = np.where(elem_valid, micro, 0)  # SUM skips NULL elements == +0
    # dimension index per flat element
    ends = np.cumsum(dims)
    starts = ends - dims
    idx = np.arange(len(flat)) - np.repeat(starts, dims)
    keep = np.repeat(valid, dims)
    idx, micro, ev = idx[keep], micro[keep], elem_valid[keep]
    if len(idx) == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64())] * 4,
            names=["dim", "n_vals", "n_valid", "sum_micro"],
        )
    n_vals = np.bincount(idx)
    n_valid = np.bincount(idx, weights=ev.astype(np.int64), minlength=len(n_vals)).astype(
        np.int64
    )
    sums = np.zeros(len(n_vals), dtype=np.int64)
    np.add.at(sums, idx, micro)
    present = np.flatnonzero(n_vals > 0)
    return pa.Table.from_arrays(
        [
            pa.array(present.astype(np.int64)),
            pa.array(n_vals[present].astype(np.int64)),
            pa.array(n_valid[present]),
            pa.array(sums[present]),
        ],
        names=["dim", "n_vals", "n_valid", "sum_micro"],
    )


def embedding_dim_sums(sf_dir: str) -> ray.data.Dataset:
    """Per-dimension exact element count and micro-unit sum over all
    embedding vectors — the UNNEST + GROUP BY ordinality SQL class,
    combiner-first (n_dims rows per batch enter the single exchange)."""
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    agg = (
        ds.map_batches(_dim_partial, batch_format="pyarrow")
        .groupby("dim")
        .aggregate(
            ray.data.aggregate.Sum("n_vals"),
            ray.data.aggregate.Sum("n_valid"),
            ray.data.aggregate.Sum("sum_micro"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        t = t.rename_columns(["dim", "n_vals", "n_valid", "sum_micro"])
        # SQL SUM over an all-NULL group is NULL, not 0
        s = pc.if_else(pc.greater(t.column("n_valid"), 0), t.column("sum_micro"), None)
        return pa.Table.from_arrays(
            [t.column("dim"), t.column("n_vals"), s], names=["dim", "n_vals", "sum_micro"]
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def embedding_dim_sums_oracle_sql() -> str:
    return f"""
        SELECT CAST(dim AS BIGINT) AS dim,
               CAST(COUNT(*) AS BIGINT) AS n_vals,
               CAST(SUM(micro) AS BIGINT) AS sum_micro FROM (
            SELECT generate_subscripts(embedding, 1) - 1 AS dim,
                   CAST(round(CAST(unnest(embedding) AS DOUBLE) * {MICRO}, 0)
                        AS BIGINT) AS micro
            FROM embeddings
        )
        GROUP BY dim ORDER BY dim
    """
