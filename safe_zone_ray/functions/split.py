"""Deterministic train/valid/test split assignment — the standard
reproducible-split primitive for training-data pipelines, ORACLE-CHECKED.

Assignment is a pure function of ``doc_id`` (Knuth multiplicative hash mod
100 → 80/10/10 bands), so it is stable across runs, cluster sizes, file
layouts and re-crawls: a doc keeps its split forever, new docs land
uniformly, and no shuffle or coordination is needed — each batch computes
its own assignments with three vectorized uint64 ops. The SQL twin is the
identical integer arithmetic, so parity is exact (no float, no RNG).

Reference parity: no reference counterpart; beyond-reference training-
pipeline operator (split before dedup/decontam in corpus-prep recipes).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

KNUTH = 2654435761  # 2^32 / phi, the classic multiplicative constant
N_BUCKETS = 100
TRAIN_LT, VALID_LT = 80, 90  # bucket bands: 80/10/10


def _buckets(doc_ids: np.ndarray) -> np.ndarray:
    h = (doc_ids.astype(np.uint64) * np.uint64(KNUTH)) % np.uint64(1 << 32)
    return (h % np.uint64(N_BUCKETS)).astype(np.int64)


def train_split_assignment(sf_dir: str) -> ray.data.Dataset:
    """(doc_id, bucket, split) for every document; split ∈
    {train, valid, test} by 80/10/10 hash bands."""

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        b = _buckets(ids)
        split = np.where(b < TRAIN_LT, "train", np.where(b < VALID_LT, "valid", "test"))
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                pa.array(b),
                pa.array(split.astype(object), pa.string()),
            ],
            names=["doc_id", "bucket", "split"],
        )

    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id"]
    ).map_batches(assign, batch_format="pyarrow")


def split_assignment_oracle_sql() -> str:
    return f"""
        SELECT doc_id,
               CAST((doc_id * {KNUTH}) % 4294967296 % {N_BUCKETS} AS BIGINT) AS bucket,
               CASE
                 WHEN (doc_id * {KNUTH}) % 4294967296 % {N_BUCKETS} < {TRAIN_LT} THEN 'train'
                 WHEN (doc_id * {KNUTH}) % 4294967296 % {N_BUCKETS} < {VALID_LT} THEN 'valid'
                 ELSE 'test'
               END AS split
        FROM documents
    """
