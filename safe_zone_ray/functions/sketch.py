"""Approximate aggregates: HyperLogLog distinct-count sketch.

The classic corpus-scale cardinality operator (Flajolet et al. 2007, with the
small-range correction of Heule et al. 2013's practical variants): per-batch
register maxima computed in numpy, merged associatively — the shuffle carries
one 2^p-byte register row per batch instead of the value universe. At 100 TB
this replaces the exact distinct (which must shuffle every unique value) with
a fixed-size, mergeable sketch.

Deterministic: blake2b row hashes, no RNG.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

DEFAULT_P = 12  # 4096 registers, ~1.6% standard error


def _hash64(values: list[str]) -> np.ndarray:
    return np.fromiter(
        (
            int.from_bytes(hashlib.blake2b(v.encode(), digest_size=8).digest(), "big")
            for v in values
        ),
        dtype=np.uint64,
        count=len(values),
    )


def _bucket_ranks(h: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register index, rank) per 64-bit hash: index = top p bits, rank =
    1-based position of the leftmost 1-bit of the remaining 64-p bits."""
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # remaining 64-p bits, left-aligned
    rank = np.full(len(h), 64 - p + 1, dtype=np.uint8)
    nz = rest != 0
    # count leading zeros of the left-aligned remainder
    lz = np.zeros(len(h), dtype=np.uint8)
    v = rest[nz]
    bits = np.zeros(v.shape, dtype=np.uint8)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = v < (np.uint64(1) << np.uint64(64 - shift))
        bits[mask] += shift
        v[mask] = v[mask] << np.uint64(shift)
    lz[nz] = bits
    rank[nz] = lz[nz] + 1
    return idx, rank


def hll_registers(values: list[str], p: int = DEFAULT_P) -> np.ndarray:
    """Register maxima for one batch of values (uint8 array of size 2^p)."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if not values:
        return regs
    idx, rank = _bucket_ranks(_hash64(values), p)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(register_rows: list[bytes], p: int = DEFAULT_P) -> np.ndarray:
    regs = np.zeros(1 << p, dtype=np.uint8)
    for r in register_rows:
        regs = np.maximum(regs, np.frombuffer(r, dtype=np.uint8))
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting for the small range
    return float(est)


def approx_distinct_tokens(sf_dir: str, p: int = DEFAULT_P) -> pa.Table:
    """Approximate corpus-wide distinct-token count: one fixed-size register
    row leaves each batch; the driver merges a handful of rows."""

    def batch_registers(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(batch.column("text")), r"\W+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        # local exact dedup shrinks the hash work before sketching
        vals = pc.unique(flat).to_pylist()
        return pa.Table.from_arrays(
            [pa.array([hll_registers(vals, p).tobytes()], pa.binary())],
            names=["registers"],
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    rows = ds.map_batches(batch_registers, batch_format="pyarrow").take_all()
    regs = hll_merge([r["registers"] for r in rows], p)
    return pa.Table.from_arrays(
        [pa.array([int(round(hll_estimate(regs)))], pa.int64())],
        names=["n_distinct_tokens_approx"],
    )


GROUP_P = 10  # 1024 registers / host: ~3.25% σ, 1 KiB shuffle row per host


def per_host_distinct_urls(sf_dir: str, p: int = GROUP_P) -> ray.data.Dataset:
    """Approximate distinct URLs per canonical host — the grouped-sketch
    shape: per-batch register maxima for EVERY host in the batch (one
    ``np.maximum.at`` over a (hosts_in_batch × 2^p) flat register block),
    then a ``groupby(host)`` whose shuffle carries one fixed-size 2^p-byte
    register row per (host, batch) instead of the URL universe, merged
    associatively in ``map_groups``. At 100 TB this is the standard
    replacement for ``count(DISTINCT url) GROUP BY host`` — the exact form
    must shuffle every distinct URL string; this shuffles 1 KiB per host
    per batch regardless of URL count, and skewed hosts cost no more than
    cold ones. Rows-only for the driver (an estimate has no SQL twin);
    accuracy is pinned against the exact DuckDB count in tests and the
    output is value-hash frozen (blake2b hashing — fully deterministic)."""
    from safe_zone_ray.functions.urlstats import _canonical_hosts
    from safe_zone_ray.pages import synthesize_pages_dir

    pages_dir = synthesize_pages_dir(sf_dir)
    m = 1 << p

    def partial(batch: pa.Table) -> pa.Table:
        urls = pc.fill_null(batch.column("url"), "")
        hosts = _canonical_hosts(urls)
        enc = pc.dictionary_encode(hosts)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = np.asarray(enc.indices, dtype=np.int64)
        uniq_hosts = enc.dictionary.to_pylist()
        if not uniq_hosts:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.binary())],
                names=["host", "registers"],
            )
        idx, rank = _bucket_ranks(_hash64(urls.to_pylist()), p)
        regs = np.zeros(len(uniq_hosts) * m, dtype=np.uint8)
        np.maximum.at(regs, codes * m + idx, rank)
        return pa.Table.from_arrays(
            [
                pa.array(uniq_hosts, pa.string()),
                pa.array(
                    [regs[i * m : (i + 1) * m].tobytes() for i in range(len(uniq_hosts))],
                    pa.binary(),
                ),
            ],
            names=["host", "registers"],
        )

    def merge(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:  # Ray emits zero-column frames on empty groups
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["host", "approx_distinct_urls"],
            )
        regs = hll_merge(group.column("registers").to_pylist(), p)
        return pa.Table.from_arrays(
            [
                group.column("host").slice(0, 1),
                pa.array([int(round(hll_estimate(regs)))], pa.int64()),
            ],
            names=["host", "approx_distinct_urls"],
        )

    return (
        ray.data.read_parquet(pages_dir, columns=["url"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("host")
        .map_groups(merge, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# Heavy hitters: Misra-Gries candidate sketch + exact confirm
# ---------------------------------------------------------------------------

HH_PHI_DENOM = 1000  # "frequent" = more than 1/1000 of all tokens


def _mg_summary(tokens: pa.Array, k: int) -> tuple[pa.Array, np.ndarray]:
    """Misra-Gries summary of one batch from its exact value counts: at most
    ``k`` (token, lower-bound) counters, each undercounting its token by at
    most ``n_batch / (k + 1)``. Arrow's C++ ``value_counts`` does the exact
    within-batch count; the summary is the counts minus the (k+1)-th largest
    (clipped at zero) — the closed form of the iterated MG decrement."""
    vc = pc.value_counts(tokens)
    vals, cnts = vc.field("values"), vc.field("counts").to_numpy(zero_copy_only=False)
    if len(cnts) <= k:
        return vals, cnts.astype(np.int64)
    d = np.partition(cnts, len(cnts) - k - 1)[len(cnts) - k - 1]
    low = (cnts - d).astype(np.int64)
    keep = low > 0
    return vals.filter(pa.array(keep)), low[keep]


def frequent_tokens(
    sf_dir: str, phi_denom: int = HH_PHI_DENOM
) -> ray.data.Dataset:
    """Exact corpus-wide heavy hitters: every token whose count exceeds
    ``N / phi_denom`` (N = total tokens), with its exact count.

    Two passes — the sketch bounds the exchange, the confirm restores
    exactness (so the result equals the naive GROUP BY / HAVING oracle):

    1. CANDIDATES: each batch ships a Misra-Gries summary of at most
       ``k = 2 * phi_denom`` counters (plus one total-row), NEVER one row
       per distinct token — at 100 TB the exchange stays O(batches * k)
       instead of O(vocabulary). Summed lower bounds across batches
       undercount any token by at most N/(k+1) < N/phi_denom/2, so every
       true heavy hitter clears the N/(2*phi_denom) candidate cut: no
       false negatives, and at most 2*phi_denom candidates survive.
    2. CONFIRM: the bounded candidate list broadcasts via ``ray.put``; one
       streaming pass counts ONLY candidate tokens exactly (per-batch
       filtered counts -> vocabulary-bounded groupby), then the exact
       ``> N / phi_denom`` threshold filters false positives.

    Tokenizer: the RE2/DuckDB-parity ASCII class shared with lmscore.
    """
    from safe_zone_ray.functions.lmscore import _flat_tokens

    k = 2 * phi_denom
    total_mark = "\x01TOTAL"

    def partial(batch: pa.Table) -> pa.Table:
        flat, _ = _flat_tokens(batch.column("text"))
        vals, low = _mg_summary(flat, k)
        toks = pa.concat_arrays(
            [vals.combine_chunks() if isinstance(vals, pa.ChunkedArray) else vals,
             pa.array([total_mark], pa.string())]
        )
        ns = np.concatenate([low, [len(flat)]])
        return pa.Table.from_arrays(
            [toks, pa.array(ns.astype(np.int64))], names=["token", "n"]
        )

    summary = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .sum("n")
        .take_all()
    )  # ≤ one row per token that survived any batch summary
    total = 0
    lower: dict[str, int] = {}
    for r in summary:
        if r["token"] == total_mark:
            total = int(r["sum(n)"])
        else:
            lower[r["token"]] = int(r["sum(n)"])
    cut = total / (2 * phi_denom)
    candidates = pa.array(
        sorted(t for t, c in lower.items() if c > cut), pa.string()
    )
    cand_ref = ray.put(candidates)
    threshold = total // phi_denom

    def exact_candidate_counts(batch: pa.Table) -> pa.Table:
        cand = ray.get(cand_ref)
        flat, _ = _flat_tokens(batch.column("text"))
        hit = flat.filter(pc.is_in(flat, value_set=cand))
        vc = pc.value_counts(hit)
        return pa.Table.from_arrays(
            [vc.field("values"), pc.cast(vc.field("counts"), pa.int64())],
            names=["token", "n"],
        )

    counted = (
        ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
        .map_batches(exact_candidate_counts, batch_format="pyarrow")
        .groupby("token")
        .sum("n")
    )

    def over_threshold(t: pa.Table) -> pa.Table:
        if t.num_columns == 0:
            return pa.Table.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                names=["token", "n"],
            )
        t = t.rename_columns(["token", "n"])
        return t.filter(pc.greater(t.column("n"), threshold))

    return counted.map_batches(over_threshold, batch_format="pyarrow")


def frequent_tokens_oracle_sql(phi_denom: int = HH_PHI_DENOM) -> str:
    from safe_zone_ray.functions.lmscore import LM_TOKEN_CLASS

    return f"""
        WITH tok AS (
            SELECT unnest(regexp_extract_all(lower(text), '{LM_TOKEN_CLASS}')) AS token
            FROM documents
        )
        SELECT token, count(*) AS n FROM tok
        GROUP BY token
        HAVING count(*) > (SELECT count(*) FROM tok) // {phi_denom}
    """
