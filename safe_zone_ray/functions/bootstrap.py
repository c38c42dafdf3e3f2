"""Poisson bootstrap over the corpus — confidence intervals in ONE pass.

Classical bootstrap resampling (draw n docs with replacement, B times) is a
non-starter at 100 TB: it needs global indexing and B full shuffles. The
production formulation is the POISSON bootstrap (each document contributes
to replicate b with an independent Poisson(1) weight — correct because
Binomial(n, 1/n) → Poisson(1)): embarrassingly parallel, one streaming
pass, per-batch combiner partials, a B-row exchange.

Determinism discipline: the per-(doc, replicate) weight comes from an
integer hash ``h = ((doc_id*HASH_A + b*HASH_B + HASH_C) % M) * HASH_A2 % M``
(two multiply-mod rounds; all products < 2^63 — safe in both engines)
pushed through the exact integer inverse-CDF thresholds of
Poisson(1) (precomputed once in Python, embedded as literals in BOTH the
numpy kernel and the SQL twin, so there is no runtime float anywhere).
ORACLE-CHECKED: DuckDB reproduces every weight and every replicate mean
bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray.data

from safe_zone_ray.functions.textstats import histogram_quantiles

B_REPLICATES = 32
HASH_A, HASH_B, HASH_C = 1_000_003, 999_983, 12_345
HASH_M = 1_099_511_627_689  # prime just below 2^40: doc_id*A stays < 2^63
# second multiply-mod round (< 2^23 so h1 * HASH_A2 < 2^63): ONE round
# leaves sequential doc_ids in a narrow band (every weight 0 — caught by
# test_weights_distribution_close_to_poisson1); the second round spreads
# them LCG-style across [0, M)
HASH_A2 = 8_388_593

# exact integer inverse-CDF thresholds for Poisson(1), capped at weight 8:
# weight(u) = #{k : cdf_k <= u}, u = h / M. Computed ONCE here; the same
# literals are formatted into the SQL twin.
_CDF = []
acc = 0.0
for k in range(8):
    acc += math.exp(-1.0) / math.factorial(k)
    _CDF.append(min(int(acc * HASH_M), HASH_M))
POISSON_THRESHOLDS = tuple(_CDF)  # len 8, weight in 0..8


_THRESHOLDS_NP = np.array(POISSON_THRESHOLDS, dtype=np.int64)


def _weights(doc_ids: np.ndarray, b: int, h0: np.ndarray | None = None) -> np.ndarray:
    """``h0`` is the replicate-invariant part (doc_ids*HASH_A + HASH_C),
    hoisted by the caller so the per-replicate loop only adds b*HASH_B."""
    if h0 is None:
        h0 = doc_ids * HASH_A + HASH_C
    h1 = (h0 + b * HASH_B) % HASH_M
    h = (h1 * HASH_A2) % HASH_M
    return np.searchsorted(_THRESHOLDS_NP, h, side="right").astype(np.int64)


def bootstrap_mean_chars(sf_dir: str, n_replicates: int = B_REPLICATES) -> pa.Table:
    """B Poisson-bootstrap replicates of the corpus mean document length:
    (replicate, n_eff, sum_chars, mean_chars_micro) with the mean in exact
    integer millionths. The spread of ``mean_chars_micro`` across
    replicates IS the standard error of the corpus statistic — the
    one-pass answer to "how precise is this corpus metric". Per-batch
    combiner emits B partial rows; one B-row groupby folds them."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        chars = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        reps, effs, sums = [], [], []
        h0 = ids * HASH_A + HASH_C  # replicate-invariant, computed once
        for b in range(n_replicates):
            w = _weights(ids, b, h0)
            reps.append(b)
            effs.append(int(w.sum()))
            sums.append(int((w * chars).sum()))
        return pa.table(
            {
                "replicate": pa.array(reps, pa.int64()),
                "n_eff": pa.array(effs, pa.int64()),
                "sum_chars": pa.array(sums, pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    rows = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("replicate")
        .sum(["n_eff", "sum_chars"])
        .take_all()
    )  # bounded: exactly n_replicates rows
    rows.sort(key=lambda r: int(r["replicate"]))
    n_eff = [int(r["sum(n_eff)"]) for r in rows]
    sums = [int(r["sum(sum_chars)"]) for r in rows]
    return pa.table(
        {
            "replicate": pa.array([int(r["replicate"]) for r in rows], pa.int64()),
            "n_eff": pa.array(n_eff, pa.int64()),
            "sum_chars": pa.array(sums, pa.int64()),
            "mean_chars_micro": pa.array(
                [(s * 1_000_000) // max(n, 1) for s, n in zip(sums, n_eff)],
                pa.int64(),
            ),
        }
    )


def bootstrap_mean_chars_oracle_sql(n_replicates: int = B_REPLICATES) -> str:
    cases = " ".join(
        f"WHEN h < {t} THEN {k}" for k, t in enumerate(POISSON_THRESHOLDS)
    )
    return f"""
WITH reps AS (SELECT unnest(generate_series(0, {n_replicates - 1})) AS b),
w AS (
  SELECT r.b AS replicate,
         CASE {cases} ELSE 8 END AS weight,
         d.n_chars
  FROM documents d CROSS JOIN reps r,
       LATERAL (SELECT ((d.doc_id * {HASH_A} + r.b * {HASH_B} + {HASH_C})
                        % {HASH_M}) * {HASH_A2} % {HASH_M} AS h) t
)
SELECT replicate,
       CAST(sum(weight) AS BIGINT) AS n_eff,
       CAST(sum(weight * n_chars) AS BIGINT) AS sum_chars,
       (CAST(sum(weight * n_chars) AS BIGINT) * 1000000)
         // greatest(CAST(sum(weight) AS BIGINT), 1) AS mean_chars_micro
FROM w GROUP BY replicate ORDER BY replicate
"""


def _page_keys(urls) -> np.ndarray:
    """``doc_id * 8 + variant`` from each url's trailing ``/<doc_id>/<variant>``
    digits. Raises ``ValueError`` on a url without that suffix (the key
    would be null) or with variant >= 8 (its key would collide with the
    next doc_id's)."""
    import pyarrow.compute as pc

    ex = pc.extract_regex(urls, r"://[^/]+/(?P<d>[0-9]+)/(?P<v>[0-9]+)$")
    if ex.null_count:
        bad = pc.filter(urls, pc.is_null(ex)).to_pylist()[0]
        raise ValueError(
            f"bootstrap_keep_rate: url {bad!r} does not end in /<doc_id>/<variant>"
        )
    d = pc.struct_field(ex, "d").to_numpy(zero_copy_only=False).astype(np.int64)
    v = pc.struct_field(ex, "v").to_numpy(zero_copy_only=False).astype(np.int64)
    if (v >= 8).any():
        bad = pc.filter(urls, pa.array(v >= 8)).to_pylist()[0]
        raise ValueError(
            f"bootstrap_keep_rate: url {bad!r} has variant >= 8, so its key "
            "doc_id*8 + variant would collide with another page's"
        )
    return d * 8 + v


def bootstrap_keep_rate(sf_dir: str, n_replicates: int = B_REPLICATES):
    """Poisson-bootstrap replicates of the FLAGSHIP keep rate: how precise
    is the quality filter's headline number on this corpus. Same one-pass
    shape as ``bootstrap_mean_chars``, but over the decisions stream — the
    per-page integer identity for the hash comes from the url's
    ``/doc_id/variant`` digits (``key = doc_id * 8 + variant``, unique per
    page and re-derivable in SQL), so the weights are deterministic across
    engines and batch layouts. Output per replicate: effective page count,
    effective kept count, exact integer keep_rate_ppm. ORACLE-CHECKED
    against the recursive decisions chain joined to the same hash."""
    import ray.data  # noqa: F401  (decisions Dataset flows in)

    from safe_zone_ray.pipelines.quality_filter import (
        PipelineConfig,
        build_quality_filter,
    )
    from safe_zone_ray.pages import synthesize_pages_dir

    decisions = build_quality_filter(synthesize_pages_dir(sf_dir), PipelineConfig())

    def partial(batch: pa.Table) -> pa.Table:
        keys = _page_keys(batch.column("url"))
        keep = batch.column("keep").to_numpy(zero_copy_only=False).astype(np.int64)
        h0 = keys * HASH_A + HASH_C
        reps, effs, kepts = [], [], []
        for b in range(n_replicates):
            w = _weights(keys, b, h0)
            reps.append(b)
            effs.append(int(w.sum()))
            kepts.append(int((w * keep).sum()))
        return pa.table(
            {
                "replicate": pa.array(reps, pa.int64()),
                "n_eff": pa.array(effs, pa.int64()),
                "n_kept_eff": pa.array(kepts, pa.int64()),
            }
        )

    rows = (
        decisions.select_columns(["url", "keep"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("replicate")
        .sum(["n_eff", "n_kept_eff"])
        .take_all()
    )  # bounded: exactly n_replicates rows
    rows.sort(key=lambda r: int(r["replicate"]))
    n_eff = [int(r["sum(n_eff)"]) for r in rows]
    kept = [int(r["sum(n_kept_eff)"]) for r in rows]
    return pa.table(
        {
            "replicate": pa.array([int(r["replicate"]) for r in rows], pa.int64()),
            "n_eff": pa.array(n_eff, pa.int64()),
            "n_kept_eff": pa.array(kept, pa.int64()),
            "keep_rate_ppm": pa.array(
                [(k * 1_000_000) // max(n, 1) for k, n in zip(kept, n_eff)],
                pa.int64(),
            ),
        }
    )


def bootstrap_keep_rate_oracle_sql(pages_glob: str, n_replicates: int = B_REPLICATES) -> str:
    from safe_zone_ray.oracle.decisions_sql import sql_for

    cases = " ".join(
        f"WHEN h < {t} THEN {k}" for k, t in enumerate(POISSON_THRESHOLDS)
    )
    return sql_for(
        f""", br_keys AS (
    SELECT CAST(regexp_extract(url, '://[^/]+/([0-9]+)/', 1) AS BIGINT) * 8
           + CAST(regexp_extract(url, '/([0-9]+)$', 1) AS BIGINT) AS key,
           CASE WHEN keep THEN 1 ELSE 0 END AS kept
    FROM final),
  br_reps AS (SELECT unnest(generate_series(0, {n_replicates - 1})) AS b),
  br_w AS (
    SELECT r.b AS replicate,
           CASE {cases} ELSE 8 END AS weight,
           k.kept
    FROM br_keys k CROSS JOIN br_reps r,
         LATERAL (SELECT ((k.key * {HASH_A} + r.b * {HASH_B} + {HASH_C})
                          % {HASH_M}) * {HASH_A2} % {HASH_M} AS h) t
  )
  SELECT replicate,
         CAST(sum(weight) AS BIGINT) AS n_eff,
         CAST(sum(weight * kept) AS BIGINT) AS n_kept_eff,
         (CAST(sum(weight * kept) AS BIGINT) * 1000000)
           // greatest(CAST(sum(weight) AS BIGINT), 1) AS keep_rate_ppm
  FROM br_w GROUP BY replicate ORDER BY replicate""",
        pages_glob,
    )


def bootstrap_median_chars(sf_dir: str, n_replicates: int = B_REPLICATES):
    """Poisson-bootstrap replicates of the corpus MEDIAN document length —
    the case the bootstrap actually exists for: nonlinear statistics have
    no closed-form standard error, so the replicate spread is the only
    honest CI. Fully distributed shape:

    1. per-batch combiner folds (n_chars value, replicate) → weight sums
       (exchange bounded by distinct-lengths × B, never docs × B);
    2. ``groupby(replicate).map_groups`` computes each replicate's exact
       lower weighted median from its value histogram (cumsum over sorted
       values — 32 tiny groups, nothing driver-sized).

    Output: (replicate, n_eff, median_chars). ORACLE-CHECKED: the DuckDB
    twin builds the same histogram and takes ``min(value) WHERE 2*cum >=
    total`` per replicate."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        chars = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        vals, inv = np.unique(chars, return_inverse=True)
        h0 = ids * HASH_A + HASH_C
        out_v, out_b, out_w = [], [], []
        for b in range(n_replicates):
            w = _weights(ids, b, h0)
            wsum = np.bincount(inv, weights=w.astype(np.float64), minlength=len(vals))
            nz = wsum > 0
            out_v.append(vals[nz])
            out_b.append(np.full(int(nz.sum()), b, dtype=np.int64))
            out_w.append(wsum[nz].astype(np.int64))
        return pa.table(
            {
                "value": pa.array(np.concatenate(out_v)),
                "replicate": pa.array(np.concatenate(out_b)),
                "w": pa.array(np.concatenate(out_w)),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )
    hist = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["value", "replicate"])
        .sum("w")
    )

    def median_of_group(t: pa.Table) -> pa.Table:
        vals = t.column("value").to_numpy(zero_copy_only=False).astype(np.int64)
        w = t.column("sum(w)").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(vals)
        vals, w = vals[order], w[order]
        tot = int(w.sum())
        med = histogram_quantiles(vals, w, (0.5,))[0] if tot else 0
        b = int(t.column("replicate")[0].as_py())
        return pa.table(
            {
                "replicate": pa.array([b], pa.int64()),
                "n_eff": pa.array([tot], pa.int64()),
                "median_chars": pa.array([med], pa.int64()),
            }
        )

    return hist.groupby("replicate").map_groups(median_of_group, batch_format="pyarrow")


def bootstrap_median_chars_oracle_sql(n_replicates: int = B_REPLICATES) -> str:
    cases = " ".join(
        f"WHEN h < {t} THEN {k}" for k, t in enumerate(POISSON_THRESHOLDS)
    )
    return f"""
WITH reps AS (SELECT unnest(generate_series(0, {n_replicates - 1})) AS b),
w AS (
  SELECT r.b AS replicate, d.n_chars AS value,
         CASE {cases} ELSE 8 END AS weight
  FROM documents d CROSS JOIN reps r,
       LATERAL (SELECT ((d.doc_id * {HASH_A} + r.b * {HASH_B} + {HASH_C})
                        % {HASH_M}) * {HASH_A2} % {HASH_M} AS h) t
),
h AS (
  SELECT value, replicate, CAST(sum(weight) AS BIGINT) AS wsum
  FROM w GROUP BY value, replicate HAVING sum(weight) > 0
),
c AS (
  SELECT *,
         sum(wsum) OVER (PARTITION BY replicate ORDER BY value) AS cum,
         sum(wsum) OVER (PARTITION BY replicate) AS tot
  FROM h
)
SELECT replicate, CAST(min(tot) AS BIGINT) AS n_eff,
       CAST(min(value) AS BIGINT) AS median_chars
FROM c WHERE 2 * cum >= tot GROUP BY replicate
"""
