"""Distributed table profiling (the data-engine `describe` / column-stats
pass): per column — row count, null count, EXACT distinct count, min and max
— over an arbitrary-scale Parquet table in two streaming passes.

Beyond-reference operator (the reference processes one request at a time —
`/root/reference/internal/guardrails/guardrails.go:60` — and has no corpus
statistics surface); every warehouse exposes this (ANALYZE / describe), and
a 100-TB ingest needs it to validate shards before a run.

Scale shape:
  - Pass 1 (rows/nulls/min/max): each batch emits ONE row per column —
    associative partials — so the driver merge sees ``n_cols x n_batches``
    rows, bounded and tiny. min/max merge is dtype-aware (int64 partials
    would compare wrong as strings: '10' < '9'; floats parse back exactly
    because ``str(float)`` is shortest-round-trip; timestamp strings are
    rendered in a fixed-width monotone format so string order IS time
    order).
  - Pass 2 (exact distinct): each batch emits its DISTINCT (column, md5)
    pairs — 32-hex-char rows, never the values themselves, so the exchange
    is distinct-values-sized with fixed-width rows (the same digest-shuffle
    class as ``exact_dedup``). ``groupby(col, digest)`` collapses
    cross-batch repeats, then a second (n_cols-row) aggregate counts groups
    per column. Nothing corpus-sized ever reaches the driver.

Rendered min/max parity with SQL (`CAST(MIN(col) AS VARCHAR)`): Python
``str()`` and DuckDB both use shortest-round-trip formatting for doubles
and `YYYY-MM-DD HH:MM:SS[.ffffff]` for timestamps (fraction omitted when
zero) — verified value-for-value in tests. md5-of-canonical-string is the
shared content-identity rule used across the repo (byte-parity with
DuckDB's ``md5``); distinct-by-digest equals distinct-by-value modulo md5
collisions, the same assumption exact_dedup documents. NaN floats are not
handled (DuckDB orders NaN above +inf; Arrow min_max skips only nulls).
"""

from __future__ import annotations

import dataclasses as _dataclasses

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from safe_zone_ray.functions.hashing import md5_hex_batch

DOCUMENTS_COLUMNS = ["doc_id", "text", "lang", "source", "n_chars"]


def _canonical_strings(arr: pa.Array) -> pa.Array:
    """Non-null values as an injective canonical string form (int64 ->
    decimal digits, double -> shortest round-trip, timestamp -> ISO;
    strings pass through). Used only as the distinct-digest preimage, so
    injectivity is the requirement, not SQL parity."""
    if pa.types.is_string(arr.type) or pa.types.is_large_string(arr.type):
        return arr
    return pc.cast(arr, pa.string())


def _stats_partial(batch: pa.Table) -> pa.Table:
    cols, n_rows, n_nulls, mins, maxs = [], [], [], [], []
    for name in batch.column_names:
        col = batch.column(name)
        cols.append(name)
        n_rows.append(batch.num_rows)
        n_nulls.append(col.null_count)
        if batch.num_rows == col.null_count:
            mins.append(None)
            maxs.append(None)
        else:
            mm = pc.min_max(col)
            mins.append(str(mm["min"].as_py()))
            maxs.append(str(mm["max"].as_py()))
    return pa.Table.from_arrays(
        [
            pa.array(cols, pa.string()),
            pa.array(n_rows, pa.int64()),
            pa.array(n_nulls, pa.int64()),
            pa.array(mins, pa.string()),
            pa.array(maxs, pa.string()),
        ],
        names=["col_name", "n_rows", "n_nulls", "min_val", "max_val"],
    )


def _distinct_partial(batch: pa.Table) -> pa.Table:
    names_out: list[pa.Array] = []
    digests: list[pa.Array] = []
    for name in batch.column_names:
        col = batch.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        uniq = pc.unique(col.drop_null())
        if len(uniq) == 0:
            continue
        d = md5_hex_batch(_canonical_strings(uniq))
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        names_out.append(pa.array([name] * len(uniq), pa.string()))
        digests.append(d)
    if not names_out:
        return pa.Table.from_arrays(
            [pa.array([], pa.string()), pa.array([], pa.string())],
            names=["col_name", "digest"],
        )
    return pa.Table.from_arrays(
        [pa.concat_arrays(names_out), pa.concat_arrays(digests)],
        names=["col_name", "digest"],
    )


def _typed(val: str, typ: pa.DataType):
    """Parse a rendered partial min/max back into a totally-ordered key for
    the driver merge. Timestamps stay strings: the fixed-width ISO render is
    monotone (a zero fraction is omitted, and any present '.ffffff' sorts
    after the bare prefix, which is exactly >= .000001 > 0)."""
    if pa.types.is_integer(typ):
        return int(val)
    if pa.types.is_floating(typ):
        return float(val)
    return val


def _parquet_schema(path: str | list[str]) -> pa.Schema:
    """Footer schema of the first fragment (file, list or directory)."""
    import os

    import pyarrow.parquet as pq

    first = path[0] if isinstance(path, list) else path
    if os.path.isdir(first):
        names = sorted(f for f in os.listdir(first) if f.endswith(".parquet"))
        if not names:
            raise ValueError(
                f"no .parquet files directly under {first!r} — pass a file, "
                "a list of files, or a flat fragment directory"
            )
        first = os.path.join(first, names[0])
    return pq.read_schema(first)


def _merge_stats_partials(
    partials: list[dict], columns: list[str], schema: pa.Schema | dict
) -> dict[str, dict]:
    """Dtype-aware driver merge of pass-1 stats partials — shared by the
    exact and HLL profilers so future merge fixes apply to both."""
    types = schema if isinstance(schema, dict) else {f.name: f.type for f in schema}
    merged: dict[str, dict] = {
        name: {"n_rows": 0, "n_nulls": 0, "min": None, "max": None}
        for name in columns
    }
    for row in partials:
        m = merged[row["col_name"]]
        m["n_rows"] += row["n_rows"]
        m["n_nulls"] += row["n_nulls"]
        for key, val, pick in (("min", row["min_val"], min), ("max", row["max_val"], max)):
            if val is None:
                continue
            typed = _typed(val, types[row["col_name"]])
            m[key] = typed if m[key] is None else pick(m[key], typed)
    return merged


def table_profile(path: str | list[str], columns: list[str]) -> pa.Table:
    """Profile a Parquet table: one row per column, sorted by name —
    ``(col_name, n_rows, n_nulls, n_distinct, min_val, max_val)`` with
    min/max rendered as strings (SQL twin: ``CAST(MIN(col) AS VARCHAR)``).
    Supported column types: integer, floating, string, timestamp."""
    ds = ray.data.read_parquet(path, columns=columns)

    # Pass 1: bounded per-batch partials, dtype-aware driver merge.
    merged = _merge_stats_partials(
        ds.map_batches(_stats_partial, batch_format="pyarrow").take_all(),
        columns,
        _parquet_schema(path),
    )

    # Pass 2: exact distinct via the digest exchange (nothing corpus-sized
    # leaves the cluster; the driver sees n_cols rows).
    distinct_rows = (
        ray.data.read_parquet(path, columns=columns)
        .map_batches(_distinct_partial, batch_format="pyarrow")
        .groupby(["col_name", "digest"])
        .count()
        .groupby("col_name")
        .count()
        .take_all()
    )
    n_distinct = {r["col_name"]: r["count()"] for r in distinct_rows}

    names = sorted(columns)
    return pa.Table.from_arrays(
        [
            pa.array(names, pa.string()),
            pa.array([merged[n]["n_rows"] for n in names], pa.int64()),
            pa.array([merged[n]["n_nulls"] for n in names], pa.int64()),
            pa.array([n_distinct.get(n, 0) for n in names], pa.int64()),
            pa.array(
                [None if merged[n]["min"] is None else str(merged[n]["min"]) for n in names],
                pa.string(),
            ),
            pa.array(
                [None if merged[n]["max"] is None else str(merged[n]["max"]) for n in names],
                pa.string(),
            ),
        ],
        names=["col_name", "n_rows", "n_nulls", "n_distinct", "min_val", "max_val"],
    )


def documents_profile(sf_dir: str) -> pa.Table:
    return table_profile(f"{sf_dir}/documents.parquet", DOCUMENTS_COLUMNS)


def profile_oracle_sql(table: str, columns: list[str]) -> str:
    parts = []
    for name in columns:
        parts.append(
            f"SELECT '{name}' AS col_name, COUNT(*) AS n_rows, "
            f"COUNT(*) - COUNT({name}) AS n_nulls, "
            f"COUNT(DISTINCT {name}) AS n_distinct, "
            f"CAST(MIN({name}) AS VARCHAR) AS min_val, "
            f"CAST(MAX({name}) AS VARCHAR) AS max_val FROM {table}"
        )
    union = " UNION ALL ".join(parts)
    return f"SELECT * FROM ({union}) ORDER BY col_name"


def documents_profile_oracle_sql() -> str:
    return profile_oracle_sql("documents", DOCUMENTS_COLUMNS)


# ---------------------------------------------------------------------------
# Constraint verification (the Deequ / Great-Expectations class of operator:
# declarative data-quality assertions checked in one distributed pass).
# ---------------------------------------------------------------------------

CONSTRAINT_KINDS = (
    "not_null", "unique", "in_set", "matches_regex",
    "min_length", "positive", "equals_length_of",
)


@_dataclasses.dataclass(frozen=True)
class Constraint:
    """One declarative data-quality rule. The SAME object generates both
    the distributed Arrow kernel (``_violations``) and the DuckDB twin
    (``_sql_violation_expr``) — a rule cannot drift between engines."""

    name: str
    kind: str
    column: str
    values: tuple[str, ...] = ()
    pattern: str = ""
    threshold: int = 0
    other: str = ""


DOCUMENTS_CONSTRAINTS = (
    Constraint("doc_id_not_null", "not_null", "doc_id"),
    Constraint("doc_id_unique", "unique", "doc_id"),
    Constraint("lang_in_domain", "in_set", "lang", values=("de", "en", "es", "fr", "zh")),
    Constraint("n_chars_matches_text", "equals_length_of", "n_chars", other="text"),
    Constraint("n_chars_positive", "positive", "n_chars"),
    Constraint("source_matches_pattern", "matches_regex", "source", pattern=r"^src[0-9]+$"),
    Constraint("text_min_length_100", "min_length", "text", threshold=100),
)


def _violations(batch: pa.Table, c: Constraint) -> int:
    """Row-local violation count for one batch, with SQL null semantics
    (NULL is out-of-domain / too-short / non-positive; equals_length_of is
    ``IS DISTINCT FROM``)."""
    col = batch.column(c.column)
    n = batch.num_rows
    if c.kind == "not_null":
        return col.null_count
    if c.kind == "in_set":
        ok = pc.fill_null(pc.is_in(col, value_set=pa.array(list(c.values))), False)
        return n - int(pc.sum(ok).as_py() or 0)
    if c.kind == "matches_regex":
        ok = pc.fill_null(pc.match_substring_regex(col, c.pattern), False)
        return n - int(pc.sum(ok).as_py() or 0)
    if c.kind == "min_length":
        bad = pc.fill_null(pc.less(pc.utf8_length(col), c.threshold), True)
        return int(pc.sum(bad).as_py() or 0)
    if c.kind == "positive":
        bad = pc.fill_null(pc.less_equal(col, 0), True)
        return int(pc.sum(bad).as_py() or 0)
    if c.kind == "equals_length_of":
        other = batch.column(c.other)
        ne = pc.fill_null(pc.not_equal(col, pc.utf8_length(other)), False).to_numpy(
            zero_copy_only=False
        )
        v1 = pc.is_valid(col).to_numpy(zero_copy_only=False)
        v2 = pc.is_valid(other).to_numpy(zero_copy_only=False)
        return int((ne | (v1 != v2)).sum())
    raise ValueError(f"unknown constraint kind {c.kind!r}")


def _validate_rules(constraints: tuple[Constraint, ...]) -> None:
    """Reject malformed rule lists up front (the engine is a public generic
    API): duplicate names, reserved `_nulls_*` names (used by the internal
    ride-along rows), more than one uniqueness rule per column, and unknown
    kinds all raise instead of corrupting the merge."""
    names = [c.name for c in constraints]
    if len(set(names)) != len(names):
        raise ValueError("duplicate constraint names")
    if any(n.startswith("_nulls_") for n in names):
        raise ValueError("constraint names starting with '_nulls_' are reserved")
    ucols = [c.column for c in constraints if c.kind == "unique"]
    if len(set(ucols)) != len(ucols):
        raise ValueError("at most one 'unique' constraint per column")
    for c in constraints:
        if c.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {c.kind!r}")


def _sql_str(v: str) -> str:
    return "'" + v.replace("'", "''") + "'"


def _sql_violation_expr(c: Constraint) -> str:
    col = c.column
    if c.kind == "not_null":
        return f"COUNT(*) - COUNT({col})"
    if c.kind == "unique":
        return f"COUNT({col}) - COUNT(DISTINCT {col})"
    if c.kind == "in_set":
        vals = ", ".join(_sql_str(v) for v in c.values)
        return f"COUNT(*) FILTER ({col} IS NULL OR {col} NOT IN ({vals}))"
    if c.kind == "matches_regex":
        return (
            f"COUNT(*) FILTER ({col} IS NULL OR "
            f"NOT regexp_matches({col}, {_sql_str(c.pattern)}))"
        )
    if c.kind == "min_length":
        return f"COUNT(*) FILTER ({col} IS NULL OR length({col}) < {c.threshold})"
    if c.kind == "positive":
        return f"COUNT(*) FILTER ({col} <= 0 OR {col} IS NULL)"
    if c.kind == "equals_length_of":
        return f"COUNT(*) FILTER ({col} IS DISTINCT FROM length({c.other}))"
    raise ValueError(f"unknown constraint kind {c.kind!r}")


def constraint_report(
    path: str | list[str],
    columns: list[str],
    constraints: tuple[Constraint, ...],
) -> pa.Table:
    """Deequ-style verification suite: per constraint — rows checked,
    violations, pass/fail. Row-local constraints run in ONE shuffle-free
    pass of bounded partials; each ``unique`` constraint adds a key-only
    groupby (the count of groups IS the distinct count; only keys move).
    An EMPTY table reports every constraint as passed with 0 rows (the
    merge is seeded, matching the SQL twin)."""
    _validate_rules(constraints)
    row_local = [c for c in constraints if c.kind != "unique"]
    uniques = [c for c in constraints if c.kind == "unique"]
    ds = ray.data.read_parquet(path, columns=columns)

    def partial(batch: pa.Table) -> pa.Table:
        names = [c.name for c in row_local]
        # null counts for unique constraints ride along as internal rows
        names += [f"_nulls_{c.column}" for c in uniques]
        counts = [_violations(batch, c) for c in row_local]
        counts += [batch.column(c.column).null_count for c in uniques]
        return pa.Table.from_arrays(
            [
                pa.array(names, pa.string()),
                pa.array([batch.num_rows] * len(names), pa.int64()),
                pa.array(counts, pa.int64()),
            ],
            names=["constraint_name", "n_rows", "n_violations"],
        )

    partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged: dict[str, list[int]] = {c.name: [0, 0] for c in row_local}
    merged.update({f"_nulls_{c.column}": [0, 0] for c in uniques})
    for row in partials:
        m = merged[row["constraint_name"]]
        m[0] += row["n_rows"]
        m[1] += row["n_violations"]

    n_rows = next(iter(merged.values()))[0] if merged else 0
    for c in uniques:
        n_nulls = merged.pop(f"_nulls_{c.column}")[1]
        n_distinct = (
            ray.data.read_parquet(path, columns=[c.column])
            .map_batches(lambda t: t.drop_null(), batch_format="pyarrow")
            .groupby(c.column)
            .count()
            .count()
        )
        # duplicates among NON-NULL keys (SQL: COUNT(col) - COUNT(DISTINCT))
        merged[c.name] = [n_rows, (n_rows - n_nulls) - int(n_distinct)]

    names = sorted(merged)
    return pa.Table.from_arrays(
        [
            pa.array(names, pa.string()),
            pa.array([merged[k][0] for k in names], pa.int64()),
            pa.array([merged[k][1] for k in names], pa.int64()),
            pa.array([merged[k][1] == 0 for k in names], pa.bool_()),
        ],
        names=["constraint_name", "n_rows", "n_violations", "passed"],
    )


def constraint_oracle_sql(table: str, constraints: tuple[Constraint, ...]) -> str:
    _validate_rules(constraints)
    parts = [
        f"SELECT '{c.name}' AS constraint_name, COUNT(*) AS n_rows, "
        f"{_sql_violation_expr(c)} AS n_violations, "
        f"{_sql_violation_expr(c)} = 0 AS passed FROM {table}"
        for c in constraints
    ]
    union = " UNION ALL ".join(parts)
    return f"SELECT * FROM ({union}) ORDER BY constraint_name"


def documents_constraint_report(sf_dir: str) -> pa.Table:
    """The documents-table instance of the rule-driven verifier.
    Violated-by-construction on the bench corpus: text_min_length_100."""
    return constraint_report(
        f"{sf_dir}/documents.parquet", DOCUMENTS_COLUMNS, DOCUMENTS_CONSTRAINTS
    )


def documents_constraint_report_oracle_sql() -> str:
    return constraint_oracle_sql("documents", DOCUMENTS_CONSTRAINTS)


def _hll_partial(batch: pa.Table, p: int) -> pa.Table:
    """One fixed-size (col_name, 2^p-byte registers) row per column per
    batch — the scale path for distinct: the exact digest exchange above is
    distinct-values-sized (corpus-sized for high-cardinality columns at
    10^12 rows), while this never shuffles at all; the driver merges
    n_cols x n_batches register rows by elementwise max."""
    from safe_zone_ray.functions.sketch import hll_registers

    names_out, regs_out = [], []
    for name in batch.column_names:
        col = batch.column(name)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        uniq = pc.unique(col.drop_null())
        vals = _canonical_strings(uniq).to_pylist() if len(uniq) else []
        names_out.append(name)
        regs_out.append(hll_registers(vals, p).tobytes())
    return pa.Table.from_arrays(
        [pa.array(names_out, pa.string()), pa.array(regs_out, pa.binary())],
        names=["col_name", "registers"],
    )


def table_profile_approx(
    path: str | list[str], columns: list[str], p: int = 12
) -> pa.Table:
    """`table_profile` with HLL-approximate distinct (~1.6% sigma at p=12,
    exact-by-linear-counting at small cardinalities): identical output
    schema with `n_distinct` replaced by `n_distinct_approx`. ONE streaming
    pass over ONE read: the stats partial and the HLL registers ride in the
    same per-(batch, column) row, so the whole profile costs a single scan
    with no shuffle — the true 100-TB shape (the exact profiler needs its
    distinct-sized digest exchange and a second read). Rows-only for the
    driver (an estimate has no SQL twin); accuracy vs the exact profiler is
    pinned in tests. Fully deterministic (blake2b hashing)."""
    from safe_zone_ray.functions.sketch import hll_estimate, hll_merge

    def fused(batch: pa.Table) -> pa.Table:
        # both partials emit exactly one row per column in
        # batch.column_names order, so the registers column appends 1:1
        stats = _stats_partial(batch)
        regs = _hll_partial(batch, p)
        assert regs.column("col_name").to_pylist() == stats.column("col_name").to_pylist()
        return stats.append_column("registers", regs.column("registers"))

    ds = ray.data.read_parquet(path, columns=columns)
    partials = ds.map_batches(fused, batch_format="pyarrow").take_all()
    merged = _merge_stats_partials(partials, columns, _parquet_schema(path))
    by_col: dict[str, list[bytes]] = {}
    for r in partials:
        by_col.setdefault(r["col_name"], []).append(r["registers"])
    n_approx = {
        name: int(round(hll_estimate(hll_merge(rows, p))))
        for name, rows in by_col.items()
    }

    names = sorted(columns)
    return pa.Table.from_arrays(
        [
            pa.array(names, pa.string()),
            pa.array([merged[n]["n_rows"] for n in names], pa.int64()),
            pa.array([merged[n]["n_nulls"] for n in names], pa.int64()),
            pa.array([n_approx.get(n, 0) for n in names], pa.int64()),
            pa.array(
                [None if merged[n]["min"] is None else str(merged[n]["min"]) for n in names],
                pa.string(),
            ),
            pa.array(
                [None if merged[n]["max"] is None else str(merged[n]["max"]) for n in names],
                pa.string(),
            ),
        ],
        names=["col_name", "n_rows", "n_nulls", "n_distinct_approx", "min_val", "max_val"],
    )


def documents_profile_approx(sf_dir: str) -> pa.Table:
    return table_profile_approx(f"{sf_dir}/documents.parquet", DOCUMENTS_COLUMNS)
