"""Pages reader and decisions writer.

S1/S2 analogue (SURVEY.md section 2.1): ``read_pages`` reads the pages
directory through ``PagesDatasource``, one read task per Parquet file,
planned from the files' footers — each row is one ``DetectRequest``.
``include_paths`` tags every row with its input fragment (file) for
lineage/resume. S5/S6 analogue: partitioned Parquet decisions + lineage
sidecar.
"""

from __future__ import annotations

import functools

import ray.data
from ray.data.datasource import Datasource, ReadTask

PAGES_COLUMNS = ["url", "warc_ts", "html", "text", "lang"]

MIN_BLOCK_BYTES = 1 << 20


class PagesDatasource(Datasource):
    """One read task per Parquet file of ``pages_path``, each reading its
    whole file as one block, planned from the files' footers alone.

    The files are those ``ray.data.read_parquet`` finds for the same
    path(s) (``pyarrow.dataset`` discovery). Each footer gives the file's
    row count and its uncompressed size over the read columns; that is the
    whole plan. ``ray.data.read_parquet`` would build a ``ParquetDataset``
    again and launch remote tasks that sample every file to estimate an
    encoding ratio, on each build; a plan of one block per file needs
    neither. A file whose footer cannot be read fails here, with its name,
    and so does a path that holds no Parquet file.
    Each file is read with its own schema, and hive-style ``key=value``
    directories add no columns.
    """

    def __init__(
        self,
        pages_path: str | list[str],
        columns: list[str] | None = None,
        include_paths: bool = False,
    ):
        import pyarrow as pa
        import pyarrow.dataset as pads
        import pyarrow.parquet as pq

        self.columns = columns or PAGES_COLUMNS
        self.include_paths = include_paths
        found = pads.dataset(pages_path, format="parquet")
        self.files, self._filesystem = found.files, found.filesystem
        if not self.files:
            raise FileNotFoundError(f"no Parquet files in {pages_path}")
        self.rows, self.sizes = [], []
        self._schema = None
        for f in self.files:
            try:
                meta = pq.read_metadata(f, filesystem=self._filesystem)
            except (OSError, pa.ArrowException) as e:
                raise type(e)(f"cannot read the Parquet footer of {f}: {e}") from e
            read = [
                i
                for i in range(meta.num_columns)
                if meta.schema.column(i).path.split(".")[0] in self.columns
            ]
            self.rows.append(meta.num_rows)
            self.sizes.append(
                sum(
                    meta.row_group(g).column(i).total_uncompressed_size
                    for g in range(meta.num_row_groups)
                    for i in read
                )
            )
            if self._schema is None:
                schema = meta.schema.to_arrow_schema()
                fields = [schema.field(c) for c in self.columns if c in schema.names]
                if include_paths:
                    fields.append(pa.field("path", pa.string()))
                self._schema = pa.schema(fields)

    def get_name(self) -> str:
        return "Parquet"

    def estimate_inmemory_data_size(self) -> int:
        return sum(self.sizes)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        """One task per file, whatever ``parallelism`` asks."""
        from ray.data.block import BlockMetadata

        return [
            ReadTask(
                functools.partial(
                    _read_file, f, self.columns, self.include_paths, self._filesystem
                ),
                BlockMetadata(num_rows=rows, size_bytes=size, input_files=[f], exec_stats=None),
                schema=self._schema,
            )
            for f, rows, size in zip(self.files, self.rows, self.sizes)
        ]


def _read_file(path, columns, include_paths, filesystem):
    """The block of one pages file (none when it holds no rows)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    table = pq.read_table(path, columns=columns, filesystem=filesystem)
    if include_paths:
        paths = pc.fill_null(pa.nulls(table.num_rows, pa.string()), path)
        table = table.append_column("path", paths)
    return [table] if table.num_rows else []


def read_pages(
    pages_path: str | list[str],
    include_paths: bool = False,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Column-pruned streaming read of the pages table, one block per input
    file, with every read task admitted at once.

    The read plan is worked out from the footers (``PagesDatasource``):

    - one read task and one block per Parquet file, so Ray adds no
      ``SplitBlocks`` op and the read fuses with the stages and the write
      into one operator (named ``ReadParquet`` like Ray's own read);
    - the Dataset's own ``DataContext.target_max_block_size`` is set to
      twice the largest file's footer-uncompressed size over the read
      columns, clamped to [1 MiB, Ray's default].

    The target matters because, until a task of an operator finishes, Ray
    Data estimates each running task's pending output as
    ``target_max_block_size`` (128 MiB by default) times its streaming
    generator buffer of 2 blocks (``ray/data/_internal/execution/interfaces/
    op_runtime_metrics.py:585-604``, Ray 2.49.2). Against a small object
    store that 256 MiB guess admits one task alone until it reports its real
    output size, a few MB, and the other CPUs idle meanwhile. A target near
    the real block size makes the guess right from the start. Only this
    plan's copy of the context changes; the global one is left alone.
    """
    from ray.data.context import DEFAULT_TARGET_MAX_BLOCK_SIZE

    source = PagesDatasource(pages_path, columns, include_paths)
    ds = ray.data.read_datasource(source, override_num_blocks=len(source.files))
    ds.context.target_max_block_size = min(
        DEFAULT_TARGET_MAX_BLOCK_SIZE, max(MIN_BLOCK_BYTES, 2 * max(source.sizes))
    )
    return ds


def write_decisions(ds: ray.data.Dataset, out_dir: str, partition_cols: list[str] | None = None) -> None:
    """Write the decisions table as partitioned Parquet (resumable layout:
    one directory per partition key — never one giant file)."""
    if partition_cols:
        ds.write_parquet(out_dir, partition_cols=partition_cols)
    else:
        ds.write_parquet(out_dir)


def _coerce_pages_batch(batch):
    """Coerce a loosely-typed batch (JSONL/CSV ingest) to the pages schema:
    url/text/lang strings, warc_ts timestamp[us] (ISO-8601 strings parsed),
    html binary (JSON/CSV cannot carry raw bytes, so the html column is
    BASE64 text there; absent columns become nulls). Vectorized: Arrow
    casts + one C-level b64decode per row."""
    import base64

    import pyarrow as pa
    import pyarrow.compute as pc

    n = batch.num_rows
    cols = {name: None for name in PAGES_COLUMNS}
    have = set(batch.schema.names)
    for name in ("url", "text", "lang"):
        cols[name] = (
            pc.cast(batch.column(name), pa.string())
            if name in have
            else pa.nulls(n, pa.string())
        )
    if "warc_ts" in have:
        ts = batch.column("warc_ts")
        if pa.types.is_timestamp(ts.type):
            cols["warc_ts"] = pc.cast(ts, pa.timestamp("us"))
        else:
            cols["warc_ts"] = _parse_iso_ts(pc.cast(ts, pa.string()))
    else:
        cols["warc_ts"] = pa.nulls(n, pa.timestamp("us"))
    if "html" in have:
        h = batch.column("html")
        if pa.types.is_binary(h.type) or pa.types.is_large_binary(h.type):
            cols["html"] = pc.cast(h, pa.binary())
        else:
            cols["html"] = pa.array(
                [
                    base64.b64decode(v) if v is not None else None
                    for v in pc.cast(h, pa.string()).to_pylist()
                ],
                pa.binary(),
            )
    else:
        cols["html"] = pa.nulls(n, pa.binary())
    return pa.Table.from_arrays([cols[c] for c in PAGES_COLUMNS], names=PAGES_COLUMNS)


def _parse_iso_ts(s):
    """ISO-8601 timestamp strings → timestamp[us], accepting the variants
    real crawl dumps carry: fractional seconds, space separator (Arrow's
    naive cast), a uniform trailing Z / zone offset (tz-aware cast,
    converted to UTC wall time), and as a last resort a per-row
    ``datetime.fromisoformat`` for mixed naive/offset columns."""
    import datetime as _dt

    import pyarrow as pa
    import pyarrow.compute as pc

    try:
        return pc.cast(s, pa.timestamp("us"))
    except pa.ArrowInvalid:
        pass
    try:
        aware = pc.cast(s, pa.timestamp("us", tz="UTC"))
        return pc.local_timestamp(aware)  # UTC wall time, tz dropped
    except pa.ArrowInvalid:
        pass

    def one(v: str | None):
        if v is None:
            return None
        d = _dt.datetime.fromisoformat(v.replace("Z", "+00:00"))
        if d.tzinfo is not None:
            d = d.astimezone(_dt.timezone.utc).replace(tzinfo=None)
        return d

    return pa.array([one(v) for v in s.to_pylist()], pa.timestamp("us"))


def read_pages_jsonl(pages_path: str | list[str]) -> ray.data.Dataset:
    """Pages ingest from JSONL (the reference's own wire format is JSON
    requests — `main.go` /detect bodies; crawl dumps commonly arrive as
    JSONL shards). One streaming read + a vectorized coercion to the exact
    pages schema, so every downstream stage is format-agnostic."""
    return ray.data.read_json(pages_path).map_batches(
        _coerce_pages_batch, batch_format="pyarrow"
    )


def read_pages_csv(pages_path: str | list[str]) -> ray.data.Dataset:
    """Pages ingest from CSV shards, coerced to the pages schema (html is
    base64 text if present)."""
    return ray.data.read_csv(pages_path).map_batches(
        _coerce_pages_batch, batch_format="pyarrow"
    )
