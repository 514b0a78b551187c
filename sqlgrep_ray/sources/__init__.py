"""Sources and sinks: parquet/text readers, routed parquet fan-out writers,
and the deterministic synthetic transcripts generator."""

import functools
import os
from typing import Any, Optional, Sequence

import pyarrow as pa
import ray
import ray.data


def strip_schema_metadata(t: pa.Table) -> pa.Table:
    """Drop schema-level metadata (zero-copy). pandas-written parquet
    carries a b'pandas' dict that breaks Ray's schema hashing and floods the
    logs with 'Failed to hash the schemas (for deduplication)' warnings."""
    if t.schema.metadata:
        return t.replace_schema_metadata(None)
    return t


def list_input_shards(input_dir: str) -> list[str]:
    """The ``.parquet`` shard files of ``input_dir``, sorted."""
    return sorted(
        os.path.join(input_dir, f)
        for f in os.listdir(input_dir)
        if f.endswith(".parquet")
    )


def _read_blocks(n_files: int, nbytes: int = 0) -> int:
    """Read tasks for ``n_files`` Parquet files holding ``nbytes`` in
    memory (0 when the caller does not read the footers): one per file,
    or one per Ray's target block size (``target_max_block_size``,
    128 MB) where that is more, but never more than 4 per CPU.

    Never more blocks than files: Ray's default block count splits a read
    of a few files with a ``SplitBlocks`` step, which breaks read→map
    fusion (downstream maps and a write run as a second operator, with
    twice the write tasks and so twice the files per output partition) and
    doubles object-store traffic for the raw text blocks. Never more than
    ~4 tasks per CPU: at 800 shards, one task per file pays ~3 s of pure
    task overhead per stage at 32 CPUs (round-4 block-size sweep in
    BASELINE.md: 800 blocks 7.6 s vs 128 blocks 4.6 s for the same
    pipeline). The trade-off: a file is split only when its footers
    count more than one target block, so a file of up to 128 MB reads
    (and maps) in one task, however many CPUs are idle; a larger one
    splits (``SplitBlocks``) and its maps fan out, as Ray's default does."""
    target = ray.data.DataContext.get_current().target_max_block_size or 1
    return max(1, min(max(n_files, -(-nbytes // target)), _max_read_blocks()))


def _max_read_blocks() -> int:
    """The cap of :func:`_read_blocks`: 4 read tasks per CPU."""
    cpus = ray.cluster_resources().get("CPU", 8) if ray.is_initialized() else 8
    return int(cpus) * 4


def read_shards(files: Sequence[str], **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` over shard files, one read task per file
    up to the cap of :func:`_read_blocks`. Shard footers are not read:
    shards are many small files, so a shard is never split."""
    files = list(files)
    return ray.data.read_parquet(
        files, override_num_blocks=_read_blocks(len(files)), **kwargs
    )


def read_parquet_clean(paths: Any, **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` + schema-metadata strip (fuses with the
    read; keeps real warnings visible downstream), with the block rule of
    :func:`_read_blocks` over the files Ray lists (:func:`_parquet_files`)
    and, when they are fewer than the cap, their footer size: a one-file
    source of up to 128 MB reads, strips and runs every downstream map in
    one fused task."""
    if "override_num_blocks" not in kwargs:
        try:
            files = _parquet_files(paths)
            nbytes = _files_size(files)[1] if len(files) < _max_read_blocks() else 0
            kwargs["override_num_blocks"] = _read_blocks(len(files), nbytes)
        except (OSError, ValueError, pa.ArrowException):
            pass  # a listing pyarrow cannot make: Ray's own block count
    return ray.data.read_parquet(paths, **kwargs).map_batches(
        strip_schema_metadata, batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# A Parquet path as ``read_parquet`` sees it, answered on the driver: column
# names, footer row count and (small) whole reads cost a footer read each,
# where a Ray execution costs ~0.1 s of fixed overhead however small.
# ---------------------------------------------------------------------------


@functools.cache
def _hive_parser():
    from ray.data.datasource.partitioning import Partitioning, PathPartitionParser

    return PathPartitionParser(Partitioning("hive"))


def _parquet_files(path: Any) -> list[tuple[Any, dict]]:
    """(pyarrow fragment, hive partitions) per file Ray's
    ``read_parquet(path)`` reads: its path resolution and
    ``pq.ParquetDataset`` listing with pyarrow's own partitioning off, so
    hidden ``_``/``.`` entries (a ``_manifest`` directory) are skipped, and
    Ray's hive parser, which types every partition value as a string."""
    import pyarrow.parquet as pq
    from ray.data.datasource.path_util import _resolve_paths_and_filesystem

    paths, fs = _resolve_paths_and_filesystem(path)
    frags = pq.ParquetDataset(
        paths[0] if len(paths) == 1 else paths, filesystem=fs, partitioning=None
    ).fragments
    return [(f, _hive_parser()(f.path)) for f in frags]


def parquet_names(path: str) -> tuple[list[str], list[str]]:
    """(file columns, hive partition columns) of ``path``, from its first
    file as Ray infers them."""
    files = _parquet_files(path)
    if not files:
        return [], []
    frag, parts = files[0]
    names = frag.physical_schema.names
    return names, [k for k in parts if k not in names]


def _chunk_bytes(c) -> int:
    """In-memory bytes of one Parquet column chunk, from its footer: its
    uncompressed bytes, or, for a dictionary-encoded string chunk, which
    decodes to more, a 4-byte offset plus the longer of its min and max
    statistics for each value. Without those statistics each value counts
    as long as the whole chunk: no value is longer than the dictionary
    that holds it."""
    nbytes = c.total_uncompressed_size
    if not c.has_dictionary_page or "BYTE_ARRAY" not in c.physical_type:
        return nbytes
    st = c.statistics if c.is_stats_set else None
    if st is not None and st.has_min_max:
        width = max(len(st.min_raw), len(st.max_raw))
    else:
        width = nbytes
    return max(nbytes, c.num_values * (width + 4))


def _files_size(files: list) -> tuple[int, int]:
    """(rows, in-memory bytes) of :func:`_parquet_files` ``files`` from
    their footers (:func:`_chunk_bytes`)."""
    rows = nbytes = 0
    for f, _ in files:
        md = f.metadata
        rows += md.num_rows
        for i in range(md.num_row_groups):
            g = md.row_group(i)
            nbytes += sum(_chunk_bytes(g.column(j)) for j in range(g.num_columns))
    return rows, nbytes


def parquet_size(path: str) -> tuple[int, int]:
    """(rows, in-memory bytes) of ``path`` from its Parquet footers."""
    return _files_size(_parquet_files(path))


def read_parquet_table(path: str, columns: Optional[list] = None) -> pa.Table:
    """The rows ``read_parquet_clean(path, columns=columns)`` yields, read
    on the driver with pyarrow: the same files, file columns first, then
    the hive partition columns as strings, schema metadata stripped. An
    input whose files are all empty keeps the first file's schema."""
    files = _parquet_files(path)
    if not files:
        return pa.table({})
    first = files[0][0].physical_schema.names
    data_cols = None if columns is None else [c for c in columns if c in first]
    tables = []
    for frag, parts in files:
        t = frag.to_table(columns=data_cols)
        for k, v in parts.items():
            if k not in t.column_names and (columns is None or k in columns):
                t = t.append_column(k, pa.array([v] * t.num_rows, pa.string()))
        tables.append(strip_schema_metadata(t))
    tables = [t for t in tables if t.num_rows] or tables[:1]
    return pa.concat_tables(tables, promote_options="default")
