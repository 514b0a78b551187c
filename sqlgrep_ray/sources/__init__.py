"""Sources and sinks: parquet/text readers, routed parquet fan-out writers,
and the deterministic synthetic transcripts generator."""

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


def read_shards(files: Sequence[str], **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` over shard files with one read task per
    file, but never more than 4 per CPU.

    Never more blocks than files: Ray's default block count splits a read
    of a few files with a ``SplitBlocks`` step, which breaks read→map
    fusion (downstream maps and a write run as a second operator, with
    twice the write tasks and so twice the files per output partition) and
    doubles object-store traffic for the raw text blocks. Never more than
    ~4 tasks per CPU: at 800 shards, one task per file pays ~3 s of pure
    task overhead per stage at 32 CPUs (round-4 block-size sweep in
    BASELINE.md: 800 blocks 7.6 s vs 128 blocks 4.6 s for the same
    pipeline). So a read's parallelism is its file count, up to that cap."""
    files = list(files)
    cpus = ray.cluster_resources().get("CPU", 8) if ray.is_initialized() else 8
    blocks = max(1, min(len(files), int(cpus) * 4))
    return ray.data.read_parquet(files, override_num_blocks=blocks, **kwargs)


def read_parquet_clean(paths: Any, **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` + schema-metadata strip (fuses with the
    read; keeps real warnings visible downstream)."""
    return ray.data.read_parquet(paths, **kwargs).map_batches(
        strip_schema_metadata, batch_format="pyarrow", zero_copy_batch=True
    )
