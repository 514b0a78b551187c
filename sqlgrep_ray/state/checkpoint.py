"""Per-partition checkpointing with lineage — resumable pipeline runs.

The reference has no checkpointing (a killed run restarts from scratch,
SURVEY §4.1); at 100 TB that is unacceptable, so the rebuild adds the
north_rule's per-partition lineage:

* input shards (parquet files) are grouped into **chunks** — the unit of
  work and of resume;
* each completed chunk writes a manifest entry
  (``<out>/_manifest/chunk-<id>.json``) recording its input files, mtimes,
  row counts and wall time;
* output rows carry a ``shard`` column and are written with
  ``partition_cols=["shard", ...]`` so a chunk's output lives in
  deterministic directories;
* on resume, chunks with a manifest entry are SKIPPED; a chunk that started
  but never finished gets its partial output directories deleted before
  re-running, making each chunk exactly-once.

A chunk is read with one read task per shard file
(:func:`sqlgrep_ray.sources.read_shards`, the rule ``flagship()`` uses),
so with a pipeline of plain ``map_batches`` functions each shard runs as
ONE fused task, read → ``shard`` column → pipeline → write, and a pass
writes one file per (shard, partition) directory. The trade-off: a
chunk's parallelism is its file count (``files_per_chunk``), capped at 4
tasks per CPU."""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import pyarrow as pa
import ray.data

from sqlgrep_ray.sources import list_input_shards, read_shards

ENGINE_VERSION = "sqlgrep_ray-0.1.0"


def _shard_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _add_shard(t: pa.Table) -> pa.Table:
    """Replace the read's ``path`` column with the ``shard`` name: each
    chunk of paths is dictionary-encoded, its few distinct paths named,
    and the names taken by the dictionary indices."""
    chunks = []
    for c in t["path"].chunks:
        d = c.dictionary_encode()
        names = [_shard_name(p) for p in d.dictionary.to_pylist()]
        chunks.append(pa.array(names, pa.string()).take(d.indices))
    shard = pa.chunked_array(chunks, pa.string())
    return t.drop_columns(["path"]).append_column("shard", shard)


@dataclass
class ChunkResult:
    chunk_id: str
    files: list[str]
    rows_out: int
    seconds: float
    skipped: bool


class CheckpointedRun:
    """Drives ``build_pipeline`` over input shards chunk-by-chunk with resume.

    ``build_pipeline(ds) -> ds`` must be a pure Dataset→Dataset function; the
    input Dataset already carries the ``shard`` column and the pipeline MUST
    preserve it (it is the output partition key that makes chunks resumable).
    """

    def __init__(
        self,
        input_dir: str,
        out_dir: str,
        build_pipeline: Callable[["ray.data.Dataset"], "ray.data.Dataset"],
        extra_partition_cols: Sequence[str] = (),
        files_per_chunk: int = 2,
    ):
        self.input_dir = input_dir
        self.out_dir = out_dir
        self.build_pipeline = build_pipeline
        self.extra_partition_cols = list(extra_partition_cols)
        self.files_per_chunk = files_per_chunk
        self.manifest_dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.manifest_dir, exist_ok=True)

    # -- manifest ----------------------------------------------------------

    def _chunk_id(self, files: Sequence[str]) -> str:
        import hashlib

        h = hashlib.sha1("|".join(_shard_name(f) for f in files).encode()).hexdigest()
        return h[:12]

    def _manifest_path(self, chunk_id: str) -> str:
        return os.path.join(self.manifest_dir, f"chunk-{chunk_id}.json")

    def is_done(self, chunk_id: str) -> bool:
        return os.path.exists(self._manifest_path(chunk_id))

    def _mark_done(self, chunk_id: str, files: Sequence[str], rows: int, secs: float) -> None:
        entry = {
            "chunk_id": chunk_id,
            "engine": ENGINE_VERSION,
            "inputs": [
                {
                    "path": f,
                    "mtime": os.path.getmtime(f),
                    "bytes": os.path.getsize(f),
                }
                for f in files
            ],
            "rows_out": rows,
            "seconds": secs,
            "completed_at": time.time(),
        }
        tmp = self._manifest_path(chunk_id) + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(entry, fh)
        os.replace(tmp, self._manifest_path(chunk_id))  # atomic commit

    # -- execution ---------------------------------------------------------

    def _clean_partial(self, files: Sequence[str]) -> None:
        """Delete output partitions of an unfinished chunk (idempotent rerun)."""
        for f in files:
            d = os.path.join(self.out_dir, f"shard={_shard_name(f)}")
            if os.path.isdir(d):
                shutil.rmtree(d)

    def chunks(self) -> list[list[str]]:
        files = list_input_shards(self.input_dir)
        k = self.files_per_chunk
        return [files[i : i + k] for i in range(0, len(files), k)]

    def _count_chunk_rows(self, files: Sequence[str]) -> int:
        """Row count of a chunk's output from parquet FOOTER metadata only."""
        import pyarrow.parquet as pq

        total = 0
        for f in files:
            d = os.path.join(self.out_dir, f"shard={_shard_name(f)}")
            if not os.path.isdir(d):
                continue
            for root, _dirs, names in os.walk(d):
                for n in names:
                    if n.endswith(".parquet"):
                        total += pq.ParquetFile(os.path.join(root, n)).metadata.num_rows
        return total

    def run(self, max_chunks: Optional[int] = None) -> list[ChunkResult]:
        """Process all pending chunks (optionally at most ``max_chunks`` —
        used by the kill/resume test). Returns per-chunk results."""
        results: list[ChunkResult] = []
        done_count = 0
        for files in self.chunks():
            cid = self._chunk_id(files)
            if self.is_done(cid):
                results.append(ChunkResult(cid, list(files), -1, 0.0, skipped=True))
                continue
            if max_chunks is not None and done_count >= max_chunks:
                break
            self._clean_partial(files)
            t0 = time.time()
            ds = read_shards(files, include_paths=True)
            ds = ds.map_batches(_add_shard, batch_format="pyarrow", zero_copy_batch=True)
            out = self.build_pipeline(ds)
            out.write_parquet(
                self.out_dir,
                partition_cols=["shard", *self.extra_partition_cols],
            )
            rows = self._count_chunk_rows(files)
            secs = time.time() - t0
            self._mark_done(cid, files, rows, secs)
            done_count += 1
            results.append(ChunkResult(cid, list(files), rows, secs, skipped=False))
        return results
