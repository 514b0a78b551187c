"""The engine's key-hash bucket exchange.

Every keyed operator that cannot finish per block moves its rows once,
through ``groupby("__b").map_groups`` on a block-stable key hash
(:func:`bucket_ids`), and finishes one bucket per Python call:

* :func:`bucketed` — one input: the window family, sessionize,
  conversation reassembly, grouped top-k and percentiles;
* :func:`co_bucketed` — two inputs hashed alike, so one bucket holds both
  sides' rows of the same keys: the distributed joins
  (``enrich.shuffle_join`` and its clients), the as-of join and the
  join-back of the ranged running window. This is the paper's build-once
  hash join (``join.rs:30-79``) run once per bucket instead of once per
  query (SURVEY §2.5).

Each side of :func:`co_bucketed` ships its rows as opaque Arrow IPC
pieces, one per (block, bucket) — empty or not — so a bucket always sees
both schemas: a LEFT join against an empty bucket types its NULL columns,
list columns ride through, and a block typed ``null`` by an all-NULL
column unifies with the others in the bucket. A ``fn`` call holds one
bucket, (left + right) / buckets rows; one key's rows must fit one worker.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _as_keys(key) -> list:
    """Normalize a key spec (str or sequence of str) to a list —
    composite ``PARTITION BY a, b`` support."""
    return [key] if isinstance(key, str) else list(key)


_FNV = np.uint64(1099511628211)
_NULL_SENTINEL = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized (uint64 wraparound is the point;
    numpy only warns on SCALAR overflow, so silence it explicitly)."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


_NULL_HASH = _mix64(np.uint64(_NULL_SENTINEL))


def _hash_string_col(c: "pa.Array | pa.ChunkedArray") -> np.ndarray:
    """Vectorized 64-bit hash of a STRING column straight off the Arrow
    buffers — a polynomial rolling hash (FNV-prime base) over the value
    bytes, splitmix64-finalized, segment-summed with one cumsum (safe for
    empty strings, unlike ``reduceat``). Pure function of the bytes, so
    block-stable by construction; NULLs hash to a fixed sentinel distinct
    from the empty string."""
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    n = len(c)
    if n == 0:
        return np.empty(0, np.uint64)
    c = c.cast(pa.large_string())  # int64 offsets, uniform buffer layout
    bufs = c.buffers()
    offs = np.frombuffer(bufs[1], np.int64, count=n + 1, offset=c.offset * 8)
    starts = offs[:-1] - offs[0]
    ends = offs[1:] - offs[0]
    lens = ends - starts
    m = int(offs[-1] - offs[0])
    if m:
        data = np.frombuffer(bufs[2], np.uint8)
        b = data[offs[0] : offs[-1]].astype(np.uint64)
        maxlen = int(lens.max())
        powers = np.empty(maxlen + 1, np.uint64)
        powers[0] = np.uint64(1)
        if maxlen:
            np.multiply.accumulate(
                np.full(maxlen, _FNV, np.uint64), out=powers[1:]
            )
        # byte j of string i gets weight FNV^(end_i - 1 - j): suffix
        # weighting, so "ab" and "ba" differ
        e = np.repeat(ends, lens) - 1 - np.arange(m, dtype=np.int64)
        terms = (b + np.uint64(1)) * powers[e]
        cs = np.zeros(m + 1, np.uint64)
        np.cumsum(terms, out=cs[1:])
        h = cs[ends] - cs[starts]  # uint64 wraparound == mod-2^64 sum
    else:
        h = np.zeros(n, np.uint64)
    h = _mix64(h ^ (lens.astype(np.uint64) * _FNV))
    null_mask = pc.is_null(c).to_numpy(zero_copy_only=False)
    if null_mask.any():
        h = np.where(null_mask, _NULL_HASH, h)
    return h


def bucket_ids(t: pa.Table, keys, num_buckets: int) -> pa.Array:
    """Block-stable bucket assignment for the key column(s). Key columns
    are canonicalized to STRING before hashing — the same value must
    bucket identically no matter which block (or which side of a join) it
    landed in: an int64 column with nulls elsewhere, or an int32 key
    joined to an int64 one, hashes as the same string. Composite keys mix
    per-column hashes in key order; all-NULL keys share one bucket."""
    h = None
    for k in _as_keys(keys):
        c = t[k]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        hk = _hash_string_col(pc.cast(c, pa.string()))
        h = hk if h is None else _mix64(h * _FNV ^ hk)
    return pa.array((h % np.uint64(num_buckets)).astype(np.int64))


def bucketed(
    ds: "ray.data.Dataset",
    keys,
    num_buckets: int,
    bucket_fn,
    cols: "Sequence[str] | None" = None,
) -> "ray.data.Dataset":
    """[prune] → hash keys into buckets (one deterministic shuffle) → one
    vectorized ``bucket_fn`` call per bucket. ``bucket_fn`` receives the
    bucket table WITH the ``__b`` column (drop it first thing)."""

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__b", bucket_ids(t, keys, num_buckets))

    if cols is not None:
        ds = ds.select_columns(list(cols))
    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(bucket_fn, batch_format="pyarrow")
    )


def _ipc_bytes(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _side_table(pieces: pa.Array) -> pa.Table:
    """One side's rows in a bucket; zero columns when the side had no
    block with a schema."""
    if len(pieces) == 0:
        return pa.table({})
    tbls = [pa.ipc.open_stream(p.as_buffer()).read_all() for p in pieces]
    return pa.concat_tables(tbls, promote_options="permissive")


def co_bucketed(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_keys,
    right_keys,
    fn: Callable[[pa.Table, pa.Table], pa.Table],
    num_buckets: "int | None" = None,
) -> "ray.data.Dataset":
    """Hash both sides on their keys into the same buckets and call
    ``fn(left_part, right_part)`` once per bucket; its tables are the
    Datasets' own columns (no bucket column). ``num_buckets=None``
    resolves from both sides' row counts (``window.resolve_buckets``).

    One range-partitioned sort of the pieces on ``__b`` carries both
    sides, in one partition per cluster CPU (at least two, at most one
    per bucket): the output's block count does not grow with the inputs',
    so an iterated exchange (label propagation) keeps its block count."""
    from sqlgrep_ray.stages.window import resolve_buckets

    lk, rk = _as_keys(left_keys), _as_keys(right_keys)
    if len(lk) != len(rk):
        raise ValueError("left/right key counts differ")
    nb = resolve_buckets(num_buckets, left, right)
    cpus = ray.cluster_resources().get("CPU", 2) if ray.is_initialized() else 2
    parts = min(nb, max(2, int(cpus)))

    def bucket_pairs(t: pa.Table):
        b = t["__b"].to_numpy()
        side = t["__side"].to_numpy()
        pieces = t["__piece"].combine_chunks()
        for v in np.unique(b):
            yield fn(
                _side_table(pieces.filter(pa.array((b == v) & (side == 0)))),
                _side_table(pieces.filter(pa.array((b == v) & (side == 1)))),
            )

    def pieces_of(ds, side: int, keys: list):
        # block → one row per bucket: (__b, __side, __piece), the piece
        # holding that bucket's rows as an IPC stream (an empty one keeps
        # the block's schema); a schema-less empty block emits nothing
        def split(t: pa.Table) -> pa.Table:
            b, pieces = np.arange(nb if t.num_columns else 0), []
            if t.num_columns:
                ids = bucket_ids(t, keys, nb)
                t = t.take(pc.sort_indices(ids))
                ends = np.cumsum(np.bincount(ids.to_numpy(), minlength=nb))
                starts = np.r_[0, ends[:-1]]
                pieces = [
                    _ipc_bytes(t.slice(s, e - s)) for s, e in zip(starts, ends)
                ]
            return pa.table(
                {
                    "__b": pa.array(b, pa.int64()),
                    "__side": pa.array(np.full(len(b), side, np.int8)),
                    "__piece": pa.array(pieces, pa.large_binary()),
                }
            )

        return ds.map_batches(split, batch_format="pyarrow", zero_copy_batch=True)

    return (
        pieces_of(left, 0, lk)
        .union(pieces_of(right, 1, rk))
        .sort("__b", boundaries=[nb * i // parts for i in range(1, parts)])
        .map_batches(bucket_pairs, batch_format="pyarrow")
    )
