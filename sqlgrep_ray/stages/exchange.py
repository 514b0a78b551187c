"""The engine's key-hash bucket exchange and its one driver gate.

Every keyed operator that cannot finish per block moves its rows once,
through ``groupby("__b").map_groups`` on a block-stable key hash
(:func:`bucket_ids`), and finishes one bucket per Python call — unless
the rows are few. One bound (``SMALL_MERGE_MAX_PARTIAL_ROWS`` rows and
32 bytes a row) decides that for every exchange: at most that many rows
finish without one, since Ray's all-to-all costs a Sort or Repartition
operator (~0.1 s of fixed cost on one CPU) however few rows it moves.
The driver gate, :func:`gather`, measures a materialized input against
it; :func:`bucketed` a free estimate, so that it never executes.

* :func:`merge` — per-block combiner partials (sums, mins, maxes keyed on
  their group) merge in one ``pa.TableGroupBy``: on the driver when they
  pass the gate, else once per bucket of :func:`hash_exchange`. Every
  keyed aggregate of the engine goes through it: GROUP BY, DISTINCT, set
  operations and the text, dedup and graph stages;
* :func:`bucketed` — one input: the window family, sessionize,
  conversation reassembly, grouped top-k and percentiles. When a free
  estimate (Parquet footers) passes the gate's bound, the rows are one
  bucket, finished in one lazy task (:func:`one_block`); else
  :func:`hash_exchange`, lazy too;
* :func:`one_block` — a finish that needs every row in one call (top-n
  merges, one-block sketch merges, key sorts of small results): one task
  that bundles every block, with no Repartition;
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

from sqlgrep_ray.stages.aggregate import _null_default, group_table_null_safe

# The gate's one bound (:func:`gather`): at most this many rows, and no more
# bytes than that many 32-byte rows (64 MB), finish without an exchange;
# beyond it, in rows or in bytes, they move through the bucket exchange.
SMALL_MERGE_MAX_PARTIAL_ROWS = 2_000_000


def gate_size(rows: int, nbytes: int) -> int:
    """The gate's measure of an input: its rows, or its bytes in 32-byte
    rows when that is more; at most ``SMALL_MERGE_MAX_PARTIAL_ROWS``
    passes."""
    return max(rows, -(-nbytes // 32))


# ``map_batches`` batch size that bundles every block of its input into
# one call (:func:`one_block`)
_ALL_ROWS = 2**62


def _rows(ds: "ray.data.Dataset") -> pa.Table:
    """Every row of ``ds`` as one table on the driver; no columns when
    ``ds`` holds no block."""
    tbls = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    if not tbls:
        return pa.table({})
    return pa.concat_tables(tbls, promote_options="default")


def gather(ds: "ray.data.Dataset") -> "tuple[pa.Table | None, ray.data.Dataset]":
    """The engine's one driver gate: ``(rows, ds)``.

    ``ds`` is materialized once, and its exact row count and bytes (block
    metadata) are checked against the bound: within it, ``rows`` is every
    row as one ``pa.Table`` (no columns when ``ds`` holds no block);
    beyond it, ``rows`` is None. Either way the returned ``ds`` is the
    materialized one, so the caller's exchange does not run the upstream
    again. A caller that may not execute (a query binding) does not call
    it: :func:`bucketed` decides from a free estimate instead."""
    ds = ds.materialize()
    if gate_size(ds.count(), ds.size_bytes()) > SMALL_MERGE_MAX_PARTIAL_ROWS:
        return None, ds
    return _rows(ds), ds


def one_block(ds: "ray.data.Dataset", fn) -> "ray.data.Dataset":
    """``fn`` once over every row of ``ds``, in one task: the finish of a
    top-n merge, a one-block sketch merge or the key sort of a small
    result. The task bundles every block of its input (a batch size no
    input reaches), so no Repartition runs, and its one-task limit keeps
    it apart from the upstream maps, which still run one task per block.
    Lazy: nothing executes here. An input with no rows calls nothing and
    yields no rows, as ``repartition(1)`` did."""
    return ds.map_batches(
        fn, batch_format="pyarrow", batch_size=_ALL_ROWS, concurrency=1
    )


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
    estimate: "int | None" = None,
) -> "ray.data.Dataset":
    """[prune] → ``bucket_fn`` over buckets of rows whose keys hash alike;
    ``bucket_fn`` receives the bucket table WITH the ``__b`` column (drop
    it first thing) and handles any set of whole keys. Lazy: nothing
    executes here.

    When the caller passes a free ``estimate`` (:func:`gate_size`, e.g.
    from Parquet footers) within the gate's bound, every row is one
    bucket, finished in one task (:func:`one_block`). Otherwise the rows
    move through :func:`hash_exchange` in ``num_buckets`` buckets: without
    a free estimate, learning the size would execute the input."""
    if cols is not None:
        ds = ds.select_columns(list(cols))

    def one_bucket(t: pa.Table) -> pa.Table:
        zeros = pa.array(np.zeros(t.num_rows, np.int64))
        return bucket_fn(t.append_column("__b", zeros))

    if estimate is not None and estimate <= SMALL_MERGE_MAX_PARTIAL_ROWS:
        return one_block(ds, one_bucket)
    return hash_exchange(ds, keys, num_buckets, bucket_fn)


def hash_exchange(
    ds: "ray.data.Dataset", keys, num_buckets: int, bucket_fn
) -> "ray.data.Dataset":
    """Hash keys into ``num_buckets`` buckets (one deterministic shuffle)
    → one vectorized ``bucket_fn`` call per bucket, ``__b`` column
    included. No gate: for callers that already passed :func:`gather`, or
    whose tasks must stay bounded whatever the input size."""

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column("__b", bucket_ids(t, keys, num_buckets))

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(bucket_fn, batch_format="pyarrow")
    )


def _marker(i: int) -> str:
    """Validity marker of the ``i``-th null-encoded key: int8, 0 = NULL."""
    return f"__kr{i}"


def _schema_types(schema) -> dict:
    """name → pyarrow type for a ray.data.Schema or pyarrow.Schema."""
    try:
        return dict(zip(schema.names, schema.types))
    except Exception:
        return {f.name: f.type for f in schema}


def _fix_null_type_cols(t: pa.Table, target_types: dict) -> pa.Table:
    """Normalize all-NULL blocks: a block whose column came out as pyarrow
    ``null`` type (every value None — common for tiny blocks) cannot be
    null-encoded (`_null_default` has no fill value) and would leak NULLs
    into a bucket key. Replace such columns with typed all-null arrays
    from the dataset-level schema; non-null-typed columns are left
    untouched (no lossy casts)."""
    for i, c in enumerate(t.column_names):
        col = t.column(i)
        if pa.types.is_null(col.type):
            tt = target_types.get(c)
            if tt is None or pa.types.is_null(tt):
                tt = pa.int8()  # every value is NULL everywhere: any type
            t = t.set_column(i, c, pa.nulls(t.num_rows, tt))
    return t


def _fill_keys(t: pa.Table, keys: list[str]) -> pa.Table:
    """Fill the NULLs still left in the null-encoded keys among ``keys``
    (those that follow their marker). They came from a block whose key
    column was all-NULL and so typed ``null``, which has no fill value;
    once ``t`` has a real type for it (concatenated with typed blocks, or
    cast by :func:`_fix_null_type_cols`), they are filled so that their
    group does not split from the same NULL key filled in other blocks.
    A raw key keeps its NULLs: there NULL is a group of its own, apart
    from ``''`` and ``0``."""
    marks = {_marker(i) for i in range(len(keys))}
    for m, k in zip(keys, keys[1:]):
        if m not in marks:
            continue
        col = t[k]
        d = _null_default(col.type) if col.null_count else None
        if d is not None:
            t = t.set_column(t.column_names.index(k), k, pc.fill_null(col, d))
    return t


def _group_merge(t: pa.Table, keys: list[str], spec: list) -> pa.Table:
    """One ``pa.TableGroupBy`` merge of ``t`` on ``keys`` with ``spec``
    [(column, "sum" | "min" | "max")], outputs named as their inputs;
    ``t`` is a concatenation, so its null-encoded keys are filled first
    (:func:`_fill_keys`) and raw NULL keys group null-safely."""
    out = group_table_null_safe(_fill_keys(t, keys), keys, spec)
    renames = {f"{c}_{kind}": c for c, kind in spec}
    return out.rename_columns([renames.get(c, c) for c in out.column_names])


def _block_types(ds: "ray.data.Dataset") -> dict:
    """name → pyarrow type unified over the schemas of every block of a
    materialized ``ds`` (one small task per block). Ray's own schema names
    the first block's types, so a column typed ``null`` there (every value
    NULL in that block) stays ``null`` although other blocks type it."""

    def schema_row(t: pa.Table) -> pa.Table:
        return pa.table({"s": [t.schema.serialize().to_pybytes()]})

    rows = ds.map_batches(schema_row, batch_format="pyarrow", batch_size=None)
    schemas = [pa.ipc.read_schema(pa.py_buffer(r["s"])) for r in rows.take_all()]
    if not schemas:
        return {}
    return _schema_types(pa.unify_schemas(schemas, promote_options="permissive"))


def merge(
    partials: "ray.data.Dataset | pa.Table",
    keys: list[str],
    spec: list,
    small: "bool | None" = None,
) -> "pa.Table | ray.data.Dataset":
    """Merge per-block combiner partials on ``keys`` with ``spec`` (as in
    :func:`_group_merge`) — the engine's one merge. Keys are raw
    columns, or null-encoded (marker, key) pairs (``runner._encode_keys``).

    With ``small`` True, or None and the partials within the gate
    (:func:`gather`; wide rows such as SELECT DISTINCT over whole log
    lines exceed its byte bound), the partials come to the driver and
    merge in one ``pa.TableGroupBy``; the result is a ``pa.Table``, as it
    is for a ``pa.Table`` of partials. Otherwise the materialized partials
    move once through :func:`hash_exchange` and each bucket merges in the
    same ``pa.TableGroupBy``, after one pass that learns every block's
    schema (:func:`_block_types`); the result is a Dataset. Ray's
    all-to-all costs seconds of fixed overhead even on a few hundred rows
    (1.4 s of the 3 s flagship aggregate, measured) against one
    object-store read here. Zero input blocks return the empty partials:
    zero output rows (reference parity — the global group appears on the
    first row, SURVEY §2.6)."""
    if isinstance(partials, pa.Table):
        return _group_merge(partials, keys, spec)
    if small is None:
        rows, partials = gather(partials)
    elif small:
        rows = _rows(partials)
    else:
        rows, partials = None, partials.materialize()
        if not partials.count():
            return partials
    if rows is not None:
        return _group_merge(rows, keys, spec) if rows.num_columns else partials
    from sqlgrep_ray.stages.window import resolve_buckets

    # the exchange concatenates blocks without the driver's fill: type the
    # all-NULL (``null``-typed) columns of a block from the other blocks'
    # schemas and fill their keys first, so a key hashes alike everywhere
    types = _block_types(partials)
    typed = partials.map_batches(
        lambda t: _fill_keys(_fix_null_type_cols(t, types), keys),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return hash_exchange(
        typed,
        keys,
        resolve_buckets(None, partials),
        lambda g: _group_merge(g.drop_columns(["__b"]), keys, spec),
    )


def as_dataset(merged: "pa.Table | ray.data.Dataset") -> "ray.data.Dataset":
    """:func:`merge` output as a Dataset, wherever it merged."""
    return ray.data.from_arrow(merged) if isinstance(merged, pa.Table) else merged


def apply(merged: "pa.Table | ray.data.Dataset", fn) -> "pa.Table | ray.data.Dataset":
    """A per-block-safe ``fn`` over :func:`merge` output, where it lies:
    one call on a driver-merged table, else a ``map_batches``."""
    if isinstance(merged, pa.Table):
        return fn(merged)
    return merged.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def to_table(merged: "pa.Table | ray.data.Dataset") -> "pa.Table | None":
    """:func:`merge` output as one table; None when it holds no block."""
    if isinstance(merged, pa.Table):
        return merged
    t = _rows(merged)
    return t if t.num_columns else None


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
    resolves from both sides' row counts (``window.resolve_buckets``),
    materializing a side whose count is not free, so its upstream runs
    once.

    One range-partitioned sort of the pieces on ``__b`` carries both
    sides, in one partition per cluster CPU (at least two, at most one
    per bucket): the output's block count does not grow with the inputs',
    so an iterated exchange (label propagation) keeps its block count."""
    from sqlgrep_ray.stages.window import known_rows, resolve_buckets

    lk, rk = _as_keys(left_keys), _as_keys(right_keys)
    if len(lk) != len(rk):
        raise ValueError("left/right key counts differ")
    if num_buckets is None:
        # a side whose row count Ray does not know runs once, here, and
        # both the count and the join read what it wrote
        left, right = (
            d if known_rows(d) is not None else d.materialize() for d in (left, right)
        )
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
