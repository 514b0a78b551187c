"""As-of (backward) join — a custom operator Ray Data lacks natively.

SURVEY §2 guidance case (b): the right side (dimension with effective
timestamps) is broadcast ONCE as a per-key sorted index; every left batch
probes it vectorized (one ``np.searchsorted`` per distinct key in the
batch). Semantics: for each left row, the right row with the LARGEST
``right_ts <= left_ts`` for the same key — DuckDB's ``ASOF JOIN … ON k = k
AND l.ts >= r.ts`` (the oracle used by the driver contract).

Partitioning assumption (documented): the right side fits in memory on every
worker (it's a dimension table — same contract as the broadcast hash join,
reference ``join.rs``: "loaded completely in memory"). For a right side too
large to broadcast, shuffle BOTH sides on the key and run the same probe
per partition (not needed at parity scale).

Tie policy: among right rows sharing the max ``right_ts``, the LAST in the
sorted order wins (stable sort by (key, ts) ⇒ deterministic); value columns
whose tie rows differ should not be compared against engines with arbitrary
tie-breaks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data


def _build_index(
    right: pa.Table, right_key: str, right_ts: str, value_cols: Sequence[str]
) -> dict:
    if right.num_rows == 0:
        return {"index": {}, "values": {c: right[c] for c in value_cols}, "n": 0}
    order = pc.sort_indices(
        right, [(right_key, "ascending"), (right_ts, "ascending")]
    )
    right = right.take(order)
    keys = right[right_key].to_numpy(zero_copy_only=False)
    ts = right[right_ts].combine_chunks().cast(pa.int64()).to_numpy()
    cuts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1], True])
    index: dict = {}
    vals = {c: right[c] for c in value_cols}
    for s, e in zip(cuts[:-1], cuts[1:]):
        index[keys[s]] = (ts[s:e], s)  # (sorted ts, base offset into right)
    return {"index": index, "values": vals, "n": right.num_rows}


def _probe(
    batch: pa.Table,
    built: dict,
    left_key: str,
    left_ts: str,
    value_cols: Sequence[str],
    how: str,
) -> pa.Table:
    index, values = built["index"], built["values"]
    n = batch.num_rows
    lkeys = batch[left_key].to_numpy(zero_copy_only=False)
    lts = batch[left_ts].combine_chunks().cast(pa.int64()).to_numpy()
    match = np.full(n, -1, dtype=np.int64)
    # vectorized probe: one searchsorted per distinct key in the batch
    for k in np.unique(lkeys):
        ent = index.get(k)
        if ent is None:
            continue
        ts_arr, base = ent
        rows = np.flatnonzero(lkeys == k)
        pos = np.searchsorted(ts_arr, lts[rows], side="right") - 1
        ok = pos >= 0
        match[rows[ok]] = base + pos[ok]
    found = match >= 0
    out = batch
    take = pa.array(np.where(found, match, 0))
    null_mask = pa.array(~found)
    for c in value_cols:
        vals = values[c]
        if len(vals) == 0:
            # empty right side (possible per bucket in the shuffled path):
            # every left row misses; take([0]) on an empty array throws
            col = pa.nulls(n, vals.type)
        else:
            col = vals.take(take)
            col = pc.if_else(null_mask, pa.scalar(None, col.type), col)
        out = out.append_column(c, col)
    if how == "inner":
        out = out.filter(pa.array(found))
    return out


class AsofProber:
    """Stateless-task probe with a per-process cache of the built index."""

    _CACHE: dict = {}

    def __init__(
        self,
        right_ref,
        left_key: str,
        left_ts: str,
        right_key: str,
        right_ts: str,
        value_cols: Sequence[str],
        how: str = "inner",
    ):
        self.left_key = left_key
        self.left_ts = left_ts
        self.right_ref = right_ref
        self.right_key = right_key
        self.right_ts = right_ts
        self.value_cols = list(value_cols)
        self.how = how

    def _index(self):
        key = self.right_ref.hex() if hasattr(self.right_ref, "hex") else id(self.right_ref)
        ck = (key, self.right_key, self.right_ts, tuple(self.value_cols))
        idx = AsofProber._CACHE.get(ck)
        if idx is None:
            right = (
                ray.get(self.right_ref)
                if isinstance(self.right_ref, ray.ObjectRef)
                else self.right_ref
            )
            idx = AsofProber._CACHE[ck] = _build_index(
                right, self.right_key, self.right_ts, self.value_cols
            )
        return idx

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _probe(
            batch, self._index(), self.left_key, self.left_ts,
            self.value_cols, self.how,
        )


def asof_join(
    left: "ray.data.Dataset",
    right: pa.Table,
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    value_cols: Sequence[str],
    how: str = "inner",
) -> "ray.data.Dataset":
    """Backward as-of join of ``left`` against the broadcast ``right``."""
    ref = ray.put(right)
    prober = AsofProber(
        ref, left_key, left_ts, right_key, right_ts, value_cols, how
    )
    return left.map_batches(
        prober, batch_format="pyarrow", zero_copy_batch=True
    )


# broadcast budget for the right side: the per-key sorted index lives once
# per worker process, so rows × value width must stay a small fraction of
# worker heap (same contract as the dedup hot-set / top-k auto dispatch)
BROADCAST_MAX_RIGHT_ROWS = 2_000_000


def asof_join_auto(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset | pa.Table",
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    value_cols: Sequence[str],
    how: str = "inner",
    broadcast_max_rows: int = BROADCAST_MAX_RIGHT_ROWS,
    num_buckets: "int | None" = None,
) -> "ray.data.Dataset":
    """Size-aware as-of join: broadcast-probe while the right side is small
    (one ``ray.put``, zero shuffles), else the shuffle-both-sides bucketed
    path — the caller no longer has to know which side of the broadcast
    budget the dimension falls on. ``right`` may be an in-memory Arrow
    table or a Dataset; only ``count()`` (metadata-cheap on parquet) is
    spent deciding."""
    needed = list(dict.fromkeys([right_key, right_ts, *value_cols]))
    if isinstance(right, pa.Table):
        if right.num_rows <= broadcast_max_rows:
            return asof_join(
                left, right.select(needed), left_key, left_ts,
                right_key, right_ts, value_cols, how,
            )
        right = ray.data.from_arrow(right)
    elif right.count() <= broadcast_max_rows:
        batches = list(
            right.select_columns(needed).iter_batches(batch_format="pyarrow")
        )
        tbl = (
            pa.concat_tables(batches, promote_options="default")
            if batches
            else pa.table(
                {f.name: pa.array([], f.type)
                 for f in right.schema().base_schema
                 if f.name in needed}
            )
        )
        return asof_join(
            left, tbl, left_key, left_ts, right_key, right_ts, value_cols, how
        )
    return asof_join_large(
        left, right, left_key, left_ts, right_key, right_ts, value_cols,
        how, num_buckets,
    )


def asof_join_large(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    left_ts: str,
    right_key: str,
    right_ts: str,
    value_cols: Sequence[str],
    how: str = "inner",
    num_buckets: "int | None" = None,
) -> "ray.data.Dataset":
    """Shuffle-both-sides as-of join — the fallback for a RIGHT side too
    large to broadcast (the module-doc partitioning note, now implemented).

    Both sides hash into the same ``num_buckets`` key buckets through
    ``exchange.co_bucketed`` (``None`` → ``window.auto_buckets`` over
    left+right rows); each bucket task builds the sorted per-key index
    over just ITS right rows and probes its left rows with the same
    vectorized ``searchsorted`` as the broadcast path. Per-worker memory
    is (left+right)/num_buckets; a single hot key must still fit one
    worker.
    """
    from sqlgrep_ray.stages.exchange import co_bucketed

    needed = list(dict.fromkeys([right_key, right_ts, *value_cols]))

    def bucket_asof(lpart: pa.Table, rpart: pa.Table) -> pa.Table:
        if lpart.num_columns == 0:
            return lpart
        if rpart.num_columns == 0:
            # no right block carried a schema: every left row misses
            return lpart.slice(0, 0) if how == "inner" else lpart
        ltype = lpart.schema.field(left_key).type
        if not pa.types.is_null(ltype):
            i = rpart.schema.get_field_index(right_key)
            rpart = rpart.set_column(i, right_key, rpart[right_key].cast(ltype))
        built = _build_index(rpart, right_key, right_ts, value_cols)
        return _probe(lpart, built, left_key, left_ts, value_cols, how)

    return co_bucketed(
        left, right.select_columns(needed), left_key, right_key, bucket_asof,
        num_buckets=num_buckets,
    )
