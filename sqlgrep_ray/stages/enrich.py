"""Broadcast hash join / lookup-enrich stage.

The reference's single join shape loads the joined table fully in memory and
probes it per streamed row (``src/join.rs:15-79`` build, ``:109-138`` probe;
README.md:56). The Ray-Data idiom: materialize the small side ONCE, ship it
through the object store with ``ray.put`` (one copy per node, not per task),
and probe inside a ``map_batches`` stage. The probe itself is a vectorized
pandas hash merge per batch, reproducing:

* **1:N fan-out** — one output row per matching build row (``join.rs:109-123``);
* **INNER** — no match ⇒ row dropped (``join.rs:136-138``);
* **LEFT OUTER** (streamed side) — no match ⇒ one row with all-NULL joined
  columns (``join.rs:125-136``). Under aggregation the engine downgrades
  OUTER to INNER, mirroring ``execution_engine.rs:227-244``.

Use the callable-class form with ``map_batches(BroadcastJoiner, fn_constructor_kwargs=...,
concurrency=N)`` when the build side is big enough that per-task deserialization
matters — the index is built once per actor in ``__init__``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray


def _resolve_right(right: Any) -> pa.Table:
    if isinstance(right, ray.ObjectRef):
        right = ray.get(right)
    if callable(right) and not isinstance(right, pa.Table):
        right = right()
    if isinstance(right, pd.DataFrame):
        right = pa.Table.from_pandas(right, preserve_index=False)
    if not isinstance(right, pa.Table):
        raise TypeError(f"cannot resolve join side from {type(right)}")
    return right


class CrossJoiner:
    """CROSS JOIN against a small broadcast side (ENGINE EXTENSION) —
    cartesian product per batch: each left row repeats right.num_rows
    times (one vectorized ``take``), the right columns tile once per left
    row. Same broadcast contract as the equi-join: the right side is
    fully materialized (join.rs 'loaded completely in memory')."""

    def __init__(self, right: Any, right_prefix: str = ""):
        tbl = _resolve_right(right)
        self._right = tbl.combine_chunks()
        self._right_names = [
            (right_prefix + n if right_prefix else n)
            for n in tbl.column_names
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n, m = batch.num_rows, self._right.num_rows
        out = batch.take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), m))
        )
        ridx = pa.array(np.tile(np.arange(m, dtype=np.int64), n))
        for name, col in zip(self._right_names, self._right.itercolumns()):
            out = out.append_column(name, col.take(ridx))
        return out


class BroadcastJoiner:
    """Stateful probe stage: build the hash index once per actor."""

    def __init__(
        self,
        right: Any,
        left_key: str,
        right_key: str,
        how: str = "inner",
        right_prefix: str = "",
    ):
        if how not in ("inner", "left"):
            raise ValueError(f"how must be inner|left, got {how!r}")
        tbl = _resolve_right(right)
        # ENGINE EXTENSION: composite keys — a tuple of column names on
        # each side (ON a = x AND b = y); the pandas merge takes the key
        # list directly, NULL==NULL matching per key as before
        self.left_keys = (
            [left_key] if isinstance(left_key, str) else list(left_key)
        )
        right_keys = (
            [right_key] if isinstance(right_key, str) else list(right_key)
        )
        if len(self.left_keys) != len(right_keys):
            raise ValueError("left/right join key counts differ")
        self.left_key = self.left_keys[0]  # back-compat single-key readers
        self.how = how
        self._build_key_types = [tbl[rk].type for rk in right_keys]
        self._key_names = [f"__key{i}" for i in range(len(right_keys))]
        # build-side frame: join key(s) + row position
        self._right_tbl = tbl
        self._build = pd.DataFrame(
            {
                **{
                    kn: tbl[rk].to_pandas()
                    for kn, rk in zip(self._key_names, right_keys)
                },
                "__ridx": np.arange(tbl.num_rows, dtype=np.int64),
            }
        )
        self._right_names = [
            (right_prefix + n if right_prefix else n) for n in tbl.column_names
        ]
        # drop the build key from the output? the reference exposes joined
        # columns too (qualified) — keep all, renamed by prefix.

    def __call__(self, batch: pa.Table) -> pa.Table:
        probe_cols: dict = {}
        for kn, lk, bt in zip(
            self._key_names, self.left_keys, self._build_key_types
        ):
            left_keys = batch[lk]
            if pa.types.is_null(
                left_keys.type
                if not isinstance(left_keys, pa.ChunkedArray)
                else left_keys.type
            ):
                # all-NULL (null-typed) key block — tiny from_items
                # blocks: give it the build key's type so the pandas
                # merge dtypes line up
                left_keys = pa.nulls(batch.num_rows, bt)
            probe_cols[kn] = left_keys.to_pandas()
        probe_cols["__lidx"] = np.arange(batch.num_rows, dtype=np.int64)
        probe = pd.DataFrame(probe_cols)
        merged = probe.merge(
            self._build,
            on=self._key_names,
            how=("inner" if self.how == "inner" else "left"),
            sort=False,
        )
        lidx = pa.array(merged["__lidx"].to_numpy())
        left_out = batch.take(lidx)
        ridx = merged["__ridx"]
        # an unmatched LEFT row takes a null index, which takes a null
        # row (also from an empty right side)
        unmatched = ridx.isna().to_numpy()
        right_out = self._right_tbl.take(
            pa.array(
                ridx.fillna(0).to_numpy(dtype=np.int64),
                mask=unmatched if unmatched.any() else None,
            )
        )
        cols = dict(zip(left_out.column_names, left_out.columns))
        for name, col in zip(self._right_names, right_out.columns):
            cols[name] = col
        return pa.table(cols)


def _unify_null_keys(a: pa.Table, a_keys, b: pa.Table, b_keys):
    """A key column typed ``null`` (a part whose keys are all NULL) takes
    the other side's key type, so the probe's dtypes line up."""
    for ka, kb in zip(a_keys, b_keys):
        ta, tb = a.schema.field(ka).type, b.schema.field(kb).type
        if pa.types.is_null(ta) and not pa.types.is_null(tb):
            a = a.set_column(
                a.schema.get_field_index(ka), ka, pa.nulls(a.num_rows, tb)
            )
    return a


def join_parts(
    left: pa.Table,
    right: pa.Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    how: str,
) -> pa.Table:
    """One bucket of :func:`shuffle_join`: ``inner``/``left`` probe the
    unchanged :class:`BroadcastJoiner` built over ``right`` (left columns,
    then right's non-key columns); ``semi``/``anti`` keep ``left`` rows
    whose key is (not) ``pc.is_in`` ``right``'s, the broadcast id-filter
    kernel. NULL keys match each other, as on the broadcast path. A side
    with no schema (no block of it carried one) joins as no rows; a LEFT
    join then has no right columns to add."""
    left_keys, right_keys = list(left_keys), list(right_keys)
    if left.num_columns == 0 or right.num_columns == 0:
        return left if how in ("left", "anti") else left.slice(0, 0)
    if how in ("semi", "anti"):
        if len(left_keys) != 1:
            raise ValueError("semi/anti joins take one key column")
        mask = pc.is_in(
            left[left_keys[0]],
            value_set=right[right_keys[0]].combine_chunks(),
        )
        return left.filter(mask if how == "semi" else pc.invert(mask))
    # BroadcastJoiner types a null-typed probe key itself, not a build key
    right = _unify_null_keys(right, right_keys, left, left_keys)
    tmp = [f"__rk{i}" for i in range(len(right_keys))]
    right = right.rename_columns(
        [
            tmp[right_keys.index(c)] if c in right_keys else c
            for c in right.column_names
        ]
    )
    return BroadcastJoiner(right, left_keys, tmp, how=how)(left).drop_columns(tmp)


def shuffle_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: Sequence[str],
    right_on: Optional[Sequence[str]] = None,
    how: str = "inner",
) -> "ray.data.Dataset":
    """Distributed hash join — the LARGE-side fallback (SURVEY §2.5).

    When the joined side does not fit one worker, broadcast is impossible
    and both sides move on the key: ``exchange.co_bucketed`` hashes both
    into the same buckets and :func:`join_parts` joins each bucket — the
    broadcast path's own kernels, so the result equals a broadcast join's
    rows, NULL keys and list columns included. ``how``: ``inner``,
    ``left``, ``semi`` or ``anti``. Use :class:`BroadcastJoiner` whenever
    the right side fits one worker — it moves no left-side data at all.
    """
    from sqlgrep_ray.stages.exchange import co_bucketed

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"how must be inner|left|semi|anti, got {how!r}")
    on = list(on)
    right_on = list(right_on) if right_on is not None else on

    def join_bucket(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return join_parts(lt, rt, on, right_on, how)

    return co_bucketed(left, right, on, right_on, join_bucket)
