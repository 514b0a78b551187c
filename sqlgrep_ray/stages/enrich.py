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


def broadcast(table: pa.Table) -> "ray.ObjectRef":
    """``ray.put`` the build side once; pass the ref to every joiner task/actor."""
    return ray.put(table)


def join_partitions(requested: Optional[int] = None, cap: int = 64) -> int:
    """Safe ``num_partitions`` for ``Dataset.join``: Ray's hash-shuffle join
    schedules one aggregator actor per partition (fractional CPU each) and
    DEADLOCKS when the cluster cannot host them all — observed at 32
    partitions on a 4-CPU local cluster; chained joins (e.g. semi-join then
    anti-join) run BOTH aggregator pools concurrently, so each pool must fit
    in a fraction of the cluster. One partition per CPU (0.25 CPU per
    aggregator actor ⇒ a pool occupies a quarter of the cluster), capped."""
    if requested is not None:
        return requested
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return max(2, min(cap, cpus))


def shuffle_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: Sequence[str],
    right_on: Optional[Sequence[str]] = None,
    how: str = "inner",
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """Distributed hash join — the LARGE-side fallback (SURVEY §2.5).

    When the joined side does not fit in memory, broadcast is impossible and
    both sides must shuffle on the key: this wraps Ray Data's native
    ``Dataset.join`` (hash-partition both inputs, join per partition). Use
    :class:`BroadcastJoiner` whenever the right side fits one worker — it
    moves no left-side data at all.
    """
    import ray.data  # noqa: F401  (type only)

    how_map = {"inner": "inner", "left": "left_outer"}
    return left.join(
        right,
        join_type=how_map.get(how, how),
        on=tuple(on),
        right_on=tuple(right_on) if right_on is not None else None,
        num_partitions=join_partitions(num_partitions),
    )
