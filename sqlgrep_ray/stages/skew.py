"""Skew mitigation for hot group keys (north_rule: salted-key two-phase
aggregation for hot conversations).

Context: for ASSOCIATIVE aggregates the engine's combiner-first pipeline
(``stages/aggregate.py``) already neutralizes key skew — every block
pre-reduces to one row per (block, key), so a hot conversation contributes
at most ``num_blocks`` partial rows to the shuffle, the same as any other
key. Explicit salting is needed only where a whole group must be SEEN by one
task — the holistic aggregates:

* ``salted_count_distinct`` — two merges ((keys, value) → keys, each an
  ``exchange.merge``); exact, no single task holds a hot group's raw rows;
* ``salted_array_agg`` — phase 1 groups on (keys, salt) and collects sorted
  sublists, phase 2 merges the ≤``salt`` sublists per key; a hot key's rows
  are spread over ``salt`` reducers. Output order is ascending (the engine's
  documented array_agg order).

``salted_array_agg`` composes from plain Ray Data ``map_groups``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages import exchange
from sqlgrep_ray.stages.aggregate import group_table_null_safe


def salted_count_distinct(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    col: str,
    alias: str = "distinct_count",
) -> "ray.data.Dataset":
    """Exact per-key COUNT(DISTINCT col), skew-safe.

    Stage 1 dedups (keys, col) — the per-block combiner shrinks a hot key's
    contribution to ≤ blocks × |distinct values| rows before any shuffle;
    stage 2 counts each key's non-NULL survivors. Mirrors SURVEY §2.6's
    two-stage mapping of ``GroupAggregator::CountDistinct``.
    """
    keys = list(keys)
    narrow = ds.select_columns(keys + [col])

    def block_dedup(t: pa.Table) -> pa.Table:
        # null-safe: a nullable string value among int keys would hit
        # pyarrow's duplicate-group bug (harmless here — partials — but free
        # to avoid)
        return group_table_null_safe(t, keys + [col], [])

    deduped = narrow.map_batches(
        block_dedup, batch_format="pyarrow", zero_copy_batch=True
    )
    # global dedup of (keys, col), then count per key — both combiner-first
    stage1 = exchange.merge(deduped, keys + [col], [])

    def block_count(t: pa.Table) -> pa.Table:
        # COUNT(DISTINCT) skips NULL: the (key, NULL) group counts 0, so a
        # key whose every value is NULL keeps its row, with 0
        valid = pc.is_valid(t[col]).cast(pa.int64())
        counts = group_table_null_safe(
            t.select(keys).append_column("count_all", valid),
            keys,
            [("count_all", "sum")],
        )
        return counts.rename_columns(
            ["count_all" if c == "count_all_sum" else c for c in counts.column_names]
        )

    counted = exchange.merge(
        exchange.apply(stage1, block_count), keys, [("count_all", "sum")]
    )
    return exchange.as_dataset(
        exchange.apply(
            counted,
            lambda t: t.select(keys + ["count_all"]).rename_columns(keys + [alias]),
        )
    )


def salted_array_agg(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    col: str,
    alias: str = "values",
    salt: int = 16,
) -> "ray.data.Dataset":
    """Per-key ARRAY_AGG (ascending), hot keys spread over ``salt`` reducers.

    Phase 1: group on (keys, __salt) — a hot key's rows land on up to
    ``salt`` different reducers, each emitting one SORTED sublist. Phase 2:
    group on keys alone; each key now has ≤ ``salt`` sublist rows to merge —
    bounded work regardless of the key's original row count.
    """
    keys = list(keys)

    def add_salt_simple(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__salt", pa.array((np.arange(t.num_rows) % salt).astype(np.int32))
        )

    salted = ds.select_columns(keys + [col]).map_batches(
        add_salt_simple, batch_format="pyarrow", zero_copy_batch=True
    )

    def collect_sublist(g: pa.Table) -> pa.Table:
        vals = g[col].combine_chunks().drop_null().sort()
        out = {k: g[k][:1] for k in keys}
        out["__sub"] = pa.array([vals.to_pylist()], pa.list_(vals.type))
        return pa.table(out)

    sublists = salted.groupby(keys + ["__salt"]).map_groups(
        collect_sublist, batch_format="pyarrow"
    )

    def merge_sublists(g: pa.Table) -> pa.Table:
        col_ = g["__sub"].combine_chunks()
        merged: list = []
        for sub in col_.to_pylist():
            merged.extend(sub)
        merged.sort()
        out = {k: g[k][:1] for k in keys}
        out[alias] = pa.array([merged], col_.type)
        return pa.table(out)

    return sublists.groupby(keys).map_groups(merge_sublists, batch_format="pyarrow")
