"""Grouped top-k — combiner-first, like the aggregate engine.

The reference has no top-k / ORDER BY at all (SURVEY §2.7); at scale,
"top-k rows per group by some score" is a curation staple (best documents
per language, longest conversations per day). Shape mirrors
``AggregatePlan.small_result``:

1. per-block combine: each block keeps only its own top-k per group
   (vectorized lexsort + per-group rank mask) — the shuffle then moves at
   most ``k × groups_per_block`` rows per block, never the corpus;
2. one-block merge: the surviving candidates coalesce and the same
   rank-mask picks the global top-k per group.

Deterministic: ties broken by ascending ``tie_col`` (required — an id
column), so results are oracle-comparable (SQL ``row_number() OVER (…
ORDER BY score DESC, id)``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _local_topk(
    t: pa.Table, keys: Sequence[str], score_col: str, tie_col: str, k: int
) -> pa.Table:
    if t.num_rows == 0:
        return t
    sort_keys = [(c, "ascending") for c in keys] + [
        (score_col, "descending"),
        (tie_col, "ascending"),
    ]
    t = t.take(pc.sort_indices(t, sort_keys))
    # rank within each group of the sorted table; null-aware key
    # comparison (NULL keys form ONE group — numpy != on the NaN a
    # nullable int column decays to would split every null row apart)
    from sqlgrep_ray.stages.window import _key_change_mask

    n = t.num_rows
    karrs = [t[c].combine_chunks() for c in keys]
    new_grp = _key_change_mask(karrs, n)
    grp_id = np.cumsum(new_grp) - 1
    # rank = position − first position of the row's group
    first_pos = np.zeros(grp_id[-1] + 1, dtype=np.int64)
    starts = np.flatnonzero(new_grp)
    first_pos[:] = starts
    rank = np.arange(n) - first_pos[grp_id]
    return t.filter(pa.array(rank < k))


def grouped_topk(
    ds: "ray.data.Dataset",
    keys: Sequence[str],
    score_col: str,
    tie_col: str,
    k: int,
    distributed: "bool | None" = None,
    num_buckets: "int | None" = None,
) -> "ray.data.Dataset":
    """Top-``k`` rows per ``keys`` group by ``score_col`` desc (ties:
    ``tie_col`` asc). Combiner-first: each block keeps its own top-k per
    group, then the survivors merge.

    Merge path: ``distributed=None`` (default) takes the gate
    (``exchange.gather``): the surviving candidates (≤ k × groups_per_block
    per block) within its bound merge on the driver, else in a key-hash
    bucket shuffle (``exchange.hash_exchange``), so each of the
    ``num_buckets`` merge tasks runs the same vectorized rank-mask over its
    co-located groups; per-worker memory is candidates/num_buckets, never
    k × |groups| (the round-1 single-block scale-killer).
    ``distributed=False`` merges in one task (``exchange.one_block``),
    True always shuffles. ``num_buckets=None`` auto-sizes from the
    surviving-candidate count (free once the gate has materialized
    them)."""
    keys = list(keys)

    def block(t: pa.Table) -> pa.Table:
        return _local_topk(t, keys, score_col, tie_col, k)

    from sqlgrep_ray.stages import exchange
    from sqlgrep_ray.stages.window import resolve_buckets

    cands = ds.map_batches(block, batch_format="pyarrow", zero_copy_batch=True)
    if distributed is None:
        rows, cands = exchange.gather(cands)
        if rows is not None:
            return ray.data.from_arrow(block(rows)) if rows.num_columns else cands
    elif not distributed:
        return exchange.one_block(cands, block)

    num_buckets = resolve_buckets(num_buckets, cands)

    def bucket_topk(g: pa.Table) -> pa.Table:
        return _local_topk(g.drop_columns(["__b"]), keys, score_col, tie_col, k)

    return exchange.hash_exchange(cands, keys, num_buckets, bucket_topk)
