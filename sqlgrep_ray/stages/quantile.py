"""Distributed EXACT percentile — the scale path for a global percentile.

The plan-path ``percentile`` is holistic: the whole group ships to one
worker (``stages/aggregate.py``, same in-memory contract as the reference,
``aggregate_execution.rs:540-543``). Fine per group key; an OOM for a
GLOBAL percentile over 10^12 rows. This operator computes the same value
(``sorted[int(p * n)]``, the reference's truncation-index rule) with
bounded worker and driver memory:

1. one counting pass (null-dropping combiner) → ``n``, target rank ``k``;
2. a cluster-wide value sample brackets the k-th value with a margin;
3. one filtered pass counts rows below the bracket's low edge and collects
   ONLY the in-bracket values (bounded; the bracket widens/tightens and
   retries on a miss — rare);
4. the k-th value is read out of the sorted bracket.

Every pass is a narrow vectorized ``map_batches``; the full column is never
collected. The *result* is exact and deterministic regardless of sampling,
because the bracket only needs to CONTAIN the k-th value.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def _collect_numpy(ds: "ray.data.Dataset", col: str) -> np.ndarray:
    parts = [
        b[col].to_numpy(zero_copy_only=False)
        for b in ds.iter_batches(batch_format="pyarrow")
        if b.num_rows
    ]
    return np.concatenate(parts) if parts else np.array([])


def _sample_sorted(vals: "ray.data.Dataset", col: str, size: int) -> np.ndarray:
    """Per-block prefix sample (a bracket HINT — correctness never depends
    on sample quality, so a biased prefix is acceptable and deterministic)."""
    per_block = max(1, size // max(1, vals.num_blocks()))

    def take_prefix(t: pa.Table) -> pa.Table:
        return t.slice(0, per_block)

    s = _collect_numpy(
        vals.map_batches(take_prefix, batch_format="pyarrow", zero_copy_batch=True),
        col,
    )
    s.sort()
    return s


def _bracket_pass(
    vals: "ray.data.Dataset", col: str, lo: Any, hi: Any, budget: int
) -> tuple[int, Optional[list]]:
    """(rows strictly below lo, values in [lo, hi]) — None values on budget
    overflow (bracket too wide)."""

    def tag(t: pa.Table) -> pa.Table:
        c = t[col]
        below = int(
            pc.sum(pc.less(c, lo).cast(pa.int64())).as_py() or 0
        )
        inside = t.filter(pc.and_(pc.greater_equal(c, lo), pc.less_equal(c, hi)))
        return pa.table(
            {
                "__below": pa.array([below], pa.int64()),
                "__vals": pa.array([inside[col].to_pylist()], pa.list_(c.type)),
            }
        )

    below_total, bracket = 0, []
    for b in vals.map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow"):
        below_total += int(pc.sum(b["__below"]).as_py() or 0)
        for lst in b["__vals"].to_pylist():
            bracket.extend(lst)
            if len(bracket) > budget:
                return below_total, None
    return below_total, bracket


def distributed_percentile(
    ds: "ray.data.Dataset",
    col: str,
    p: float,
    sample_size: int = 100_000,
    bracket_budget: int = 2_000_000,
    max_retries: int = 8,
):
    """Exact ``sorted(col.drop_null())[int(p * n)]``; None when the index is
    out of bounds (reference OOB ⇒ NULL) or every value is NULL."""
    narrow = ds.select_columns([col])

    def drop_nulls(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_valid(t[col]))

    vals = narrow.map_batches(
        drop_nulls, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # consumed by count + sample + bracket passes
    n = vals.count()
    k = int(p * n)
    if n == 0 or k >= n:
        return None

    # global extremes: the always-correct outermost bracket
    def minmax(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "mn": pa.array([pc.min(t[col]).as_py()], t[col].type),
                "mx": pa.array([pc.max(t[col]).as_py()], t[col].type),
            }
        )

    mm = pa.concat_tables(
        list(
            vals.map_batches(
                minmax, batch_format="pyarrow", zero_copy_batch=True
            ).iter_batches(batch_format="pyarrow")
        )
    )
    g_min, g_max = pc.min(mm["mn"]).as_py(), pc.max(mm["mx"]).as_py()

    q = k / n
    s = _sample_sorted(vals, col, sample_size)
    m = len(s)
    spread = max(3.0 * float(np.sqrt(q * (1 - q) / max(m, 1))), 0.02)
    lo = s[int(max(0.0, q - spread) * (m - 1))] if m else g_min
    hi = s[int(min(1.0, q + spread) * (m - 1))] if m else g_max

    for _ in range(max_retries):
        below, bracket = _bracket_pass(vals, col, lo, hi, bracket_budget)
        if bracket is None:
            # too wide: tighten with a bigger sample around q
            s = _sample_sorted(vals, col, 4 * sample_size)
            m = len(s)
            spread = max(spread / 4, 1.0 / max(m, 2))
            lo = s[int(max(0.0, q - spread) * (m - 1))]
            hi = s[int(min(1.0, q + spread) * (m - 1))]
            continue
        if below <= k < below + len(bracket):
            bracket.sort()
            return bracket[k - below]
        # missed: widen toward the side holding the k-th value
        if k < below:
            lo, hi = g_min, lo
        else:
            lo, hi = hi, g_max
    # final guaranteed pass: the full range always contains the k-th value,
    # but may blow the budget on pathological distributions — surface that
    below, bracket = _bracket_pass(vals, col, g_min, g_max, bracket_budget)
    if bracket is None:
        raise MemoryError(
            "distributed_percentile: bracket budget exceeded on the "
            "full-range pass; raise bracket_budget"
        )
    bracket.sort()
    return bracket[k - below]


def grouped_percentile(
    ds: "ray.data.Dataset",
    key: str,
    value_col: str,
    p: float,
    out_col: str = "percentile",
    num_buckets: "int | None" = None,
) -> "ray.data.Dataset":
    """Exact per-key percentile (truncation-index rule, ``sorted[int(p*n)]``
    like the reference) — the SCALE twin of the plan path's holistic
    per-group percentile: instead of one ``map_groups`` Python call per
    key, keys hash into buckets (``None`` → ``window.auto_buckets`` from
    the row count) and each bucket task sorts once by (key, value) and
    reads every key's percentile with one vectorized gather on the
    segment boundaries. NULL values are dropped per key (a key with only
    NULLs is omitted); NULL keys form one group (SQL semantics). Output:
    one row per key, (key, out_col)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    from sqlgrep_ray.stages.window import resolve_buckets

    num_buckets = resolve_buckets(num_buckets, ds)

    def bucket_pct(g: pa.Table) -> pa.Table:
        from sqlgrep_ray.stages.window import _key_change_mask

        g = g.drop_columns(["__b"])
        n = g.num_rows
        if n == 0:
            return pa.table(
                {
                    key: g[key][:0].combine_chunks(),
                    out_col: g[value_col][:0].combine_chunks(),
                }
            )
        order = pc.sort_indices(
            g, [(key, "ascending"), (value_col, "ascending")]
        )
        g = g.take(order)
        karr = g[key].combine_chunks()
        starts = np.flatnonzero(_key_change_mask(karr, n))
        lens = np.diff(np.r_[starts, n])
        idx = starts + np.minimum(
            np.floor(p * lens).astype(np.int64), lens - 1
        )
        return pa.table(
            {
                key: karr.take(pa.array(starts)),
                out_col: g[value_col].combine_chunks().take(pa.array(idx)),
            }
        )

    from sqlgrep_ray.stages.exchange import bucketed

    valid = ds.select_columns([key, value_col]).map_batches(
        lambda t: t.filter(pc.is_valid(t[value_col])),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    return bucketed(valid, key, num_buckets, bucket_pct)
