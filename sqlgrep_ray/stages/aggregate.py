"""GROUP BY engine — combiner-first distributed aggregation.

Rebuild of the reference's in-memory group state machine
(``src/execution/aggregate_execution.rs:15-23, 131-591``) on Ray Data:

* **Associative aggregates** (count / count* / sum / min / max / avg /
  stddev / variance / bool_and / bool_or) run as a THREE-phase pipeline:

  1. ``map_batches`` evaluates group-key + value expressions and immediately
     **pre-aggregates inside the block** with ``pyarrow.TableGroupBy`` — the
     map-side combiner, so the all-to-all shuffle only moves
     one-row-per-(block, key) partials, not raw rows;
  2. the partials merge once (sums of sums, min of mins, …) in
     ``pa.TableGroupBy``: on the driver when they are few, else once per
     bucket of the engine's key-hash exchange (``stages/exchange.merge``);
  3. a final ``map_batches`` turns merged partials into results
     (``avg = sum/count`` with INTEGER division for int inputs —
     ``aggregate_execution.rs:473-489``; population variance
     ``(Σx² − (Σx)²/n)/n`` — ``:490-539``).

* **Holistic aggregates** (percentile / array_agg / string_agg /
  count_distinct) need the whole group:
  ``Dataset.groupby(keys).map_groups(...)`` ships each group to one worker —
  the same memory contract as the reference, which buffers every value of a
  group in RAM (``aggregate_execution.rs:540-543``). A hot group must fit a
  worker's heap; salt keys upstream if that's violated.

Divergences (documented):
* stddev/variance accumulate in float64 (reference accumulates in the input
  type; int64 Σx² would overflow at 10^12-row scale);
* array_agg / string_agg order values ASCENDING within the group instead of
  input order (Ray blocks are unordered; ascending is deterministic and
  matches an ``ORDER BY`` oracle).

Output rows are sorted ascending by group-key tuple, mirroring the
reference's BTreeMap iteration (``aggregate_execution.rs:17,254,281-283``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sqlgrep_ray.functions.exprs import (
    CompileCtx,
    Expr,
    Kernel,
    _as_array,
    compile_expr,
)
from sqlgrep_ray.pipelines.plan import AggItem, AggregatePlan

HOLISTIC = {
    "percentile", "array_agg", "string_agg", "count_distinct",
    "sum_distinct", "avg_distinct",
}
# two-column statistical aggregates (ENGINE EXTENSION): the second
# argument expression rides in AggItem.extra; rows where EITHER side is
# NULL are excluded (SQL-standard pairwise semantics)
_TWO_ARG = ("covar_pop", "covar_samp", "corr")
# sample-variance family shares the population partials (Σx, Σx², n)
_VAR_FAMILY = ("stddev", "variance", "stddev_samp", "var_samp")
_CONST_KEY = "__gk"


def _null_default(t: pa.DataType):
    """Fill value standing in for NULL while a validity marker rides along
    (the (marker, filled) pair encoding used for every null-safe grouping
    and sort in the engine)."""
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return pa.scalar("", t)
    if pa.types.is_boolean(t):
        return pa.scalar(False, t)
    if pa.types.is_timestamp(t) or pa.types.is_duration(t):
        return pa.scalar(0, t)
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return pa.scalar(0, t)
    return None  # exotic key type: leave nulls (fails only if nulls occur)


def group_table_null_safe(
    t: pa.Table, keys: "Sequence[str]", specs: "list"
) -> pa.Table:
    """``pa.TableGroupBy`` with NULL-proof keys.

    pyarrow's hash group-by (observed on 16.1) emits DUPLICATE group rows
    when a NULLABLE var-width key column (string) is grouped together with
    fixed-width key columns (e.g. ``str? + int64``) once the table is large
    enough — sums still partition correctly, but the groups don't merge
    (row-encoder null handling). Any final merge relying on raw-NULL keys
    is therefore wrong at exactly the scale tests don't cover. Encode each
    nullable key as (validity int8, null-filled value), group on the
    encoded list, restore NULLs after. Zero extra work when no key has
    NULLs."""
    enc_keys: list[str] = []
    restore: list[str] = []
    for k in keys:
        col = t[k]
        d = _null_default(col.type)
        if col.null_count == 0 or d is None:
            enc_keys.append(k)
            continue
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        m = f"__nv_{k}"
        t = t.set_column(
            t.column_names.index(k), k, pc.fill_null(col, d)
        )
        t = t.append_column(m, pc.is_valid(col).cast(pa.int8()))
        enc_keys.extend([m, k])
        restore.append(k)
    g = pa.TableGroupBy(t, enc_keys).aggregate(specs)
    for k in restore:
        mark = g[f"__nv_{k}"]
        if isinstance(mark, pa.ChunkedArray):
            mark = mark.combine_chunks()
        col = g[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        g = g.set_column(
            g.column_names.index(k),
            k,
            pc.if_else(pc.equal(mark, 0), pa.scalar(None, col.type), col),
        )
    if restore:
        g = g.drop_columns([f"__nv_{k}" for k in restore])
    return g


# ---------------------------------------------------------------------------
# Phase 0+1: evaluate exprs, block-level combine
# ---------------------------------------------------------------------------


class PartialAggregator:
    """``map_batches`` callable producing per-block partial aggregates."""

    def __init__(self, plan: AggregatePlan, ctx: Optional[CompileCtx] = None):
        self.key_names = [k.name for k in plan.group_by] or [_CONST_KEY]
        self.has_keys = bool(plan.group_by)
        self.key_kernels = [compile_expr(k.expr, ctx) for k in plan.group_by]
        self.aggs = plan.aggs
        self.val_kernels: list[Optional[Kernel]] = [
            compile_expr(a.arg, ctx) if a.arg is not None else None for a in plan.aggs
        ]
        self.val2_kernels: list[Optional[Kernel]] = [
            compile_expr(a.extra, ctx) if a.func in _TWO_ARG else None
            for a in plan.aggs
        ]
        # pyarrow block-level aggregation spec
        self.pa_aggs: list[tuple[Any, str]] = []
        seen: set[tuple[Any, str]] = set()
        for i, a in enumerate(self.aggs):
            for spec in _partial_specs(i, a):
                if spec not in seen:
                    seen.add(spec)
                    col_name, kind = spec
                    self.pa_aggs.append(([] if kind == "count_all" else col_name, kind))

    def _narrow(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols: dict[str, Any] = {}
        for name, kk in zip(self.key_names, self.key_kernels):
            cols[name] = _as_array(kk(batch), n)
        if not self.has_keys:
            cols[_CONST_KEY] = pa.array(np.zeros(n, dtype=np.int8))
        for i, (a, vk) in enumerate(zip(self.aggs, self.val_kernels)):
            if vk is None:
                continue
            v = _as_array(vk(batch), n)
            if a.func in ("bool_and", "bool_or"):
                v = v.cast(pa.int8())
            cols[f"__a{i}"] = v
            if a.func in _VAR_FAMILY:
                f = v.cast(pa.float64())
                cols[f"__a{i}"] = f
                cols[f"__a{i}sq"] = pc.multiply(f, f)
            elif a.func in _TWO_ARG:
                x = v.cast(pa.float64())
                y = _as_array(self.val2_kernels[i](batch), n).cast(
                    pa.float64()
                )
                # pairwise NULL semantics: drop the row from BOTH sides
                # when either is NULL, so count(x) counts valid pairs
                valid = pc.and_(pc.is_valid(x), pc.is_valid(y))
                nf = pa.scalar(None, pa.float64())
                x = pc.if_else(valid, x, nf)
                y = pc.if_else(valid, y, nf)
                cols[f"__a{i}"] = x
                cols[f"__a{i}y"] = y
                cols[f"__a{i}xy"] = pc.multiply(x, y)
                if a.func == "corr":
                    cols[f"__a{i}sq"] = pc.multiply(x, x)
                    cols[f"__a{i}ysq"] = pc.multiply(y, y)
        return pa.table(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        narrow = self._narrow(batch)
        return group_table_null_safe(narrow, self.key_names, self.pa_aggs)


def _partial_specs(i: int, a: AggItem) -> list[tuple[Any, str]]:
    v = f"__a{i}"
    f = a.func
    if f == "count_star":
        return [("__star__", "count_all")]
    if f == "count":
        return [(v, "count")]
    if f == "sum":
        return [(v, "sum")]
    if f == "min" or f == "bool_and":
        return [(v, "min")]
    if f == "max" or f == "bool_or":
        return [(v, "max")]
    if f == "avg":
        return [(v, "sum"), (v, "count")]
    if f in _VAR_FAMILY:
        return [(v, "sum"), (f"{v}sq", "sum"), (v, "count")]
    if f in ("covar_pop", "covar_samp"):
        return [(v, "sum"), (f"{v}y", "sum"), (f"{v}xy", "sum"), (v, "count")]
    if f == "corr":
        return [
            (v, "sum"), (f"{v}y", "sum"), (f"{v}xy", "sum"),
            (f"{v}sq", "sum"), (f"{v}ysq", "sum"), (v, "count"),
        ]
    raise ValueError(f"{f} is not an associative aggregate")


def merge_spec(plan: AggregatePlan) -> list[tuple[str, str]]:
    """(partial column, "sum" | "min" | "max") pairs that merge the per-block
    partials of ``plan`` (sum of sums and counts, min of mins, …)."""
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    for i, a in enumerate(plan.aggs):
        for col_name, kind in _partial_specs(i, a):
            pcol = "count_all" if kind == "count_all" else f"{col_name}_{kind}"
            if pcol not in seen:
                seen.add(pcol)
                out.append((pcol, "sum" if kind in ("sum", "count", "count_all") else kind))
    return out


class FinalizeAggregates:
    """``map_batches`` callable: merged partials → named result columns."""

    def __init__(
        self,
        plan: AggregatePlan,
        ctx: Optional[CompileCtx] = None,
        passthrough: Sequence[str] = (),
    ):
        self.plan = plan
        self.key_names = [k.name for k in plan.group_by]
        self.ctx = ctx
        self.passthrough = list(passthrough)

    def __call__(self, batch: pa.Table) -> pa.Table:
        cols: dict[str, Any] = {k: batch[k] for k in self.key_names}
        for m in self.passthrough:
            if m in batch.column_names:
                cols[m] = batch[m]
        for i, a in enumerate(self.plan.aggs):
            cols[a.name] = _finalize_one(batch, i, a)
        out = pa.table(cols)
        return apply_transforms(out, self.plan, self.ctx)


def _finalize_one(batch: pa.Table, i: int, a: AggItem) -> pa.Array:
    v = f"__a{i}"
    f = a.func
    if f == "count_star":
        return pc.fill_null(batch["count_all"], 0).cast(pa.int64())
    if f == "count":
        return pc.fill_null(batch[f"{v}_count"], 0).cast(pa.int64())
    if f == "sum":
        return _chunk(batch[f"{v}_sum"])
    if f in ("min", "max"):
        return _chunk(batch[f"{v}_{f}"])
    if f == "bool_and":
        return _chunk(batch[f"{v}_min"]).cast(pa.int8()).cast(pa.bool_())
    if f == "bool_or":
        return _chunk(batch[f"{v}_max"]).cast(pa.int8()).cast(pa.bool_())
    if f == "avg":
        s, c = _chunk(batch[f"{v}_sum"]), _chunk(batch[f"{v}_count"])
        if pa.types.is_integer(s.type):
            # integer division (aggregate_execution.rs:473-489)
            return pc.divide(s, c.cast(pa.int64()))
        return pc.divide(s, c.cast(pa.float64()))
    if f in _VAR_FAMILY:
        s = _chunk(batch[f"{v}_sum"]).cast(pa.float64())
        sq = _chunk(batch[f"{v}sq_sum"]).cast(pa.float64())
        n = _chunk(batch[f"{v}_count"]).cast(pa.float64())
        # sample forms divide by n-1, NULL below two observations
        denom = (
            n
            if f in ("stddev", "variance")
            else pc.if_else(
                pc.greater(n, 1.0),
                pc.subtract(n, 1.0),
                pa.scalar(None, pa.float64()),
            )
        )
        var = pc.divide(
            pc.subtract(sq, pc.divide(pc.multiply(s, s), n)), denom
        )
        # clamp tiny negative fp residue; skip_nulls=False keeps the NULL of
        # an all-null group (default max_element_wise would coerce it to 0.0
        # — caught by the aggregate property suite)
        var = pc.max_element_wise(
            var, pa.scalar(0.0), options=pc.ElementWiseAggregateOptions(skip_nulls=False)
        )
        return pc.sqrt(var) if f in ("stddev", "stddev_samp") else var
    if f in _TWO_ARG:
        sx = _chunk(batch[f"{v}_sum"]).cast(pa.float64())
        sy = _chunk(batch[f"{v}y_sum"]).cast(pa.float64())
        sxy = _chunk(batch[f"{v}xy_sum"]).cast(pa.float64())
        n = _chunk(batch[f"{v}_count"]).cast(pa.float64())
        nnull = pa.scalar(None, pa.float64())
        npos = pc.if_else(pc.greater(n, 0.0), n, nnull)
        cov_num = pc.subtract(sxy, pc.divide(pc.multiply(sx, sy), npos))
        if f == "covar_pop":
            return pc.divide(cov_num, npos)
        if f == "covar_samp":
            return pc.divide(
                cov_num,
                pc.if_else(pc.greater(n, 1.0), pc.subtract(n, 1.0), nnull),
            )
        # corr: cov / (σx·σy); zero variance on either side ⇒ NULL
        sqx = _chunk(batch[f"{v}sq_sum"]).cast(pa.float64())
        sqy = _chunk(batch[f"{v}ysq_sum"]).cast(pa.float64())
        zero = pa.scalar(0.0)
        opts = pc.ElementWiseAggregateOptions(skip_nulls=False)
        vx = pc.max_element_wise(
            pc.subtract(sqx, pc.divide(pc.multiply(sx, sx), npos)), zero,
            options=opts,
        )
        vy = pc.max_element_wise(
            pc.subtract(sqy, pc.divide(pc.multiply(sy, sy), npos)), zero,
            options=opts,
        )
        den = pc.sqrt(pc.multiply(vx, vy))
        den = pc.if_else(pc.greater(den, 0.0), den, nnull)
        return pc.divide(cov_num, den)
    raise ValueError(f"{f} not associative")


def _chunk(c: Any) -> pa.Array:
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


# ---------------------------------------------------------------------------
# Holistic path: whole group on one worker (same contract as the reference)
# ---------------------------------------------------------------------------


class GroupEvaluator:
    """``map_batches`` callable evaluating key+value expressions (no combine)."""

    def __init__(self, plan: AggregatePlan, ctx: Optional[CompileCtx] = None):
        self.key_names = [k.name for k in plan.group_by] or [_CONST_KEY]
        self.has_keys = bool(plan.group_by)
        self.key_kernels = [compile_expr(k.expr, ctx) for k in plan.group_by]
        self.val_kernels = [
            compile_expr(a.arg, ctx) if a.arg is not None else None
            for a in plan.aggs
        ]
        # ordered ARRAY_AGG/STRING_AGG: the order key rides as __ao{i}
        self.ord_kernels = [
            compile_expr(a.order[0], ctx)
            if getattr(a, "order", None) is not None
            else None
            for a in plan.aggs
        ]
        # two-column aggregates: the second argument rides as __a{i}y
        self.val2_kernels = [
            compile_expr(a.extra, ctx) if a.func in _TWO_ARG else None
            for a in plan.aggs
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        cols: dict[str, Any] = {}
        for name, kk in zip(self.key_names, self.key_kernels):
            cols[name] = _as_array(kk(batch), n)
        if not self.has_keys:
            cols[_CONST_KEY] = pa.array(np.zeros(n, dtype=np.int8))
        for i, vk in enumerate(self.val_kernels):
            if vk is not None:
                cols[f"__a{i}"] = _as_array(vk(batch), n)
        for i, ok in enumerate(self.ord_kernels):
            if ok is not None:
                cols[f"__ao{i}"] = _as_array(ok(batch), n)
        for i, v2 in enumerate(self.val2_kernels):
            if v2 is not None:
                cols[f"__a{i}y"] = _as_array(v2(batch), n)
        return pa.table(cols)


class HolisticGroupAgg:
    """``map_groups`` callable computing ALL aggregates of one group."""

    def __init__(self, plan: AggregatePlan, ctx: Optional[CompileCtx] = None):
        self.plan = plan
        self.key_names = [k.name for k in plan.group_by]
        self.ctx = ctx

    def __call__(self, group: pa.Table) -> pa.Table:
        cols: dict[str, Any] = {}
        for k in self.key_names or [_CONST_KEY]:
            cols[k] = group[k][:1]
        for i, a in enumerate(self.plan.aggs):
            val = _holistic_value(group, i, a)
            cols[a.name] = val if isinstance(val, pa.Array) else pa.array([val])
        out = pa.table(cols)
        if not self.key_names:
            out = out.drop_columns([_CONST_KEY])
        return apply_transforms(out, self.plan, self.ctx)


def _holistic_value(group: pa.Table, i: int, a: AggItem) -> Any:
    f = a.func
    if f == "count_star":
        return pa.array([group.num_rows], pa.int64())
    col = _chunk(group[f"__a{i}"]) if f"__a{i}" in group.column_names else None
    if f == "count":
        return pa.array([len(col.drop_null())], pa.int64())
    if f == "count_distinct":
        return pa.array([len(pc.unique(col.drop_null()))], pa.int64())
    if f in ("sum_distinct", "avg_distinct"):
        # ENGINE EXTENSION: SUM/AVG(DISTINCT x) — aggregate over the
        # group's distinct non-null values; AVG keeps the engine's
        # truncating integer division for int inputs (reference AVG
        # semantics, aggregate_execution.rs:473-489)
        vals = pc.unique(col.drop_null())
        if len(vals) == 0:
            out_t = pa.int64() if pa.types.is_integer(col.type) else pa.float64()
            return pa.array([None], out_t)
        s = pc.sum(vals).as_py()
        if f == "sum_distinct":
            out_t = pa.int64() if pa.types.is_integer(col.type) else pa.float64()
            return pa.array([s], out_t)
        if pa.types.is_integer(col.type):
            q = -((-s) // len(vals)) if s < 0 else s // len(vals)
            return pa.array([q], pa.int64())
        return pa.array([s / len(vals)], pa.float64())
    if f == "sum":
        return pa.array([pc.sum(col).as_py()], col.type)
    if f == "min":
        return pa.array([pc.min(col).as_py()], col.type)
    if f == "max":
        return pa.array([pc.max(col).as_py()], col.type)
    if f == "avg":
        vals = col.drop_null()
        if len(vals) == 0:
            return pa.array([None], col.type)
        s = pc.sum(vals).as_py()
        if pa.types.is_integer(col.type):
            # truncate toward zero like Rust i64 division (:473-489)
            q = -((-s) // len(vals)) if s < 0 else s // len(vals)
            return pa.array([q], pa.int64())
        return pa.array([s / len(vals)], pa.float64())
    if f in _VAR_FAMILY:
        vals = col.drop_null().cast(pa.float64()).to_numpy(zero_copy_only=False)
        n = len(vals)
        samp = f in ("stddev_samp", "var_samp")
        if n == 0 or (samp and n < 2):
            return pa.array([None], pa.float64())
        var = max(float(np.mean(vals * vals) - np.mean(vals) ** 2), 0.0)
        if samp:
            var = var * n / (n - 1)
        return pa.array(
            [math.sqrt(var) if f in ("stddev", "stddev_samp") else var],
            pa.float64(),
        )
    if f in _TWO_ARG:
        y = _chunk(group[f"__a{i}y"])
        valid = pc.and_(pc.is_valid(col), pc.is_valid(y))
        x = col.filter(valid).cast(pa.float64()).to_numpy(zero_copy_only=False)
        yv = y.filter(valid).cast(pa.float64()).to_numpy(zero_copy_only=False)
        n = len(x)
        if n == 0 or (f == "covar_samp" and n < 2):
            return pa.array([None], pa.float64())
        cov = float(np.mean(x * yv) - np.mean(x) * np.mean(yv))
        if f == "covar_pop":
            return pa.array([cov], pa.float64())
        if f == "covar_samp":
            return pa.array([cov * n / (n - 1)], pa.float64())
        vx = max(float(np.mean(x * x) - np.mean(x) ** 2), 0.0)
        vy = max(float(np.mean(yv * yv) - np.mean(yv) ** 2), 0.0)
        den = math.sqrt(vx * vy)
        return pa.array([cov / den if den > 0 else None], pa.float64())
    if f == "percentile":
        # sort, take index (p*len) truncated; OOB ⇒ NULL (:540-543,578-591)
        vals = col.drop_null().sort()
        idx = int(a.extra * len(vals))
        v = vals[idx].as_py() if idx < len(vals) else None
        return pa.array([v], col.type)
    if f in ("array_agg", "string_agg"):
        if getattr(a, "order", None) is not None:
            # explicit ORDER BY y [DESC] inside the aggregate (ENGINE
            # EXTENSION): sort by the order key (NULL keys last, either
            # direction), ties by the VALUE ascending — deterministic;
            # replay in SQL as ORDER BY y [DESC], value
            okey = _chunk(group[f"__ao{i}"])
            mask = pc.is_valid(col)
            vals, okey = col.filter(mask), okey.filter(mask)
            idx = pc.sort_indices(
                pa.table({"k": okey, "v": vals}),
                [
                    ("k", "descending" if a.order[1] else "ascending"),
                    ("v", "ascending"),
                ],
            )
            vals = vals.take(idx)
        else:
            vals = col.drop_null().sort()  # deterministic (module divergences)
            if getattr(a, "distinct", False):
                vals = vals.unique()  # sorted input ⇒ sorted distinct
        if f == "array_agg":
            return pa.array([vals.to_pylist()], pa.list_(col.type))
        return pa.array(
            [a.extra.join(str(v) for v in vals.to_pylist())], pa.string()
        )
    if f in ("bool_and", "bool_or"):
        vals = col.drop_null()
        if len(vals) == 0:
            return pa.array([None], pa.bool_())
        red = pc.min(vals) if f == "bool_and" else pc.max(vals)
        return pa.array([red.as_py()], pa.bool_())
    raise ValueError(f"unknown aggregate {f!r}")


# ---------------------------------------------------------------------------
# Post-aggregation transforms ($value expressions)
# ---------------------------------------------------------------------------


def apply_transforms(
    table: pa.Table, plan: AggregatePlan, ctx: Optional[CompileCtx]
) -> pa.Table:
    """Evaluate each AggItem.transform over pseudo-column ``$value``
    (reference scope AggregationValue, ``aggregate_execution.rs:332-339``)."""
    for a in plan.aggs:
        if a.transform is None:
            continue
        k = compile_expr(a.transform, ctx)
        tmp = pa.table({"$value": table[a.name]})
        newv = _as_array(k(tmp), table.num_rows)
        idx = table.column_names.index(a.name)
        table = table.set_column(idx, a.name, newv)
    return table


def is_holistic(plan: AggregatePlan) -> bool:
    return any(a.func in HOLISTIC for a in plan.aggs)
