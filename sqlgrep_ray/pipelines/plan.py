"""Logical plans — the rebuild's ``Statement`` layer (reference ``model.rs:57-63``).

A plan is a declarative dataclass tree; ``sqlgrep_ray.pipelines.runner`` turns
(plan, Dataset) into a lazy Ray Data pipeline. The SQL front-end (later
milestone) produces these same dataclasses, so everything is testable without
SQL, mirroring how the reference's parser converts to ``SelectStatement`` /
``AggregateStatement`` before execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from sqlgrep_ray.functions.exprs import Expr
from sqlgrep_ray.schema import TableDef


@dataclass(frozen=True)
class Projection:
    name: str
    expr: Expr


@dataclass(frozen=True)
class JoinSpec:
    """Broadcast equi-join against a small fully-materialized side
    (reference ``src/join.rs`` — 'the joined table is loaded completely in
    memory', README.md:56).

    ``right`` is resolved by the runner to a pyarrow Table (it may be a
    pyarrow Table, a callable returning one, or a ray.ObjectRef of one).
    ``how`` ∈ {"inner", "left", "right"} — OUTER/FULL are the reference's
    left-outer on the streamed side (``join.rs:125-138``); "right" is an
    ENGINE EXTENSION (all build rows survive, unmatched ones NULL-extended —
    ``runner._right_outer_broadcast``). Under aggregation any OUTER degrades
    to INNER (``execution_engine.rs:227-244``).
    """

    right: Any
    # ENGINE EXTENSION: composite keys — a tuple of column names on each
    # side (ON a = x AND b = y); RIGHT JOIN requires the single-key form
    left_key: "str | tuple"
    right_key: "str | tuple"
    how: str = "inner"
    right_prefix: str = ""  # prepended to right column names in the output


@dataclass(frozen=True)
class WindowSpec:
    """ENGINE EXTENSION (the reference has no window functions): one
    LAG/LEAD call lifted out of a projection. Executed by
    ``stages/window.lag_shift`` (key-hash bucket shuffle, one vectorized
    sort + null-masked take per bucket) BEFORE projections, after WHERE —
    SQL window semantics. Restricted to plain columns for value, PARTITION
    BY and ORDER BY keys (the lag_shift contract: unique (key, order) per
    row for determinism)."""

    out_col: str  # internal column the rewritten projection references
    func: str  # "lag" | "lead"
    value_col: str
    key: "str | tuple | None"  # PARTITION BY column(s); None = GLOBAL window
    order: str  # ORDER BY column
    offset: int = 1
    frame: str = "range"  # "range" (SQL default) | "rows" | "full"
    default: Any = None  # LAG/LEAD 3-arg: literal filled past the edge
    preceding: Any = None  # bounded frame lookback (ROWS: rows; RANGE: value)
    following: Any = None  # bounded ROWS frame lookahead (<m> FOLLOWING)
    # IGNORE NULLS (LAG/LEAD/FIRST_VALUE/LAST_VALUE): navigate the
    # partition's non-null values only
    ignore_nulls: bool = False


@dataclass(frozen=True)
class SelectPlan:
    """SELECT path: filter → [windows] → project (wildcard = all columns)
    → distinct → limit."""

    projections: Optional[tuple[Projection, ...]] = None  # None ⇒ wildcard
    where: Optional[Expr] = None
    join: Optional[JoinSpec] = None
    # ENGINE EXTENSION: multi-join chains — joins past the first, applied
    # in declaration order as further broadcast map_batches stages
    extra_joins: "tuple[JoinSpec, ...]" = ()
    distinct: bool = False
    limit: Optional[int] = None
    # ENGINE EXTENSION: OFFSET m (requires LIMIT) — skip the first m rows
    # of the (ordered) result; see runner._apply_order/_limit_offset
    offset: Optional[int] = None
    # ENGINE EXTENSION (the reference has no ORDER BY, SURVEY §2.7):
    # (expr, descending) pairs evaluated over the OUTPUT columns; NULLs
    # sort first. Applied before LIMIT (deterministic top-k).
    order_by: tuple = ()
    # ENGINE EXTENSION: LAG/LEAD window stages (see WindowSpec)
    windows: tuple = ()
    # ENGINE EXTENSION: QUALIFY — predicate over window outputs (and any
    # input column), applied after the window stage, before projection
    qualify: Optional[Expr] = None
    # ENGINE EXTENSION: UNNEST — (out_col, list expr). Explodes each row
    # into one row per list element (empty/NULL lists drop the row, SQL
    # parity) between the window/QUALIFY stages and projection; a pure
    # vectorized map_batches (list_flatten + parent-row take), streaming,
    # no shuffle. At most one per SELECT.
    unnest: "Optional[tuple]" = None
    # ENGINE EXTENSION: hidden pre-window input columns — (name, expr)
    # pairs evaluated once per batch (streaming map_batches) before the
    # window exchange, backing expression arguments like
    # ``SUM(x + 1) OVER …``; pruned from the final projection like
    # ``__win*`` outputs.
    win_inputs: tuple = ()


@dataclass(frozen=True)
class AggItem:
    """One aggregate projection (reference ``AggregateStatementAggregation``,
    ``model.rs:31-36``): max one aggregate per projection; ``transform`` is a
    post-aggregation scalar expression over pseudo-column ``$value``
    (``aggregate_execution.rs:332-339``)."""

    name: str
    func: str  # count | count_star | count_distinct | min | max | sum | avg |
    #            stddev | variance | percentile | bool_and | bool_or |
    #            array_agg | string_agg
    arg: Optional[Expr] = None
    extra: Any = None  # percentile p ∈ [0,1] / string_agg delimiter
    transform: Optional[Expr] = None
    # ENGINE EXTENSION: ARRAY_AGG/STRING_AGG element ordering —
    # (order expr, descending). Elements sort by the order key (NULL keys
    # last), ties by the VALUE ascending (deterministic; replay in SQL as
    # ORDER BY key [DESC], value). None keeps the default value-ascending
    # order (module divergences note in stages/aggregate.py).
    order: Optional[tuple] = None
    # ENGINE EXTENSION: ARRAY_AGG/STRING_AGG(DISTINCT x) — dedupe the
    # group's values (output stays value-ascending, so it equals DuckDB's
    # array_agg(DISTINCT x ORDER BY x)). Mutually exclusive with order.
    distinct: bool = False


@dataclass(frozen=True)
class GroupKey:
    name: str
    expr: Expr


@dataclass(frozen=True)
class AggregatePlan:
    """GROUP BY path. ``having`` is evaluated over a table holding the group
    keys plus every aggregate output (including having-only aggregates —
    reference gives those extra slots, ``aggregate_execution.rs:88-115``);
    having-only aggs carry names starting with ``__having`` and are dropped
    after the filter. Output is sorted ascending by group-key tuple
    (BTreeMap iteration order, ``aggregate_execution.rs:17,254``)."""

    group_by: tuple[GroupKey, ...] = ()
    aggs: tuple[AggItem, ...] = ()
    where: Optional[Expr] = None
    join: Optional[JoinSpec] = None
    # ENGINE EXTENSION: multi-join chains — joins past the first, applied
    # in declaration order as further broadcast map_batches stages
    extra_joins: "tuple[JoinSpec, ...]" = ()
    having: Optional[Expr] = None
    distinct: bool = False
    limit: Optional[int] = None
    # ENGINE EXTENSION: OFFSET m (requires LIMIT) — see SelectPlan.offset
    offset: Optional[int] = None
    # ENGINE EXTENSION: explicit output order (see SelectPlan.order_by);
    # overrides the default group-key order when present.
    order_by: tuple = ()
    # ENGINE EXTENSION: GROUP BY ROLLUP / CUBE / GROUPING SETS. Each entry
    # is a tuple of group-key NAMES (a subset of ``group_by`` names; () =
    # the grand total). Empty tuple ⇒ plain GROUP BY. Executed by the
    # expand path (runner._grouping_sets_path): every input row is
    # replicated once per grouping set with the excluded keys NULLed and a
    # ``__gid`` set-ordinal key appended, then ONE ordinary combiner-first
    # aggregate runs over (keys…, __gid) — the Spark/Calcite Expand design,
    # so all aggregate kinds (incl. holistic) work unchanged and shuffle
    # bytes stay bounded by groups × sets, not rows × sets.
    grouping_sets: tuple = ()
    # ENGINE EXTENSION: GROUPING(col) outputs — (output column name,
    # group-key name) pairs. Constant per grouping set (1 when that key is
    # rolled up in the set, else 0), emitted by the expand stage and
    # carried as extra group keys; names starting with ``__grouping`` are
    # HAVING-only and dropped from the output.
    grouping_cols: tuple = ()
    # Merge-path selection for the per-block partials:
    #   True  — group-key cardinality is small (sqlgrep's norm): partials
    #           come to the driver and are merged/finalized/sorted there,
    #           skipping two Ray all-to-all stages (each costs ~75 ms/
    #           input-block of fixed overhead);
    #   False — high-cardinality keys: the partials merge once per bucket
    #           of the engine's key-hash exchange;
    #   None (default) — AUTO: the merge materializes the partials and
    #           picks the driver merge only when their row count and size
    #           are within ``exchange.SMALL_MERGE_MAX_PARTIAL_ROWS`` narrow
    #           rows — they ARE the merge input, so the driver can never be
    #           fed an unbounded table (``exchange.merge``).
    small_result: Optional[bool] = None


Plan = Union[SelectPlan, AggregatePlan]
