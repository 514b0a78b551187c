"""Plan × Dataset → lazy Ray Data pipeline.

The execution layer replacing the reference's per-line push engine
(``src/execution_engine.rs:136-175``): everything is expressed as
``map_batches`` over zero-copy Arrow batches plus one merge of per-block
combiner partials; the pipeline stays lazy/streaming until a sink or a
small result consumption. The merge (``exchange.merge``) runs on the
driver when the partials are few, else once per bucket of the engine's
key-hash exchange.

Select path  (select_execution.rs:21-57):
    [join] → where-filter → project → [distinct] → [limit]
Aggregate path (aggregate_execution.rs):
    [join (OUTER downgraded to INNER, execution_engine.rs:227-244)]
    → where-filter → partial-agg combiner → merge → finalize
    → having → sort(group keys) → [limit]
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.functions.exprs import (
    Col,
    CompileCtx,
    compile_expr,
    compile_predicate,
    _as_array,
)
from sqlgrep_ray.pipelines.plan import (
    AggregatePlan,
    GroupKey,
    JoinSpec,
    Plan,
    Projection,
    SelectPlan,
)
from sqlgrep_ray.stages.aggregate import (
    _CONST_KEY,
    HOLISTIC,
    _null_default,
    FinalizeAggregates,
    GroupEvaluator,
    HolisticGroupAgg,
    PartialAggregator,
    _chunk,
    apply_transforms,
    is_holistic,
    merge_spec,
)
from sqlgrep_ray.stages.enrich import BroadcastJoiner
from sqlgrep_ray.stages.exchange import (
    _block_types,
    _fix_null_type_cols,
    _group_merge,
    _marker,
    _schema_types,
    apply,
    as_dataset,
    merge,
    one_block,
)

def _expr_cols(e) -> set:
    """Column names an expression reads."""
    if e is None:
        return set()
    if isinstance(e, Col):
        return {e.name} if e.name != "$value" else set()
    from sqlgrep_ray.sqlfront import _children

    return set().union(*(_expr_cols(c) for c in _children(e)))


def _hidden_order_keys(plan: SelectPlan) -> "tuple[tuple, list]":
    """ORDER BY entries that read a column the SELECT list drops are
    computed before the projection, as hidden ``__obx{i}`` columns that
    the sort drops again. Returns ``(order_by, [(name, expr), …])``; a
    plan whose ORDER BY reads only output columns comes back as it is."""
    if plan.projections is None or plan.distinct or not plan.order_by:
        return plan.order_by, []
    out = {p.name for p in plan.projections}
    order_by, hidden = [], []
    for i, ent in enumerate(plan.order_by):
        if _expr_cols(ent[0]) - out:
            hidden.append((f"__obx{i}", ent[0]))
            ent = (Col(f"__obx{i}"),) + tuple(ent[1:])
        order_by.append(ent)
    return tuple(order_by), hidden


def referenced_columns(plan: Plan) -> Optional[list[str]]:
    """Input columns a plan reads — pass to ``read_parquet(columns=…)`` so
    only needed columns leave storage ("prune at the read"). Returns None
    for wildcard selects (all columns needed)."""
    cols = _read_columns(plan)
    if cols is None:
        return None
    if plan.join is not None:
        lk, rk = plan.join.left_key, plan.join.right_key
        cols.update([lk] if isinstance(lk, str) else lk)
        # right-side columns come from the broadcast table, not the read
        right = plan.join.right
        if isinstance(right, pa.Table):
            prefix = plan.join.right_prefix
            for n in right.column_names:
                cols.discard(prefix + n if prefix else n)
        for k in [rk] if isinstance(rk, str) else rk:
            cols.discard(k)
    return sorted(cols)


def _read_columns(plan: Plan) -> Optional[set]:
    """Columns ``plan`` reads from its joined input, the join's own keys
    aside; None for a wildcard select."""
    cols: set[str] = set()

    def walk(e) -> None:
        cols.update(_expr_cols(e))

    if isinstance(plan, SelectPlan):
        if plan.projections is None:
            return None  # wildcard
        for p in plan.projections:
            walk(p.expr)
        for _, e in _hidden_order_keys(plan)[1]:
            walk(e)
        walk(plan.where)
        walk(getattr(plan, "qualify", None))
        # UNNEST: projections reference the hidden exploded column; the
        # input need is the list expression's columns
        unnest = getattr(plan, "unnest", None)
        if unnest is not None:
            cols.discard(unnest[0])
            walk(unnest[1])
        # hidden pre-window input columns: the real input need is the
        # backing expression's columns, not the __wv* name
        win_input_names = set()
        for nm, e in getattr(plan, "win_inputs", ()):
            win_input_names.add(nm)
            walk(e)
        # window stages: projections/QUALIFY reference the HIDDEN output
        # columns; the inputs are the window's value/partition/order cols
        for w in getattr(plan, "windows", ()):
            cols.discard(w.out_col)
            if w.value_col and w.value_col not in win_input_names:
                cols.add(w.value_col)
            if w.key is not None:  # None = global window (constant key)
                for k in [w.key] if isinstance(w.key, str) else list(w.key):
                    if k not in win_input_names:
                        cols.add(k)
            if isinstance(w.order, str):
                if w.order not in win_input_names:
                    cols.add(w.order)
            else:  # composite/DESC/NULLS ordering: ((col, desc[, nf]), …)
                cols.update(
                    c[0] for c in w.order if c[0] not in win_input_names
                )
    else:
        for k in plan.group_by:
            walk(k.expr)
        for a in plan.aggs:
            walk(a.arg)
            order = getattr(a, "order", None)
            if order is not None:  # ordered ARRAY_AGG/STRING_AGG key
                walk(order[0])
        walk(plan.where)
        # having is NOT walked: it references OUTPUT names (agg aliases),
        # not input columns; its input needs arrive via the agg args
    return cols


def run_plan(
    ds: "ray.data.Dataset",
    plan: Plan,
    ctx: Optional[CompileCtx] = None,
    batch_size: Optional[int] = None,
    n_rows: Optional[int] = None,
) -> "ray.data.Dataset":
    """Run ``plan`` over ``ds``. ``n_rows``, when the caller knows it (a
    Parquet footer), is an upper bound of the row count of ``ds``, in the
    gate's measure (``exchange.gate_size``: bytes count as 32-byte rows);
    it sizes the window exchange without a counting pass and lets the
    window's gate decide without executing."""
    if isinstance(plan, SelectPlan):
        return run_select(ds, plan, ctx, batch_size, n_rows)
    if isinstance(plan, AggregatePlan):
        return run_aggregate(ds, plan, ctx, batch_size)
    raise TypeError(f"unknown plan {type(plan)}")


def _right_outer_broadcast(
    ds: "ray.data.Dataset", join: JoinSpec
) -> "ray.data.Dataset":
    """RIGHT OUTER under the broadcast-join contract — ENGINE EXTENSION
    (the reference has inner / streamed-side left-outer only,
    join.rs:109-138): every build-side (joined-table) row survives;
    unmatched ones are emitted once with NULL streamed-side columns.

    Two streaming passes over the big side, no shuffle of it:
    1. the usual inner broadcast probe (BroadcastJoiner);
    2. a narrow matched-key scan — per-block semi-filter of the streamed
       key against the build keys + block-local unique, then a global
       ``_distinct`` (narrow shuffle) and ONE driver pull bounded by
       |build keys| + 1 rows (the build side already satisfies the
       in-memory broadcast contract, so the pull is bounded by
       construction).
    NULL keys follow the probe's pandas-merge semantics (NULL == NULL
    matches): a NULL build key counts as matched iff the streamed side has
    a NULL key anywhere."""
    from sqlgrep_ray.stages.enrich import _resolve_right

    right = _resolve_right(join.right)
    inner = ds.map_batches(
        BroadcastJoiner(
            right=right,
            left_key=join.left_key,
            right_key=join.right_key,
            how="inner",
            right_prefix=join.right_prefix,
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    rkeys = right[join.right_key]
    if isinstance(rkeys, pa.ChunkedArray):
        rkeys = rkeys.combine_chunks()
    left_schema = ds.schema(fetch_if_missing=True)
    kcol = join.left_key
    build_non_null = pc.unique(pc.drop_null(rkeys))
    build_has_null = rkeys.null_count > 0

    def block_keys(t: pa.Table) -> pa.Table:
        k = t[kcol]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if pa.types.is_null(k.type):
            k = pa.nulls(len(k), build_non_null.type)
        mask = pc.fill_null(pc.is_in(k, value_set=build_non_null), False)
        matched = pc.unique(k.filter(mask))
        if build_has_null and k.null_count > 0:
            # NULL==NULL matches in the probe: ride a NULL sentinel
            matched = pa.concat_arrays(
                [matched, pa.nulls(1, matched.type)]
            )
        return pa.table({kcol: matched})

    if left_schema is None:
        # zero streamed blocks: nothing matches; emit only the (prefixed)
        # build columns — there are no streamed columns to NULL-extend
        anti = right
        matched_has_null = False
        matched_non_null = pa.array([], type=rkeys.type)
    else:
        keys_narrow = ds.map_batches(
            block_keys, batch_format="pyarrow", zero_copy_batch=True
        )
        tbls = list(
            _distinct(keys_narrow).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
        matched = (
            pa.concat_tables(tbls, promote_options="default")[kcol]
            if tbls
            else pa.chunked_array([pa.array([], type=rkeys.type)])
        )
        matched = matched.combine_chunks()
        matched_has_null = matched.null_count > 0
        matched_non_null = pc.drop_null(matched)
        anti_mask = pc.invert(
            pc.fill_null(pc.is_in(rkeys, value_set=matched_non_null), False)
        )
        if matched_has_null:
            anti_mask = pc.and_(anti_mask, pc.is_valid(rkeys))
        anti = right.filter(anti_mask)

    # NULL-extended rows in EXACTLY the probe's output column layout:
    # streamed columns first (typed nulls), then prefixed build columns
    # (overriding on name collision, as the probe's dict build does)
    cols: dict = {}
    if left_schema is not None:
        for name, typ in _schema_types(left_schema).items():
            cols[name] = pa.nulls(anti.num_rows, typ)
    prefix = join.right_prefix
    for name, col in zip(right.column_names, anti.columns):
        cols[(prefix + name) if prefix else name] = col
    extra = ray.data.from_arrow(pa.table(cols))
    if left_schema is None:
        return extra
    return inner.union(extra)


def _apply_join(
    ds: "ray.data.Dataset", join: Optional[JoinSpec], force_inner: bool
) -> "ray.data.Dataset":
    if join is None:
        return ds
    if join.how == "cross":
        # CROSS JOIN: cartesian product with the broadcast side —
        # unaffected by the OUTER→INNER downgrade (no keys, no NULLs)
        from sqlgrep_ray.stages.enrich import CrossJoiner

        return ds.map_batches(
            CrossJoiner(join.right, right_prefix=join.right_prefix),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    how = "inner" if force_inner else join.how
    if how == "right":
        # engine extension; under aggregation the same OUTER→INNER
        # downgrade as the reference's left-outer applies (force_inner)
        if not isinstance(join.left_key, str):
            raise ValueError(
                "RIGHT JOIN supports a single join key (the matched-key "
                "anti scan is per-key); use a derived composite column"
            )
        return _right_outer_broadcast(ds, join)
    # build the hash index ONCE at plan time; the instance (index + small
    # right table) ships with the task definition and is deserialized once
    # per worker process — no actor-pool spin-up (broadcast contract: the
    # right side is small, reference join.rs "loaded completely in memory")
    joiner = BroadcastJoiner(
        right=join.right,
        left_key=join.left_key,
        right_key=join.right_key,
        how=how,
        right_prefix=join.right_prefix,
    )
    return ds.map_batches(
        joiner,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def _apply_where(
    ds: "ray.data.Dataset", where, ctx: Optional[CompileCtx]
) -> "ray.data.Dataset":
    if where is None:
        return ds
    pred = compile_predicate(where, ctx)
    return ds.map_batches(
        lambda t: t.filter(pred(t)), batch_format="pyarrow", zero_copy_batch=True
    )


# ---------------------------------------------------------------------------
# Null-safe shuffle keys.  Ray Data's sort-based groupby / sort cannot compare
# NULL key values (TypeError in sort_and_partition), but the reference allows
# NULL group keys and sorts them FIRST (Value::Null is enum variant 0 —
# SURVEY §2.6).  Encoding: per key column an int8 marker ``__kr{i}`` (0 =
# null, 1 = present) + nulls filled with a type default; shuffle/sort on the
# interleaved (marker, key) tuple — ascending puts nulls first — and restore
# the nulls after the last order-sensitive stage.
# ---------------------------------------------------------------------------


def _encode_keys(key_names: list[str]):
    def fn(t: pa.Table) -> pa.Table:
        for i, k in enumerate(key_names):
            col = _chunk(t[k])
            mark = pc.invert(pc.is_null(col)).cast(pa.int8())
            d = _null_default(col.type)
            if d is not None:
                col = pc.fill_null(col, d)
            t = t.set_column(t.column_names.index(k), k, col)
            t = t.append_column(_marker(i), mark)
        return t

    return fn


def _restore_keys(key_names: list[str]):
    def fn(t: pa.Table) -> pa.Table:
        for i, k in enumerate(key_names):
            mark = _chunk(t[_marker(i)])
            col = _chunk(t[k])
            col = pc.if_else(pc.equal(mark, 0), pa.scalar(None, col.type), col)
            t = t.set_column(t.column_names.index(k), k, col)
        return t.drop_columns([_marker(i) for i in range(len(key_names))])

    return fn


def _interleaved(key_names: list[str]) -> list[str]:
    out: list[str] = []
    for i, k in enumerate(key_names):
        out.extend([_marker(i), k])
    return out


def _finish_groups(
    merged: "pa.Table | ray.data.Dataset",
    finish,
    key_names: list[str],
    sort: bool = True,
) -> "ray.data.Dataset":
    """Finish :func:`exchange.merge` output where it lies: ``finish``
    (finalize, HAVING — per-block safe), then the ascending sort on the
    (marker, filled key) pairs — NULL keys first, the reference's BTreeMap
    order (SURVEY §2.6) — then the NULL keys restored. A driver-merged
    table is finished on the driver, so it runs no Sort operator."""
    if isinstance(merged, pa.Table):
        return ray.data.from_arrow(_finish_table(merged, finish, key_names, sort))
    keys = _interleaved(key_names) if sort else []
    restore = _restore_keys(key_names)
    if finish is not None:
        merged = merged.map_batches(finish, batch_format="pyarrow")
    if keys:
        merged = merged.sort(keys)
    return merged.map_batches(restore, batch_format="pyarrow", zero_copy_batch=True)


def _finish_table(
    merged: pa.Table, finish, key_names: list[str], sort: bool = True
) -> pa.Table:
    """:func:`_finish_groups` of a driver-merged table, as a table."""
    t = finish(merged) if finish is not None else merged
    if sort and key_names:
        keys = _interleaved(key_names)
        t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))
    return _restore_keys(key_names)(t)


class GroupMerge:
    """The merge and finish of an associative ``plan``'s combiner partials,
    shared by :func:`_aggregate_groups` and follow mode (``cli.py``,
    ``state/follow.py``), which folds Arrow tables of partials round by
    round: ``encode`` a partials table (null-encoded keys), ``merge`` a
    list of them into one table of the same kind (the merge is
    associative, so it can be folded again), and ``result`` the merged
    table into the query's finished, HAVING-filtered, key-ordered rows."""

    def __init__(self, plan: AggregatePlan, ctx: Optional[CompileCtx] = None):
        self.key_names = [k.name for k in plan.group_by]
        self.encode = _encode_keys(self.key_names)
        self.keys = _interleaved(self.key_names) or [_CONST_KEY]
        self.spec = merge_spec(plan)
        fin = FinalizeAggregates(
            plan, ctx, passthrough=[_marker(i) for i in range(len(self.key_names))]
        )
        having = _having_filter(plan, ctx, self.key_names)
        self.finish = lambda t: having(fin(t))

    def merge(self, parts: list[pa.Table]) -> pa.Table:
        t = pa.concat_tables(parts, promote_options="default")
        return _group_merge(t, self.keys, self.spec)

    def result(self, merged: pa.Table) -> pa.Table:
        return _finish_table(merged, self.finish, self.key_names)


def _distinct(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Exact dedup: per-block dedup, then one merge keyed on the full
    (null-encoded) row (SURVEY.md §2.8; the reference's first-seen order is
    not reproducible on unordered blocks — result SET equality is the
    contract). Each block encodes its own columns, and the merge keys come
    from the materialized partials, whose schema costs no execution."""

    def block_dedup(t: pa.Table) -> pa.Table:
        # an all-NULL column keeps its ``null`` type here (no block knows
        # the others' types); the merge types it
        t = _encode_keys(t.column_names)(t)
        return t.group_by(t.column_names).aggregate([])

    parts = ds.map_batches(
        block_dedup, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    schema = parts.schema()
    if schema is None:  # zero-block input: nothing to dedup
        return parts
    # a partial is the row's columns, then one null marker per column
    cols = schema.names[: len(schema.names) // 2]
    merged = merge(parts, _interleaved(cols), [], None)
    return _finish_groups(merged, None, cols, sort=False)


def run_set_op(
    parts: "list[ray.data.Dataset]",
    op: str,
    keep_dups: bool,
) -> "ray.data.Dataset":
    """INTERSECT / EXCEPT [ALL] over structured Datasets — ENGINE EXTENSION
    (the reference dialect has no set operations; companion to the UNION
    path in ``api._run_set_query``). SQL bag semantics: with row
    multiplicities c0..ck-1 per side, INTERSECT ALL emits min(ci) copies,
    EXCEPT ALL max(c0 − Σ rest, 0); the distinct forms emit one copy when
    all ci > 0 (INTERSECT) / c0 > 0 and Σ rest = 0 (EXCEPT). NULLs compare
    equal (IS NOT DISTINCT FROM), matching standard set-op semantics.

    Distributed shape (the 100-TB path): per side, a per-block pyarrow
    ``group_by`` combiner collapses duplicate rows to one row + a count in
    that side's ``__sc{i}`` column, so shuffle bytes are bounded by
    distinct-rows × k int64s, never input multiplicity; then ONE merge
    (:func:`exchange.merge`) sums the k count columns per (null-encoded)
    row, on the driver when the partials are few; a vectorized finisher
    maps counts → multiplicity and ``np.repeat``s the row indices."""
    if op not in ("intersect", "except"):
        raise ValueError(f"run_set_op: unknown op {op!r}")
    k = len(parts)
    schemas = [p.schema(fetch_if_missing=True) for p in parts]
    base = schemas[0]
    if base is None:
        # zero-block first side: both ops yield zero rows with its schema
        return parts[0]
    cols = list(base.names)
    for s in schemas[1:]:
        if s is not None and sorted(s.names) != sorted(cols):
            raise ValueError(
                f"set-operation members must produce the same column names: "
                f"{sorted(cols)} vs {sorted(s.names)}"
            )
    # zero-block members: INTERSECT with an empty side is empty; EXCEPT
    # just loses that subtrahend (and distinct-EXCEPT still dedups)
    live = [(i, p) for i, (p, s) in enumerate(zip(parts, schemas)) if s is not None]
    if op == "intersect" and len(live) < k:
        return parts[0].limit(0)
    if op == "except" and len(live) == 1:
        return parts[0] if keep_dups else _distinct(parts[0])

    enc, res = _encode_keys(cols), _restore_keys(cols)
    cnt = [f"__sc{i}" for i in range(k)]
    ordered = _interleaved(cols) + cnt

    def tagger(side: int):
        def tag(t: pa.Table) -> pa.Table:
            # an all-NULL column keeps its ``null`` type here; the merge
            # types it from the other blocks
            t = enc(t.select(cols))
            g = t.group_by(t.column_names).aggregate([([], "count_all")])
            n = g.num_rows
            zero = pa.array(np.zeros(n, dtype=np.int64))
            for j, cc in enumerate(cnt):
                col = g["count_all"].cast(pa.int64()) if j == side else zero
                g = g.append_column(cc, col)
            return g.drop_columns(["count_all"]).select(ordered)

        return tag

    tagged = [
        p.map_batches(tagger(i), batch_format="pyarrow", zero_copy_batch=True)
        for i, p in live
    ]
    u = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    merged = merge(u, _interleaved(cols), [(c, "sum") for c in cnt], None)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return res(t.drop_columns([c for c in cnt if c in t.column_names]))
        arrs = [
            np.asarray(
                pc.fill_null(t[c], 0).to_numpy(zero_copy_only=False),
                dtype=np.int64,
            )
            for c in cnt
        ]
        if op == "intersect":
            mult = np.minimum.reduce(arrs)
            if not keep_dups:
                mult = (mult > 0).astype(np.int64)
        else:
            rest = np.sum(arrs[1:], axis=0)
            if keep_dups:
                mult = np.maximum(arrs[0] - rest, 0)
            else:
                mult = ((arrs[0] > 0) & (rest == 0)).astype(np.int64)
        idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), mult)
        return res(t.drop_columns(cnt).take(pa.array(idx)))

    return as_dataset(apply(merged, finish))


# ORDER BY + LIMIT n at or below this runs combiner-first (per-block local
# top-n, one-block sorted merge of <= n x blocks candidate rows) instead of
# a distributed Sort all-to-all — a full sort to keep n rows is the classic
# scale anti-pattern, and Ray's Sort costs seconds of fixed overhead even
# on tiny data
TOPN_LIMIT_MAX = 100_000


def _apply_order(
    ds: "ray.data.Dataset", order_by, ctx: Optional[CompileCtx], limit=None,
    offset=None, drop=(),
) -> "ray.data.Dataset":
    """ORDER BY (engine extension): append compiled sort-key columns
    (plus a 0/1 null marker per key so Ray's sort never compares NULLs —
    NULLs order first by default; a per-key ``NULLS LAST`` flips that
    key's marker direction), ``Dataset.sort``, strip the temp columns.
    With a small ``limit``, top-n combiner-first instead of the full
    sort. Entries are (expr, desc) or (expr, desc, nulls_last) tuples.

    ``offset`` (OFFSET m, requires LIMIT): handled here for ordered
    output — the top-n pass keeps limit+offset rows and the final sorted
    slice starts at ``offset``; an offset always forces the top-n path
    (the consolidated block is bounded by limit+offset rows). ``drop``:
    hidden input columns of the keys, dropped with the temp columns."""
    if not order_by:
        return ds
    offset = offset or 0
    entries = [
        (t[0], t[1], t[2] if len(t) > 2 else None) for t in order_by
    ]
    kernels = [compile_expr(e, ctx) for e, _, _ in entries]

    def add_keys(t: pa.Table) -> pa.Table:
        for i, k in enumerate(kernels):
            arr = _as_array(k(t), t.num_rows)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if pa.types.is_null(arr.type):  # e.g. a literal NULL key
                arr = pa.nulls(t.num_rows, pa.int8())
            marker = pc.cast(pc.is_valid(arr), pa.int8())
            d = _null_default(arr.type)
            filled = pc.fill_null(arr, d) if d is not None else arr
            t = t.append_column(f"__obm{i}", marker)
            t = t.append_column(f"__ob{i}", filled)
        return t

    sort_cols: list = []
    sort_desc: list = []
    for i, (_, desc, nulls_last) in enumerate(entries):
        # marker ascending ⇒ nulls (0) first; NULLS LAST sorts it
        # descending so valid (1) rows come first
        sort_cols.append(f"__obm{i}")
        sort_desc.append(bool(nulls_last))
        sort_cols.append(f"__ob{i}")
        sort_desc.append(bool(desc))
    sort_spec = [
        (c, "descending" if d else "ascending")
        for c, d in zip(sort_cols, sort_desc)
    ]

    def order(t: pa.Table) -> pa.Array:
        return pc.sort_indices(add_keys(t), sort_spec)

    if limit is not None and (offset or limit <= TOPN_LIMIT_MAX):
        # No schema fetch: a block whose column is all NULL types it
        # ``null``, which some key kernels (LENGTH, COALESCE, …) cannot
        # take. Such a block goes to the merge whole; the one merged
        # block has every block's type, and its keys are computed afresh.
        eff = limit + offset

        def local_topn(t: pa.Table) -> pa.Table:
            if t.num_rows <= eff:
                return t
            try:
                idx = order(t)
            except (pa.ArrowNotImplementedError, pa.ArrowTypeError):
                if not any(pa.types.is_null(ty) for ty in t.schema.types):
                    raise
                return t
            return t.take(idx.slice(0, eff))

        return one_block(
            ds.map_batches(local_topn, batch_format="pyarrow", zero_copy_batch=True),
            lambda t: t.take(order(t).slice(offset, limit)).drop_columns(list(drop)),
        )

    # Ray's sort compares every block against sampled boundaries, so the
    # keys need one type in every block: type the all-NULL columns from
    # all the blocks' schemas (:func:`_block_types`), as the exchange
    # merge does, before the keys are computed
    ds = ds.materialize()
    types = _block_types(ds)
    return (
        ds.map_batches(
            lambda t: add_keys(_fix_null_type_cols(t, types)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort(sort_cols, descending=sort_desc)
        .map_batches(
            lambda t: t.drop_columns(sort_cols + list(drop)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )


def _order_limit(
    ds, plan, ctx: Optional[CompileCtx], order_by=None, drop=()
) -> "ray.data.Dataset":
    """The ORDER BY / LIMIT / OFFSET tail of every plan; ``order_by`` and
    ``drop`` as :func:`_hidden_order_keys` returns them."""
    if order_by is None:
        order_by = getattr(plan, "order_by", ())
    offset = getattr(plan, "offset", None)
    ds = _apply_order(
        ds, order_by, ctx, limit=plan.limit, offset=offset, drop=drop
    )
    # the streaming executor stops upstream once LIMIT rows are out
    return _limit_offset(ds, plan.limit, offset, ordered=bool(order_by))


def _limit_offset(ds, limit, offset, ordered):
    """LIMIT/OFFSET tail. Ordered plans already sliced inside
    _apply_order (its final block is sorted), so only the limit cap
    applies; unordered OFFSET takes limit+offset arbitrary rows and
    drops the first ``offset`` in one consolidated block (LIMIT without
    ORDER BY is nondeterministic row choice either way)."""
    if limit is None:
        return ds
    if ordered or not offset:
        return ds.limit(limit)  # streaming executor early-stops upstream
    return one_block(
        ds.limit(limit + offset), lambda t: t.slice(min(offset, t.num_rows))
    )


def run_select(
    ds: "ray.data.Dataset",
    plan: SelectPlan,
    ctx: Optional[CompileCtx] = None,
    batch_size: Optional[int] = None,
    n_rows: Optional[int] = None,
) -> "ray.data.Dataset":
    ds_entry = ds  # pre-join/filter input, counted when n_rows is None
    ds = _apply_join(ds, plan.join, force_inner=False)
    for _xj in getattr(plan, "extra_joins", ()):
        ds = _apply_join(ds, _xj, force_inner=False)
    ds = _apply_where(ds, plan.where, ctx)

    windows = getattr(plan, "windows", ())
    if windows:
        from sqlgrep_ray.stages.window import (
            WinFunc,
            global_running_ranged,
            partition_windows,
            resolve_buckets,
        )

        # prune BEFORE the bucket shuffle: only the columns the query
        # actually reads ride the exchange (a 3-column window query over
        # a 50-column table must not shuffle 50 columns)
        if plan.projections is not None:
            # the joined rows: both sides' columns, by their joined names
            needed = _read_columns(plan)
            if needed:
                ds = ds.select_columns(sorted(needed))

        # hidden pre-window inputs (expression window arguments): one
        # streaming map_batches evaluates every __wv* column before the
        # exchange, so the window kernels see plain columns
        win_inputs = getattr(plan, "win_inputs", ())
        if win_inputs:
            wi_kernels = [
                (nm, compile_expr(e, ctx)) for nm, e in win_inputs
            ]

            def _add_win_inputs(t: pa.Table) -> pa.Table:
                for nm, kern in wi_kernels:
                    t = t.append_column(nm, _as_array(kern(t), t.num_rows))
                return t

            ds = ds.map_batches(
                _add_win_inputs, batch_format="pyarrow", zero_copy_batch=True
            )

        # ONE bucket shuffle per distinct (PARTITION BY, ORDER BY) frame:
        # every window function sharing a frame computes in a single
        # sorted pass (a 3-function shared-frame query pays 1 exchange,
        # not 3). Bucket count auto-sizes from the ENTRY dataset's row
        # count — an upper bound (pre-WHERE): the caller's ``n_rows``
        # (a Parquet path's footers), else one counting pass of the
        # entry; more buckets than needed only shrinks tasks.
        frames: dict[tuple, list] = {}
        for w in windows:
            frames.setdefault((w.key, w.order), []).append(w)
        nb = resolve_buckets(None, ds_entry, n_rows=n_rows)
        # the footer size bounds the window's input unless a join can
        # multiply its rows
        size_bound = None if plan.join or getattr(plan, "extra_joins", ()) else n_rows
        gw_added = False
        for (key, order), specs in frames.items():
            if key is None and isinstance(order, str) and all(
                w.func in ("run_sum", "run_avg", "run_count", "run_count_star")
                and w.frame == "range"
                and getattr(w, "preceding", None) is None
                and getattr(w, "following", None) is None
                for w in specs
            ):
                # GLOBAL associative running aggregates auto-route to the
                # chunk-safe distributed path (VERDICT r4 #3): no task
                # ever holds more than ~chunk_rows rows, vs the one-task
                # whole-input contract below. Inputs under the chunk
                # threshold (and non-numeric/all-NULL order columns)
                # delegate to the one-task path inside — bit-equal either
                # way.
                ds = global_running_ranged(
                    ds,
                    order,
                    [
                        WinFunc(
                            w.func, w.out_col,
                            value_col=getattr(w, "value_col", None)
                            if w.func != "run_count_star"
                            else None,
                        )
                        for w in specs
                    ],
                    num_buckets=nb,
                )
                continue
            if key is None:
                # GLOBAL window (no PARTITION BY): one constant partition.
                # Correctness contract: the whole input must fit one
                # worker task (same as any single hot key); the scale
                # escape hatch for order-sensitive functions does not
                # exist (rank/lag need the whole ordered input); the
                # associative subset routes above.
                if not gw_added:
                    def _const_key(t: pa.Table) -> pa.Table:
                        return t.append_column(
                            "__gw", pa.array(np.zeros(t.num_rows, np.int8))
                        )

                    ds = ds.map_batches(
                        _const_key, batch_format="pyarrow", zero_copy_batch=True
                    )
                    gw_added = True
                key = "__gw"
            funcs = []
            for w in specs:
                if w.func in ("lag", "lead"):
                    funcs.append(
                        WinFunc(
                            w.func, w.out_col,
                            value_col=w.value_col, param=w.offset,
                            default=w.default,
                            ignore_nulls=getattr(w, "ignore_nulls", False),
                        )
                    )
                elif w.func == "ntile":
                    funcs.append(WinFunc("ntile", w.out_col, param=w.offset))
                elif w.func in (
                    "row_number", "rank", "dense_rank",
                    "percent_rank", "cume_dist",
                ):
                    funcs.append(WinFunc(w.func, w.out_col))
                elif w.func == "run_count_star":
                    funcs.append(
                        WinFunc(
                            w.func, w.out_col, frame=w.frame,
                            preceding=getattr(w, "preceding", None),
                            following=getattr(w, "following", None),
                        )
                    )
                elif w.func in ("first_value", "last_value", "nth_value"):
                    funcs.append(
                        WinFunc(
                            w.func, w.out_col, value_col=w.value_col,
                            frame=w.frame,
                            param=w.offset if w.func == "nth_value" else None,
                            ignore_nulls=getattr(w, "ignore_nulls", False),
                        )
                    )
                else:  # run_sum / run_avg / run_count / run_min / run_max
                    funcs.append(
                        WinFunc(
                            w.func, w.out_col, value_col=w.value_col,
                            frame=w.frame,
                            preceding=getattr(w, "preceding", None),
                            following=getattr(w, "following", None),
                        )
                    )
            ds = partition_windows(
                ds,
                key,
                order,
                funcs,
                keep_cols=None,  # SQL window semantics: the row survives
                num_buckets=nb,
                estimate=size_bound,
            )

    qualify = getattr(plan, "qualify", None)
    if qualify is not None:
        # QUALIFY: filter on window outputs (hidden __win cols are live
        # here), after the window stage, before projection — the
        # ROW_NUMBER()=1 dedup idiom runs as one streaming filter
        qpred = compile_predicate(qualify, ctx)
        ds = ds.map_batches(
            lambda t, _p=qpred: t.filter(_p(t)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    unnest = getattr(plan, "unnest", None)
    if unnest is not None:
        # UNNEST (engine extension): one row per list element — the list
        # kernel evaluates once per batch, parent columns repeat via one
        # take over np.repeat'd row indices, elements ride list_flatten
        # (both zero-copy-ish Arrow kernels). Empty and NULL lists drop
        # the parent row (SQL parity). Streaming, no shuffle.
        out_name, uexpr = unnest
        ukernel = compile_expr(uexpr, ctx)

        def explode(t: pa.Table) -> pa.Table:
            n = t.num_rows
            arr = _as_array(ukernel(t), n)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if pa.types.is_null(arr.type):  # literal NULL: zero rows each
                lens = np.zeros(n, dtype=np.int64)
                flat = pa.array([], pa.null())
            elif pa.types.is_list(arr.type) or pa.types.is_large_list(
                arr.type
            ):
                lens = (
                    pc.fill_null(pc.list_value_length(arr), 0)
                    .cast(pa.int64())
                    .to_numpy(zero_copy_only=False)
                )
                flat = pc.list_flatten(arr)  # skips NULL lists
            else:
                raise ValueError(
                    f"UNNEST needs a list argument, got {arr.type}"
                )
            idx = np.repeat(np.arange(n, dtype=np.int64), lens)
            out = t.take(pa.array(idx)) if n else t
            return out.append_column(out_name, flat)

        ds = ds.map_batches(
            explode, batch_format="pyarrow", zero_copy_batch=True
        )

    order_by, hidden = _hidden_order_keys(plan)
    if plan.projections is not None:
        kernels = [
            (n, compile_expr(e, ctx))
            for n, e in [(p.name, p.expr) for p in plan.projections] + hidden
        ]

        def project(t: pa.Table) -> pa.Table:
            return pa.table({n: _as_array(k(t), t.num_rows) for n, k in kernels})

        ds = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    if plan.distinct:
        ds = _distinct(ds)
    return _order_limit(ds, plan, ctx, order_by, [n for n, _ in hidden])


def _cd_two_stage_eligible(plan: AggregatePlan) -> bool:
    """True when every holistic aggregate is a COUNT(DISTINCT) over the SAME
    argument expression — the shape the skew-safe two-stage shuffle handles
    (one subgroup key serves them all; COUNT(DISTINCT) over different args
    would need one pipeline each; other holistics need whole groups).
    Expr dataclasses are frozen with structural equality, so ``==`` compares
    the argument trees."""
    holi = [a for a in plan.aggs if a.func in HOLISTIC]
    two_stage = ("count_distinct", "sum_distinct", "avg_distinct")
    if not holi or any(a.func not in two_stage for a in holi):
        return False
    return all(a.arg == holi[0].arg for a in holi)


def _count_distinct_two_stage(
    ds: "ray.data.Dataset",
    plan: AggregatePlan,
    ctx: Optional[CompileCtx],
    key_names: list[str],
    markers: list[str],
    having,
) -> "ray.data.Dataset":
    """Skew-safe COUNT(DISTINCT) (+ any associative aggregates) — the
    reference's holistic per-group set (``aggregate_execution.rs:143-154``)
    re-expressed as TWO bounded merges instead of shipping whole groups to
    one worker (SURVEY §2.6; promotes the round-1 ``stages/skew.py`` pattern
    into the planner):

    1. group by (keys…, value): per-block ``pa.TableGroupBy`` combiner, one
       merge → one row per distinct (keys, value) pair, carrying the
       merged partials of every associative aggregate (their merge is
       associative, so sub-grouping by value cannot change them);
    2. group by keys: COUNT(DISTINCT) = number of rows whose value marker is
       non-null; associative partials merge once more.

    Stage 1 merges through :func:`exchange.merge`. When it merged on the
    driver, stage 2, finalize, ``having`` and the key sort run there too,
    on one table, and no Aggregate or Sort operator runs; otherwise stage 2
    is a second exchange and a hot key's work is spread over its distinct
    values instead of one worker holding the whole value set.
    """
    _DIST = ("count_distinct", "sum_distinct", "avg_distinct")
    cd_items = [a for a in plan.aggs if a.func in _DIST]
    cd_a = cd_items[0]  # all share the same arg (eligibility check)
    # SUM/AVG(DISTINCT) additionally carry the distinct VALUES' sum through
    # stage 2 (same subgroup key; the value column is already the stage-1
    # group key, so the extra partial is one int64/float64 per distinct row)
    need_val = any(a.func in ("sum_distinct", "avg_distinct") for a in cd_items)
    CDK = "__cdv"
    assoc = tuple(a for a in plan.aggs if a.func not in _DIST)
    ext_plan = AggregatePlan(
        group_by=plan.group_by + (GroupKey(CDK, cd_a.arg),), aggs=assoc
    )
    fin_plan = AggregatePlan(group_by=plan.group_by, aggs=assoc)
    ext_keys = key_names + [CDK]
    cd_marker = _marker(len(key_names))  # marker column of CDK

    partials = ds.map_batches(
        PartialAggregator(ext_plan, ctx), batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(_encode_keys(ext_keys), batch_format="pyarrow", zero_copy_batch=True)
    spec1 = merge_spec(ext_plan)
    stage1 = merge(
        partials, _interleaved(ext_keys), spec1, plan.small_result
    )

    stage2_keys = _interleaved(key_names) if key_names else [_CONST_KEY]
    spec2 = spec1 + [("__cd", "sum")] + ([("__cdsum", "sum")] if need_val else [])

    def block2(t: pa.Table) -> pa.Table:
        # distinct-value indicator: CDK marker 1 ⇔ non-null value
        t = t.append_column("__cd", t[cd_marker].cast(pa.int64()))
        if need_val:
            # the distinct value itself, NULL-masked by its marker so the
            # null-value subgroup contributes to neither sum nor count
            val = _chunk(t[CDK])
            valid = pc.equal(t[cd_marker], 1)
            t = t.append_column(
                "__cdsum", pc.if_else(valid, val, pa.scalar(None, val.type))
            )
        if not key_names and _CONST_KEY not in t.column_names:
            t = t.append_column(
                _CONST_KEY, pa.array(np.zeros(t.num_rows, dtype=np.int8))
            )
        return _group_merge(t, stage2_keys, spec2)

    if isinstance(stage1, pa.Table):
        merged2 = block2(stage1)  # over the whole table: the final merge
    else:
        merged2 = merge(
            stage1.map_batches(block2, batch_format="pyarrow", zero_copy_batch=True),
            stage2_keys, spec2, False,
        )

    passthrough = [*markers, "__cd"] + (["__cdsum"] if need_val else [])
    fin = FinalizeAggregates(fin_plan, ctx, passthrough=passthrough)
    cd_only = AggregatePlan(group_by=(), aggs=tuple(cd_items))

    def final(t: pa.Table) -> pa.Table:
        out = fin(t)
        cd = _chunk(out["__cd"])
        drop = ["__cd"] + (["__cdsum"] if need_val else [])
        cdsum = None
        if need_val:
            cdsum = _chunk(out["__cdsum"])
            if pa.types.is_integer(cdsum.type):
                cdsum = cdsum.cast(pa.int64())
        out = out.drop_columns(drop)
        cd = pc.fill_null(cd, 0).cast(pa.int64())
        for a in cd_items:  # every same-arg distinct aggregate, by kind
            if a.func == "count_distinct":
                out = out.append_column(a.name, cd)
            elif a.func == "sum_distinct":
                out = out.append_column(a.name, cdsum)
            else:  # avg_distinct — trunc-toward-zero int division (engine
                # AVG parity); Arrow int divide truncates toward zero
                if pa.types.is_integer(cdsum.type):
                    denom = pc.if_else(pc.greater(cd, 0), cd, pa.scalar(None, pa.int64()))
                    out = out.append_column(a.name, pc.divide(cdsum, denom))
                else:
                    denom = pc.if_else(
                        pc.greater(cd, 0), cd.cast(pa.float64()),
                        pa.scalar(None, pa.float64()),
                    )
                    out = out.append_column(
                        a.name, pc.divide(cdsum.cast(pa.float64()), denom)
                    )
        out = apply_transforms(out, cd_only, ctx)
        order = key_names + [a.name for a in plan.aggs] + markers
        return having(out.select([c for c in order if c in out.column_names]))

    return _finish_groups(merged2, final, key_names)


def _global_percentile(
    ds: "ray.data.Dataset",
    plan: AggregatePlan,
    ctx: Optional[CompileCtx],
) -> "Optional[ray.data.Dataset]":
    """One-row result of a keyless all-percentile plan via the distributed
    exact percentile, or ``None`` on empty input (caller falls back to the
    map_groups path, which emits zero rows — reference parity)."""
    from sqlgrep_ray.stages.quantile import distributed_percentile

    evaluated = ds.map_batches(
        GroupEvaluator(plan, ctx), batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # one bracket pipeline per percentile agg reads it
    if evaluated.count() == 0:
        return None
    schema = evaluated.schema().base_schema
    cols: dict = {}
    for i, a in enumerate(plan.aggs):
        col = f"__a{i}"
        v = distributed_percentile(evaluated, col, a.extra)
        cols[a.name] = pa.array([v], schema.field(col).type)
    out = apply_transforms(pa.table(cols), plan, ctx)
    return ray.data.from_arrow(out)


def _approx_count_distinct_path(
    ds: "ray.data.Dataset",
    plan: AggregatePlan,
    ctx: Optional[CompileCtx],
) -> "ray.data.Dataset":
    """ENGINE EXTENSION: ``APPROX_COUNT_DISTINCT(x)`` dispatches to the
    HLL++ sketch family (stages/sketch) — the fixed-size-sketch answer
    to COUNT(DISTINCT) at corpus scale: partials are ≤ 2×2^p bytes per
    (block, key) regardless of value cardinality, EXACT in the sparse
    regime (low per-key cardinality, the common case) and ±1.04/√2^p
    beyond. Supported shape: every aggregate in the plan is
    APPROX_COUNT_DISTINCT over the SAME argument, at most ONE group key
    (mixing with other aggregates or multi-key grouping → run exact
    COUNT(DISTINCT), or split the query)."""
    from sqlgrep_ray.stages.sketch import (
        approx_count_distinct,
        grouped_approx_distinct,
    )

    if any(a.func != "approx_count_distinct" for a in plan.aggs):
        raise ValueError(
            "APPROX_COUNT_DISTINCT cannot mix with other aggregates in "
            "one query (split the query, or use exact COUNT(DISTINCT))"
        )
    args = [a.arg for a in plan.aggs]
    if any(x != args[0] for x in args):
        raise ValueError(
            "every APPROX_COUNT_DISTINCT in a query must take the same "
            "argument"
        )
    if any(a.transform is not None for a in plan.aggs):
        raise ValueError(
            "$value transforms are not supported on APPROX_COUNT_DISTINCT"
        )
    if len(plan.group_by) > 1:
        raise ValueError(
            "APPROX_COUNT_DISTINCT supports at most one group key"
        )

    val_k = compile_expr(args[0], ctx)
    key_kernels = [compile_expr(k.expr, ctx) for k in plan.group_by]
    key_names = [k.name for k in plan.group_by]

    def narrow(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols: dict = {}
        for name, kk in zip(key_names, key_kernels):
            cols[name] = _as_array(kk(t), n)
        cols["__v"] = _as_array(val_k(t), n)
        return pa.table(cols)

    nds = ds.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True)

    if not key_names:
        est = approx_count_distinct(nds, "__v")
        out_tbl = pa.table(
            {a.name: pa.array([est], pa.int64()) for a in plan.aggs}
        )
        # reference parity: zero input rows ⇒ zero output rows (the
        # global group appears on the first row, SURVEY §2.6)
        if est == 0 and nds.limit(1).count() == 0:
            out_tbl = out_tbl.slice(0, 0)
        out = ray.data.from_arrow(out_tbl)
    else:
        first = plan.aggs[0].name
        key0 = key_names[0]
        # grouped_approx_distinct (library contract) drops NULL keys; SQL
        # keeps NULL as ONE group — split it off and count it globally
        # (one narrow early-stopping probe + one pass over the NULL rows,
        # paid only when NULL keys exist)
        nonnull = nds.map_batches(
            lambda t, _k=key0: t.filter(pc.is_valid(t[_k])),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        out = grouped_approx_distinct(nonnull, key0, "__v", out_col=first)
        nullrows = nds.map_batches(
            lambda t, _k=key0: t.filter(pc.is_null(t[_k])),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        if nullrows.limit(1).count() > 0:
            est0 = approx_count_distinct(nullrows, "__v")
            sch = nds.schema()
            ktype = dict(zip(sch.names, sch.types))[key0]
            out = out.union(
                ray.data.from_arrow(
                    pa.table(
                        {
                            key0: pa.array([None], ktype),
                            first: pa.array([est0], pa.int64()),
                        }
                    )
                )
            )
        if len(plan.aggs) > 1:
            dup_names = [a.name for a in plan.aggs[1:]]

            def dup(t: pa.Table, _d=tuple(dup_names), _f=first) -> pa.Table:
                for nm in _d:
                    t = t.append_column(nm, t[_f])
                return t

            out = out.map_batches(
                dup, batch_format="pyarrow", zero_copy_batch=True
            )

        def key_sort(t: pa.Table) -> pa.Table:
            idx = pc.sort_indices(
                t,
                sort_keys=[(k, "ascending") for k in key_names],
                null_placement="at_start",
            )
            return t.take(idx)

        if plan.having is not None:
            pred = compile_predicate(plan.having, ctx)
            out = out.map_batches(
                lambda t, _p=pred: t.filter(_p(t)),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        # group-key order contract (reference BTreeMap; small results —
        # one row per key — so a single-block sort is bounded)
        out = one_block(out, key_sort)
    return _order_limit(out, plan, ctx)


def _mode_path(
    ds: "ray.data.Dataset",
    plan: AggregatePlan,
    ctx: Optional[CompileCtx],
) -> "ray.data.Dataset":
    """ENGINE EXTENSION: ``MODE(x)`` — each group's most frequent
    non-NULL value, ties to the SMALLEST value (deterministic, so the
    result is oracle-able; DuckDB's mode() leaves ties unspecified).
    Two bounded stages, never a whole group on one worker:

    1. per-(keys, value) occurrence counts through the ordinary
       combiner-first aggregate engine (block-level pre-aggregation,
       ONE shuffle of one-row-per-(block, key, value) partials);
    2. first-row-per-key over the counts via one auto-sized key-hash
       bucket pass sorted by (validity desc, count desc, value asc) —
       a group whose every value is NULL keeps its row and yields
       NULL (SQL parity)."""
    from sqlgrep_ray.functions.exprs import Col
    from sqlgrep_ray.pipelines.plan import AggItem
    from sqlgrep_ray.stages.exchange import bucketed
    from sqlgrep_ray.stages.window import _key_change_mask, resolve_buckets

    if any(a.func != "mode" for a in plan.aggs):
        raise ValueError(
            "MODE cannot mix with other aggregates in one query "
            "(split the query)"
        )
    args = [a.arg for a in plan.aggs]
    if any(x != args[0] for x in args):
        raise ValueError("every MODE in a query must take the same argument")
    if any(a.transform is not None for a in plan.aggs):
        raise ValueError("$value transforms are not supported on MODE")

    val_k = compile_expr(args[0], ctx)
    key_kernels = [compile_expr(k.expr, ctx) for k in plan.group_by]
    key_names = [k.name for k in plan.group_by]

    def narrow(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols: dict = {}
        for name, kk in zip(key_names, key_kernels):
            cols[name] = _as_array(kk(t), n)
        if not key_names:
            cols[_CONST_KEY] = pa.array(np.zeros(n, dtype=np.int8))
        cols["__v"] = _as_array(val_k(t), n)
        return pa.table(cols)

    nds = ds.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True)
    gkeys = key_names or [_CONST_KEY]
    stage1 = AggregatePlan(
        group_by=tuple(GroupKey(k, Col(k)) for k in gkeys)
        + (GroupKey("__v", Col("__v")),),
        aggs=(AggItem("__cnt", "count_star"),),
    )
    counts = run_aggregate(nds, stage1, None)

    first = plan.aggs[0].name
    extra = [a.name for a in plan.aggs[1:]]

    def pick(g: pa.Table) -> pa.Table:
        g = g.drop_columns(["__b"])
        n = g.num_rows
        if n == 0:
            cols = {k: g[k] for k in key_names}
            for nm in [first, *extra]:
                cols[nm] = g["__v"]
            return pa.table(cols)
        varr = g["__v"]
        if isinstance(varr, pa.ChunkedArray):
            varr = varr.combine_chunks()
        g = g.append_column("__ok", pc.is_valid(varr).cast(pa.int8()))
        order = pc.sort_indices(
            g,
            [
                *((k, "ascending") for k in gkeys),
                ("__ok", "descending"),
                ("__cnt", "descending"),
                ("__v", "ascending"),
            ],
        )
        g = g.take(order)
        karrs = [g[k].combine_chunks() for k in gkeys]
        keep = _key_change_mask(karrs, n)
        g = g.filter(pa.array(keep))
        cols = {k: g[k] for k in key_names}
        win = pc.if_else(
            pc.equal(g["__ok"].combine_chunks(), pa.scalar(1, pa.int8())),
            g["__v"].combine_chunks(),
            pa.scalar(None, g.schema.field("__v").type),
        )
        for nm in [first, *extra]:
            cols[nm] = win
        return pa.table(cols)

    nb = resolve_buckets(None, counts)
    out = bucketed(counts, gkeys, nb, pick)

    if plan.having is not None:
        pred = compile_predicate(plan.having, ctx)
        out = out.map_batches(
            lambda t, _p=pred: t.filter(_p(t)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    if key_names:

        def key_sort(t: pa.Table) -> pa.Table:
            idx = pc.sort_indices(
                t,
                sort_keys=[(k, "ascending") for k in key_names],
                null_placement="at_start",
            )
            return t.take(idx)

        out = one_block(out, key_sort)
    return _order_limit(out, plan, ctx)


def _grouping_sets_path(
    ds: "ray.data.Dataset",
    plan: AggregatePlan,
    ctx: Optional[CompileCtx],
) -> "ray.data.Dataset":
    """GROUP BY ROLLUP / CUBE / GROUPING SETS — the Expand design (as in
    Spark/Calcite): after join+WHERE, every input block is re-emitted once
    per grouping set with the excluded key columns NULLed and a ``__gid``
    set-ordinal appended, then ONE ordinary combiner-first aggregate runs
    keyed on (keys…, __gid). All aggregate kinds (incl. holistic
    count-distinct / percentile) work unchanged; the per-block partial
    combiner collapses the ×sets row inflation immediately, so shuffle
    bytes are bounded by groups × sets, not rows × sets. The expand stage
    prunes to the agg-referenced input columns first, and yields one table
    per set (a generator) so worker heap never holds sets × block at once.
    Rows whose keys are NULL because they were rolled up are distinguished
    from genuine NULL group keys by ``__gid`` during the aggregate;
    ``__gid`` also makes the default key-sorted output order deterministic,
    and is dropped from the final result (standard SQL output, where both
    look like NULL)."""
    ds = _apply_join(ds, plan.join, force_inner=True)
    for _xj in getattr(plan, "extra_joins", ()):
        # chained joins under aggregation get the same OUTER→INNER
        # downgrade as the first join (execution_engine.rs:227-244)
        ds = _apply_join(ds, _xj, force_inner=True)
    ds = _apply_where(ds, plan.where, ctx)

    kernels = [compile_expr(k.expr, ctx) for k in plan.group_by]
    key_names = [k.name for k in plan.group_by]
    sets = [frozenset(s) for s in plan.grouping_sets]
    gids = list(range(len(sets)))
    gcols = list(getattr(plan, "grouping_cols", ()))
    agg_need = referenced_columns(
        AggregatePlan(group_by=(), aggs=plan.aggs)
    )
    agg_need_set = set(agg_need or ())
    # dataset-level column types: all-NULL (null-typed) blocks — tiny
    # from_items blocks — must be normalized BEFORE key evaluation, or the
    # per-set masked key columns get inconsistent types across blocks
    schema = ds.schema(fetch_if_missing=True)
    in_types = _schema_types(schema) if schema is not None else {}

    def expand(t: pa.Table):
        t = _fix_null_type_cols(t, in_types)
        keyarrs = []
        for kern in kernels:
            arr = _as_array(kern(t), t.num_rows)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            if pa.types.is_null(arr.type):  # all-NULL key: give it a type
                arr = pa.nulls(t.num_rows, pa.int8())
            keyarrs.append(arr)
        base = {
            c: t.column(i)
            for i, c in enumerate(t.column_names)
            if c in agg_need_set
        }
        for gid, s in zip(gids, sets):
            cols = dict(base)
            for j, name in enumerate(key_names):
                cols[f"__gs{j}"] = (
                    keyarrs[j]
                    if name in s
                    else pa.nulls(t.num_rows, keyarrs[j].type)
                )
            for out, keyname in gcols:
                # GROUPING(key): set-constant 0/1 indicator column
                cols[out] = pa.array(
                    np.full(
                        t.num_rows,
                        0 if keyname in s else 1,
                        dtype=np.int64,
                    )
                )
            cols["__gid"] = pa.array(np.full(t.num_rows, gid, dtype=np.int64))
            yield pa.table(cols)

    from sqlgrep_ray.functions.exprs import Col as _Col

    expanded = ds.map_batches(
        expand, batch_format="pyarrow", zero_copy_batch=True
    )
    plan2 = AggregatePlan(
        group_by=tuple(
            GroupKey(name, _Col(f"__gs{j}"))
            for j, name in enumerate(key_names)
        )
        + tuple(GroupKey(out, _Col(out)) for out, _ in gcols)
        + (GroupKey("__gid", _Col("__gid")),),
        aggs=plan.aggs,
        having=plan.having,
        distinct=plan.distinct,
        limit=plan.limit,
        offset=getattr(plan, "offset", None),
        order_by=getattr(plan, "order_by", ()),
        small_result=plan.small_result,
    )
    out = run_aggregate(expanded, plan2, ctx)
    hidden = ["__gid"] + [
        o for o, _ in gcols if o.startswith("__grouping")
    ]
    return out.map_batches(
        lambda t: t.drop_columns([c for c in hidden if c in t.column_names]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def run_aggregate(
    ds: "ray.data.Dataset",
    plan: AggregatePlan,
    ctx: Optional[CompileCtx] = None,
    batch_size: Optional[int] = None,
) -> "ray.data.Dataset":
    if getattr(plan, "grouping_sets", ()):
        return _grouping_sets_path(ds, plan, ctx)
    # OUTER degrades to INNER under aggregation (execution_engine.rs:227-244)
    ds = _apply_join(ds, plan.join, force_inner=True)
    for _xj in getattr(plan, "extra_joins", ()):
        # chained joins under aggregation get the same OUTER→INNER
        # downgrade as the first join (execution_engine.rs:227-244)
        ds = _apply_join(ds, _xj, force_inner=True)
    ds = _apply_where(ds, plan.where, ctx)

    if any(a.func == "approx_count_distinct" for a in plan.aggs):
        return _approx_count_distinct_path(ds, plan, ctx)
    if any(a.func == "mode" for a in plan.aggs):
        return _mode_path(ds, plan, ctx)

    # DISTINCT after aggregation is a no-op: every result row carries its
    # unique group-key tuple (the reference only dedups in a having-branch
    # quirk, aggregate_execution.rs:292-310); skipping it keeps the order
    return _order_limit(_aggregate_groups(ds, plan, ctx), plan, ctx)


def _aggregate_groups(
    ds: "ray.data.Dataset",
    plan: AggregatePlan,
    ctx: Optional[CompileCtx],
) -> "ray.data.Dataset":
    """Filtered input → finished, HAVING-filtered groups in key order."""
    key_names = [k.name for k in plan.group_by]
    # NULL group keys: merge/sort on (marker, filled-key) pairs, restore
    # after the final sort (reference sorts NULL keys first, SURVEY §2.6)
    enc = _encode_keys(key_names)
    gb_keys = _interleaved(key_names) if key_names else [_CONST_KEY]
    markers = [_marker(i) for i in range(len(key_names))]

    if (
        is_holistic(plan)
        and not key_names
        and plan.having is None
        and plan.aggs
        and all(a.func == "percentile" for a in plan.aggs)
    ):
        # GLOBAL percentile: the grouped holistic contract (whole group on
        # one worker, reference aggregate_execution.rs:540-543) is an OOM
        # when the "group" is the entire corpus. Route through the exact
        # distributed percentile (stages/quantile.py: count → sample →
        # bracket → bounded collect) — same value, bounded per-worker
        # memory. Falls back to the map_groups path on empty input (zero
        # output rows, reference parity).
        agged = _global_percentile(ds, plan, ctx)
        if agged is not None:
            return agged
    if not is_holistic(plan):
        # combiner-first: per-block partials, one merge (exchange.merge)
        gm = GroupMerge(plan, ctx)
        partials = ds.map_batches(
            PartialAggregator(plan, ctx), batch_format="pyarrow", zero_copy_batch=True
        ).map_batches(gm.encode, batch_format="pyarrow", zero_copy_batch=True)
        merged = merge(partials, gm.keys, gm.spec, plan.small_result)
        return _finish_groups(merged, gm.finish, key_names)
    having = _having_filter(plan, ctx, key_names)
    if _cd_two_stage_eligible(plan):
        return _count_distinct_two_stage(ds, plan, ctx, key_names, markers, having)
    ds = ds.map_batches(
        GroupEvaluator(plan, ctx), batch_format="pyarrow", zero_copy_batch=True
    ).map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)
    hga = HolisticGroupAgg(plan, ctx)

    def holistic_group(g: pa.Table) -> pa.Table:
        out = hga(g)
        for m in markers:  # markers are group-constant; keep for sort
            out = out.append_column(m, g[m][:1])
        return out

    grouped = ds.groupby(gb_keys).map_groups(holistic_group, batch_format="pyarrow")
    return _finish_groups(grouped, having, key_names)


def _having_filter(plan: AggregatePlan, ctx: Optional[CompileCtx], key_names):
    """Finished groups → HAVING rows (the predicate sees the NULL-restored
    keys; the marker-carrying table is filtered), having-only slots
    dropped."""
    pred = compile_predicate(plan.having, ctx) if plan.having is not None else None
    rest = _restore_keys(key_names)
    hidden = [a.name for a in plan.aggs if a.name.startswith("__having")]

    def fn(t: pa.Table) -> pa.Table:
        if pred is not None:
            t = t.filter(pred(rest(t)))
        return t.drop_columns([c for c in hidden if c in t.column_names])

    return fn
