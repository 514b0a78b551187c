"""Public library API — the Ray-Data analogue of sqlgrep's Python bindings.

The reference exposes (pyo3 module ``libsqlgrep``, ``src/python_wrapper.rs``):
``Tables.add_table(text)``, ``execute_query(lines, sql) -> list[dict]``, and
query compilation for reuse. This module mirrors that surface on Ray Data:

    tables = Tables()
    tables.add_tables(CREATE_TABLE_SQL)
    ds = tables.execute_query(sql, source=dataset_or_path)   # lazy Dataset
    rows = tables.execute_query_rows(sql, source=lines_list) # list[dict]

``source`` may be a ``ray.data.Dataset`` with a raw-text column, a path (text
file → ``ray.data.read_text``; .parquet → ``read_parquet``), or a list of
strings. ``FROM table::'file'`` bindings in the SQL override ``source``
(reference ``main.rs:146-156``); a joined table reads ``JOIN t::'file'``,
else ``join_source``, else it is an error.

``Tables`` and ``run_sql`` share one path, ``_run_sql_stmt``: each table
name resolves to a CTE or derived Dataset, a caller Dataset, a Parquet
path (pushdown scan) or a catalog ``TableDef`` over raw text (parse
stage); ``_bind_dataset_query`` binds the query, then the plan runs.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from typing import Optional, Union

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.functions.exprs import (
    Bin,
    Case,
    Cast,
    Col,
    Expr,
    Func,
    Index,
    InList,
    Lit,
    Un,
)
from sqlgrep_ray.pipelines.plan import (
    JoinSpec,
    Projection,
    SelectPlan,
)
from sqlgrep_ray.pipelines.runner import run_plan, run_set_op
from sqlgrep_ray.schema import TableDef
from sqlgrep_ray.sqlfront import (
    ExistsSubquery,
    Query,
    ScalarSubquery,
    SetQuery,
    SqlError,
    WithQuery,
    parse,
    parse_query,
)
from sqlgrep_ray.stages.parse import ParseTable

Source = Union["ray.data.Dataset", str, list]


def _rewrite_cols(e: Expr, fn) -> Expr:
    if isinstance(e, Col):
        return fn(e)
    if isinstance(e, Bin):
        return Bin(e.op, _rewrite_cols(e.left, fn), _rewrite_cols(e.right, fn))
    if isinstance(e, Un):
        return Un(e.op, _rewrite_cols(e.operand, fn))
    if isinstance(e, InList):
        return InList(
            _rewrite_cols(e.operand, fn),
            tuple(_rewrite_cols(i, fn) for i in e.items),
            e.negated,
        )
    if isinstance(e, Func):
        return Func(e.name, tuple(_rewrite_cols(a, fn) for a in e.args))
    if isinstance(e, Case):
        return Case(
            tuple(
                (_rewrite_cols(c, fn), _rewrite_cols(v, fn)) for c, v in e.whens
            ),
            _rewrite_cols(e.else_, fn),
        )
    if isinstance(e, Cast):
        return Cast(_rewrite_cols(e.operand, fn), e.vtype)
    if isinstance(e, Index):
        return Index(_rewrite_cols(e.operand, fn), _rewrite_cols(e.index, fn))
    return e


def _rebind_plan(plan, bind_expr, join, extra_joins=()):
    """Apply a column-binding rewrite to every expression slot of a
    Select/Aggregate plan and attach the join spec(s)."""
    if isinstance(plan, SelectPlan):
        projs = plan.projections
        if projs is not None:
            projs = tuple(
                Projection(p.name, bind_expr(p.expr)) for p in projs
            )
        return dataclasses.replace(
            plan,
            projections=projs,
            where=bind_expr(plan.where),
            qualify=bind_expr(plan.qualify),
            join=join,
            extra_joins=tuple(extra_joins),
            win_inputs=tuple(
                (nm, bind_expr(e))
                for nm, e in getattr(plan, "win_inputs", ())
            ),
            windows=tuple(
                _rebind_window(w, bind_expr) for w in getattr(plan, "windows", ())
            ),
        )
    return dataclasses.replace(
        plan,
        group_by=tuple(
            dataclasses.replace(k, expr=bind_expr(k.expr))
            for k in plan.group_by
        ),
        aggs=tuple(
            dataclasses.replace(
                a,
                arg=bind_expr(a.arg),
                # two-column aggregates carry their second argument
                # expression in ``extra`` — bind it like ``arg``
                extra=(
                    bind_expr(a.extra)
                    if isinstance(a.extra, Expr)
                    else a.extra
                ),
            )
            for a in plan.aggs
        ),
        where=bind_expr(plan.where),
        having=bind_expr(plan.having),
        join=join,
        extra_joins=tuple(extra_joins),
    )


def _rebind_window(w, bind_expr):
    """``w`` with its value, PARTITION BY and ORDER BY column names bound
    as ``bind_expr`` binds a column (a joined side's prefixed name)."""

    def name(n):
        e = bind_expr(Col(n)) if n else None
        return e.name if isinstance(e, Col) else n

    key, order = w.key, w.order
    if key is not None:
        key = name(key) if isinstance(key, str) else tuple(map(name, key))
    if order is not None:
        order = (
            name(order)
            if isinstance(order, str)
            else tuple(
                name(o) if isinstance(o, str) else (name(o[0]),) + tuple(o[1:])
                for o in order
            )
        )
    return dataclasses.replace(w, key=key, order=order, value_col=name(w.value_col))


def _materialize_right(
    rds: "ray.data.Dataset", schema: Optional[pa.Schema] = None
) -> pa.Table:
    """Fully materialize a join side (reference semantics: the joined
    table is 'loaded completely in memory', README.md:56 / join.rs:30-79).
    An empty side takes ``schema`` when the caller knows it."""
    batches = list(rds.iter_batches(batch_format="pyarrow"))
    if batches:
        return pa.concat_tables(batches, promote_options="default")
    sch = schema or getattr(rds.schema(), "base_schema", None)
    return sch.empty_table() if sch is not None else pa.table({})


def _bind_dataset_query(q: Query, left_names, join_side):
    """Bind a parsed Query. ``left_names()`` lists the FROM side's
    columns; it is called at most once, and only when a join needs it.
    ``join_side(table, file, alias, right_key)`` materializes one join
    side. Strips own-table qualification; join columns become
    ``<visible name>.<col>``; an unqualified name found on a joined side
    but not the left resolves to that side's prefixed column."""
    left_names = functools.cache(left_names)
    sides = list(q.extra_joins)
    if q.join_table is not None:
        sides.insert(0, (q.join_table, q.join_file, q.join_alias,
                         q.join_left_col, q.join_right_col, q.join_how))
    specs: list[JoinSpec] = []
    # per-join bind info: visible names → prefix, and the prefixed
    # right-column sets for unqualified-name resolution
    bind_joins: list[tuple[set, str, list]] = []
    for jtable, jfile, jalias, jleft, jright, jhow in sides:
        right = join_side(jtable, jfile, jalias, jright)
        # the visible name (alias when given) prefixes joined columns
        prefix = f"{jalias or jtable}."
        bind_joins.append(({jtable, jalias} - {None}, prefix, right.column_names))
        # a chained join has no RIGHT form
        hows = ("left", "cross") if specs else ("left", "right", "cross")
        specs.append(
            JoinSpec(
                right=right,
                left_key=jleft,
                right_key=jright,
                how=jhow if jhow in hows else "inner",
                right_prefix=prefix,
            )
        )

    def bind(c: Col) -> Expr:
        n = c.name
        if "." in n:
            t, col = n.split(".", 1)
            if t == q.table or t == q.table_alias:
                return Col(col)
            for names, prefix, _cols in bind_joins:
                if t in names:
                    return Col(prefix + col)
            return c
        if bind_joins and n not in left_names():
            # unqualified name found on a joined side resolves to its
            # prefixed output column (first match in declaration order)
            for names, prefix, rcols in bind_joins:
                if n in rcols:
                    return Col(prefix + n)
        return c

    def bind_expr(e: Optional[Expr]) -> Optional[Expr]:
        return None if e is None else _rewrite_cols(e, bind)

    return _rebind_plan(
        q.plan, bind_expr, specs[0] if specs else None, specs[1:]
    )


def _plan_exprs(plan) -> list:
    """Every expression slot of a Select/Aggregate plan (None-free)."""
    out: list = []
    if isinstance(plan, SelectPlan):
        if plan.projections is not None:
            out.extend(p.expr for p in plan.projections)
        out.extend([plan.where, plan.qualify])
    else:
        out.extend(k.expr for k in plan.group_by)
        for a in plan.aggs:
            out.extend([a.arg, a.transform])
            if isinstance(a.extra, Expr):
                out.append(a.extra)
            if getattr(a, "order", None) is not None:
                out.append(a.order[0])
        out.extend([plan.where, plan.having])
    out.extend(t[0] for t in plan.order_by)
    return [e for e in out if e is not None]


def _contains_scalar_sub(e) -> bool:
    from sqlgrep_ray.sqlfront import _children

    if isinstance(e, (ScalarSubquery, ExistsSubquery)):
        return True
    return any(_contains_scalar_sub(c) for c in _children(e))


def _has_scalar_subs(plan) -> bool:
    return any(_contains_scalar_sub(e) for e in _plan_exprs(plan))


def _substitute_scalar_subs(plan, run_sub):
    """Evaluate each ScalarSubquery node ONCE (one column, ≤ one row;
    zero rows ⇒ NULL) and splice the value into the plan as a literal."""
    from sqlgrep_ray.schema import BOOL, FLOAT, INT, STRING

    cache: list = []  # (node, Lit) — ScalarSubquery holds an unhashable plan

    def evaluate(node) -> Lit:
        for seen, lit in cache:
            if seen == node:
                return lit
        ds = run_sub(node.query)
        if isinstance(node, ExistsSubquery):
            lit = Lit(bool(ds.take(1)) != node.negated, BOOL)
            cache.append((node, lit))
            return lit
        rows = ds.take(2)
        if len(rows) > 1:
            raise SqlError("scalar subquery returned more than one row")
        if rows and len(rows[0]) != 1:
            raise SqlError(
                "scalar subquery must project exactly one column, got "
                f"{list(rows[0])!r}"
            )
        v = next(iter(rows[0].values())) if rows else None
        if hasattr(v, "item"):  # numpy scalar
            v = v.item()
        if isinstance(v, bool):
            lit = Lit(v, BOOL)
        elif isinstance(v, int):
            lit = Lit(v, INT)
        elif isinstance(v, float):
            lit = Lit(v, FLOAT)
        elif isinstance(v, str):
            lit = Lit(v, STRING)
        else:
            lit = Lit(v)
        cache.append((node, lit))
        return lit

    def rewrite(e):
        from sqlgrep_ray.sqlfront import _children, _replace

        if e is None:
            return None
        # post-order: find each ScalarSubquery and replace by its value
        def find(x):
            if isinstance(x, (ScalarSubquery, ExistsSubquery)):
                return x
            for c in _children(x):
                f = find(c)
                if f is not None:
                    return f
            return None

        while True:
            node = find(e)
            if node is None:
                return e
            e = _replace(e, node, evaluate(node))

    if isinstance(plan, SelectPlan):
        projs = plan.projections
        if projs is not None:
            projs = tuple(Projection(p.name, rewrite(p.expr)) for p in projs)
        return dataclasses.replace(
            plan,
            projections=projs,
            where=rewrite(plan.where),
            qualify=rewrite(plan.qualify),
            order_by=tuple((rewrite(t[0]),) + tuple(t[1:]) for t in plan.order_by),
        )
    return dataclasses.replace(
        plan,
        group_by=tuple(
            dataclasses.replace(k, expr=rewrite(k.expr)) for k in plan.group_by
        ),
        aggs=tuple(
            dataclasses.replace(
                a,
                arg=rewrite(a.arg),
                transform=rewrite(a.transform),
                extra=(
                    rewrite(a.extra) if isinstance(a.extra, Expr) else a.extra
                ),
                order=(
                    (rewrite(a.order[0]),) + tuple(a.order[1:])
                    if getattr(a, "order", None) is not None
                    else None
                ),
            )
            for a in plan.aggs
        ),
        where=rewrite(plan.where),
        having=rewrite(plan.having),
        order_by=tuple((rewrite(t[0]),) + tuple(t[1:]) for t in plan.order_by),
    )


def _single_out_col(keys: "ray.data.Dataset") -> str:
    """The one projected column of an IN-subquery's result."""
    sch = keys.schema(fetch_if_missing=True)
    names = list(sch.names) if sch is not None else []
    if len(names) != 1:
        raise SqlError(
            f"IN (SELECT …) subquery must project exactly one column, "
            f"got {names!r}"
        )
    return names[0]


# Correlation keys above this count make the decorrelated scalar
# subquery's LEFT join shuffle both sides instead of broadcasting the
# aggregate table.
_CORR_BROADCAST_MAX = 2_000_000


def _apply_in_subqueries(
    ds: "ray.data.Dataset",
    q: Query,
    run_sub,
) -> "ray.data.Dataset":
    """Execute the lifted pre-plan subquery conjuncts against the FROM
    stream (``run_sub(stmt) -> Dataset`` evaluates a subquery), before
    the plan's own WHERE/aggregation:

    * ``col [NOT] IN (SELECT …)`` and decorrelated ``[NOT] EXISTS`` —
      exact bloom-accelerated semi/anti-joins (stages/bloom);
    * decorrelated correlated scalar comparisons — the subquery runs as
      a per-correlation-key aggregate, LEFT-joins onto the stream
      (broadcast below ``_CORR_BROADCAST_MAX`` keys, hash-shuffle
      above), the comparison filters streaming, and the helper columns
      drop. COUNT aggregates fill the no-match NULL with 0 (SQL: COUNT
      over an empty correlated set is 0); every other aggregate leaves
      NULL, which compares false — both match DuckDB."""
    from sqlgrep_ray.stages.bloom import bloom_semi_join

    def _unqualify(name: str) -> str:
        if "." in name:
            tab, col = name.split(".", 1)
            return col if tab in (q.table, q.table_alias) else name
        return name

    for col_name, sub, negated in q.in_subqueries:
        keys = run_sub(sub)
        if isinstance(col_name, tuple):
            # composite correlation key (multi-equality EXISTS): collapse
            # both sides to ONE derived key column — null-safe with
            # emit_null, so a NULL in any component never matches (the
            # dialect's NULL⇒false comparisons: semi drops, anti keeps)
            outer_cols = [_unqualify(c) for c in col_name]
            inner_cols = list(
                keys.schema(fetch_if_missing=True).names
            )

            def _ck(t: pa.Table, _cols) -> pa.Table:
                import pyarrow.compute as _pc

                parts = []
                for c in _cols:
                    col_ = t[c]
                    if isinstance(col_, pa.ChunkedArray):
                        col_ = col_.combine_chunks()
                    parts.append(_pc.cast(col_, pa.string()))
                return t.append_column(
                    "__ck",
                    _pc.binary_join_element_wise(
                        *parts, "\x1f", null_handling="emit_null"
                    ),
                )

            ds = ds.map_batches(
                lambda t, _c=tuple(outer_cols): _ck(t, _c),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            keys = keys.map_batches(
                lambda t, _c=tuple(inner_cols): _ck(t, _c).select(["__ck"]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            ds = bloom_semi_join(ds, keys, "__ck", "__ck", keep=not negated)
            ds = ds.map_batches(
                lambda t: t.drop_columns(["__ck"]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            continue
        ds = bloom_semi_join(
            ds, keys, _unqualify(col_name), _single_out_col(keys),
            keep=not negated,
        )

    for i, entry in enumerate(getattr(q, "corr_scalars", ())):
        (outer_col, sub, key_col, val_col, op, other, sub_on_left, cnt) = entry
        if "." in outer_col:
            tab, col = outer_col.split(".", 1)
            outer_col = col if tab in (q.table, q.table_alias) else outer_col
        from sqlgrep_ray.functions.exprs import compile_predicate
        from sqlgrep_ray.stages.enrich import BroadcastJoiner, shuffle_join

        # (key_col, val_col) per correlation key; a NULL outer key equals
        # no key, so the subquery's NULL group must not join
        vals = run_sub(sub).map_batches(
            lambda t, _k=key_col: t.filter(pc.is_valid(t[_k])),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()  # counted, then joined
        hidden = f"__cs{i}_"
        if vals.count() <= _CORR_BROADCAST_MAX:
            tbl = pa.concat_tables(
                vals.iter_batches(batch_format="pyarrow", batch_size=None)
            )
            joiner = BroadcastJoiner(
                right=tbl,
                left_key=outer_col,
                right_key=key_col,
                how="left",
                right_prefix=hidden,
            )
            ds = ds.map_batches(
                joiner, batch_format="pyarrow", zero_copy_batch=True
            )
        else:
            renamed = vals.map_batches(
                lambda t, _h=hidden: t.rename_columns(
                    [_h + c for c in t.column_names]
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            ds = shuffle_join(
                ds, renamed, on=[outer_col], right_on=[hidden + key_col],
                how="left",
            )
        val_name = hidden + val_col
        cmp = (
            Bin(op, Col(val_name), other)
            if sub_on_left
            else Bin(op, other, Col(val_name))
        )
        pred = compile_predicate(cmp, None)
        drop = [hidden + c for c in (key_col, val_col)]

        def _filter_drop(t, _p=pred, _d=drop, _fill=val_name if cnt else None):
            import pyarrow.compute as _pc

            if _fill is not None and _fill in t.column_names:
                # COUNT over an empty correlated set is 0, not NULL
                idx = t.schema.get_field_index(_fill)
                col_ = t[_fill]
                t = t.set_column(idx, _fill, _pc.fill_null(col_, 0))
            t = t.filter(_p(t))
            return t.drop_columns([c for c in _d if c in t.column_names])

        ds = ds.map_batches(
            _filter_drop, batch_format="pyarrow", zero_copy_batch=True
        )
    return ds


def _finish_set_query(parts: list, stmt: SetQuery) -> "ray.data.Dataset":
    """Combine executed set-query members per ``stmt.op`` and apply the
    whole-set trailing ORDER BY / LIMIT. UNION concatenates (plain UNION
    dedups via the distinct plan); INTERSECT / EXCEPT run the bounded
    one-shuffle multiplicity path (runner.run_set_op)."""
    offset = getattr(stmt, "offset", None)
    if stmt.op in ("intersect", "except"):
        ds = run_set_op(parts, stmt.op, keep_dups=stmt.all)
        if stmt.order_by or stmt.limit is not None:
            ds = run_plan(
                ds,
                SelectPlan(
                    order_by=stmt.order_by, limit=stmt.limit, offset=offset
                ),
            )
        return ds
    ds = parts[0].union(*parts[1:])
    if stmt.order_by or stmt.limit is not None or not stmt.all:
        ds = run_plan(
            ds,
            SelectPlan(
                distinct=not stmt.all,
                order_by=stmt.order_by,
                limit=stmt.limit,
                offset=offset,
            ),
        )
    return ds


@dataclasses.dataclass(eq=False)
class _TextTable:
    """A catalog ``TableDef`` over raw text, as ``Tables`` binds it for
    one call: FROM reads ``t::'file'``, else ``source``; a join side
    reads ``t::'file'``, else ``join_source``."""

    tdef: TableDef
    source: Optional[Source]
    join_source: Optional[Source]
    text_col: str

    def columns(self) -> list:
        return [c.name for c in self.tdef.columns] + ["input"]

    def parse(self, ds: "ray.data.Dataset", add_input: bool = False):
        return ds.map_batches(
            ParseTable(self.tdef, self.text_col, add_input_col=add_input),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def scan(self, file: Optional[str], add_input: bool) -> "ray.data.Dataset":
        src = file if file is not None else self.source
        if src is None:
            raise SqlError("no input source (pass source= or use FROM t::'file')")
        return self.parse(Tables._as_dataset(src, self.text_col), add_input)

    def join_side(self, file: Optional[str]) -> pa.Table:
        src = file if file is not None else self.join_source
        if src is None:
            raise SqlError(f"no source for joined table {self.tdef.name!r}")
        parsed = self.parse(Tables._as_dataset(src, self.text_col))
        return _materialize_right(parsed, self.tdef.arrow_schema())


def _lookup(name: str, env: dict, default):
    entry = env.get(name, default)
    if entry is None:
        raise SqlError(f"unknown table {name!r}")
    return entry


def _schema_names(ds: "ray.data.Dataset") -> list:
    try:
        return list(ds.schema().names)
    except Exception:
        return []


def _join_side(stmt, env: dict, default, name, file, alias, right_key) -> pa.Table:
    """Materialize one join side of ``stmt`` from its catalog entry."""
    entry = _lookup(name, env, default)
    if isinstance(entry, _TextTable):
        return entry.join_side(file)
    if isinstance(entry, str):
        # path-valued side: the broadcast ships only the key + the
        # columns attributed to this side's own visible name; the side
        # ends up on the driver, so it is read there, with no Ray job
        from sqlgrep_ray.sources import read_parquet_table
        from sqlgrep_ray.sources.pushdown import join_side_columns

        cols = None
        if right_key is not None:
            cols = join_side_columns(entry, stmt, name, alias, right_key)
        return read_parquet_table(entry, cols)
    return _materialize_right(entry)


def _bind(stmt: Query, env: dict, default):
    """(FROM entry, bound plan). Column names come from the catalog or
    the Parquet footer; only a Dataset entry needs its schema."""
    entry = _lookup(stmt.table, env, default)
    if isinstance(entry, _TextTable):
        names = entry.columns
    elif isinstance(entry, str):
        from sqlgrep_ray.sources import parquet_names

        def names():
            file_names, part_names = parquet_names(entry)
            return file_names + part_names
    else:
        names = lambda: _schema_names(entry)  # noqa: E731
    plan = _bind_dataset_query(
        stmt, names, lambda *side: _join_side(stmt, env, default, *side)
    )
    if (
        isinstance(entry, _TextTable)
        and getattr(plan, "projections", ()) is None
        and _reads_input(stmt, plan)
    ):
        # a wildcard that reads the raw line: spell the star out, so
        # ``input`` filters but does not show
        cols = [c.name for c in entry.tdef.columns]
        for j in (plan.join, *plan.extra_joins):
            if j is not None:
                cols += [j.right_prefix + n for n in j.right.column_names]
        plan = dataclasses.replace(
            plan, projections=tuple(Projection(c, Col(c)) for c in cols)
        )
    return entry, plan


def _reads_input(q: Query, plan) -> bool:
    """Whether the FROM side must expose the raw line as ``input``."""
    from sqlgrep_ray.pipelines.runner import referenced_columns

    ref = referenced_columns(plan)
    if ref is None:  # wildcard: the star names no column, WHERE may
        ref = referenced_columns(dataclasses.replace(plan, projections=()))
    names = set(ref)
    names.update(c for c, _sub, _neg in q.in_subqueries if isinstance(c, str))
    names.update(cs[0] for cs in q.corr_scalars)
    return bool(names & {"input", f"{q.table}.input", f"{q.table_alias}.input"})


def _run_sql_stmt(stmt, env: dict, default) -> "ray.data.Dataset":
    """Recursive executor for Query / SetQuery / WithQuery. ``env`` maps
    table names to Datasets (CTEs, derived tables, caller Datasets),
    Parquet paths or ``_TextTable`` catalog entries; ``default`` is the
    fallback for unknown FROM names (the single-dataset convenience), or
    None to make them an error."""
    if isinstance(stmt, WithQuery):
        scope = dict(env)
        for name, sub in stmt.ctes:
            scope[name] = _run_sql_stmt(sub, scope, default)
        return _run_sql_stmt(stmt.body, scope, default)
    if isinstance(stmt, SetQuery):
        parts = [_run_sql_stmt(m, env, default) for m in stmt.queries]
        return _finish_set_query(parts, stmt)
    if stmt.derived:
        # derived tables (FROM/JOIN (SELECT …) alias) bind like
        # member-scoped CTEs, shadowing outer names for this query only
        env = dict(env)
        for alias, sub in stmt.derived:
            env[alias] = _run_sql_stmt(sub, env, default)
    entry, plan = _bind(stmt, env, default)
    n_rows = None  # the FROM side's size (exchange.gate_size), from footers
    if isinstance(entry, _TextTable):
        src = entry.scan(stmt.file, _reads_input(stmt, plan))
    elif isinstance(entry, str):
        # path-valued FROM source: prune at the read — referenced
        # columns only + pushable WHERE atoms as a pyarrow.dataset
        # filter (row-group statistics pruning); the engine re-applies
        # the full WHERE, so pushdown is bandwidth-only
        from sqlgrep_ray.sources import parquet_size
        from sqlgrep_ray.sources.pushdown import scan_parquet_for_query
        from sqlgrep_ray.stages.exchange import gate_size

        src = scan_parquet_for_query(entry, stmt)
        n_rows = gate_size(*parquet_size(entry))
    else:
        src = entry
    run_sub = lambda s: _run_sql_stmt(s, env, default)  # noqa: E731
    if stmt.in_subqueries or stmt.corr_scalars:
        src = _apply_in_subqueries(src, stmt, run_sub)
    if _has_scalar_subs(plan):
        plan = _substitute_scalar_subs(plan, run_sub)
    return run_plan(src, plan, n_rows=n_rows)


def run_sql(
    sql: str,
    sources: "Union[ray.data.Dataset, dict]",
) -> "ray.data.Dataset":
    """Execute one SELECT / UNION / WITH statement over already-structured
    Ray Datasets (ENGINE EXTENSION — the reference dialect has neither
    CTEs nor set operations; this is the dataset-bound surface used when
    the input is Parquet rather than raw text lines).

    ``sources`` is either a dict mapping table names to Datasets, or a
    single Dataset that every non-CTE FROM name resolves to. CTE names
    shadow source names; plain ``UNION`` deduplicates; trailing ORDER BY
    / LIMIT bind to the whole set."""
    stmt = parse_query(sql)
    if isinstance(sources, dict):
        return _run_sql_stmt(stmt, dict(sources), None)
    return _run_sql_stmt(stmt, {}, sources)


class ReadLinesIterator:
    """Iterate a text file's lines, newline-stripped — the reference's
    ``ReadLinesIterator`` (``python_wrapper.rs:329-357``), used to feed
    ``execute_query(lines_iter, …)``."""

    def __init__(self, filename: str):
        self._fh = open(filename)

    def __iter__(self) -> "ReadLinesIterator":
        return self

    def __next__(self) -> str:
        line = self._fh.readline()
        if not line:
            self._fh.close()
            raise StopIteration
        return line.rstrip("\n")


class FollowFileIterator:
    """Tail ONE growing text file — the reference's ``FollowFileIterator``
    (``python_wrapper.rs:359-379``; ``helpers.rs:82-118``): seek to the end
    (or the start with ``head=True``), poll for complete lines, and hold
    partial lines until their ``\\n`` arrives.

    ``max_polls`` bounds the idle polls before StopIteration (the reference
    blocks forever; a bound makes the iterator testable/driveable)."""

    def __init__(
        self,
        filename: str,
        head: bool = False,
        poll_interval: float = 0.2,
        max_polls: Optional[int] = None,
    ):
        import io

        self._fh = open(filename)
        if not head:
            self._fh.seek(0, io.SEEK_END)
        self._poll = poll_interval
        self._max_polls = max_polls

    def __iter__(self) -> "FollowFileIterator":
        return self

    def __next__(self) -> str:
        import time as _time

        buf = ""
        idle = 0
        while True:
            chunk = self._fh.readline()
            buf += chunk
            if buf.endswith("\n"):
                return buf.rstrip("\n")
            if not chunk:
                idle += 1
                if self._max_polls is not None and idle > self._max_polls:
                    self._fh.close()
                    raise StopIteration
                _time.sleep(self._poll)


class Tables:
    """Catalog of table definitions (reference ``Tables``, data_model.rs:458-515)."""

    def __init__(self) -> None:
        self._tables: dict[str, TableDef] = {}

    def add_table(self, tdef: TableDef) -> None:
        self._tables[tdef.name] = tdef

    def add_tables(self, definitions_sql: str) -> None:
        for stmt in parse(definitions_sql):
            if isinstance(stmt, TableDef):
                self._tables[stmt.name] = stmt

    def __getitem__(self, name: str) -> TableDef:
        if name not in self._tables:
            raise SqlError(f"unknown table {name!r}")
        return self._tables[name]

    def get_table(self, name: str) -> TableDef:
        """Reference ``get_table`` (``python_wrapper.rs:73-76``)."""
        return self[name]

    def table_names(self) -> list[str]:
        """Reference ``table_names`` (``python_wrapper.rs:69-71``)."""
        return sorted(self._tables)

    def tables(self) -> list[TableDef]:
        """Reference ``tables`` (``python_wrapper.rs:60-67``)."""
        return [self._tables[n] for n in sorted(self._tables)]

    # -- execution ---------------------------------------------------------

    @staticmethod
    def _as_dataset(source: Source, text_col: str) -> "ray.data.Dataset":
        if isinstance(source, ray.data.Dataset):
            return source
        if isinstance(source, str):
            if source.endswith(".parquet") or os.path.isdir(source):
                # prune at the read: the parse stage only consumes the raw
                # text column (select_columns later would NOT prune the scan)
                from sqlgrep_ray.sources import read_parquet_clean

                return read_parquet_clean(source, columns=[text_col])
            return ray.data.read_text(source)
        # iterable of raw lines
        return ray.data.from_arrow(
            pa.table({text_col: pa.array(list(source), pa.string())})
        )

    def _catalog(self, source, join_source, text_col: str) -> dict:
        return {
            name: _TextTable(tdef, source, join_source, text_col)
            for name, tdef in self._tables.items()
        }

    def compile_query(
        self,
        sql: str,
        source: Optional[Source] = None,
        join_source: Optional[Source] = None,
        text_col: str = "text",
    ):
        """Compile sql → (Query, bound plan builder). Returns a closure
        ``run(ds) -> Dataset`` plus the parse stage pre-applied."""
        q = parse_query(sql)
        if (
            not isinstance(q, Query)
            or q.in_subqueries
            or q.corr_scalars
            or q.derived
            or q.extra_joins
            or _has_scalar_subs(q.plan)
        ):
            raise SqlError(
                "compile_query takes a single SELECT without subqueries, "
                "derived tables or multi-join chains; use execute_query"
            )
        entry, plan = _bind(q, self._catalog(source, join_source, text_col), None)
        parse = functools.partial(entry.parse, add_input=_reads_input(q, plan))
        run = lambda ds: run_plan(parse(ds), plan)  # noqa: E731

        # expose the BOUND plan and parse stage for callers that need the
        # pieces (CLI follow mode re-renders aggregates from partials)
        run.plan = plan  # type: ignore[attr-defined]
        run.parse = parse  # type: ignore[attr-defined]
        return q, run

    def execute_query(
        self,
        sql: str,
        source: Optional[Source] = None,
        join_source: Optional[Source] = None,
        text_col: str = "text",
    ) -> "ray.data.Dataset":
        """SQL → lazy Ray Data pipeline over the raw-text source."""
        return _run_sql_stmt(
            parse_query(sql), self._catalog(source, join_source, text_col), None
        )

    def execute_query_rows(
        self,
        sql: str,
        source: Optional[Source] = None,
        join_source: Optional[Source] = None,
        text_col: str = "text",
    ) -> list[dict]:
        """Reference ``execute_query`` shape: fully evaluated list of dicts."""
        return self.execute_query(sql, source, join_source, text_col).take_all()

    def execute_query_line(self, sql: str, line: str) -> list[dict]:
        """One raw line → result rows (reference ``execute_query_line``,
        ``python_wrapper.rs:269-282``)."""
        return self.execute_query_rows(sql, source=[line])

    def execute_compiled_query(
        self,
        compiled,
        source: Optional[Source] = None,
        text_col: str = "text",
    ) -> "ray.data.Dataset":
        """Run a ``compile_query`` result against a (new) source — compile
        once, execute per input (reference ``execute_compiled_query``,
        ``python_wrapper.rs:86-91``)."""
        q, run = compiled
        src = q.file if q.file is not None else source
        if src is None:
            raise SqlError("no input source (pass source= or use FROM t::'file')")
        return run(self._as_dataset(src, text_col))

    @staticmethod
    def _deliver(ds: "ray.data.Dataset", callback, batch_size) -> int:
        delivered = 0
        for batch in ds.iter_batches(batch_size=batch_size, batch_format="pyarrow"):
            rows = batch.to_pylist()
            delivered += len(rows)
            if callback(rows) is False:
                break
        return delivered

    def execute_compiled_query_callback(
        self,
        compiled,
        callback,
        source: Optional[Source] = None,
        text_col: str = "text",
        batch_size: Optional[int] = 1024,
    ) -> int:
        """Compiled variant of :meth:`execute_query_callback` (reference
        ``python_wrapper.rs:102-110``)."""
        return self._deliver(
            self.execute_compiled_query(compiled, source, text_col),
            callback,
            batch_size,
        )

    def execute_query_callback(
        self,
        sql: str,
        callback,
        source: Optional[Source] = None,
        join_source: Optional[Source] = None,
        text_col: str = "text",
        batch_size: Optional[int] = 1024,
    ) -> int:
        """Streaming callback API (reference ``execute_query_callback``,
        ``python_wrapper.rs:151-209``): invoke ``callback(rows)`` per result
        batch (a list of row dicts); a ``False`` return STOPS consumption —
        Ray's streaming executor then stops feeding the iterator, so
        upstream work past the already-scheduled blocks is never done.
        Returns the number of rows delivered."""
        return self._deliver(
            self.execute_query(sql, source, join_source, text_col),
            callback,
            batch_size,
        )
