"""EXPLAIN — render a parsed statement's logical plan and the physical
strategy the runner will pick (ENGINE EXTENSION; the reference has no
EXPLAIN). Pure static rendering: nothing executes, no Ray session needed.

Surface: ``sqlgrep_ray.api.explain_sql(sql)`` and a leading ``EXPLAIN``
keyword on the CLI/REPL. The physical annotations mirror the actual
dispatch logic in ``pipelines/runner.py`` (cited per line) so the output
stays honest about shuffles: broadcast joins = zero exchanges, holistic
aggregates = one hash shuffle + map_groups. Every gated exchange names
the gate's one bound, ``SMALL_MERGE_MAX_PARTIAL_ROWS`` rows and as many
32-byte rows in size: associative aggregates, two-stage COUNT(DISTINCT)
and SELECT DISTINCT merge on the driver within it
(``exchange.gather``), else in one bucketed merge (two for two-stage
COUNT(DISTINCT)); a window frame over a Parquet path whose footers are
within it is one bucket in one task, else one bucket exchange. Top-n merges finish in one task, with no
Repartition (``exchange.one_block``).
"""

from __future__ import annotations

from typing import Any, Optional

from sqlgrep_ray.functions.exprs import (
    Bin,
    Case,
    Cast,
    Col,
    Func,
    Index,
    InList,
    Lit,
    Un,
)
from sqlgrep_ray.pipelines.plan import AggregatePlan, SelectPlan

_OPS = {
    "eq": "=", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
    "add": "+", "sub": "-", "mul": "*", "div": "/", "and": "AND",
    "or": "OR", "is": "IS", "is_not": "IS NOT",
}


def fmt_expr(e: Any) -> str:
    """Compact SQL-ish rendering of an expression tree."""
    if e is None:
        return "NULL"
    if isinstance(e, Col):
        return e.name
    if isinstance(e, Lit):
        return repr(e.value) if isinstance(e.value, str) else str(e.value)
    if isinstance(e, Bin):
        return f"({fmt_expr(e.left)} {_OPS.get(e.op, e.op)} {fmt_expr(e.right)})"
    if isinstance(e, Un):
        op = "-" if e.op == "neg" else "NOT "
        return f"{op}{fmt_expr(e.operand)}"
    if isinstance(e, InList):
        items = ", ".join(fmt_expr(i) for i in e.items)
        neg = "NOT " if e.negated else ""
        return f"{fmt_expr(e.operand)} {neg}IN ({items})"
    if isinstance(e, Func):
        return f"{e.name}({', '.join(fmt_expr(a) for a in e.args)})"
    if isinstance(e, Case):
        whens = " ".join(
            f"WHEN {fmt_expr(c)} THEN {fmt_expr(v)}" for c, v in e.whens
        )
        return f"CASE {whens} ELSE {fmt_expr(e.else_)} END"
    if isinstance(e, Cast):
        return f"CAST({fmt_expr(e.operand)} AS {e.vtype})"
    if isinstance(e, Index):
        return f"{fmt_expr(e.operand)}[{fmt_expr(e.index)}]"
    nm = type(e).__name__
    if nm == "ScalarSubquery":
        return "(scalar subquery — evaluated once)"
    if nm == "ExistsSubquery":
        return ("NOT " if getattr(e, "negated", False) else "") + "EXISTS (…)"
    return nm


def _explain_query(q, out: list, indent: str) -> None:
    from sqlgrep_ray.stages.aggregate import HOLISTIC

    pad = indent
    alias = f" AS {q.table_alias}" if q.table_alias else ""
    file = f"::{q.file!r}" if q.file else ""
    out.append(f"{pad}FROM {q.table}{file}{alias}")
    for name, sub in getattr(q, "derived", ()):
        out.append(f"{pad}  derived table {name}:")
        explain_statement(sub, out, indent + "    ")
    joins = []
    if q.join_table is not None:
        joins.append(
            (q.join_table, q.join_alias, q.join_left_col,
             q.join_right_col, q.join_how or "inner")
        )
    for jt, _jf, ja, jl, jr, jh in getattr(q, "extra_joins", ()):
        joins.append((jt, ja, jl, jr, jh))
    for jt, ja, jl, jr, jh in joins:
        vis = ja or jt
        if jh == "cross":
            out.append(
                f"{pad}  join: CROSS {jt} — broadcast cartesian stage "
                f"(enrich.CrossJoiner), no shuffle"
            )
        else:
            out.append(
                f"{pad}  join: {jh.upper()} {jt} ON {jl} = {vis}.{jr} — "
                f"broadcast build side, streamed probe, no shuffle"
            )
    for col, sub, negated in getattr(q, "in_subqueries", ()):
        kind = "ANTI" if negated else "SEMI"
        out.append(
            f"{pad}  {kind}-join: {col} IN (subquery) — exact "
            f"bloom-accelerated (stages/bloom)"
        )
        explain_statement(sub, out, indent + "    ")
    for entry in getattr(q, "corr_scalars", ()):
        out.append(
            f"{pad}  correlated scalar: {entry[0]} {entry[4]} "
            f"AGG per {entry[2]} — per-key aggregate + size-gated LEFT join"
        )
    _explain_plan(q.plan, out, indent)


def _explain_plan(plan, out: list, indent: str) -> None:
    from sqlgrep_ray.stages.aggregate import HOLISTIC

    pad = indent
    if getattr(plan, "where", None) is not None:
        out.append(f"{pad}  where: {fmt_expr(plan.where)} (streaming filter)")
    if isinstance(plan, SelectPlan):
        for nm, e in getattr(plan, "win_inputs", ()):
            out.append(
                f"{pad}  window input: {nm} := {fmt_expr(e)} "
                f"(streaming pre-window projection)"
            )
        frames: dict = {}
        for w in getattr(plan, "windows", ()):
            frames.setdefault((w.key, w.order), []).append(w)
        for (key, order), specs in frames.items():
            fns = ", ".join(
                f"{w.func}({w.value_col or '*'})→{w.out_col}" for w in specs
            )
            if key is None and all(
                w.func in ("run_sum", "run_avg", "run_count", "run_count_star")
                and w.frame == "range"
                and getattr(w, "preceding", None) is None
                and getattr(w, "following", None) is None
                for w in specs
            ):
                out.append(
                    f"{pad}  window frame GLOBAL ORDER BY {order}: [{fns}] — "
                    f"chunk-safe distributed ranged path "
                    f"(global_running_ranged), no whole-input task"
                )
            elif key is None:
                out.append(
                    f"{pad}  window frame GLOBAL ORDER BY {order}: [{fns}] — "
                    f"ONE-TASK contract (whole input on one worker)"
                )
            else:
                out.append(
                    f"{pad}  window frame PARTITION BY {key} ORDER BY "
                    f"{order}: [{fns}] — fused per-frame kernels; "
                    + _gate(
                        "one bucket in one task, no exchange, when the "
                        "FROM path's Parquet footers read",
                        "ONE bucket exchange (Sort), auto-sized buckets, as "
                        "for every Dataset source or JOIN",
                    )
                )
        if getattr(plan, "qualify", None) is not None:
            out.append(
                f"{pad}  qualify: {fmt_expr(plan.qualify)} (streaming filter "
                f"over window outputs)"
            )
        if getattr(plan, "unnest", None) is not None:
            nm, e = plan.unnest
            out.append(
                f"{pad}  unnest: {nm} := {fmt_expr(e)} (vectorized explode, "
                f"no shuffle)"
            )
        if plan.projections is None:
            out.append(f"{pad}  project: * (all columns)")
        else:
            cols = ", ".join(
                f"{p.name}={fmt_expr(p.expr)}"
                if not (isinstance(p.expr, Col) and p.expr.name == p.name)
                else p.name
                for p in plan.projections
            )
            out.append(f"{pad}  project: {cols}")
        if plan.distinct:
            out.append(
                f"{pad}  distinct: combiner-first hash dedup "
                f"({_merge_gate(plan, 'one bucketed merge')})"
            )
    else:
        assert isinstance(plan, AggregatePlan)
        keys = ", ".join(f"{k.name}={fmt_expr(k.expr)}" for k in plan.group_by)
        aggs = ", ".join(
            f"{a.name}={a.func}({fmt_expr(a.arg) if a.arg is not None else '*'})"
            for a in plan.aggs
        )
        holi = [a for a in plan.aggs if a.func in HOLISTIC]
        two_stage = {"count_distinct", "sum_distinct", "avg_distinct"}
        if holi and all(a.func in two_stage for a in holi) and all(
            a.arg == holi[0].arg for a in holi
        ):
            path = (
                "skew-safe TWO-STAGE distinct (group by (keys, value) "
                "combiner → group by keys; "
                f"{_merge_gate(plan, 'two bucketed merges')})"
            )
        elif holi:
            path = "HOLISTIC map_groups (whole group per worker, one shuffle)"
        elif plan.aggs and all(
            a.func == "approx_count_distinct" for a in plan.aggs
        ):
            path = "HLL++ sketch partials (bounded bytes, one small shuffle)"
        else:
            path = (
                "ASSOCIATIVE combiner-first (per-block partials → "
                f"{_merge_gate(plan, 'one bucketed merge')})"
            )
        out.append(f"{pad}  aggregate: keys [{keys}] aggs [{aggs}]")
        out.append(f"{pad}    path: {path}")
        if getattr(plan, "grouping_sets", None):
            out.append(
                f"{pad}    grouping sets ×{len(plan.grouping_sets)} "
                f"(masked partial copies, shuffle bounded by groups × sets)"
            )
        if plan.having is not None:
            out.append(f"{pad}  having: {fmt_expr(plan.having)}")
    order_by = getattr(plan, "order_by", ())
    if order_by:
        keys = ", ".join(
            fmt_expr(t[0]) + (" DESC" if len(t) > 1 and t[1] else "")
            for t in order_by
        )
        lim = getattr(plan, "limit", None)
        strategy = (
            f"combiner-first top-n, {ONE_TASK}" if lim is not None
            else "distributed sort (Sort)"
        )
        out.append(f"{pad}  order by: {keys} ({strategy})")
    if getattr(plan, "limit", None) is not None:
        off = getattr(plan, "offset", None)
        out.append(
            f"{pad}  limit: {plan.limit}"
            + (f" offset {off}" if off else "")
            + " (streaming early-stop"
            + (f"; offset: {ONE_TASK})" if off and not order_by else ")")
        )


def explain_statement(stmt, out: Optional[list] = None, indent: str = "") -> str:
    """Render a parsed statement tree; returns the text (and appends to
    ``out`` when given — used for nesting)."""
    from sqlgrep_ray.sqlfront import Query, SetQuery, WithQuery

    lines = out if out is not None else []
    if isinstance(stmt, WithQuery):
        for name, sub in stmt.ctes:
            lines.append(f"{indent}CTE {name}:")
            explain_statement(sub, lines, indent + "  ")
        lines.append(f"{indent}body:")
        explain_statement(stmt.body, lines, indent + "  ")
    elif isinstance(stmt, SetQuery):
        op = stmt.op.upper() + (" ALL" if stmt.all else "")
        lines.append(
            f"{indent}{op} over {len(stmt.queries)} members"
            + (
                " (block-wise concat, no shuffle)"
                if stmt.op == "union" and stmt.all
                else " (one bag-semantics shuffle)"
            )
        )
        for i, m in enumerate(stmt.queries):
            lines.append(f"{indent}  member {i}:")
            explain_statement(m, lines, indent + "    ")
    elif isinstance(stmt, Query):
        _explain_query(stmt, lines, indent)
    else:
        lines.append(f"{indent}{type(stmt).__name__}")
    return "\n".join(lines)


# ``exchange.one_block``: the finish of a top-n merge, an unordered OFFSET
# and the key sort of a small result
ONE_TASK = "merged in one task, no Repartition"


def _gate(small: str, exchange: str) -> str:
    """The gate's choice: ``small`` within its one bound, else
    ``exchange``."""
    from sqlgrep_ray.stages.exchange import SMALL_MERGE_MAX_PARTIAL_ROWS as b

    return f"{small} ≤ {b:,} rows and {32 * b // 10**6} MB, else {exchange}"


def _merge_gate(plan, exchange: str) -> str:
    """The merge path ``exchange.merge`` picks for ``plan``."""
    small = getattr(plan, "small_result", None)
    if small is None:
        return _gate("driver merge when the partials are", exchange)
    return "driver merge" if small else exchange


def explain_sql(sql: str) -> str:
    """Parse ``sql`` and render its logical plan + physical strategy."""
    from sqlgrep_ray.sqlfront import parse_query

    return explain_statement(parse_query(sql))
