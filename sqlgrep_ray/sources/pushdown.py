"""Parquet scan pushdown — "prune at the read" as a first-class surface.

``run_sql`` accepts PATH strings as table sources; a plain single-table
query then reads ONLY the referenced columns (``read_parquet(columns=…)``,
so whole column chunks never leave storage) and pushes the pushable
subset of its WHERE down as a ``pyarrow.dataset`` filter expression
(row-group statistics pruning + row-level filtering inside the scan).
At 100 TB this is the difference between scanning the table and scanning
the selected slice.

Only semantics-preserving atoms are pushed (verified against the
engine's NULL⇒false comparison contract — a pyarrow filter also drops
NULL-masked rows):

* ``col <cmp> literal`` (either order; non-NULL literal) — NULL rows drop
  on both sides, equal outcome;
* ``col IS NULL`` / ``col IS NOT NULL`` and null-safe ``col IS literal``
  (≡ ``==`` once NULL rows drop);
* ``col IN (literals…)`` non-negated (engine: NULL operand ⇒ false);
* ``AND`` — a half-pushable conjunction pushes the pushable half;
* ``OR`` — pushed only when BOTH sides push.

Everything else (NOT, IS NOT <literal> — engine keeps NULL rows there —
arithmetic, functions, join-qualified columns) stays engine-side. The
full WHERE is ALWAYS re-applied by the engine: pushdown is a bandwidth
optimization, never the correctness gate, so double-applying is safe.
"""

from __future__ import annotations

from typing import Optional

from sqlgrep_ray.functions.exprs import Bin, Col, Expr, InList, Lit

_CMP_PUSH = {"eq", "ne", "lt", "le", "gt", "ge"}


def _field(e: Expr, columns: "set[str]"):
    import pyarrow.dataset as pds

    if isinstance(e, Col) and "." not in e.name and e.name in columns:
        return pds.field(e.name)
    return None


def _lit(e: Expr):
    if isinstance(e, Lit) and e.value is not None:
        return e.value
    return None


def where_to_ds_filter(e: Optional[Expr], columns: "set[str]"):
    """The pushable subset of ``e`` as a pyarrow.dataset Expression, or
    None when nothing is pushable. ``columns`` is the parquet schema's
    column-name set (atoms over unknown names would error inside the
    scan)."""
    if e is None:
        return None
    import pyarrow.dataset as pds

    if isinstance(e, Bin):
        if e.op == "and":
            l = where_to_ds_filter(e.left, columns)
            r = where_to_ds_filter(e.right, columns)
            if l is not None and r is not None:
                return l & r
            return l if l is not None else r
        if e.op == "or":
            l = where_to_ds_filter(e.left, columns)
            r = where_to_ds_filter(e.right, columns)
            return (l | r) if (l is not None and r is not None) else None
        if e.op in _CMP_PUSH:
            f, v = _field(e.left, columns), _lit(e.right)
            if f is None or v is None:  # try the mirrored orientation
                f, v = _field(e.right, columns), _lit(e.left)
                flip = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}
                op = flip.get(e.op, e.op) if f is not None else e.op
            else:
                op = e.op
            if f is None or v is None:
                return None
            return {
                "eq": lambda: f == v,
                "ne": lambda: f != v,
                "lt": lambda: f < v,
                "le": lambda: f <= v,
                "gt": lambda: f > v,
                "ge": lambda: f >= v,
            }[op]()
        if e.op == "is":
            f = _field(e.left, columns)
            if f is None:
                return None
            if isinstance(e.right, Lit) and e.right.value is None:
                return f.is_null()
            v = _lit(e.right)
            # null-safe eq vs a non-NULL literal ≡ == once NULLs drop
            return (f == v) if v is not None else None
        if e.op == "is_not":
            f = _field(e.left, columns)
            if f is None:
                return None
            if isinstance(e.right, Lit) and e.right.value is None:
                return ~f.is_null()
            # IS NOT <literal> keeps NULL rows engine-side — not pushable
            return None
        return None
    if isinstance(e, InList) and not e.negated:
        f = _field(e.operand, columns)
        if f is None:
            return None
        vals = [_lit(i) for i in e.items]
        if any(v is None for v in vals):
            return None
        return f.isin(vals)
    return None


def join_side_columns(path: str, q, jtable: str, jalias, right_key):
    """Column list for a path-valued JOIN side: the join key(s) plus
    every reference that attributes to this side — ``<visible>.col``
    qualified names, and unqualified names present in the file's schema
    (an over-approximation: a shared name resolving to the LEFT side
    costs one extra broadcast column, never correctness). Returns None
    (full read) for wildcard projections or when a qualified reference
    names a column the file lacks (the engine's normal error should
    surface, not a scan error)."""
    import pyarrow.parquet as pq

    from sqlgrep_ray.pipelines.runner import referenced_columns

    refs = list(referenced_columns(q.plan) or ())
    if not refs and q.plan.__class__.__name__ == "SelectPlan" and (
        q.plan.projections is None
    ):
        return None  # wildcard: every column may surface
    # LATER joins' stream-side keys ride the prefixed output of THIS
    # side ("c.c_nationkey" probes the c-join's output) — they never
    # appear in plan expressions, only in the Query's key lists
    for jl in [q.join_left_col] + [
        x[3] for x in getattr(q, "extra_joins", ())
    ]:
        if jl is None:
            continue
        refs.extend([jl] if isinstance(jl, str) else list(jl))
    schema_names = set(pq.read_schema(path).names)
    want = set(
        [right_key] if isinstance(right_key, str) else list(right_key)
    )
    prefixes = tuple(
        f"{t}." for t in (jtable, jalias) if t
    )
    for r in refs:
        if r.startswith(prefixes):
            want.add(r.split(".", 1)[1])
        elif "." not in r and r in schema_names:
            want.add(r)
    if not want.issubset(schema_names):
        return None
    return sorted(want)


def scan_parquet_for_query(path: str, q) -> "object":
    """Read ``path`` for a (still unbound) single-table query: referenced
    columns only, pushable WHERE atoms pushed into the scan. Own-table
    qualifications (``t.x`` / alias) strip before attribution. Falls back
    to a plain clean read when the query shape doesn't allow attribution
    (joins, subquery-lifted conjuncts, wildcard projections push the
    filter but not columns)."""
    import pyarrow.parquet as pq

    from sqlgrep_ray.pipelines.runner import referenced_columns
    from sqlgrep_ray.sources import read_parquet_clean

    plan = q.plan
    kwargs: dict = {}
    if (
        q.join_table is None
        and not getattr(q, "extra_joins", ())
        and not q.in_subqueries
        and not q.corr_scalars
    ):
        file_names = pq.read_schema(path).names
        schema_names = set(file_names)

        def strip(n: str) -> str:
            for t in (q.table, q.table_alias):
                if t and n.startswith(t + "."):
                    return n.split(".", 1)[1]
            return n

        needed = referenced_columns(plan)
        if needed is not None:
            # a zero-column read yields zero rows (COUNT(*) would see
            # none): read the first column instead
            cols = sorted({strip(n) for n in needed}) or file_names[:1]
            # a referenced name missing from the file should fail inside
            # the engine with its normal error, not at the scan
            if all(c in schema_names for c in cols):
                kwargs["columns"] = cols
        where = getattr(plan, "where", None)
        if where is not None:
            from sqlgrep_ray.sqlfront import _strip_qualifier

            where = _strip_qualifier(where, q.table)
            if q.table_alias:
                where = _strip_qualifier(where, q.table_alias)
            filt = where_to_ds_filter(where, schema_names)
            if filt is not None:
                kwargs["filter"] = filt
    return read_parquet_clean(path, **kwargs)
