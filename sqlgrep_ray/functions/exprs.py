"""Expression tree → vectorized Arrow-compute kernel compiler.

The Ray-Data replacement for the reference's per-row tree-walk interpreter
(``src/execution/expression_execution.rs:30-591``): an expression compiles
ONCE (driver side) into a closure ``(pa.Table) -> pa.Array`` built from
``pyarrow.compute`` kernels, then runs per batch inside ``map_batches``.

Reference semantics preserved exactly (each with its citation):

* comparisons with any NULL operand yield **false**, not NULL
  (``expression_execution.rs:46-72``);
* ``IS`` / ``IS NOT`` are null-safe equality (``:73-81``);
* int/int division truncates (i64 division, ``:106``);
* ``AND``/``OR`` coerce NULL/non-bool to false first (``:173-178``,
  ``model.rs:163-168``);
* 1-based array indexing, NULL on out-of-range (``:516-532``);
* ``length()`` is a character count (``:281-288``);
* CASE requires ELSE; first true clause wins (``:560-568``).

Documented divergences: mixed int/float arithmetic is an ERROR in the
reference (``:82-143``) but follows Arrow's numeric promotion here;
division by zero raises (Arrow) as the reference's row error would abort the
query anyway.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Union

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from sqlgrep_ray.schema import VType, STRING

# ---------------------------------------------------------------------------
# Expression tree
# ---------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Col(Expr):
    name: str


@dataclass(frozen=True)
class Lit(Expr):
    value: Any
    vtype: Optional[VType] = None


@dataclass(frozen=True)
class Bin(Expr):
    """op ∈ eq ne gt ge lt le add sub mul div and or is is_not"""

    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Un(Expr):
    """op ∈ neg not"""

    op: str
    operand: Expr


@dataclass(frozen=True)
class InList(Expr):
    operand: Expr
    items: tuple[Expr, ...]
    negated: bool = False


@dataclass(frozen=True)
class Func(Expr):
    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Case(Expr):
    whens: tuple[tuple[Expr, Expr], ...]
    else_: Expr


@dataclass(frozen=True)
class Cast(Expr):
    operand: Expr
    vtype: VType


@dataclass(frozen=True)
class Index(Expr):
    """1-based array element access ``x[i]`` (OOB ⇒ NULL)."""

    operand: Expr
    index: Expr


Kernel = Callable[[pa.Table], Union[pa.Array, pa.ChunkedArray, pa.Scalar]]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _as_array(v: Any, n: int) -> pa.Array:
    """Broadcast a scalar result to an array of length n when needed."""
    if isinstance(v, pa.ChunkedArray):
        return v.combine_chunks()
    if isinstance(v, (pa.Array,)):
        return v
    if isinstance(v, pa.Scalar):
        return pa.repeat(v, n)
    return pa.repeat(pa.scalar(v), n)


def _is_ts(t: pa.DataType) -> bool:
    return pa.types.is_timestamp(t)


def _coerce_cmp_pair(l: Any, r: Any) -> tuple[Any, Any]:
    """string ↔ timestamp auto-coerce for comparisons (``:46-72``)."""
    lt = l.type if hasattr(l, "type") else None
    rt = r.type if hasattr(r, "type") else None
    if lt is not None and rt is not None:
        if _is_ts(lt) and pa.types.is_string(rt):
            r = pc.strptime(r, format="%Y-%m-%d %H:%M:%S", unit="us")
        elif _is_ts(rt) and pa.types.is_string(lt):
            l = pc.strptime(l, format="%Y-%m-%d %H:%M:%S", unit="us")
    return l, r


def _to_bool_strict(v: Any) -> Any:
    """Value.bool(): non-bool / NULL ⇒ false (``model.rs:163-168``)."""
    t = v.type if hasattr(v, "type") else None
    if t is not None and not pa.types.is_boolean(t):
        if isinstance(v, pa.Scalar):
            return pa.scalar(False)
        return pa.array(np.zeros(len(v), dtype=bool))
    return pc.fill_null(v, False)


_CMP = {
    "eq": pc.equal,
    "ne": pc.not_equal,
    "gt": pc.greater,
    "ge": pc.greater_equal,
    "lt": pc.less,
    "le": pc.less_equal,
}

_ARITH = {"add": pc.add, "sub": pc.subtract, "mul": pc.multiply, "div": pc.divide}


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


@dataclass
class CompileCtx:
    """Compile-time context. ``now`` pins the clock for determinism (the
    reference's ``now()`` reads the wall clock, ``:402-404``)."""

    now: Optional[_dt.datetime] = None


def compile_expr(expr: Expr, ctx: Optional[CompileCtx] = None) -> Kernel:
    ctx = ctx or CompileCtx()

    if isinstance(expr, Col):
        name = expr.name

        def k_col(t: pa.Table) -> Any:
            col = t[name]
            return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col

        return k_col

    if isinstance(expr, Lit):
        sc = (
            pa.scalar(expr.value, expr.vtype.to_arrow())
            if expr.vtype is not None
            else pa.scalar(expr.value)
        )
        return lambda t: sc

    if isinstance(expr, Bin):
        lk = compile_expr(expr.left, ctx)
        rk = compile_expr(expr.right, ctx)
        op = expr.op

        if op in _CMP:
            fn = _CMP[op]

            def k_cmp(t: pa.Table) -> Any:
                l, r = _coerce_cmp_pair(lk(t), rk(t))
                return pc.fill_null(fn(l, r), False)  # NULL compare ⇒ false

            return k_cmp

        if op in ("is", "is_not"):
            # IS [NOT] NULL needs no equality kernel (lists have none)
            nk = (
                lk if isinstance(expr.right, Lit) and expr.right.value is None
                else rk if isinstance(expr.left, Lit) and expr.left.value is None
                else None
            )
            if nk is not None:

                def k_is_null(t: pa.Table) -> Any:
                    res = pc.is_null(nk(t))
                    return pc.invert(res) if op == "is_not" else res

                return k_is_null

            def k_is(t: pa.Table) -> Any:
                l, r = _coerce_cmp_pair(lk(t), rk(t))
                # null-safe equality (:73-81)
                ln, rn = pc.is_null(l), pc.is_null(r)
                both_null = pc.and_(ln, rn)
                eq = pc.fill_null(pc.equal(l, r), False)
                res = pc.or_(both_null, eq)
                return pc.invert(res) if op == "is_not" else res

            return k_is

        if op in _ARITH:
            fn = _ARITH[op]

            def k_arith(t: pa.Table) -> Any:
                return fn(lk(t), rk(t))

            return k_arith

        if op in ("and", "or"):
            fn2 = pc.and_ if op == "and" else pc.or_

            def k_bool(t: pa.Table) -> Any:
                return fn2(_to_bool_strict(lk(t)), _to_bool_strict(rk(t)))

            return k_bool

        raise ValueError(f"unknown binary op {op!r}")

    if isinstance(expr, Un):
        ok = compile_expr(expr.operand, ctx)
        if expr.op == "neg":
            return lambda t: pc.negate(ok(t))
        if expr.op == "not":
            return lambda t: pc.invert(ok(t))  # NULL passes through (:144-172)
        raise ValueError(f"unknown unary op {expr.op!r}")

    if isinstance(expr, InList):
        ok = compile_expr(expr.operand, ctx)
        item_ks = [compile_expr(i, ctx) for i in expr.items]
        negated = expr.negated

        def k_in(t: pa.Table) -> Any:
            vals = [ik(t) for ik in item_ks]
            pyvals = [v.as_py() if isinstance(v, pa.Scalar) else v for v in vals]
            res = pc.is_in(ok(t), value_set=pa.array(pyvals))
            res = pc.fill_null(res, False)
            return pc.invert(res) if negated else res

        return k_in

    if isinstance(expr, Case):
        else_k = compile_expr(expr.else_, ctx)
        when_ks = [
            (compile_expr(c, ctx), compile_expr(v, ctx)) for c, v in expr.whens
        ]

        def k_case(t: pa.Table) -> Any:
            res = else_k(t)
            for ck, vk in reversed(when_ks):
                res = pc.if_else(_to_bool_strict(ck(t)), vk(t), res)
            return res

        return k_case

    if isinstance(expr, Cast):
        ok = compile_expr(expr.operand, ctx)
        vt = expr.vtype
        return lambda t: _cast_value(ok(t), vt, t.num_rows)

    if isinstance(expr, Index):
        ok = compile_expr(expr.operand, ctx)
        ik = compile_expr(expr.index, ctx)

        def k_index(t: pa.Table) -> Any:
            arr = ok(t)
            idx = ik(t)
            if isinstance(idx, pa.Scalar):
                i = idx.as_py()
                return _list_get_1based(_as_array(arr, t.num_rows), i)
            # vector index: python fallback
            lists = _as_array(arr, t.num_rows).to_pylist()
            idxs = _as_array(idx, t.num_rows).to_pylist()
            out = [
                None
                if (l is None or i is None or not (1 <= i <= len(l)))
                else l[i - 1]
                for l, i in zip(lists, idxs)
            ]
            return pa.array(out)

        return k_index

    if isinstance(expr, Func):
        return _compile_func(expr, ctx)

    raise ValueError(f"unknown expression node {expr!r}")


def _list_get_1based(lists: pa.Array, i: Optional[int]) -> pa.Array:
    if i is None:
        return pa.nulls(len(lists), lists.type.value_type)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    idx0 = i - 1
    if idx0 < 0:
        return pa.nulls(len(lists), lists.type.value_type)
    offsets = lists.offsets.to_numpy(zero_copy_only=False)
    lengths = offsets[1:] - offsets[:-1]
    valid = (lengths > idx0) & pc.is_valid(lists).to_numpy(zero_copy_only=False)
    take_idx = np.where(valid, offsets[:-1] + idx0, 0).astype(np.int64)
    taken = lists.values.take(pa.array(take_idx))
    return pc.if_else(pa.array(valid), taken, pa.nulls(len(lists), lists.values.type))


# ---------------------------------------------------------------------------
# Casts — expression_execution.rs:533-559
# ---------------------------------------------------------------------------


def _format_value_display(v: Any) -> Optional[str]:
    """Reference Display formatting (``model.rs:335-353``): floats ``{:.2}``,
    bools true/false, timestamps ``%Y-%m-%d %H:%M:%S.%3f``."""
    if v is None:
        return None
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.2f}"
    if isinstance(v, _dt.datetime):
        return v.strftime("%Y-%m-%d %H:%M:%S.") + f"{v.microsecond // 1000:03d}"
    if isinstance(v, _dt.timedelta):
        # HH:MM:SS.mmm (model.rs:345-351)
        total_s = int(v.total_seconds())
        ms = int(v.total_seconds() * 1000) - total_s * 1000
        return (
            f"{total_s // 3600:02d}:{(total_s // 60) % 60:02d}:"
            f"{total_s % 60:02d}.{ms:03d}"
        )
    return str(v)


def _cast_value(v: Any, vt: VType, n: int) -> Any:
    from sqlgrep_ray.stages.parse import coerce_strings  # cycle-free at runtime

    arr = _as_array(v, n)
    src = arr.type
    k = vt.kind
    if pa.types.is_string(src) and k != "string":
        return coerce_strings(arr, vt)
    if pa.types.is_duration(src):
        secs = pc.divide(arr.cast(pa.int64()), 1_000_000)
        if k == "int":
            return secs
        if k == "float":
            return pc.divide(arr.cast(pa.int64()).cast(pa.float64()), 1e6)
    if k == "string":
        return pa.array([_format_value_display(x) for x in arr.to_pylist()], pa.string())
    tgt = vt.to_arrow()
    if pa.types.is_floating(src) and pa.types.is_integer(tgt):
        # reference float→int cast truncates toward zero (Rust `as i64`,
        # expression_execution.rs) — Arrow's safe cast would error on any
        # non-integral value instead
        return pc.cast(pc.trunc(arr), tgt, safe=False)
    return arr.cast(tgt)


# ---------------------------------------------------------------------------
# Scalar function registry — SURVEY.md §2.3
# ---------------------------------------------------------------------------

FuncKernel = Callable[..., Any]
_FUNCS: dict[str, Callable[[list[Kernel], CompileCtx], Kernel]] = {}


def register_function(name: str):
    def deco(builder: Callable[[list[Kernel], CompileCtx], Kernel]):
        _FUNCS[name] = builder
        return builder

    return deco


# Types a ``null``-typed argument may take, after the call's other
# argument types (see :func:`_compile_func`).
_NULL_ARG_TYPES = (pa.string(), pa.int64(), pa.float64())


def _compile_func(expr: Func, ctx: CompileCtx) -> Kernel:
    """A function call's kernel. An argument typed ``null`` (a NULL
    literal, or a block whose column is all NULL) has no kernel in most
    Arrow functions: it is cast to the parameter's type, the first of the
    call's other argument types and ``_NULL_ARG_TYPES`` that the function
    accepts — so NULL goes in, and SQL's answer for NULL comes out."""
    builder = _FUNCS.get(expr.name.lower())
    if builder is None:
        raise ValueError(f"unknown function {expr.name!r}")
    args = [compile_expr(a, ctx) for a in expr.args]
    kernel = builder(args, ctx)

    def k(t: pa.Table) -> Any:
        try:
            return kernel(t)
        except pa.ArrowNotImplementedError:
            vals = [a(t) for a in args]
            # a kernel may return a plain Python value, which has no type
            types = [getattr(v, "type", None) for v in vals]
            nulls = {i for i, ty in enumerate(types) if ty == pa.null()}
            if not nulls:
                raise
            others = [
                ty for i, ty in enumerate(types) if ty is not None and i not in nulls
            ]
            for typ in dict.fromkeys([*others, *_NULL_ARG_TYPES]):
                cast = [v.cast(typ) if i in nulls else v for i, v in enumerate(vals)]
                try:
                    return builder([lambda _t, v=v: v for v in cast], ctx)(t)
                except pa.ArrowNotImplementedError:
                    continue
            raise

    return k


def _simple(fn: Callable[..., Any]):
    def builder(args: list[Kernel], ctx: CompileCtx) -> Kernel:
        return lambda t: fn(*(a(t) for a in args))

    return builder


_FUNCS["greatest"] = _simple(lambda a, b: pc.max_element_wise(a, b))
_FUNCS["least"] = _simple(lambda a, b: pc.min_element_wise(a, b))
_FUNCS["abs"] = _simple(pc.abs)
_FUNCS["sqrt"] = _simple(pc.sqrt)
_FUNCS["pow"] = _simple(pc.power)
_FUNCS["length"] = _simple(pc.utf8_length)  # char count (:281-288)
_FUNCS["upper"] = _simple(pc.utf8_upper)
_FUNCS["lower"] = _simple(pc.utf8_lower)
_FUNCS["array_length"] = _simple(pc.list_value_length)
# round(x[, ndigits]) — half-away-from-zero (SQL/DuckDB convention; the
# reference has no round, this is an engine extension used by pipelines)
_FUNCS["round"] = _simple(
    lambda x, nd=None: pc.round(
        x,
        ndigits=(nd.as_py() if isinstance(nd, pa.Scalar) else nd) or 0,
        round_mode="half_towards_infinity",
    )
)


# -- engine-extension scalar functions (beyond the reference's §2.3 set:
# the common SQL string/math utilities a pipeline author expects; each is
# one pyarrow kernel, DuckDB-parity semantics unless noted) -----------------

_FUNCS["coalesce"] = _simple(pc.coalesce)
_FUNCS["floor"] = _simple(pc.floor)
_FUNCS["ceil"] = _simple(pc.ceil)
_FUNCS["ceiling"] = _simple(pc.ceil)
_FUNCS["exp"] = _simple(pc.exp)
_FUNCS["ln"] = _simple(pc.ln)
_FUNCS["log10"] = _simple(pc.log10)
_FUNCS["log2"] = _simple(pc.log2)
_FUNCS["sign"] = _simple(pc.sign)
_FUNCS["reverse"] = _simple(pc.utf8_reverse)
_FUNCS["starts_with"] = _simple(
    lambda s, p: pc.starts_with(s, pattern=_lit_str(p, "starts_with"))
)
_FUNCS["ends_with"] = _simple(
    lambda s, p: pc.ends_with(s, pattern=_lit_str(p, "ends_with"))
)
_FUNCS["contains"] = _simple(
    lambda s, p: pc.match_substring(s, pattern=_lit_str(p, "contains"))
)
_FUNCS["replace"] = _simple(
    lambda s, a, b: pc.replace_substring(
        s, pattern=_lit_str(a, "replace"), replacement=_lit_str(b, "replace")
    )
)
_FUNCS["repeat"] = _simple(pc.binary_repeat)
# mod: C-style truncating remainder (sign of the dividend), int or float
_FUNCS["mod"] = _simple(
    lambda a, b: pc.subtract(a, pc.multiply(pc.divide(a, b), b))
)

# trigonometry / angle conversion — straight pyarrow kernels
_FUNCS["sin"] = _simple(pc.sin)
_FUNCS["cos"] = _simple(pc.cos)
_FUNCS["tan"] = _simple(pc.tan)
_FUNCS["asin"] = _simple(pc.asin)
_FUNCS["acos"] = _simple(pc.acos)
_FUNCS["atan"] = _simple(pc.atan)
_FUNCS["atan2"] = _simple(pc.atan2)
_FUNCS["degrees"] = _simple(lambda x: pc.multiply(x, 180.0 / math.pi))
_FUNCS["radians"] = _simple(lambda x: pc.multiply(x, math.pi / 180.0))
_FUNCS["cbrt"] = _simple(lambda x: pc.power(pc.cast(x, pa.float64()), 1.0 / 3.0))
# initcap: first letter of each word upper, rest lower (Postgres; DuckDB
# has no initcap — verified by pytest against Python's str.title shape)
_FUNCS["initcap"] = _simple(pc.utf8_title)
# log: one arg = base-10 (DuckDB/Postgres); log(b, x) = ln(x)/ln(b)
_FUNCS["log"] = _simple(
    lambda *a: pc.log10(a[0]) if len(a) == 1 else pc.divide(pc.ln(a[1]), pc.ln(a[0]))
)


def _pyrow_str(fn: Callable[[Any], Any], out_type: pa.DataType):
    """Per-row fallback for string utilities with no Arrow kernel
    (translate/md5/ascii/chr/to_hex — extension utilities off every hot
    path; SURVEY §M10 allows the per-row fallback for edge ops). NULL
    passes through."""

    def builder(args: list[Kernel], ctx: CompileCtx) -> Kernel:
        def k(t: pa.Table) -> Any:
            vals = [_as_array(a(t), t.num_rows).to_pylist() for a in args]
            out = [
                None if any(v is None for v in row) else fn(*row)
                for row in zip(*vals)
            ]
            return pa.array(out, out_type)

        return k

    return builder


def _translate(s: str, frm: str, to: str) -> str:
    # DuckDB/Postgres: chars in `frm` past len(to) are DELETED
    tbl = {ord(c): (to[i] if i < len(to) else None) for i, c in enumerate(frm)}
    return s.translate(tbl)


_FUNCS["translate"] = _pyrow_str(_translate, pa.string())
_FUNCS["md5"] = _pyrow_str(
    lambda s: hashlib.md5(str(s).encode("utf-8")).hexdigest(), pa.string()
)
# ascii: codepoint of the first character, 0 for '' (DuckDB)
_FUNCS["ascii"] = _pyrow_str(lambda s: ord(s[0]) if s else 0, pa.int64())
_FUNCS["chr"] = _pyrow_str(lambda n: chr(int(n)), pa.string())
_FUNCS["to_hex"] = _pyrow_str(lambda n: format(int(n), "X"), pa.string())


def _regexp_replace_builder(args: list["Kernel"], ctx: "CompileCtx"):
    """regexp_replace(s, pattern, replacement[, 'g']) — RE2 via
    pc.replace_substring_regex. DuckDB default replaces the FIRST match;
    the 'g' flag replaces all."""
    if len(args) not in (3, 4):
        raise ValueError("regexp_replace(s, pattern, replacement[, 'g'])")
    sk, pk, rk = args[0], args[1], args[2]
    fk = args[3] if len(args) == 4 else None

    def k(t: pa.Table) -> Any:
        pat = _lit_str(pk(t), "regexp_replace")
        rep = _lit_str(rk(t), "regexp_replace")
        n = 1
        if fk is not None:
            flags = _lit_str(fk(t), "regexp_replace")
            if "g" in flags:
                n = -1
        return pc.replace_substring_regex(
            _as_array(sk(t), t.num_rows), pattern=pat,
            replacement=rep, max_replacements=n,
        )

    return k


_FUNCS["regexp_replace"] = _regexp_replace_builder


def _regexp_extract_builder(args: list["Kernel"], ctx: "CompileCtx"):
    """regexp_extract(s, pattern) — the whole first match, '' when none
    (DuckDB 2-arg semantics). Vectorized: the pattern wraps in one named
    group for pc.extract_regex (so the user pattern may not define named
    groups of its own — RE2 numbered groups inside are fine)."""
    if len(args) != 2:
        raise ValueError("regexp_extract(s, pattern) takes two arguments")
    sk, pk = args

    def k(t: pa.Table) -> Any:
        pat = _lit_str(pk(t), "regexp_extract")
        s = _as_array(sk(t), t.num_rows)
        hit = pc.extract_regex(s, pattern=f"(?P<__m>{pat})")
        out = pc.struct_field(hit, "__m")
        # DuckDB: no match ⇒ '' (not NULL) — but a NULL input stays NULL
        return pc.if_else(
            pc.is_valid(s), pc.fill_null(out, ""), pa.scalar(None, pa.string())
        )

    return k


_FUNCS["regexp_extract"] = _regexp_extract_builder


def _concat_ws_builder(args: list["Kernel"], ctx: "CompileCtx"):
    """concat_ws(sep, v1, v2, …) — join non-NULL values with sep
    (DuckDB/Postgres skip-NULL semantics; one Arrow kernel)."""
    if len(args) < 2:
        raise ValueError("concat_ws(sep, v1, …) needs a separator + values")
    sepk, vks = args[0], args[1:]

    def k(t: pa.Table) -> Any:
        sep = _lit_str(sepk(t), "concat_ws")
        n = t.num_rows
        # vectorized skip-NULL fold (pyarrow's null_handling="skip" DROPS
        # rows whose every value is NULL — observed on 16.x — so the
        # element-wise kernel can't be used directly): accumulate
        # result + has-any flags, one if_else pass per argument
        sep_arr = pa.array([sep] * n) if n else pa.array([], pa.string())
        res = pa.array([""] * n) if n else pa.array([], pa.string())
        has = pa.array([False] * n) if n else pa.array([], pa.bool_())
        for vk in vks:
            v = _as_array(vk(t), n).cast(pa.string())
            valid = pc.is_valid(v)
            filled = pc.fill_null(v, "")
            joined = pc.binary_join_element_wise(res, filled, sep_arr)
            res = pc.if_else(
                valid, pc.if_else(has, joined, filled), res
            )
            has = pc.or_(has, valid)
        return res

    return k


_FUNCS["concat_ws"] = _concat_ws_builder


def _date_part_builder(args: list["Kernel"], ctx: "CompileCtx"):
    """date_part('part', ts) — dispatches to the EXTRACT kernel family."""
    if len(args) != 2:
        raise ValueError("date_part('part', ts) takes two arguments")
    pk, tk = args

    def k(t: pa.Table) -> Any:
        part = _lit_str(pk(t), "date_part").lower()
        fn = _FUNCS.get(f"timestamp_extract_{part}")
        if fn is None:
            raise ValueError(f"date_part: unknown part {part!r}")
        return fn([tk], ctx)(t)

    return k


_FUNCS["date_part"] = _date_part_builder


def _part_shortcut(part: str):
    def builder(args: list["Kernel"], ctx: "CompileCtx"):
        if len(args) != 1:
            raise ValueError(f"{part}(ts) takes one argument")
        return _FUNCS[f"timestamp_extract_{part}"](args, ctx)

    return builder


def _levenshtein(a: str, b: str) -> int:
    # classic two-row DP; an off-hot-path utility (SURVEY §M10 allows
    # the per-row fallback)
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(
                min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            )
        prev = cur
    return prev[-1]


for _p in ("year", "month", "day", "hour", "minute", "second"):
    _FUNCS[_p] = _part_shortcut(_p)
_FUNCS["char_length"] = _FUNCS["length"]
_FUNCS["character_length"] = _FUNCS["length"]
# instr(haystack, needle) ≡ strpos (registered later in the module —
# resolve lazily)
_FUNCS["instr"] = lambda args, ctx: _FUNCS["strpos"](args, ctx)
_FUNCS["levenshtein"] = _pyrow_str(_levenshtein, pa.int64())
# strftime(ts, fmt) — C-format render (per-row utility fallback)
_FUNCS["strftime"] = _pyrow_str(
    lambda ts, fmt: ts.strftime(fmt), pa.string()
)


def _lit_str(v: Any, fname: str) -> str:
    if isinstance(v, pa.Scalar):
        v = v.as_py()
    if not isinstance(v, str):
        raise ValueError(f"{fname}() needs a string literal argument")
    return v


def _lit_int(v: Any, fname: str) -> int:
    if isinstance(v, pa.Scalar):
        v = v.as_py()
    if not isinstance(v, int) or isinstance(v, bool):
        raise ValueError(f"{fname}() needs an integer literal argument")
    return v


@register_function("nullif")
def _f_nullif(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    ak, bk = args

    def k(t: pa.Table) -> Any:
        a, b = ak(t), bk(t)
        a_arr = _as_array(a, t.num_rows)
        eq = pc.fill_null(pc.equal(a_arr, b), False)
        return pc.if_else(eq, pa.scalar(None, a_arr.type), a_arr)

    return k


@register_function("concat")
def _f_concat(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """String concatenation; NULL arguments become '' (DuckDB CONCAT)."""

    def k(t: pa.Table) -> Any:
        vals = [a(t) for a in args]
        return pc.binary_join_element_wise(
            *vals, "", null_handling="replace", null_replacement=""
        )

    return k


def _str_to_int64(arr: pa.Array) -> tuple[pa.Array, pa.Array]:
    """(is integer literal, its exact int64 value) per string: float64
    holds 53 bits, so such strings must not pass through it. Out-of-range
    literals give NULL."""
    s = pc.utf8_trim_whitespace(arr)
    ok = pc.fill_null(pc.match_substring_regex(s, r"^[+-]?[0-9]+$"), False)
    # Arrow's parser takes no leading '+'
    digits = pc.replace_substring_regex(pc.if_else(ok, s, "0"), r"^\+", "")
    try:
        return ok, pc.cast(digits, pa.int64())
    except pa.ArrowInvalid:  # beyond int64: parse one by one
        lo, hi = -(2**63), 2**63 - 1

        def parse(x: str):
            # over 19 significant digits is out of range: no int() of it
            # (CPython refuses strings over 4300 digits)
            if len(x.lstrip("-").lstrip("0")) > 19:
                return None
            v = int(x)
            return v if lo <= v <= hi else None

        return ok, pa.array([parse(x) for x in digits.to_pylist()], pa.int64())


def _try_cast_builder(target: str):
    """TRY_CAST(x AS T) — NULL where the conversion fails (ENGINE
    EXTENSION, DuckDB parity). String sources coerce vectorized
    (pandas to_numeric/to_datetime errors='coerce' — one C call per
    batch); non-string sources delegate to the engine's strict cast
    (numeric↔numeric conversions don't fail there)."""

    def builder(args: list["Kernel"], ctx: "CompileCtx") -> "Kernel":
        if len(args) != 1:
            raise ValueError("try_cast takes one argument")
        (ak,) = args

        def k(t: pa.Table) -> Any:
            import pandas as pd

            from sqlgrep_ray.schema import parse_type_name

            arr = _as_array(ak(t), t.num_rows)
            is_str = pa.types.is_string(arr.type) or pa.types.is_large_string(
                arr.type
            )
            if target == "string":
                return _cast_value(arr, parse_type_name("string"), t.num_rows)
            if is_str and target in ("int", "float"):
                num = pd.to_numeric(
                    arr.to_pandas(), errors="coerce"
                ).to_numpy(dtype="float64", na_value=np.nan)
                nan = np.isnan(num)
                if target == "float":
                    return pa.array(num, mask=nan)
                # round half away from zero (DuckDB TRY_CAST parity —
                # unlike the engine's strict :: cast, which truncates)
                rounded = np.where(
                    num >= 0, np.floor(num + 0.5), np.ceil(num - 0.5)
                )
                bad = nan | ~(np.abs(rounded) < 2.0**63)
                approx = pa.array(
                    np.where(bad, 0, rounded).astype(np.int64), mask=bad
                )
                is_int, exact = _str_to_int64(arr)
                return pc.if_else(is_int, exact, approx)
            if is_str and target == "timestamp":
                # format="mixed": per-element inference — without it
                # pandas≥2 locks the format of the first non-null value
                ts = pd.to_datetime(
                    arr.to_pandas(), errors="coerce", format="mixed"
                )
                return pa.Array.from_pandas(ts).cast(pa.timestamp("us"))
            if is_str and target == "bool":
                low = pc.utf8_lower(arr)
                true = pc.is_in(low, value_set=pa.array(["true", "t", "1"]))
                false = pc.is_in(low, value_set=pa.array(["false", "f", "0"]))
                return pc.if_else(
                    true,
                    pa.scalar(True),
                    pc.if_else(
                        false, pa.scalar(False), pa.scalar(None, pa.bool_())
                    ),
                )
            return _cast_value(arr, parse_type_name(target), t.num_rows)

        return k

    return builder


for _tgt in ("int", "float", "string", "timestamp", "bool"):
    _FUNCS[f"try_cast_{_tgt}"] = _try_cast_builder(_tgt)


@register_function("if")
def _f_if(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """IF(cond, a, b) — CASE sugar; NULL condition takes the else branch
    (SQL CASE parity)."""
    if len(args) != 3:
        raise ValueError("if(cond, then, else) takes three arguments")

    def k(t: pa.Table) -> Any:
        n = t.num_rows
        cond = pc.fill_null(_as_array(args[0](t), n).cast(pa.bool_()), False)
        return pc.if_else(cond, _as_array(args[1](t), n), _as_array(args[2](t), n))

    return k


@register_function("ifnull")
def _f_ifnull(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """IFNULL(a, b) ≡ COALESCE(a, b)."""
    if len(args) != 2:
        raise ValueError("ifnull(a, b) takes two arguments")
    return _FUNCS["coalesce"](args, ctx)


@register_function("concat_op")
def _f_concat_op(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """The ``||`` operator — NULL-propagating concatenation (SQL
    standard / DuckDB: ``'a' || NULL IS NULL``, unlike CONCAT()).
    Non-string inputs cast to string first (int || str works)."""

    def k(t: pa.Table) -> Any:
        n = t.num_rows
        vals = []
        for a in args:
            v = _as_array(a(t), n)
            if not (
                pa.types.is_string(v.type) or pa.types.is_large_string(v.type)
            ):
                v = v.cast(pa.string())
            vals.append(v)
        return pc.binary_join_element_wise(*vals, "")

    return k


def _f_substring(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """substring(s, start[, len]) — 1-based SQL start, codepoint units
    (matches length()'s char-count convention); start/len literals."""

    def k(t: pa.Table) -> Any:
        s = args[0](t)
        start = _lit_int(args[1](t), "substring")
        if start < 1:
            raise ValueError("substring() start is 1-based (>= 1)")
        if len(args) == 2:
            return pc.utf8_slice_codeunits(s, start=start - 1)
        ln = _lit_int(args[2](t), "substring")
        return pc.utf8_slice_codeunits(s, start=start - 1, stop=start - 1 + max(ln, 0))

    return k


_FUNCS["substring"] = _f_substring
_FUNCS["substr"] = _f_substring


@register_function("left")
def _f_left(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    sk, nk = args

    def k(t: pa.Table) -> Any:
        n = _lit_int(nk(t), "left")
        return pc.utf8_slice_codeunits(sk(t), start=0, stop=max(n, 0))

    return k


@register_function("right")
def _f_right(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    sk, nk = args

    def k(t: pa.Table) -> Any:
        n = _lit_int(nk(t), "right")
        s = sk(t)
        if n <= 0:
            return pc.utf8_slice_codeunits(s, start=0, stop=0)
        return pc.utf8_slice_codeunits(s, start=-n)

    return k


def _f_trim_builder(whitespace_kernel, chars_kernel):
    def build(args: list[Kernel], ctx: CompileCtx) -> Kernel:
        def k(t: pa.Table) -> Any:
            s = args[0](t)
            if len(args) == 1:
                return whitespace_kernel(s)
            return chars_kernel(s, characters=_lit_str(args[1](t), "trim"))

        return k

    return build


_FUNCS["trim"] = _f_trim_builder(pc.utf8_trim_whitespace, pc.utf8_trim)
_FUNCS["ltrim"] = _f_trim_builder(pc.utf8_ltrim_whitespace, pc.utf8_ltrim)
_FUNCS["rtrim"] = _f_trim_builder(pc.utf8_rtrim_whitespace, pc.utf8_rtrim)


def _f_like_builder(ignore_case: bool):
    """SQL LIKE / ILIKE (%, _ wildcards, backslash escapes) — parser
    desugars ``s [NOT] LIKE 'pat'`` into this; NULL input ⇒ false
    (reference NULL⇒false comparison semantics, same as
    regexp_matches)."""

    def build(args: list[Kernel], ctx: CompileCtx) -> Kernel:
        sk, pk = args

        def k(t: pa.Table) -> Any:
            pat = _lit_str(pk(t), "like")
            res = pc.match_like(sk(t), pattern=pat, ignore_case=ignore_case)
            return pc.fill_null(res, False)

        return k

    return build


_FUNCS["_like"] = _f_like_builder(False)
_FUNCS["_ilike"] = _f_like_builder(True)


@register_function("strpos")
def _f_strpos(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """1-based CHARACTER position of the first occurrence, 0 when absent
    (DuckDB strpos). find_substring counts bytes, so multi-byte text
    would drift — instead split once on the needle and measure the
    prefix in codepoints."""
    sk, pk = args

    def k(t: pa.Table) -> Any:
        pat = _lit_str(pk(t), "strpos")
        s = sk(t)
        parts = pc.split_pattern(s, pattern=pat, max_splits=1)
        found = pc.greater(pc.list_value_length(parts), 1)
        prefix_len = pc.utf8_length(pc.list_element(parts, 0))
        return pc.if_else(
            found, pc.add(prefix_len, 1), pc.multiply(prefix_len, 0)
        )

    return k


@register_function("split_part")
def _f_split_part(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """split_part(s, sep, n) — 1-based field; '' past the last field
    (DuckDB). Implemented collision-free for any literal separator by
    padding each string with n extra separators before the split, so
    list_element never sees a too-short list."""
    sk, sepk, nk = args

    def k(t: pa.Table) -> Any:
        sep = _lit_str(sepk(t), "split_part")
        n = _lit_int(nk(t), "split_part")
        if not sep or n < 1:
            raise ValueError("split_part() needs a non-empty separator, n >= 1")
        s = sk(t)
        padded = pc.binary_join_element_wise(s, sep * n, "")
        parts = pc.split_pattern(padded, pattern=sep)
        return pc.list_element(parts, n - 1)

    return k


@register_function("string_to_array")
def _f_string_to_array(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """string_to_array(s, sep) — split on a literal separator into
    list<string> (DuckDB string_split: consecutive separators yield empty
    fields, '' splits to ['']). NULL input ⇒ NULL list. The UNNEST
    companion for pure-SQL tokenization."""
    sk, sepk = args

    def k(t: pa.Table) -> Any:
        sep = _lit_str(sepk(t), "string_to_array")
        if not sep:
            raise ValueError("string_to_array() needs a non-empty separator")
        return pc.split_pattern(sk(t), pattern=sep)

    return k


@register_function("regexp_split_to_array")
def _f_regexp_split_to_array(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """regexp_split_to_array(s, pattern) — split on an RE2 regex into
    list<string> (DuckDB regexp_split_to_array). NULL input ⇒ NULL."""
    sk, pk = args

    def k(t: pa.Table) -> Any:
        pat = _lit_str(pk(t), "regexp_split_to_array")
        return pc.split_pattern_regex(sk(t), pattern=pat)

    return k


@register_function("regexp_matches")
def _f_regexp_matches(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    sk, pk = args

    def k(t: pa.Table) -> Any:
        pat = pk(t)
        pat_s = pat.as_py() if isinstance(pat, pa.Scalar) else pat
        res = pc.match_substring_regex(sk(t), pattern=pat_s)
        return pc.fill_null(res, False)  # NULL input ⇒ false (:305-317)

    return k


@register_function("create_array")
def _f_create_array(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """array[a, b, c] — one list row per input row. Vectorized since
    round 5 (VERDICT r4 #8): concat the k element columns and take with
    the interleave pattern (row i reads positions i, n+i, 2n+i, …) — one
    concat + one take, no Python per row. Heterogeneous element types
    (e.g. mixed int/string literals) keep the builder fallback, which
    lets pa.array infer the common type exactly as before."""

    def k(t: pa.Table) -> Any:
        n = t.num_rows
        cols = [_as_array(a(t), n) for a in args]
        cols = [
            c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
            for c in cols
        ]
        kk = len(cols)
        if kk and n and len({str(c.type) for c in cols}) == 1:
            values = pa.concat_arrays(cols)
            take_idx = (
                np.arange(kk, dtype=np.int64)[None, :] * n
                + np.arange(n, dtype=np.int64)[:, None]
            ).ravel()
            offs = pa.array(
                (np.arange(n + 1, dtype=np.int64) * kk).astype(np.int32)
            )
            return pa.ListArray.from_arrays(
                offs, values.take(pa.array(take_idx))
            )
        rows = list(zip(*(c.to_pylist() for c in cols))) if cols else []
        return pa.array([list(r) for r in rows])

    return k


@register_function("array_unique")
def _f_array_unique(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """Sorted distinct non-NULL elements per list (BTreeSet semantics,
    :333-343, :642-645); NULL list ⇒ NULL. Vectorized since round 5
    (VERDICT r4 #8): flatten to a (row, value) table, drop NULL values,
    ONE pc.sort_indices over (row asc, value asc) — any element type —
    dedup adjacent equals with a shifted compare, and rebuild offsets
    from per-row counts. No Python per row."""
    (ak,) = args

    def k(t: pa.Table) -> Any:
        arr = _as_array(ak(t), t.num_rows)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = len(arr)
        null_rows = pc.is_null(arr).to_numpy(zero_copy_only=False)
        # offsets are ABSOLUTE into .values (flatten() would compact
        # away null-row extents and break the indexing)
        offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        values = arr.values
        lens = offsets[1:] - offsets[:-1]
        # NULL rows still have offset extents; zero them out of the scan
        lens = np.where(null_rows, 0, lens)
        starts = offsets[:-1]
        rowid = np.repeat(np.arange(n, dtype=np.int64), lens)
        within = (
            np.arange(len(rowid), dtype=np.int64)
            - np.repeat(np.cumsum(lens) - lens, lens)
        )
        flat_idx = np.repeat(starts, lens) + within
        vals = values.take(pa.array(flat_idx)) if len(flat_idx) else values.slice(0, 0)
        keep = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        rowid, vals = rowid[keep], vals.filter(pa.array(keep))
        pair = pa.table({"__r": pa.array(rowid), "__v": vals})
        order = pc.sort_indices(
            pair, [("__r", "ascending"), ("__v", "ascending")]
        )
        pair = pair.take(order)
        m = pair.num_rows
        if m:
            r = pair["__r"].combine_chunks()
            v = pair["__v"].combine_chunks()
            same_r = pc.equal(r.slice(1), r.slice(0, m - 1)).to_numpy(
                zero_copy_only=False
            )
            same_v = pc.equal(v.slice(1), v.slice(0, m - 1)).to_numpy(
                zero_copy_only=False
            )
            first = np.r_[True, ~(same_r & same_v)]
            pair = pair.filter(pa.array(first))
            rowid = pair["__r"].to_numpy(zero_copy_only=False)
            out_vals = pair["__v"].combine_chunks()
        else:
            rowid = np.array([], np.int64)
            out_vals = vals
        counts = np.bincount(rowid, minlength=n).astype(np.int64)
        offs = np.zeros(n + 1, np.int64)
        np.cumsum(counts, out=offs[1:])
        return pa.ListArray.from_arrays(
            pa.array(offs.astype(np.int32)),
            out_vals.cast(arr.type.value_type),
            mask=pa.array(null_rows),
        )

    return k


def _rowwise_list_concat(
    parts: "list[tuple[pa.Array, np.ndarray, np.ndarray]]",
    null_mask: np.ndarray,
    n: int,
) -> pa.Array:
    """Vectorized per-row concatenation of value segments: ``parts`` is an
    ordered list of (values array, per-row lengths USED, per-row index of
    the row's FIRST value within the part's layout); output row i =
    part0[i] ++ part1[i] ++ …, NULL where ``null_mask``. One lexsort +
    one take — no Python per row (the VERDICT r3 #4 conversion)."""
    lens_out = np.zeros(n, np.int64)
    rowids, flags, positions = [], [], []
    vals = []
    base = 0
    for flag, (v, lens, layout_starts) in enumerate(parts):
        lens = np.where(null_mask, 0, lens).astype(np.int64)
        total = int(lens.sum())
        if total:
            rowids.append(np.repeat(np.arange(n), lens))
            flags.append(np.full(total, flag, np.int8))
            cum_excl = np.r_[0, np.cumsum(lens)[:-1]]
            within = np.arange(total, dtype=np.int64) - np.repeat(cum_excl, lens)
            positions.append(np.repeat(layout_starts, lens) + within + base)
        vals.append(v)
        base += len(v)
        lens_out += lens
    values = pa.concat_arrays(
        [v.combine_chunks() if isinstance(v, pa.ChunkedArray) else v for v in vals]
    )
    if rowids:
        rowid = np.concatenate(rowids)
        order = np.lexsort((np.concatenate(flags), rowid))
        take_idx = np.concatenate(positions)[order]
        out_vals = values.take(pa.array(take_idx))
    else:
        out_vals = values.slice(0, 0)
    offs = np.zeros(n + 1, np.int64)
    np.cumsum(lens_out, out=offs[1:])
    return pa.ListArray.from_arrays(
        pa.array(offs.astype(np.int32)),
        out_vals,
        mask=pa.array(null_mask),
    )


def _list_parts(arr: pa.Array):
    """(flattened values, per-row lengths with nulls→0, per-row layout
    starts, null mask) of a list column. ``list_flatten`` skips null
    rows, so the layout start of row i is the exclusive cumsum of the
    lengths."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    null_mask = pc.is_null(arr).to_numpy(zero_copy_only=False)
    lens = pc.fill_null(pc.list_value_length(arr), 0).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    starts = np.r_[0, np.cumsum(lens)[:-1]]
    return pc.list_flatten(arr), lens, starts, null_mask


@register_function("array_cat")
def _f_array_cat(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    ak, bk = args

    def k(t: pa.Table) -> Any:
        n = t.num_rows
        a, b = _as_array(ak(t), n), _as_array(bk(t), n)
        va, la, sa, na = _list_parts(a)
        vb, lb, sb, nb = _list_parts(b)
        return _rowwise_list_concat(
            [(va, la, sa), (vb, lb, sb)], na | nb, n
        )

    return k


def _f_append_builder(prepend: bool):
    def build(args: list[Kernel], ctx: CompileCtx) -> Kernel:
        vk, ak = args if prepend else (args[1], args[0])

        def k(t: pa.Table) -> Any:
            n = t.num_rows
            a = _as_array(ak(t), n)
            v = _as_array(vk(t), n)
            va, la, sa, na = _list_parts(a)
            # the appended element keeps NULL values as elements
            # (reference `x + [y]` semantics); only a NULL LIST nulls
            # the row
            ones = np.ones(n, np.int64)
            idx = np.arange(n, dtype=np.int64)
            el = (v, ones, idx)
            parts = [el, (va, la, sa)] if prepend else [(va, la, sa), el]
            return _rowwise_list_concat(parts, na, n)

        return k

    return build


_FUNCS["array_append"] = _f_append_builder(False)
_FUNCS["array_prepend"] = _f_append_builder(True)


@register_function("power")
def _f_power(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """power(x, y) — pc.power (DuckCB pow); integer bases stay integer
    for integer exponents (Arrow semantics)."""
    xk, yk = args
    return lambda t: pc.power(xk(t), yk(t))


@register_function("truncate")
def _f_truncate(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """truncate(x) — toward-zero integral part, float in float out."""
    (xk,) = args
    return lambda t: pc.trunc(xk(t))


_FUNCS["trunc"] = _FUNCS["truncate"]


def _f_pad_builder(side: str) -> Callable:
    def build(args: list[Kernel], ctx: CompileCtx) -> Kernel:
        sk, nk = args[0], args[1]
        pk = args[2] if len(args) > 2 else None

        def k(t: pa.Table) -> Any:
            n = _lit_int(nk(t), f"{side}pad")
            fill = _lit_str(pk(t), f"{side}pad") if pk is not None else " "
            if len(fill) != 1:
                # Arrow pads with a single codepoint; DuckDB repeats a
                # multi-char fill — restrict to the common case
                raise ValueError(f"{side}pad() fill must be one character")
            fn = pc.utf8_lpad if side == "l" else pc.utf8_rpad
            out = fn(sk(t), width=n, padding=fill)
            # Postgres/DuckDB truncate overlong inputs to the target
            # width (keeping the leftmost chars for both sides); Arrow
            # leaves them unchanged — slice to reconcile.
            return pc.utf8_slice_codeunits(out, start=0, stop=n)

        return k

    return build


_FUNCS["lpad"] = _f_pad_builder("l")
_FUNCS["rpad"] = _f_pad_builder("r")


@register_function("pi")
def _f_pi(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    if args:
        raise ValueError("pi() takes no arguments")
    return lambda t: pa.scalar(math.pi, pa.float64())


@register_function("array_contains")
def _f_array_contains(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    """array_contains(list, v) / list_contains — membership per row
    (DuckDB list_contains: NULL list ⇒ NULL; NULL elements never match).
    Vectorized: one equality over the flattened values, segment-any via
    np.maximum.reduceat over the list offsets."""
    lk, vk = args

    def k(t: pa.Table) -> Any:
        n = t.num_rows
        arr = _as_array(lk(t), n)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        if pa.types.is_null(arr.type):
            return pa.nulls(n, pa.bool_())
        null_rows = pc.is_null(arr).to_numpy(zero_copy_only=False)
        # offsets are ABSOLUTE into .values (see array_unique): null rows
        # keep their extents, so index through (start + within), not
        # flatten(), and zero null rows out of the scan
        offsets = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        starts, lens = offsets[:-1], offsets[1:] - offsets[:-1]
        lens = np.where(null_rows, 0, lens)
        rowid = np.repeat(np.arange(n, dtype=np.int64), lens)
        within = (
            np.arange(len(rowid), dtype=np.int64)
            - np.repeat(np.cumsum(lens) - lens, lens)
        )
        flat_idx = np.repeat(starts, lens) + within
        vals = (
            arr.values.take(pa.array(flat_idx))
            if len(flat_idx)
            else arr.values.slice(0, 0)
        )
        v = vk(t)
        eq = (
            pc.fill_null(
                pc.equal(vals, v if isinstance(v, pa.Scalar) else pa.scalar(v)),
                False,
            )
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        res = np.bincount(rowid, weights=eq, minlength=n) > 0
        return pa.array(res, mask=null_rows)

    return k


_FUNCS["list_contains"] = _FUNCS["array_contains"]


@register_function("now")
def _f_now(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    pinned = ctx.now

    def k(t: pa.Table) -> Any:
        val = pinned if pinned is not None else _dt.datetime.now()
        return pa.scalar(val, pa.timestamp("us"))

    return k


@register_function("make_timestamp")
def _f_make_timestamp(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    def k(t: pa.Table) -> Any:
        n = t.num_rows
        parts = [_as_array(a(t), n).to_pylist() for a in args]
        while len(parts) < 7:
            parts.append([0] * n)
        out = []
        for y, mo, d, h, mi, s, us in zip(*parts):
            if None in (y, mo, d, h, mi, s):
                out.append(None)
                continue
            try:
                out.append(_dt.datetime(y, mo, d, h, mi, s, us or 0))
            except ValueError:
                out.append(None)  # invalid date ⇒ NULL (:405-416)
        return pa.array(out, pa.timestamp("us"))

    return k


def _extract_builder(part: str):
    def builder(args: list[Kernel], ctx: CompileCtx) -> Kernel:
        (ak,) = args
        if part == "epoch":
            # millis/1000 as float (:417-458)
            def k_epoch(t: pa.Table) -> Any:
                us = _as_array(ak(t), t.num_rows).cast(pa.int64())
                ms = pc.divide(us, 1000)
                return pc.divide(ms.cast(pa.float64()), 1000.0)

            return k_epoch
        fn = {
            "year": pc.year,
            "month": pc.month,
            "day": pc.day,
            "hour": pc.hour,
            "minute": pc.minute,
            "second": pc.second,
        }[part]
        return lambda t: fn(ak(t)).cast(pa.int64())

    return builder


for _part in ("epoch", "year", "month", "day", "hour", "minute", "second"):
    _FUNCS[f"timestamp_extract_{_part}"] = _extract_builder(_part)


@register_function("date_trunc")
def _f_date_trunc(args: list[Kernel], ctx: CompileCtx) -> Kernel:
    pk, ak = args

    def k(t: pa.Table) -> Any:
        part = pk(t)
        part_s = (part.as_py() if isinstance(part, pa.Scalar) else part).lower()
        unit = {
            "year": "year",
            "month": "month",
            "day": "day",
            "hour": "hour",
            "minute": "minute",
            "second": "second",
            "milliseconds": "millisecond",
            "microseconds": "microsecond",
        }[part_s]
        return pc.floor_temporal(ak(t), unit=unit)

    return k


# ---------------------------------------------------------------------------
# Public helpers
# ---------------------------------------------------------------------------


def compile_predicate(expr: Expr, ctx: Optional[CompileCtx] = None) -> Callable[[pa.Table], pa.Array]:
    """WHERE-style predicate: rows pass iff the value is exactly TRUE
    (NULL ⇒ false — select_execution.rs:21-25)."""
    k = compile_expr(expr, ctx)

    def pred(t: pa.Table) -> pa.Array:
        v = k(t)
        v = _as_array(v, t.num_rows)
        if not pa.types.is_boolean(v.type):
            return pa.array(np.zeros(t.num_rows, dtype=bool))
        return pc.fill_null(v, False)

    return pred


def col(name: str) -> Col:
    return Col(name)


def lit(value: Any, vtype: Optional[VType] = None) -> Lit:
    return Lit(value, vtype)
