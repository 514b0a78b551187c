"""SQL front-end — the reference dialect → plan dataclasses.

Re-implements sqlgrep's three-layer front-end (tokenizer
``src/parsing/tokenizer.rs:311-519``, precedence-climbing parser
``src/parsing/parser.rs:216-1129``, AST→statement converter
``src/parsing/parser_tree_converter.rs:82-755``; dialect spec
``README.md:48-142``) as a compact recursive-descent parser producing the
SAME dataclasses the rest of the engine executes
(:mod:`sqlgrep_ray.pipelines.plan`, :mod:`sqlgrep_ray.schema`), so every
construct is testable with or without SQL.

Supported surface (the reference's full dialect):
* ``CREATE TABLE`` with named patterns (captures + ``split`` modes), inline
  anonymous patterns, multi-group array/timestamp columns, ``{ .a.b[2] }``
  JSON paths, and the NOT NULL / TRIM / CONVERT / DEFAULT / MICROSECONDS
  modifiers;
* ``SELECT`` with projections (aliases; reference default names: column
  name, ``count{i}`` for COUNT, else ``p{i}``), WHERE, GROUP BY (arbitrary
  expressions), HAVING (with aggregates not in the projection list → hidden
  ``__having{i}`` slots), DISTINCT, LIMIT, INNER/OUTER JOIN … ON,
  ``FROM table::'file'`` bindings;
* expressions: precedence-climbing operators, ``IS [NOT]``, ``[NOT] IN``,
  ``CASE``, ``EXTRACT(part FROM ts)``, 1-based ``x[i]`` indexing, ``::type``
  casts, ``array[…]`` literals, ``--`` comments, ``\\``-escaped strings.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass, field
from typing import Any, Optional, Union

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
    AggItem,
    AggregatePlan,
    GroupKey,
    Plan,
    Projection,
    SelectPlan,
    WindowSpec,
)
from sqlgrep_ray.schema import (
    BOOL,
    FLOAT,
    INT,
    STRING,
    ColumnDef,
    JsonPath,
    MultiRegex,
    PatternDef,
    RegexCapture,
    RegexRef,
    TableDef,
    VType,
    parse_type_name,
)

AGGREGATE_FUNCS = {
    "count", "min", "max", "sum", "avg", "stddev", "variance",
    "percentile", "bool_and", "bool_or", "array_agg", "string_agg",
    # ENGINE EXTENSION: statistical family — sample forms (n−1, NULL
    # below two observations), pop-name aliases, two-column covariance/
    # correlation (pairwise NULL semantics), MEDIAN as percentile 0.5
    "stddev_samp", "var_samp", "stddev_pop", "var_pop",
    "covar_pop", "covar_samp", "corr", "median",
    # ENGINE EXTENSION: HLL++-backed approximate COUNT(DISTINCT) — the
    # fixed-size-sketch scale path (runner._approx_count_distinct_path)
    "approx_count_distinct",
    # ENGINE EXTENSION: most-frequent value, ties to the smallest
    # (deterministic; runner._mode_path — two bounded shuffles)
    "mode",
}

# reference function-name → engine kernel name (parser_tree_converter.rs:313-341)
_FUNC_ALIASES = {"regex_matches": "regexp_matches"}


class SqlError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>--[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:\\.|[^'\\])*')
  | (?P<dcolon>::)
  | (?P<concat>\|\|)
  | (?P<arrow>=>)
  | (?P<ne><>|!=)
  | (?P<le><=) | (?P<ge>>=)
  | (?P<op>[=<>+\-*/(),;\[\]{}.])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Tok:
    kind: str  # number | string | ident | op  (op value holds the symbol)
    value: Any
    pos: int


def tokenize(text: str) -> list[Tok]:
    out: list[Tok] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise SqlError(f"bad character {text[i]!r} at {i}")
        i = m.end()
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        v = m.group()
        if kind == "number":
            out.append(Tok("number", float(v) if "." in v else int(v), m.start()))
        elif kind == "string":
            body = v[1:-1]
            body = re.sub(r"\\(.)", lambda mm: mm.group(1), body)
            out.append(Tok("string", body, m.start()))
        elif kind == "ident":
            out.append(Tok("ident", v, m.start()))
        else:  # operators incl. multi-char
            out.append(Tok("op", v, m.start()))
    return out


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@dataclass
class Query:
    """A parsed query statement bound to a logical table."""

    plan: Plan
    table: str
    file: Optional[str] = None  # FROM table::'file'
    join_table: Optional[str] = None
    join_file: Optional[str] = None
    join_left_col: Optional[str] = None
    join_right_col: Optional[str] = None
    join_how: Optional[str] = None  # inner | left
    # ``col IN (SELECT …)`` conjuncts lifted out of WHERE — ENGINE
    # EXTENSION; executed as exact bloom-accelerated semi/anti-joins.
    # Entries are (column name, subquery statement, negated). Correlated
    # ``[NOT] EXISTS`` conjuncts decorrelate into the same entries.
    in_subqueries: tuple = ()
    # Correlated SCALAR-aggregate comparison conjuncts lifted out of
    # WHERE — ``t.x <op> (SELECT AGG(y) FROM r WHERE r.k = t.k …)``
    # decorrelated into a per-key aggregate + size-gated LEFT join +
    # streaming filter. Entries are (outer_col, subquery, key_col,
    # val_col, op, other_expr, sub_on_left, count_like).
    corr_scalars: tuple = ()
    # Derived tables — ``FROM (SELECT …) [AS] alias`` and
    # ``JOIN (SELECT …) [AS] alias`` (ENGINE EXTENSION). Entries are
    # (alias, Query | SetQuery); the alias is what ``table`` /
    # ``join_table`` name, and the executor binds it like a
    # member-scoped CTE (evaluated once, shadowing outer names).
    derived: tuple = ()
    # ``FROM t [AS] a`` / ``JOIN r [AS] b`` aliases (ENGINE EXTENSION).
    # ``table``/``join_table`` keep the REAL names (source resolution);
    # qualified column references accept either spelling, and the join
    # alias (when given) becomes the output-column prefix.
    table_alias: Optional[str] = None
    join_alias: Optional[str] = None
    # Multi-join chains (ENGINE EXTENSION): joins past the first, applied
    # in declaration order as further broadcast stages. Entries are
    # (table, file, alias, left_key, right_key, how); a stream-side key
    # owned by an earlier join is pre-resolved to its prefixed name.
    extra_joins: tuple = ()


@dataclass
class SetQuery:
    """``SELECT … {UNION|INTERSECT|EXCEPT} [ALL] SELECT … [ORDER BY …]
    [LIMIT n]``.

    ENGINE EXTENSION — the reference dialect has no set operations
    (parser.rs has no UNION token). Members are plain :class:`Query`
    statements whose plans carry no ORDER BY/LIMIT of their own; the
    trailing ORDER BY / LIMIT bind to the whole set, and plain UNION
    (``all=False``) deduplicates the concatenated rows. Members must
    produce identical column names (set ops are by name, not position —
    no positional coercion). ``op`` is uniform across the chain (mixing
    operators needs standard-SQL precedence and is rejected, like mixed
    UNION / UNION ALL). INTERSECT/EXCEPT follow bag semantics under ALL
    (multiplicities min(...) / max(first − rest, 0)); a chain folds
    left-associatively, which for a uniform op equals the one-shot
    multiplicity formula."""

    queries: tuple  # of Query
    all: bool = True
    order_by: tuple = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    op: str = "union"  # union | intersect | except


@dataclass
class WithQuery:
    """``WITH name AS (query) [, …] body`` — ENGINE EXTENSION.

    Each CTE is a :class:`Query` or :class:`SetQuery`; later CTEs and
    the body may name earlier CTEs in FROM (no recursion, no nested
    WITH)."""

    ctes: tuple  # of (name, Query | SetQuery)
    body: Union[Query, SetQuery]


Statement = Union[TableDef, Query, SetQuery, WithQuery]

_PRECEDENCE = {
    "or": 1, "and": 2,
    "=": 4, "!=": 4, "<>": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "is": 4, "in": 4, "like": 4, "ilike": 4, "between": 4,
    "+": 5, "-": 5, "||": 5, "*": 6, "/": 6,
}
# Row bound standing in for UNBOUNDED on one side of a bounded ROWS
# frame: far beyond any real partition length (row positions are block-
# local int64 ordinals ≪ 2^40), yet max(first, pos − B) / min(end,
# pos + B) stay well inside int64 — the window kernels clamp it to the
# partition edge with no special case.
_FRAME_UNBOUNDED = 1 << 62

_CMP_OPS = {"=": "eq", "!=": "ne", "<>": "ne", "<": "lt", "<=": "le",
            ">": "gt", ">=": "ge", "+": "add", "-": "sub", "*": "mul", "/": "div"}
_EXTRACT_PARTS = {"epoch", "year", "month", "day", "hour", "minute", "second"}

# idents that can follow a FROM/JOIN table and are NOT a bare alias —
# every keyword that may legally start the next clause
_ALIAS_STOP = frozenset(
    {
        "where", "group", "having", "order", "limit", "offset", "qualify",
        "union", "intersect", "except", "inner", "left", "right", "full",
        "outer", "cross", "join", "on", "using", "as", "select", "from",
        "with",
    }
)


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    # -- token helpers -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Optional[Tok]:
        j = self.i + ahead
        return self.toks[j] if j < len(self.toks) else None

    def next(self) -> Tok:
        t = self.peek()
        if t is None:
            raise SqlError("unexpected end of input")
        self.i += 1
        return t

    def at_kw(self, *kws: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "ident" and t.value.lower() in kws

    def eat_kw(self, *kws: str) -> bool:
        if self.at_kw(*kws):
            self.i += 1
            return True
        return False

    def expect_kw(self, kw: str) -> None:
        if not self.eat_kw(kw):
            raise SqlError(f"expected {kw.upper()!r} at token {self.peek()}")

    def at_op(self, *ops: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "op" and t.value in ops

    def eat_op(self, *ops: str) -> bool:
        if self.at_op(*ops):
            self.i += 1
            return True
        return False

    def expect_op(self, op: str) -> None:
        if not self.eat_op(op):
            raise SqlError(f"expected {op!r} at token {self.peek()}")

    def expect_ident(self) -> str:
        t = self.next()
        if t.kind != "ident":
            raise SqlError(f"expected identifier, got {t}")
        return t.value

    def parse_frame_clause(self) -> tuple[str, Optional[float], Optional[int]]:
        """Optional window frame. Returns ``(frame, preceding, following)``:
        frame is "range" (the SQL default, also when absent), "rows", or
        "full" (unbounded → unbounded: the whole partition). UNBOUNDED on
        exactly one side of a bounded ROWS frame lowers to the
        ``_FRAME_UNBOUNDED`` row count, which the kernels clamp to the
        partition edge — no special-casing downstream.

        Supported bounded forms (round-5 extension, VERDICT r4 #7):
        * ``ROWS BETWEEN <n> PRECEDING AND CURRENT ROW`` → ("rows", n, None)
        * ``ROWS BETWEEN <n> PRECEDING AND <m> FOLLOWING`` → ("rows", n, m)
        * ``ROWS BETWEEN CURRENT ROW AND <m> FOLLOWING`` → ("rows", 0, m)
        * ``RANGE BETWEEN <x> PRECEDING AND CURRENT ROW`` → ("range", x, None)
          — x numeric (order-VALUE lookback; the order column must be
          numeric, and the frame spans rows with order ≥ current − x
          through the current row's peers).
        * ``RANGE BETWEEN [INTERVAL] '<H:M:S>' PRECEDING AND CURRENT ROW``
          → ("range", microseconds, None) — trailing TIME window per row
          over a timestamp order column (the interval literal uses the
          dialect's H:M:S form, parse.py:_parse_interval_us; timestamps
          are µs, so the lookback is the µs count)."""
        if not (self.at_kw("rows") or self.at_kw("range")):
            return "range", None, None
        kind = self.expect_ident().lower()
        self.expect_kw("between")
        preceding: Optional[float] = None
        if self.eat_kw("current"):
            # CURRENT ROW AND <m> FOLLOWING (0-lookback sliding window);
            # for RANGE the start is the first PEER (preceding=0 value
            # offset — SQL's RANGE CURRENT ROW start)
            self.expect_kw("row")
            self.expect_kw("and")
            if kind == "range":
                y = self._parse_range_bound()
                self.expect_kw("following")
                return "range", 0.0, y
            t = self.next()
            if t.kind != "number" or isinstance(t.value, float):
                raise SqlError(
                    f"expected an integer before FOLLOWING, got {t}"
                )
            self.expect_kw("following")
            return "rows", 0, int(t.value)
        if not self.eat_kw("unbounded"):
            if kind == "range" and (
                self.at_kw("interval")
                or (self.peek() is not None and self.peek().kind == "string")
            ):
                # trailing time window: [INTERVAL] 'H:M:S' PRECEDING
                self.eat_kw("interval")
                t = self.next()
                if t.kind != "string":
                    raise SqlError(
                        f"expected an 'H:M:S' interval literal, got {t}"
                    )
                from sqlgrep_ray.stages.parse import _parse_interval_us

                us = _parse_interval_us(t.value)
                if us is None:
                    raise SqlError(
                        f"bad interval literal {t.value!r} (want 'H:M:S')"
                    )
                preceding = us
            else:
                t = self.next()
                if t.kind != "number":
                    raise SqlError(
                        f"expected UNBOUNDED, CURRENT ROW, a number or an "
                        f"interval before PRECEDING, got {t}"
                    )
                if kind == "rows" and isinstance(t.value, float):
                    raise SqlError("ROWS frames need an integer bound")
                preceding = t.value if kind == "range" else int(t.value)
            self.expect_kw("preceding")
            self.expect_kw("and")
            if self.eat_kw("current"):
                self.expect_kw("row")
                return kind, preceding, None
            if self.eat_kw("unbounded"):
                # n PRECEDING AND UNBOUNDED FOLLOWING: the huge bound
                # clamps to the partition end inside the kernel
                self.expect_kw("following")
                return kind, preceding, _FRAME_UNBOUNDED
            if kind == "range":
                # RANGE x PRECEDING AND y FOLLOWING: value offsets both
                # ways (round-5 extension; numeric or interval bounds)
                y = self._parse_range_bound()
                self.expect_kw("following")
                return "range", preceding, y
            t = self.next()
            if t.kind != "number" or isinstance(t.value, float):
                raise SqlError(
                    f"expected an integer before FOLLOWING, got {t}"
                )
            self.expect_kw("following")
            return "rows", preceding, int(t.value)
        self.expect_kw("preceding")
        self.expect_kw("and")
        if self.eat_kw("unbounded"):
            self.expect_kw("following")
            return "full", None, None
        if self.peek() is not None and (
            self.peek().kind == "number"
            or (
                kind == "range"
                and (self.at_kw("interval") or self.peek().kind == "string")
            )
        ):
            # UNBOUNDED PRECEDING AND m FOLLOWING: huge lookback clamps to
            # the partition start — max(first, pos - _FRAME_UNBOUNDED)
            if kind == "range":
                y = self._parse_range_bound()
                self.expect_kw("following")
                return "range", float(_FRAME_UNBOUNDED), y
            t = self.next()
            if isinstance(t.value, float):
                raise SqlError("ROWS frames need an integer bound")
            self.expect_kw("following")
            return "rows", _FRAME_UNBOUNDED, int(t.value)
        self.expect_kw("current")
        self.expect_kw("row")
        return kind, None, None

    def _parse_range_bound(self) -> float:
        """A RANGE frame offset: a number (order-VALUE distance) or an
        ``[INTERVAL] 'H:M:S'`` literal (µs distance over a timestamp
        order column)."""
        if self.at_kw("interval") or (
            self.peek() is not None and self.peek().kind == "string"
        ):
            self.eat_kw("interval")
            t = self.next()
            if t.kind != "string":
                raise SqlError(
                    f"expected an 'H:M:S' interval literal, got {t}"
                )
            from sqlgrep_ray.stages.parse import _parse_interval_us

            us = _parse_interval_us(t.value)
            if us is None:
                raise SqlError(
                    f"bad interval literal {t.value!r} (want 'H:M:S')"
                )
            return us
        t = self.next()
        if t.kind != "number":
            raise SqlError(
                f"expected a number or interval before FOLLOWING, got {t}"
            )
        return t.value

    # -- statements --------------------------------------------------------

    def parse_statements(self) -> list[Statement]:
        out: list[Statement] = []
        while self.peek() is not None:
            if self.at_kw("create"):
                out.append(self.parse_create_table())
            elif self.at_kw("select", "with"):
                out.append(self.parse_query())
            else:
                raise SqlError(
                    f"expected CREATE, SELECT or WITH at {self.peek()}"
                )
            self.eat_op(";")
        return out

    # -- CREATE TABLE ------------------------------------------------------

    def parse_create_table(self) -> TableDef:
        self.expect_kw("create")
        self.expect_kw("table")
        name = self.expect_ident()
        self.expect_op("(")
        patterns: list[PatternDef] = []
        columns: list[ColumnDef] = []
        anon = 0
        while not self.at_op(")"):
            t = self.peek()
            if t.kind == "string":
                # inline anonymous pattern: 'regex' => col TYPE (group 1)
                regex = self.next().value
                anon += 1
                pname = f"_pattern{anon}"
                patterns.append(PatternDef(pname, regex, "captures"))
                self.expect_op("=>")
                columns.append(self._parse_column([RegexRef(pname, 1)]))
            elif t.kind == "op" and t.value == "{":
                path = self._parse_json_path()
                self.expect_op("=>")
                columns.append(self._parse_column(None, json_path=path))
            elif t.kind == "ident":
                pname = self.expect_ident()
                if self.eat_op("="):
                    # pattern definition: name = ['split'] 'regex'
                    mode = "captures"
                    if self.eat_kw("split"):
                        mode = "split"
                    rtok = self.next()
                    if rtok.kind != "string":
                        raise SqlError(f"expected regex string, got {rtok}")
                    patterns.append(PatternDef(pname, rtok.value, mode))
                elif self.at_op("["):
                    # group refs: name[i][, name[j] ...] => col TYPE
                    refs = [self._parse_group_ref(pname)]
                    while self.at_op(",") and self._lookahead_is_group_ref():
                        self.expect_op(",")
                        refs.append(self._parse_group_ref(self.expect_ident()))
                    self.expect_op("=>")
                    columns.append(self._parse_column(refs))
                else:
                    raise SqlError(f"bad table entry at {self.peek()}")
            else:
                raise SqlError(f"bad table entry at {t}")
            self.eat_op(",")
        self.expect_op(")")
        return TableDef(name, patterns, columns)

    def _lookahead_is_group_ref(self) -> bool:
        # after a ',', a group ref looks like: ident '['
        t1, t2 = self.peek(1), self.peek(2)
        return (
            t1 is not None and t1.kind == "ident"
            and t2 is not None and t2.kind == "op" and t2.value == "["
        )

    def _parse_group_ref(self, pname: str) -> RegexRef:
        self.expect_op("[")
        idx = self.next()
        if idx.kind != "number" or isinstance(idx.value, float):
            raise SqlError(f"expected integer group index, got {idx}")
        self.expect_op("]")
        return RegexRef(pname, int(idx.value))

    def _parse_json_path(self) -> tuple[Union[str, int], ...]:
        self.expect_op("{")
        parts: list[Union[str, int]] = []
        while not self.at_op("}"):
            if self.eat_op("."):
                parts.append(self.expect_ident())
            elif self.eat_op("["):
                idx = self.next()
                if idx.kind != "number":
                    raise SqlError(f"expected index in json path, got {idx}")
                parts.append(int(idx.value))
                self.expect_op("]")
            else:
                raise SqlError(f"bad json path at {self.peek()}")
        self.expect_op("}")
        if not parts:
            raise SqlError("empty json path")
        return tuple(parts)

    def _parse_column(
        self,
        refs: Optional[list[RegexRef]],
        json_path: Optional[tuple[Union[str, int], ...]] = None,
    ) -> ColumnDef:
        cname = self.expect_ident()
        vtype = self._parse_type()
        kwargs: dict[str, Any] = {}
        while True:
            if self.eat_kw("not"):
                self.expect_kw("null")
                kwargs["not_null"] = True
            elif self.eat_kw("trim"):
                kwargs["trim"] = True
            elif self.eat_kw("convert"):
                kwargs["convert"] = True
            elif self.eat_kw("microseconds"):
                kwargs["microseconds"] = True
            elif self.eat_kw("default"):
                kwargs["default"] = self._parse_literal_value()
            else:
                break
        if json_path is not None:
            parsing: Any = JsonPath(json_path)
        elif refs is not None and len(refs) > 1:
            parsing = MultiRegex(tuple(refs))
        else:
            assert refs is not None
            parsing = RegexCapture(refs[0])
        return ColumnDef(cname, vtype, parsing, **kwargs)

    def _parse_type(self) -> VType:
        base = self.expect_ident()
        depth = 0
        while self.at_op("[") and (
            self.peek(1) is not None
            and self.peek(1).kind == "op"
            and self.peek(1).value == "]"
        ):
            self.expect_op("[")
            self.expect_op("]")
            depth += 1
        try:
            return parse_type_name(base + "[]" * depth)
        except ValueError as e:
            raise SqlError(str(e)) from None

    def _parse_literal_value(self) -> Any:
        t = self.next()
        if t.kind in ("number", "string"):
            return t.value
        if t.kind == "ident":
            lv = t.value.lower()
            if lv == "true":
                return True
            if lv == "false":
                return False
            if lv == "null":
                return None
        raise SqlError(f"expected literal, got {t}")

    # -- SELECT ------------------------------------------------------------

    def parse_query(self) -> Union[Query, "SetQuery", "WithQuery"]:
        """Entry point for one query statement: WITH / SELECT / UNION."""
        if self.at_kw("with"):
            return self.parse_with_query()
        return self.parse_set_query()

    def parse_with_query(self) -> "WithQuery":
        self.expect_kw("with")
        ctes: list[tuple[str, Union[Query, SetQuery]]] = []
        seen: set[str] = set()
        while True:
            name = self.expect_ident()
            if name in seen:
                raise SqlError(f"duplicate CTE name {name!r}")
            seen.add(name)
            self.expect_kw("as")
            self.expect_op("(")
            q = self.parse_set_query()  # nested WITH not supported
            self.expect_op(")")
            ctes.append((name, q))
            if not self.eat_op(","):
                break
        body = self.parse_set_query()
        return WithQuery(tuple(ctes), body)

    def parse_set_query(self) -> Union[Query, "SetQuery"]:
        parts = [self._parse_select_parts()]
        set_all: Optional[bool] = None
        set_op: Optional[str] = None
        while self.at_kw("union", "intersect", "except"):
            op = self.next().value.lower()
            is_all = self.eat_kw("all")
            if set_op is None:
                set_op, set_all = op, is_all
            elif set_op != op or set_all != is_all:
                # mixed operators (or UNION vs UNION ALL) need standard-SQL
                # precedence (INTERSECT binds tighter) and are not
                # expressible as one uniform fold — reject, don't guess
                raise SqlError(
                    "mixing set operators (or ALL with distinct forms) "
                    "in one chain is not supported"
                )
            parts.append(self._parse_select_parts())
        if len(parts) == 1:
            return self._build_query(parts[0])
        # the greedy member parse consumed any trailing ORDER BY / LIMIT
        # into the LAST member; in a set query they bind to the whole set
        for p in parts[:-1]:
            if p["order_by"] or p["limit"] is not None or p.get("offset") is not None:
                raise SqlError(
                    "ORDER BY / LIMIT are only allowed after the last "
                    "set-query member (they apply to the whole set)"
                )
        tail_order = tuple(parts[-1]["order_by"])
        tail_limit = parts[-1]["limit"]
        tail_offset = parts[-1].get("offset")
        parts[-1]["order_by"] = []
        parts[-1]["limit"] = None
        parts[-1]["offset"] = None
        return SetQuery(
            tuple(self._build_query(p) for p in parts),
            all=bool(set_all),
            order_by=tail_order,
            limit=tail_limit,
            offset=tail_offset,
            op=set_op,
        )

    def _build_query(self, parts: dict) -> Query:
        # lift `col [NOT] IN (SELECT …)` out of WHERE's top-level AND
        # conjuncts; anywhere deeper (under OR/NOT, in projections,
        # HAVING, …) is unsupported and must error, not mis-evaluate
        where = parts["where"]
        in_subs: list[tuple] = []
        corr_scalars: list[tuple] = []
        conjuncts = _split_conjuncts(where)

        def _scalar_cmp(c: Expr):
            # comparison conjunct with a ScalarSubquery on exactly one side
            if isinstance(c, Bin) and c.op in (
                "eq", "ne", "lt", "le", "gt", "ge"
            ):
                sl = isinstance(c.left, ScalarSubquery)
                sr = isinstance(c.right, ScalarSubquery)
                if sl != sr:
                    return (
                        (c.left if sl else c.right),
                        (c.right if sl else c.left),
                        sl,
                    )
            return None

        # correlated subqueries reference the outer table by its visible
        # name — the alias when one was given
        outer_name = parts.get("table_alias") or parts["table"]
        if _contains_subquery(where) or any(
            _as_exists_conjunct(c) or _scalar_cmp(c) for c in conjuncts
        ):
            kept: list[Expr] = []
            for c in conjuncts:
                ex = _as_exists_conjunct(c)
                sc = _scalar_cmp(c)
                if isinstance(c, InSubquery):
                    if not isinstance(c.operand, Col):
                        raise SqlError(
                            "IN (SELECT …) needs a plain column operand"
                        )
                    in_subs.append((c.operand.name, c.query, c.negated))
                elif ex is not None:
                    # correlated [NOT] EXISTS decorrelates into the
                    # semi/anti-join path; uncorrelated stays a conjunct
                    # for the evaluate-once boolean substitution
                    node, extra_neg = ex
                    lifted = _decorrelate_exists(node.query, outer_name)
                    if lifted is None:
                        kept.append(c)
                    else:
                        outer_col, sub2 = lifted
                        in_subs.append(
                            (outer_col, sub2, node.negated != extra_neg)
                        )
                elif sc is not None:
                    # correlated scalar-aggregate comparison decorrelates
                    # into a per-key aggregate + LEFT join + filter;
                    # uncorrelated stays for the literal substitution
                    node, other, sub_on_left = sc
                    lifted = _decorrelate_scalar(node.query, outer_name)
                    if lifted is None:
                        kept.append(c)
                    else:
                        outer_col, sub2, key_col, val_col, cnt = lifted
                        corr_scalars.append(
                            (
                                outer_col, sub2, key_col, val_col, c.op,
                                _strip_qualifier(other, outer_name),
                                sub_on_left, cnt,
                            )
                        )
                elif _contains_subquery(c):
                    raise SqlError(
                        "IN (SELECT …) is only supported as a top-level "
                        "AND-conjunct of WHERE"
                    )
                else:
                    kept.append(c)
            where = None
            for c in kept:
                where = c if where is None else Bin("and", where, c)
        for slot in ("having", "qualify"):
            if _contains_subquery(parts[slot]):
                raise SqlError(f"subqueries are not allowed in {slot.upper()}")
        if any(_contains_subquery(g) for g in parts["group_by"] or []):
            raise SqlError("subqueries are not allowed in GROUP BY")
        if any(_contains_subquery(t[0]) for t in parts["order_by"]):
            raise SqlError("subqueries are not allowed in ORDER BY")
        if parts["projections"] is not None and any(
            _contains_subquery(e) for _, e in parts["projections"]
        ):
            raise SqlError("subqueries are not allowed in the SELECT list")
        plan = convert_query(
            parts["projections"], where, parts["group_by"],
            parts["having"], parts["distinct"], parts["limit"],
            order_by=tuple(parts["order_by"]), qualify=parts["qualify"],
            grouping_sets=parts.get("grouping_sets"),
            offset=parts.get("offset"),
        )
        return Query(
            plan=plan,
            table=parts["table"],
            file=parts["file"],
            join_table=parts["join_table"],
            join_file=parts["join_file"],
            join_left_col=parts["join_left"],
            join_right_col=parts["join_right"],
            join_how=parts["join_how"],
            in_subqueries=tuple(in_subs),
            corr_scalars=tuple(corr_scalars),
            derived=tuple(parts.get("derived") or ()),
            table_alias=parts.get("table_alias"),
            join_alias=parts.get("join_alias"),
            extra_joins=tuple(parts.get("extra_joins") or ()),
        )

    def _parse_select_parts(self) -> dict:
        self.expect_kw("select")
        distinct = self.eat_kw("distinct")
        projections: Optional[list[tuple[Optional[str], Expr]]] = None
        if self.eat_op("*"):
            projections = None  # wildcard
        else:
            projections = []
            while True:
                e = self.parse_expr()
                alias = None
                if self.eat_kw("as"):
                    alias = self.expect_ident()
                else:
                    # bare alias (standard SQL): any ident that cannot
                    # start the next clause
                    t_ = self.peek()
                    if (
                        t_ is not None and t_.kind == "ident"
                        and t_.value.lower() not in _ALIAS_STOP
                    ):
                        alias = self.expect_ident()
                projections.append((alias, e))
                if not self.eat_op(","):
                    break
        self.expect_kw("from")
        derived: list = []
        file = None
        table_alias = join_alias = None

        def opt_alias() -> Optional[str]:
            # bare-ident alias: any ident that can't start a clause
            if self.eat_kw("as"):
                return self.expect_ident()
            t = self.peek()
            if (
                t is not None and t.kind == "ident"
                and t.value.lower() not in _ALIAS_STOP
            ):
                return self.expect_ident()
            return None

        if self.at_op("("):
            # ENGINE EXTENSION: derived table — FROM (SELECT …) [AS] a.
            # Parsed as a member-scoped anonymous CTE: the subquery binds
            # to the alias and this member's FROM names the alias.
            self.expect_op("(")
            sub = self.parse_set_query()
            self.expect_op(")")
            self.eat_kw("as")
            table = self.expect_ident()
            derived.append((table, sub))
        else:
            table = self.expect_ident()
            if self.eat_op("::"):
                ftok = self.next()
                if ftok.kind != "string":
                    raise SqlError(
                        f"expected file string after ::, got {ftok}"
                    )
                file = ftok.value
            table_alias = opt_alias()

        join_table = join_file = None
        join_left = join_right = join_how = None
        extra_joins: list[tuple] = []
        # joined columns of earlier joins ride prefixed "<visible>.<col>";
        # either spelling (table name or alias) maps to the visible prefix
        prior_prefix: dict[str, str] = {}
        while self.at_kw(
            "inner", "outer", "full", "left", "right", "cross", "join"
        ):
            how_i = "inner"
            if self.eat_kw("inner"):
                pass
            elif self.eat_kw("cross"):
                # ENGINE EXTENSION: CROSS JOIN — cartesian product with a
                # small broadcast side, no ON clause
                how_i = "cross"
            elif self.eat_kw("right"):
                # ENGINE EXTENSION: the reference dialect has no RIGHT JOIN
                # (OUTER/FULL are its spellings of streamed-side left-outer,
                # join.rs:125-138); all joined-table rows survive, unmatched
                # ones NULL-extended on the streamed side
                how_i = "right"
                self.eat_kw("outer")
            elif self.eat_kw("outer") or self.eat_kw("full") or self.eat_kw("left"):
                how_i = "left"
                self.eat_kw("outer")
            self.expect_kw("join")
            jtable_i = jfile_i = jalias_i = None
            if self.at_op("("):
                # derived join side — JOIN (SELECT …) [AS] a ON …
                self.expect_op("(")
                jsub = self.parse_set_query()
                self.expect_op(")")
                self.eat_kw("as")
                jtable_i = self.expect_ident()
                derived.append((jtable_i, jsub))
            else:
                jtable_i = self.expect_ident()
                if self.eat_op("::"):
                    ftok = self.next()
                    if ftok.kind != "string":
                        raise SqlError("expected file string after ::")
                    jfile_i = ftok.value
                jalias_i = opt_alias()
            if how_i == "cross":
                jleft = jright = None
            elif self.eat_kw("using"):
                # USING (k [, …]) sugar — both sides share the column
                # names; equivalent to ON l.k = r.k AND …
                self.expect_op("(")
                ucols = [self.expect_ident()]
                while self.eat_op(","):
                    ucols.append(self.expect_ident())
                self.expect_op(")")
                jleft = ucols[0] if len(ucols) == 1 else tuple(ucols)
                jright = jleft
            else:
                self.expect_kw("on")
                jleft, jright = self._parse_on_keys(
                    jtable_i, jalias_i, prior_prefix
                )
            if join_table is None and not extra_joins:
                join_table, join_file = jtable_i, jfile_i
                join_alias = jalias_i
                join_left, join_right, join_how = jleft, jright, how_i
            else:
                # ENGINE EXTENSION: multi-join chain — each further JOIN
                # is one more broadcast stage over the stream (no
                # intermediate materialization; runner applies them in
                # declaration order)
                if how_i == "right":
                    raise SqlError(
                        "RIGHT JOIN is only supported as the first join "
                        "of a chain"
                    )
                extra_joins.append(
                    (jtable_i, jfile_i, jalias_i, jleft, jright, how_i)
                )
            visible = jalias_i or jtable_i
            prior_prefix[visible] = visible
            prior_prefix[jtable_i] = visible

        where = self.parse_expr() if self.eat_kw("where") else None

        group_by: Optional[list[Expr]] = None
        grouping_sets: Optional[list[tuple]] = None
        if self.eat_kw("group"):
            self.expect_kw("by")
            if self.at_kw("rollup", "cube"):
                # ENGINE EXTENSION: GROUP BY ROLLUP(a,b,…) / CUBE(a,b,…)
                kind = self.next().value.lower()
                self.expect_op("(")
                group_by = [self.parse_expr()]
                while self.eat_op(","):
                    group_by.append(self.parse_expr())
                self.expect_op(")")
                n = len(group_by)
                if kind == "rollup":
                    # (a,b,…), (a,b), (a), () — coarsening prefixes
                    grouping_sets = [tuple(range(i)) for i in range(n, -1, -1)]
                else:
                    if n > 6:
                        raise SqlError(
                            "CUBE over more than 6 keys (2^n grouping sets)"
                        )
                    grouping_sets = [
                        tuple(j for j in range(n) if m >> j & 1)
                        for m in range(2**n - 1, -1, -1)
                    ]
            elif self.at_kw("grouping"):
                # ENGINE EXTENSION: GROUP BY GROUPING SETS ((a,b),(a),())
                self.expect_kw("grouping")
                self.expect_kw("sets")
                self.expect_op("(")
                group_by = []
                grouping_sets = []
                while True:
                    self.expect_op("(")
                    s: list[int] = []
                    if not self.at_op(")"):
                        while True:
                            e = self.parse_expr()
                            idx = next(
                                (
                                    j
                                    for j, g in enumerate(group_by)
                                    if g == e
                                ),
                                None,
                            )
                            if idx is None:
                                idx = len(group_by)
                                group_by.append(e)
                            s.append(idx)
                            if not self.eat_op(","):
                                break
                    self.expect_op(")")
                    grouping_sets.append(tuple(s))
                    if not self.eat_op(","):
                        break
                self.expect_op(")")
                if not group_by:
                    raise SqlError(
                        "GROUPING SETS needs at least one non-empty set"
                    )
            elif self.eat_kw("all"):
                # ENGINE EXTENSION (DuckDB idiom): GROUP BY ALL — every
                # non-aggregate SELECT item becomes a group key
                if projections is None:
                    raise SqlError(
                        "GROUP BY ALL requires an explicit SELECT list"
                    )
                group_by = [
                    e
                    for _, e in projections
                    if not _contains_agg(e)
                    and not (
                        isinstance(e, Func) and e.name.lower() == "grouping"
                    )
                ]
                if not group_by:
                    raise SqlError(
                        "GROUP BY ALL found no non-aggregate SELECT items"
                    )
            else:
                group_by = [self.parse_expr()]
                while self.eat_op(","):
                    group_by.append(self.parse_expr())
                # integer literals are 1-based SELECT ordinals (standard
                # SQL, same as ORDER BY); bare names matching a SELECT
                # alias resolve to that projection's expression
                # (DuckDB/Postgres GROUP BY alias)
                group_by = [
                    _select_alias(
                        _select_ordinal(g, projections, "GROUP BY"),
                        projections,
                    )
                    for g in group_by
                ]

        having = self.parse_expr() if self.eat_kw("having") else None

        # QUALIFY: engine extension — filter on window-function outputs
        # (the ROW_NUMBER()=1 dedup idiom); applied after the window
        # stage, before projection/DISTINCT/ORDER BY/LIMIT
        qualify = self.parse_expr() if self.eat_kw("qualify") else None

        # ORDER BY: engine extension (the reference dialect has none,
        # SURVEY §2.7) — sort keys over the OUTPUT columns, NULLs first
        order_by: list[tuple] = []
        if self.eat_kw("order"):
            self.expect_kw("by")
            while True:
                e = self.parse_expr()
                desc = bool(self.eat_kw("desc"))
                if not desc:
                    self.eat_kw("asc")
                # ENGINE EXTENSION: NULLS FIRST|LAST (engine default is
                # NULLs first; None keeps it)
                nulls_last = None
                if self.eat_kw("nulls"):
                    if self.eat_kw("last"):
                        nulls_last = True
                    elif self.eat_kw("first"):
                        nulls_last = False
                    else:
                        raise SqlError("expected FIRST or LAST after NULLS")
                order_by.append((e, desc, nulls_last))
                if not self.eat_op(","):
                    break

        limit = None
        if self.eat_kw("limit"):
            t = self.next()
            if t.kind != "number" or isinstance(t.value, float):
                raise SqlError(f"expected integer LIMIT, got {t}")
            limit = int(t.value)
        # ENGINE EXTENSION: OFFSET m — requires LIMIT (a bare OFFSET
        # would need a global row count to bound; refuse)
        offset = None
        if self.eat_kw("offset"):
            if limit is None:
                raise SqlError("OFFSET requires LIMIT")
            t = self.next()
            if t.kind != "number" or isinstance(t.value, float):
                raise SqlError(f"expected integer OFFSET, got {t}")
            offset = int(t.value)

        return {
            "projections": projections, "where": where,
            "group_by": group_by, "grouping_sets": grouping_sets,
            "having": having, "distinct": distinct,
            "limit": limit, "offset": offset,
            "order_by": order_by, "qualify": qualify,
            "table": table, "file": file, "join_table": join_table,
            "join_file": join_file, "join_left": join_left,
            "join_right": join_right, "join_how": join_how,
            "derived": tuple(derived),
            "table_alias": table_alias, "join_alias": join_alias,
            "extra_joins": tuple(extra_joins),
        }

    def _parse_partition_key(self):
        """One PARTITION BY entry: a plain column name, or an EXPRESSION
        (ENGINE EXTENSION) — a non-Col expression returns the Expr node
        and convert_query lifts it into a hidden pre-window input column
        (same __wv* machinery as expression window arguments)."""
        e = self.parse_expr()
        return e.name if isinstance(e, Col) else e

    def _parse_on_keys(
        self, jtable: str, jalias: Optional[str], prior_prefix: dict
    ) -> tuple:
        """``ON a = x [AND b = y …]`` — ENGINE EXTENSION composite keys
        (the reference accepts exactly one equality,
        parser_tree_converter.rs:207-249); orientation resolved per pair,
        either table order accepted. A stream-side key that belongs to an
        EARLIER join of a chain rides under its prefixed output name."""
        lcols: list[str] = []
        rcols: list[str] = []
        jnames = {jtable, jalias} - {None}
        while True:
            l_tab, l_col = self._parse_qualified()
            self.expect_op("=")
            r_tab, r_col = self._parse_qualified()
            if l_tab in jnames and r_tab not in jnames:
                l_tab, l_col, r_tab, r_col = r_tab, r_col, l_tab, l_col
            if l_tab in prior_prefix:
                l_col = f"{prior_prefix[l_tab]}.{l_col}"
            lcols.append(l_col)
            rcols.append(r_col)
            if not self.eat_kw("and"):
                break
        return (
            lcols[0] if len(lcols) == 1 else tuple(lcols),
            rcols[0] if len(rcols) == 1 else tuple(rcols),
        )

    def _parse_qualified(self) -> tuple[Optional[str], str]:
        a = self.expect_ident()
        if self.eat_op("."):
            return a, self.expect_ident()
        return None, a

    # -- expressions (precedence climbing) ----------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        left = self.parse_unary()
        while True:
            t = self.peek()
            if t is None:
                break
            opname: Optional[str] = None
            if t.kind == "op" and t.value in _PRECEDENCE:
                opname = t.value
            elif t.kind == "ident" and t.value.lower() in (
                "and", "or", "is", "in", "not", "like", "ilike", "between",
            ):
                lv = t.value.lower()
                if lv == "not":
                    # only as part of NOT IN / NOT LIKE / NOT BETWEEN
                    nxt = self.peek(1)
                    follow = (
                        nxt.value.lower()
                        if nxt is not None and nxt.kind == "ident"
                        else None
                    )
                    if follow in ("in", "like", "ilike", "between"):
                        opname = follow  # handled below with negation
                    else:
                        break
                else:
                    opname = lv
            if opname is None or _PRECEDENCE.get(opname, 0) < min_prec:
                break
            prec = _PRECEDENCE[opname]

            if opname == "is":
                self.next()
                negated = self.eat_kw("not")
                if self.eat_kw("distinct"):
                    # IS [NOT] DISTINCT FROM ≡ the engine's null-safe
                    # (in)equality with the polarity flipped
                    self.expect_kw("from")
                    right = self.parse_expr(prec + 1)
                    left = Bin("is" if negated else "is_not", left, right)
                    continue
                right = self.parse_expr(prec + 1)
                left = Bin("is_not" if negated else "is", left, right)
                continue
            if opname in ("like", "ilike"):
                negated = self.eat_kw("not")
                self.next()  # LIKE / ILIKE
                pat = self.parse_expr(prec + 1)
                e = Func(f"_{opname}", (left, pat))
                left = Un("not", e) if negated else e
                continue
            if opname == "between":
                negated = self.eat_kw("not")
                self.expect_kw("between")
                # bounds parse ABOVE comparison precedence so the
                # connecting AND is not consumed as a conjunction
                lo = self.parse_expr(5)
                self.expect_kw("and")
                hi = self.parse_expr(5)
                e = Bin("and", Bin("ge", left, lo), Bin("le", left, hi))
                left = Un("not", e) if negated else e
                continue
            if opname == "in":
                negated = False
                if self.at_kw("not"):
                    self.next()
                    negated = True
                self.expect_kw("in")
                self.expect_op("(")
                if self.at_kw("select", "with"):
                    sub = self.parse_query()
                    self.expect_op(")")
                    left = InSubquery(left, sub, negated)
                    continue
                items = [self.parse_expr()]
                while self.eat_op(","):
                    items.append(self.parse_expr())
                self.expect_op(")")
                left = InList(left, tuple(items), negated)
                continue

            self.next()
            if (
                opname in ("=", "!=", "<>", "<", "<=", ">", ">=")
                and self.at_kw("any", "all", "some")
                and self.peek(1) is not None
                and self.peek(1).kind == "op"
                and self.peek(1).value == "("
            ):
                # ENGINE EXTENSION: quantified comparison — x <op>
                # ANY/ALL (SELECT v …) rewrites onto the evaluate-once
                # scalar-subquery machinery (MIN/MAX bounds) or the
                # exact IN-subquery semi/anti-join. Engine NULL⇒false
                # semantics apply: an EMPTY set makes ALL false (SQL
                # says true) and set NULLs never match — documented.
                quant = self.next().value.lower()
                self.expect_op("(")
                if not self.at_kw("select", "with"):
                    raise SqlError(
                        f"{quant.upper()} requires a subquery"
                    )
                sub = self.parse_query()
                self.expect_op(")")
                left = _quantified_cmp(
                    left, _CMP_OPS[opname], quant, sub
                )
                continue
            right = self.parse_expr(prec + 1)
            if opname in ("and", "or"):
                left = Bin(opname, left, right)
            elif opname == "||":
                # SQL concatenation operator — NULL-propagating (unlike
                # CONCAT(), which replaces NULL with '' — DuckDB parity)
                left = Func("concat_op", (left, right))
            else:
                left = Bin(_CMP_OPS[opname], left, right)
        return left

    def parse_unary(self) -> Expr:
        if self.eat_kw("not"):
            return Un("not", self.parse_unary())
        if self.eat_op("-"):
            operand = self.parse_unary()
            if isinstance(operand, Lit) and isinstance(operand.value, (int, float)):
                return Lit(-operand.value, operand.vtype)
            return Un("neg", operand)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_primary()
        while True:
            if self.at_op("[") :
                self.expect_op("[")
                idx = self.parse_expr()
                self.expect_op("]")
                e = Index(e, idx)
            elif self.eat_op("::"):
                tname = self.expect_ident()
                depth = 0
                while self.at_op("[") and self.peek(1) and self.peek(1).value == "]":
                    self.expect_op("[")
                    self.expect_op("]")
                    depth += 1
                e = Cast(e, parse_type_name(tname + "[]" * depth))
            else:
                break
        return e

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t is None:
            raise SqlError("unexpected end of expression")
        if t.kind == "number":
            self.next()
            return Lit(t.value, FLOAT if isinstance(t.value, float) else INT)
        if t.kind == "string":
            self.next()
            return Lit(t.value, STRING)
        if t.kind == "op" and t.value == "(":
            self.next()
            if self.at_kw("select", "with"):
                # scalar subquery: evaluated once to a literal at
                # execution time (ENGINE EXTENSION)
                sub = self.parse_query()
                self.expect_op(")")
                return ScalarSubquery(sub)
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if t.kind != "ident":
            raise SqlError(f"unexpected token {t}")
        name = self.next().value
        lname = name.lower()
        if lname == "true":
            return Lit(True, BOOL)
        if lname == "false":
            return Lit(False, BOOL)
        if lname == "null":
            return Lit(None)
        if lname == "case":
            return self._parse_case()
        if (
            lname == "interval"
            and self.peek() is not None
            and self.peek().kind == "string"
        ):
            # ENGINE EXTENSION: INTERVAL '<n> <unit>' / 'H:M:S' literal —
            # a timedelta Lit (Arrow duration scalar), so timestamp ±
            # interval stays one pc.add/subtract kernel. Fixed-length
            # units only; calendar units (month/year) are rejected.
            return Lit(_parse_interval_td(self.next().value))
        if (
            lname in ("timestamp", "date")
            and self.peek() is not None
            and self.peek().kind == "string"
        ):
            # ENGINE EXTENSION: TIMESTAMP '…' / DATE '…' literals (ISO
            # forms) — a datetime Lit, so comparisons against timestamp
            # columns stay one Arrow kernel
            s = self.next().value
            try:
                if lname == "date":
                    d = _dt.date.fromisoformat(s)
                    v = _dt.datetime(d.year, d.month, d.day)
                else:
                    v = _dt.datetime.fromisoformat(s)
            except ValueError:
                raise SqlError(f"invalid {lname.upper()} literal {s!r}")
            return Lit(v)
        if lname in ("cast", "try_cast") and self.at_op("("):
            # standard CAST(expr AS TYPE) — sugar for the dialect's ::;
            # TRY_CAST returns NULL where the conversion fails (ENGINE
            # EXTENSION, DuckDB parity) via a coercing kernel
            self.expect_op("(")
            e = self.parse_expr()
            self.expect_kw("as")
            vt = self._parse_type()
            self.expect_op(")")
            if lname == "try_cast":
                return Func(f"try_cast_{str(vt).lower()}", (e,))
            return Cast(e, vt)
        if lname == "exists" and self.at_op("("):
            # [NOT] EXISTS (SELECT …): NOT composes via the unary NOT
            self.expect_op("(")
            sub = self.parse_query()
            self.expect_op(")")
            return ExistsSubquery(sub)
        if lname == "extract":
            # EXTRACT(part FROM ts) → timestamp_extract_{part} (parser.rs:966-988)
            self.expect_op("(")
            part = self.expect_ident().lower()
            if part not in _EXTRACT_PARTS:
                raise SqlError(f"bad EXTRACT part {part!r}")
            self.expect_kw("from")
            ts = self.parse_expr()
            self.expect_op(")")
            return Func(f"timestamp_extract_{part}", (ts,))
        if lname == "position" and self.at_op("("):
            # POSITION(needle IN haystack) → strpos(haystack, needle);
            # the needle parses above comparison precedence so the
            # connecting IN is not consumed as the IN operator
            self.expect_op("(")
            needle = self.parse_expr(5)
            self.expect_kw("in")
            hay = self.parse_expr()
            self.expect_op(")")
            return Func("strpos", (hay, needle))
        if lname == "substring" and self.at_op("("):
            # standard SUBSTRING(s FROM start [FOR len]) — sugar for
            # the comma form (both accepted)
            self.expect_op("(")
            sarg = self.parse_expr()
            if self.eat_kw("from"):
                args = [sarg, self.parse_expr()]
                if self.eat_kw("for"):
                    args.append(self.parse_expr())
                self.expect_op(")")
                return Func("substring", tuple(args))
            args = [sarg]
            while self.eat_op(","):
                args.append(self.parse_expr())
            self.expect_op(")")
            return Func("substring", tuple(args))
        if lname == "trim" and self.at_op("("):
            # standard TRIM([BOTH|LEADING|TRAILING] [chars] FROM s) —
            # sugar for trim/ltrim/rtrim(s[, chars]) (both accepted)
            self.expect_op("(")
            side_map = {"both": "trim", "leading": "ltrim",
                        "trailing": "rtrim"}
            if self.at_kw("both", "leading", "trailing"):
                side = side_map[self.next().value.lower()]
                chars = None if self.at_kw("from") else self.parse_expr()
                self.expect_kw("from")
                s_ = self.parse_expr()
                self.expect_op(")")
                return Func(
                    side, (s_,) if chars is None else (s_, chars)
                )
            first = self.parse_expr()
            if self.eat_kw("from"):
                s_ = self.parse_expr()
                self.expect_op(")")
                return Func("trim", (s_, first))
            args = [first]
            while self.eat_op(","):
                args.append(self.parse_expr())
            self.expect_op(")")
            return Func("trim", tuple(args))
        if lname == "array" and self.at_op("["):
            self.expect_op("[")
            items = []
            if not self.at_op("]"):
                items.append(self.parse_expr())
                while self.eat_op(","):
                    items.append(self.parse_expr())
            self.expect_op("]")
            return Func("create_array", tuple(items))
        if self.at_op("("):
            # function / aggregate call
            self.expect_op("(")
            distinct = self.eat_kw("distinct")
            args: list[Expr] = []
            star = False
            if self.eat_op("*"):
                star = True
            elif not self.at_op(")"):
                args.append(self.parse_expr())
                while self.eat_op(","):
                    args.append(self.parse_expr())
            # ENGINE EXTENSION: ARRAY_AGG/STRING_AGG(x … ORDER BY y
            # [ASC|DESC]) — element ordering inside the aggregate
            agg_order = None
            if self.eat_kw("order"):
                self.expect_kw("by")
                oe = self.parse_expr()
                odesc = bool(self.eat_kw("desc"))
                if not odesc:
                    self.eat_kw("asc")
                if _contains_subquery(oe):
                    raise SqlError(
                        "subqueries are not allowed in an aggregate's "
                        "ORDER BY"
                    )
                agg_order = (oe, odesc)
            self.expect_op(")")
            fname = _FUNC_ALIASES.get(lname, lname)
            if agg_order is not None and fname not in (
                "array_agg", "string_agg"
            ):
                raise SqlError(
                    "ORDER BY inside an aggregate applies to "
                    "ARRAY_AGG/STRING_AGG only"
                )
            if fname in (
                "lag", "lead", "row_number", "rank", "dense_rank",
                "percent_rank", "cume_dist", "first_value", "last_value",
                "ntile", "nth_value",
            ):
                # ENGINE EXTENSION: LAG/LEAD(col[, offset]) /
                # FIRST_VALUE(col) / ROW_NUMBER() / RANK() / DENSE_RANK()
                # OVER (PARTITION BY col ORDER BY col)
                if distinct or star:
                    raise SqlError(f"DISTINCT/* not valid in {fname}()")
                offset = 1
                default = None
                if fname == "ntile":
                    if (
                        len(args) != 1
                        or not isinstance(args[0], Lit)
                        or not isinstance(args[0].value, int)
                        or args[0].value < 1
                    ):
                        raise SqlError(
                            "ntile(n) needs a positive integer literal"
                        )
                    value = ""
                    offset = int(args[0].value)
                elif fname in ("row_number", "rank", "dense_rank", "percent_rank", "cume_dist"):
                    if args:
                        raise SqlError(f"{fname}() takes no arguments")
                    value = ""
                else:
                    if not args:
                        raise SqlError(f"{fname}() needs an argument")
                    # ENGINE EXTENSION: expression arguments — a non-Col
                    # argument rides as the Expr itself; convert_query
                    # lifts it into a hidden pre-window input column
                    value = (
                        args[0].name if isinstance(args[0], Col) else args[0]
                    )
                    if fname == "nth_value":
                        if (
                            len(args) != 2
                            or not isinstance(args[1], Lit)
                            or not isinstance(args[1].value, int)
                            or args[1].value < 1
                        ):
                            raise SqlError(
                                "nth_value(col, n) needs a positive "
                                "integer literal n"
                            )
                        offset = int(args[1].value)
                    if len(args) >= 2 and fname in ("lag", "lead"):
                        if not isinstance(args[1], Lit) or not isinstance(
                            args[1].value, int
                        ) or args[1].value < 1:
                            raise SqlError(
                                f"{fname}() offset must be a positive "
                                "integer literal"
                            )
                        offset = int(args[1].value)
                        if len(args) == 3:
                            # LAG/LEAD(col, n, default): a literal fills
                            # positions past the partition edge
                            if not isinstance(args[2], Lit):
                                raise SqlError(
                                    f"{fname}() default must be a literal"
                                )
                            default = args[2].value
                        elif len(args) > 3:
                            raise SqlError(
                                f"{fname}() takes (column[, offset[, default]])"
                            )
                    elif len(args) > 1 and fname != "nth_value":
                        raise SqlError(f"{fname}() takes (column[, offset])")
                # ENGINE EXTENSION: IGNORE NULLS (standard SQL null
                # treatment for navigation functions) — navigate over the
                # partition's non-null values only; RESPECT NULLS (the
                # default) parses as a no-op
                ignore_nulls = False
                if self.eat_kw("ignore"):
                    self.expect_kw("nulls")
                    if fname not in (
                        "lag", "lead", "first_value", "last_value"
                    ):
                        raise SqlError(
                            "IGNORE NULLS applies to "
                            "LAG/LEAD/FIRST_VALUE/LAST_VALUE"
                        )
                    ignore_nulls = True
                elif self.eat_kw("respect"):
                    self.expect_kw("nulls")
                self.expect_kw("over")
                self.expect_op("(")
                key = None  # no PARTITION BY: one GLOBAL partition
                if self.eat_kw("partition"):
                    self.expect_kw("by")
                    pkeys = [self._parse_partition_key()]
                    while self.eat_op(","):
                        pkeys.append(self._parse_partition_key())
                    key = pkeys[0] if len(pkeys) == 1 else tuple(pkeys)
                self.expect_kw("order")
                self.expect_kw("by")
                order = self._parse_over_order()
                frame, preceding, following = self.parse_frame_clause()
                if (frame != "range" or preceding is not None) and fname not in (
                    "first_value", "last_value", "nth_value"
                ):
                    raise SqlError(
                        "frame clauses apply only to running aggregates "
                        "and FIRST_VALUE/LAST_VALUE"
                    )
                if preceding is not None or following is not None:
                    raise SqlError(
                        "bounded frames apply only to running aggregates"
                    )
                self.expect_op(")")
                return WindowCall(
                    fname, value, key, order, offset, frame, default,
                    ignore_nulls=ignore_nulls,
                )
            if fname in AGGREGATE_FUNCS:
                if self.at_kw("over"):
                    # ENGINE EXTENSION: running aggregate over a partition
                    # (cumulative from the partition start, the default SQL
                    # frame for ORDER BY inside OVER)
                    if fname not in ("sum", "avg", "count", "min", "max"):
                        raise SqlError(
                            f"{fname}() OVER is not supported "
                            "(sum/avg/count/min/max only)"
                        )
                    if distinct:
                        raise SqlError("DISTINCT not valid in a window")
                    if star:
                        if fname != "count":
                            raise SqlError("* only valid in count()")
                        value = ""  # COUNT(*): peer-aware run_count_star
                    elif len(args) == 1:
                        # plain column, or an expression lifted into a
                        # hidden pre-window input column by convert_query
                        value = (
                            args[0].name
                            if isinstance(args[0], Col)
                            else args[0]
                        )
                    else:
                        raise SqlError(
                            f"{fname}() OVER needs one argument"
                        )
                    self.expect_kw("over")
                    self.expect_op("(")
                    key = None  # no PARTITION BY: one GLOBAL partition
                    if self.eat_kw("partition"):
                        self.expect_kw("by")
                        pkeys = [self._parse_partition_key()]
                        while self.eat_op(","):
                            pkeys.append(self._parse_partition_key())
                        key = pkeys[0] if len(pkeys) == 1 else tuple(pkeys)
                    self.expect_kw("order")
                    self.expect_kw("by")
                    order = self._parse_over_order()
                    frame, preceding, following = self.parse_frame_clause()
                    self.expect_op(")")
                    wfunc = (
                        "run_count_star"
                        if (fname == "count" and star)
                        else f"run_{fname}"
                    )
                    return WindowCall(
                        wfunc, value, key, order, 1, frame,
                        preceding=preceding, following=following,
                    )
                if self.at_kw("filter"):
                    # ENGINE EXTENSION: SQL-standard FILTER (WHERE cond),
                    # rewritten at parse time to the NULL-skip CASE —
                    # EVERY engine aggregate skips NULL inputs (COUNT(col),
                    # SUM…ARRAY_AGG all drop_null), so
                    # agg(CASE WHEN cond THEN x ELSE NULL END) is exactly
                    # the filtered aggregate; COUNT(*) counts a literal 1.
                    # Parameter args (percentile p, string_agg sep) ride
                    # unchanged.
                    self.eat_kw("filter")
                    self.expect_op("(")
                    self.expect_kw("where")
                    cond = self.parse_expr()
                    self.expect_op(")")
                    if _contains_agg(cond) or _find_windows(cond):
                        raise SqlError(
                            "aggregates/windows are not allowed in FILTER"
                        )
                    if star:
                        return AggCall(
                            "count",
                            (Case(((cond, Lit(1)),), Lit(None)),),
                        )
                    if not args:
                        raise SqlError("FILTER needs an aggregate argument")
                    return AggCall(
                        fname,
                        (Case(((cond, args[0]),), Lit(None)),)
                        + tuple(args[1:]),
                        distinct=distinct,
                        agg_order=agg_order,
                    )
                return AggCall(
                    fname, tuple(args), distinct=distinct, star=star,
                    agg_order=agg_order,
                )
            if distinct or star:
                raise SqlError(f"DISTINCT/* not valid in {fname}()")
            return Func(fname, tuple(args))
        if self.at_op(".") and self.peek(1) is not None and self.peek(1).kind == "ident":
            self.next()
            col = self.expect_ident()
            return Col(f"{name}.{col}")  # qualified — resolved at bind time
        return Col(name)

    def _parse_over_order(self):
        """OVER (… ORDER BY col [ASC|DESC] [NULLS FIRST|LAST][, …]) —
        ENGINE EXTENSION: composite / DESC / NULLS-placed window
        ordering (default NULLS LAST either direction, DuckDB's
        default). Returns the plain column name for the plain
        single-ascending default-nulls form (the fast paths key on it:
        value-based RANGE frames, the chunk-safe global ranged route),
        else a tuple of (col, descending[, nulls_first]) entries."""
        entries: list[tuple] = []
        while True:
            ce = self.parse_expr()
            # ENGINE EXTENSION: expression order keys lift into hidden
            # __wv* pre-window inputs like expression PARTITION BY keys
            c = ce.name if isinstance(ce, Col) else ce
            desc = bool(self.eat_kw("desc"))
            if not desc:
                self.eat_kw("asc")
            nulls_first = None
            if self.eat_kw("nulls"):
                if self.eat_kw("first"):
                    nulls_first = True
                elif self.eat_kw("last"):
                    nulls_first = False
                else:
                    raise SqlError("expected FIRST or LAST after NULLS")
            entries.append(
                (c, desc) if nulls_first is None else (c, desc, nulls_first)
            )
            if not self.eat_op(","):
                break
        if len(entries) == 1 and entries[0] == (entries[0][0], False):
            return entries[0][0]
        return tuple(entries)

    def _parse_case(self) -> Expr:
        # simple form — CASE <operand> WHEN v THEN … — desugars each
        # WHEN into the searched form's equality (ENGINE EXTENSION)
        operand: Optional[Expr] = None
        if not self.at_kw("when"):
            operand = self.parse_expr()
        whens: list[tuple[Expr, Expr]] = []
        while self.eat_kw("when"):
            cond = self.parse_expr()
            if operand is not None:
                cond = Bin("eq", operand, cond)
            self.expect_kw("then")
            val = self.parse_expr()
            whens.append((cond, val))
        # the reference REQUIRES else (parser.rs:990-1019); the engine
        # extends with standard SQL's optional ELSE (omitted -> NULL)
        else_ = self.parse_expr() if self.eat_kw("else") else Lit(None)
        self.expect_kw("end")
        return Case(tuple(whens), else_)


@dataclass(frozen=True)
class AggCall(Expr):
    """An aggregate call inside an expression tree (pre-conversion only)."""

    func: str
    args: tuple[Expr, ...]
    distinct: bool = False
    star: bool = False
    # ENGINE EXTENSION: ARRAY_AGG/STRING_AGG(x … ORDER BY y [DESC])
    agg_order: "Optional[tuple]" = None


@dataclass(frozen=True)
class WindowCall(Expr):
    """A LAG/LEAD window call (pre-conversion only) — ENGINE EXTENSION,
    the reference dialect has no window functions. Restricted to plain
    columns (value, PARTITION BY, ORDER BY) and a literal offset; lifted
    into a ``plan.WindowSpec`` by ``convert_query``."""

    func: str  # "lag" | "lead"
    value_col: str
    key: str
    order: str
    offset: int = 1
    frame: str = "range"  # "range" (default) | "rows" | "full"
    default: Any = None  # LAG/LEAD 3-arg form: literal past the edge
    preceding: Any = None  # bounded frame lookback (ROWS: rows; RANGE: value)
    following: Any = None  # bounded ROWS frame lookahead (<m> FOLLOWING)
    ignore_nulls: bool = False  # navigate non-null values only


@dataclass(frozen=True, eq=True)
class ScalarSubquery(Expr):
    """``(SELECT …)`` used as a VALUE inside an expression — ENGINE
    EXTENSION. Evaluated ONCE per query at execution time (the subquery
    must produce exactly one column and at most one row; zero rows ⇒
    NULL, SQL parity) and substituted as a literal into the plan, so the
    surrounding expression stays a plain vectorized kernel. Legal
    anywhere a literal is: WHERE, SELECT list, HAVING, $value
    transforms. The classic form: ``WHERE x > (SELECT AVG(x) FROM t)``."""

    query: Any  # Query | SetQuery | WithQuery


@dataclass(frozen=True, eq=True)
class ExistsSubquery(Expr):
    """``[NOT] EXISTS (SELECT …)`` — ENGINE EXTENSION, uncorrelated
    only (the subquery cannot reference outer columns; there is no
    correlation machinery). Evaluated once to a boolean literal (does
    the subquery produce any row?) via the scalar-substitution pass."""

    query: Any  # Query | SetQuery | WithQuery
    negated: bool = False


@dataclass(frozen=True, eq=True)
class InSubquery(Expr):
    """``operand [NOT] IN (SELECT …)`` (pre-conversion only) — ENGINE
    EXTENSION, the reference dialect has no subqueries. Only legal as a
    top-level AND-conjunct of WHERE with a plain column operand; lifted
    into ``Query.in_subqueries`` and executed as an exact
    bloom-accelerated semi/anti-join (stages/bloom). NULL semantics
    follow the reference's NULL⇒false comparisons: a NULL operand is
    never IN (dropped) and always NOT IN (kept) — standard SQL's
    NOT-IN-with-NULLs quirk is deliberately not reproduced."""

    operand: Expr
    query: Any  # Query | SetQuery | WithQuery
    negated: bool = False


def _split_conjuncts(e: Optional[Expr]) -> list[Expr]:
    if e is None:
        return []
    if isinstance(e, Bin) and e.op == "and":
        return _split_conjuncts(e.left) + _split_conjuncts(e.right)
    return [e]


def _contains_subquery(e: Optional[Expr]) -> bool:
    if e is None:
        return False
    if isinstance(e, InSubquery):
        return True
    return any(_contains_subquery(c) for c in _children(e))


def _as_exists_conjunct(c: Expr) -> "tuple[ExistsSubquery, bool] | None":
    """(node, extra-negation) when a WHERE conjunct is ``[NOT] EXISTS
    (…)`` — either the node itself or under one unary NOT."""
    if isinstance(c, ExistsSubquery):
        return c, False
    if isinstance(c, Un) and c.op == "not" and isinstance(c.operand, ExistsSubquery):
        return c.operand, True
    return None


def _refs_table(e: Optional[Expr], table: str) -> bool:
    if e is None:
        return False
    if isinstance(e, Col) and e.name.startswith(table + "."):
        return True
    return any(_refs_table(ch, table) for ch in _children(e))


def _extract_correlation(
    where: Optional[Expr], outer_table: str, sub: "Query"
) -> "tuple[list[tuple[str, str]], list[Expr]]":
    """Split a subquery WHERE into correlation equality pairs
    ``(outer_col, inner_col)`` (one side qualified with the OUTER table
    name, the other an inner column, bare or qualified with the
    subquery's table or its alias) and the remaining inner-only
    conjuncts."""
    corr: list[tuple[str, str]] = []
    kept: list[Expr] = []
    for c in _split_conjuncts(where):
        if (
            isinstance(c, Bin)
            and c.op == "eq"
            and isinstance(c.left, Col)
            and isinstance(c.right, Col)
        ):
            l, r = c.left.name, c.right.name
            lo = l.startswith(outer_table + ".")
            ro = r.startswith(outer_table + ".")
            if lo != ro:
                outer_col = (l if lo else r).split(".", 1)[1]
                inner_col = r if lo else l
                if "." in inner_col:
                    tab, col = inner_col.split(".", 1)
                    if tab not in (sub.table, sub.table_alias):
                        kept.append(c)
                        continue
                    inner_col = col
                corr.append((outer_col, inner_col))
                continue
        kept.append(c)
    return corr, kept


def _and_all(conjs: "list[Expr]") -> Optional[Expr]:
    out: Optional[Expr] = None
    for c in conjs:
        out = c if out is None else Bin("and", out, c)
    return out


def _strip_qualifier(e: Expr, table: str) -> Expr:
    """Rewrite ``<table>.col`` references to plain ``col`` — the lifted
    conjunct is compiled OUTSIDE the plan's qualified-name binding."""
    import dataclasses

    if isinstance(e, Col) and e.name.startswith(table + "."):
        return Col(e.name.split(".", 1)[1])
    changes = {}
    for f in dataclasses.fields(e):
        v = getattr(e, f.name)
        if isinstance(v, Expr):
            changes[f.name] = _strip_qualifier(v, table)
        elif isinstance(v, tuple) and any(isinstance(x, Expr) for x in v):
            changes[f.name] = tuple(
                _strip_qualifier(x, table) if isinstance(x, Expr) else x
                for x in v
            )
    return dataclasses.replace(e, **changes) if changes else e


def _decorrelate_scalar(
    sub, outer_table: str
) -> "tuple[str, Any, str, str, bool] | None":
    """Rewrite a CORRELATED scalar-aggregate subquery ``(SELECT AGG(y)
    FROM r WHERE r.k = <outer_table>.k AND <inner filters>)`` into a
    per-key aggregate — the other classic decorrelation: group the
    subquery by its correlation column, then the outer comparison
    becomes a size-gated LEFT join + streaming filter (api.py
    ``_apply_pre_plan_subqueries``). Returns ``(outer_col, rebuilt_sub,
    key_col, val_col, count_like)`` or None when uncorrelated (the
    evaluate-once literal path applies).

    Supported shape: single-aggregate SELECT with no GROUP BY / HAVING,
    ONE equality correlation, other conjuncts inner-only. ``count_like``
    flags COUNT aggregates, whose SQL value over an empty correlated set
    is 0 (not NULL) — the join fills those."""
    import dataclasses

    if not isinstance(sub, Query):
        return None
    plan = sub.plan
    if not isinstance(plan, AggregatePlan):
        if _refs_table(getattr(plan, "where", None), outer_table):
            raise SqlError(
                "a correlated scalar subquery must be a single aggregate "
                "(SELECT AGG(col) FROM …)"
            )
        return None
    corr, kept = _extract_correlation(plan.where, outer_table, sub)
    if not corr:
        return None
    if plan.group_by or plan.having is not None or len(plan.aggs) != 1:
        raise SqlError(
            "a correlated scalar subquery must be ONE aggregate with no "
            "GROUP BY / HAVING"
        )
    if len(corr) > 1:
        raise SqlError(
            "correlated scalar subqueries support ONE equality correlation"
        )
    for c in kept:
        if _refs_table(c, outer_table):
            raise SqlError(
                "correlated scalar subqueries support outer references "
                "only in ONE top-level equality conjunct"
            )
    outer_col, inner_col = corr[0]
    agg = plan.aggs[0]
    key_name = inner_col if inner_col != agg.name else "__corr_key"
    new_plan = dataclasses.replace(
        plan,
        where=_and_all(kept),
        group_by=(GroupKey(key_name, Col(inner_col)),),
        limit=None,
        order_by=(),
    )
    count_like = agg.func in ("count", "count_star", "count_distinct")
    return (
        outer_col,
        dataclasses.replace(sub, plan=new_plan),
        key_name,
        agg.name,
        count_like,
    )


def _decorrelate_exists(
    sub, outer_table: str
) -> "tuple[str, Any] | None":
    """Rewrite a CORRELATED ``EXISTS (SELECT … FROM r WHERE r.k =
    <outer_table>.k AND <inner filters>)`` into the equivalent
    semi-join form — the classic decorrelation: EXISTS with one
    equality correlation IS ``<outer>.k IN (SELECT k FROM r WHERE
    <inner filters>)``, which the engine already executes as an exact
    bloom-accelerated semi/anti-join (``Query.in_subqueries``). Returns
    ``(outer_col, rebuilt_sub)`` or None when the subquery is
    uncorrelated (the existing evaluate-once boolean path applies).

    Supported shape: plain SELECT subquery (no GROUP BY/windows), ONE
    equality conjunct between an ``<outer_table>.col`` reference and an
    inner column (either side of the ``=``); every other conjunct must
    be inner-only. NULL semantics match the reference's NULL⇒false
    comparisons, which coincide with SQL EXISTS here: a NULL key never
    equals anything, so semi drops and anti keeps NULL outer rows."""
    import dataclasses

    if not isinstance(sub, Query):
        return None
    plan = sub.plan
    if not isinstance(plan, SelectPlan) or plan.windows or plan.qualify:
        if _refs_table(getattr(plan, "where", None), outer_table):
            raise SqlError(
                "correlated EXISTS supports a plain SELECT subquery "
                "(no GROUP BY / window functions)"
            )
        return None
    corr, kept = _extract_correlation(plan.where, outer_table, sub)
    if not corr:
        return None
    for c in kept:
        if _refs_table(c, outer_table):
            raise SqlError(
                "correlated EXISTS supports outer references only in "
                "top-level equality conjuncts"
            )
    if len({ic for _, ic in corr}) != len(corr):
        raise SqlError(
            "correlated EXISTS: each inner column may appear in one "
            "correlation equality"
        )
    new_where = _and_all(kept)
    new_plan = dataclasses.replace(
        plan,
        where=new_where,
        # project the DISTINCT correlation keys — the semi-join's build
        # side stays narrow deduplicated key columns (composite keys
        # collapse to one derived column at execution, api.py)
        projections=tuple(
            Projection(ic, Col(ic)) for _, ic in corr
        ),
        distinct=True,
        limit=None,
        order_by=(),
    )
    outer_key = (
        corr[0][0] if len(corr) == 1 else tuple(oc for oc, _ in corr)
    )
    return outer_key, dataclasses.replace(sub, plan=new_plan)


# ---------------------------------------------------------------------------
# AST → plan conversion (parser_tree_converter.rs:82-755)
# ---------------------------------------------------------------------------


def _contains_agg(e: Expr) -> bool:
    if isinstance(e, AggCall):
        return True
    for child in _children(e):
        if _contains_agg(child):
            return True
    return False


def _children(e: Expr) -> list[Expr]:
    if isinstance(e, Bin):
        return [e.left, e.right]
    if isinstance(e, Un):
        return [e.operand]
    if isinstance(e, InList):
        return [e.operand, *e.items]
    if isinstance(e, (Func, AggCall)):
        return list(e.args)
    if isinstance(e, Case):
        return [x for w in e.whens for x in w] + [e.else_]
    if isinstance(e, Cast):
        return [e.operand]
    if isinstance(e, Index):
        return [e.operand, e.index]
    if isinstance(e, InSubquery):
        return [e.operand]
    return []


def _replace(e: Expr, target: Expr, repl: Expr) -> Expr:
    if e == target:
        return repl
    if isinstance(e, Bin):
        return Bin(e.op, _replace(e.left, target, repl), _replace(e.right, target, repl))
    if isinstance(e, Un):
        return Un(e.op, _replace(e.operand, target, repl))
    if isinstance(e, InList):
        return InList(
            _replace(e.operand, target, repl),
            tuple(_replace(i, target, repl) for i in e.items),
            e.negated,
        )
    if isinstance(e, Func):
        return Func(e.name, tuple(_replace(a, target, repl) for a in e.args))
    if isinstance(e, Case):
        return Case(
            tuple(
                (_replace(c, target, repl), _replace(v, target, repl))
                for c, v in e.whens
            ),
            _replace(e.else_, target, repl),
        )
    if isinstance(e, Cast):
        return Cast(_replace(e.operand, target, repl), e.vtype)
    if isinstance(e, Index):
        return Index(_replace(e.operand, target, repl), _replace(e.index, target, repl))
    return e


def _find_aggs(e: Expr) -> list[AggCall]:
    out: list[AggCall] = []
    if isinstance(e, AggCall):
        out.append(e)
    for c in _children(e):
        out.extend(_find_aggs(c))
    return out


def _find_unnest(e: Expr) -> "list[Func]":
    """Collect UNNEST(...) calls (ENGINE EXTENSION) in an expression."""
    out: list[Func] = []

    def walk(x) -> None:
        if isinstance(x, Func) and x.name.lower() == "unnest":
            out.append(x)
        for c in _children(x):
            walk(c)

    walk(e)
    return out


def _contains_col(e: Expr, name: str) -> bool:
    if isinstance(e, Col) and e.name == name:
        return True
    return any(_contains_col(c, name) for c in _children(e))


def _find_grouping_calls(e: Expr) -> "list[Func]":
    """Collect GROUPING(...) calls (ENGINE EXTENSION, grouping-sets
    companion) anywhere in an expression tree."""
    out: list[Func] = []

    def walk(x) -> None:
        if isinstance(x, Func) and x.name.lower() == "grouping":
            out.append(x)
        for c in _children(x):
            walk(c)

    walk(e)
    return out


def _find_windows(e: Expr) -> list[WindowCall]:
    out: list[WindowCall] = []
    if isinstance(e, WindowCall):
        out.append(e)
    for c in _children(e):
        out.extend(_find_windows(c))
    return out


_INTERVAL_UNITS = {
    "microsecond": 1,
    "millisecond": 1_000,
    "second": 1_000_000,
    "minute": 60_000_000,
    "hour": 3_600_000_000,
    "day": 86_400_000_000,
    "week": 7 * 86_400_000_000,
}


def _parse_interval_td(s: str) -> "_dt.timedelta":
    """INTERVAL literal body: ``<n> <unit>[s]`` (repeatable: '1 day
    2 hours') or the dialect's ``H:M:S`` form. Fixed-length units only —
    month/year need calendar arithmetic and are rejected."""
    s = s.strip()
    if ":" in s and not any(c.isalpha() for c in s):
        from sqlgrep_ray.stages.parse import _parse_interval_us

        us = _parse_interval_us(s)
        if us is None:
            raise SqlError(f"bad interval literal {s!r} (want 'H:M:S')")
        return _dt.timedelta(microseconds=us)
    toks = s.split()
    if len(toks) % 2 or not toks:
        raise SqlError(f"bad interval literal {s!r} (want '<n> <unit>')")
    total = 0
    for num, unit in zip(toks[::2], toks[1::2]):
        u = unit.lower().rstrip("s") if unit.lower() != "s" else unit
        if u not in _INTERVAL_UNITS:
            raise SqlError(
                f"unsupported interval unit {unit!r} (fixed-length units "
                "only: microsecond…week; month/year need calendar math)"
            )
        try:
            n = float(num)
        except ValueError:
            raise SqlError(f"bad interval quantity {num!r}")
        total += int(n * _INTERVAL_UNITS[u])
    return _dt.timedelta(microseconds=total)


def _select_ordinal(e, projections, where: str):
    """Integer literal in GROUP BY → the 1-based SELECT item's expression
    (standard SQL ordinals)."""
    if (
        isinstance(e, Lit)
        and isinstance(e.value, int)
        and not isinstance(e.value, bool)
    ):
        if projections is None:
            raise SqlError(f"{where} ordinal requires an explicit SELECT list")
        if not 1 <= e.value <= len(projections):
            raise SqlError(
                f"{where} ordinal {e.value} is out of range "
                f"(1..{len(projections)})"
            )
        return projections[e.value - 1][1]
    return e


def _agg_wrap_subquery(sub, func: str) -> "ScalarSubquery":
    """Wrap a plain single-column SELECT subquery in a global MIN/MAX
    aggregate (the quantified-comparison bound) — evaluated once by the
    scalar-subquery machinery."""
    import dataclasses

    if not isinstance(sub, Query):
        raise SqlError("ANY/ALL takes a plain SELECT subquery")
    plan = sub.plan
    if (
        not isinstance(plan, SelectPlan)
        or plan.windows
        or plan.distinct
        or plan.limit is not None
        or plan.projections is None
        or len(plan.projections) != 1
    ):
        raise SqlError(
            "ANY/ALL subquery must be a plain single-column SELECT "
            "(no DISTINCT / windows / LIMIT)"
        )
    p0 = plan.projections[0]
    nplan = AggregatePlan(
        group_by=(),
        aggs=(AggItem("__q", func, p0.expr),),
        where=plan.where,
        join=plan.join,
        extra_joins=getattr(plan, "extra_joins", ()),
    )
    return ScalarSubquery(dataclasses.replace(sub, plan=nplan))


def _quantified_cmp(left: Expr, op: str, quant: str, sub) -> Expr:
    """``x <op> ANY/ALL (SELECT v …)`` → MIN/MAX-bound comparisons or
    the exact IN-subquery path:

    * ``< / <= ALL`` ⇒ x <op> MIN(v);  ``> / >= ALL`` ⇒ x <op> MAX(v)
    * ``< / <= ANY`` ⇒ x <op> MAX(v);  ``> / >= ANY`` ⇒ x <op> MIN(v)
    * ``= ANY`` ⇒ IN (subquery);  ``!= ALL`` ⇒ NOT IN (subquery)
    * ``= ALL`` ⇒ x = MIN(v) AND x = MAX(v); ``!= ANY`` ⇒ the negation
      shape (x != MIN(v) OR x != MAX(v))

    Engine NULL⇒false comparisons make the EMPTY-set ALL false (SQL:
    true) and ignore NULL set members — documented divergence in line
    with every other engine comparison."""
    if quant == "some":
        quant = "any"
    if op == "eq" and quant == "any":
        return InSubquery(left, sub, negated=False)
    if op == "ne" and quant == "all":
        return InSubquery(left, sub, negated=True)
    lo = _agg_wrap_subquery(sub, "min")
    hi = _agg_wrap_subquery(sub, "max")
    if op == "eq":  # = ALL: every element equals x
        return Bin("and", Bin("eq", left, lo), Bin("eq", left, hi))
    if op == "ne":  # != ANY: some element differs from x
        return Bin("or", Bin("ne", left, lo), Bin("ne", left, hi))
    bound = {
        ("lt", "all"): lo, ("le", "all"): lo,
        ("gt", "all"): hi, ("ge", "all"): hi,
        ("lt", "any"): hi, ("le", "any"): hi,
        ("gt", "any"): lo, ("ge", "any"): lo,
    }[(op, quant)]
    return Bin(op, left, bound)


def _select_alias(e, projections):
    """Bare name in GROUP BY matching a SELECT alias → that projection's
    expression (ENGINE EXTENSION, DuckDB/Postgres alias resolution). A
    genuine input column of the same name would shadow the alias in
    Postgres — unknowable at parse time here; the alias wins, documented."""
    if isinstance(e, Col) and "." not in e.name and projections is not None:
        for alias, pe in projections:
            if alias == e.name and pe != e:
                return pe
    return e


def _resolve_order_ordinals(order_by, out_names):
    """ORDER BY <integer literal> means the 1-based SELECT-list ordinal
    (standard SQL; previously a constant no-op key) — rewrite to the
    projection's output column. ``out_names=None`` ⇒ wildcard select."""
    out = []
    for t_ in order_by:
        e = t_[0]
        if (
            isinstance(e, Lit)
            and isinstance(e.value, int)
            and not isinstance(e.value, bool)
        ):
            if out_names is None:
                raise SqlError(
                    "ORDER BY ordinal requires an explicit SELECT list"
                )
            if not 1 <= e.value <= len(out_names):
                raise SqlError(
                    f"ORDER BY ordinal {e.value} is out of range "
                    f"(1..{len(out_names)})"
                )
            e = Col(out_names[e.value - 1])
        out.append((e,) + tuple(t_[1:]))
    return tuple(out)


def _agg_item_of(call: AggCall, name: str) -> AggItem:
    f = call.func
    if f == "count":
        if call.star or not call.args:
            if call.distinct:
                raise SqlError("COUNT(DISTINCT) requires a column")
            return AggItem(name, "count_star")
        if call.distinct:
            return AggItem(name, "count_distinct", call.args[0])
        return AggItem(name, "count", call.args[0])
    if call.distinct and f in ("sum", "avg"):
        # SUM/AVG over the group's distinct values — dedicated holistic
        # aggregates that ride COUNT(DISTINCT)'s skew-safe two-stage path
        if getattr(call, "agg_order", None) is not None:
            raise SqlError(
                "DISTINCT cannot be combined with ORDER BY inside an "
                "aggregate"
            )
        return AggItem(name, f"{f}_distinct", call.args[0])
    if call.distinct and f not in ("min", "max", "array_agg", "string_agg"):
        # min/max are DISTINCT-invariant; STDDEV DISTINCT etc. would
        # silently compute the wrong value — refuse instead
        raise SqlError(f"DISTINCT is not supported in {f}()")
    if call.distinct and getattr(call, "agg_order", None) is not None:
        raise SqlError(
            "DISTINCT cannot be combined with ORDER BY inside an "
            "aggregate (the deduped default order is already sorted)"
        )
    distinct = call.distinct and f in ("array_agg", "string_agg")
    if f in ("stddev_pop", "var_pop"):
        # the engine's bare STDDEV/VARIANCE are already population
        # (reference parity, aggregate_execution.rs:490-539)
        f = {"stddev_pop": "stddev", "var_pop": "variance"}[f]
    if f == "median":
        # MEDIAN(x) ≡ PERCENTILE(x, 0.5) — the engine's truncation-index
        # percentile (no even-count interpolation; documented divergence
        # from DuckDB's interpolating MEDIAN)
        if len(call.args) != 1:
            raise SqlError("median(x) takes one argument")
        return AggItem(name, "percentile", call.args[0], extra=0.5)
    if f in ("covar_pop", "covar_samp", "corr"):
        if len(call.args) != 2:
            raise SqlError(f"{f}(y, x) needs two arguments")
        return AggItem(name, f, call.args[0], extra=call.args[1])
    if f == "percentile":
        if len(call.args) != 2 or not isinstance(call.args[1], Lit):
            raise SqlError("percentile(x, p) needs a literal p")
        p = float(call.args[1].value)
        if not 0.0 <= p <= 1.0:
            raise SqlError("percentile p must be in [0, 1]")
        return AggItem(name, "percentile", call.args[0], extra=p)
    if f == "string_agg":
        if len(call.args) != 2 or not isinstance(call.args[1], Lit):
            raise SqlError("string_agg(x, delim) needs a literal delimiter")
        return AggItem(
            name, "string_agg", call.args[0],
            extra=str(call.args[1].value),
            order=getattr(call, "agg_order", None),
            distinct=distinct,
        )
    if not call.args:
        raise SqlError(f"{f}() needs an argument")
    if len(call.args) != 1:
        raise SqlError(f"{f}() takes exactly one argument")
    return AggItem(
        name, f, call.args[0],
        order=getattr(call, "agg_order", None),
        distinct=distinct,
    )


def convert_query(
    projections: Optional[list[tuple[Optional[str], Expr]]],
    where: Optional[Expr],
    group_by: Optional[list[Expr]],
    having: Optional[Expr],
    distinct: bool,
    limit: Optional[int],
    order_by: tuple = (),
    qualify: Optional[Expr] = None,
    grouping_sets: Optional[list[tuple]] = None,
    offset: Optional[int] = None,
) -> Plan:
    is_agg = bool(group_by) or (
        projections is not None and any(_contains_agg(e) for _, e in projections)
    ) or (having is not None)
    if not is_agg:
        if where is not None and _find_windows(where):
            raise SqlError("window functions are not allowed in WHERE")
        specs: list[WindowSpec] = []
        spec_of: dict = {}  # identical OVER calls compute once
        win_inputs: list[tuple[str, Expr]] = []  # hidden pre-window cols
        win_input_of: dict = {}  # identical value exprs compute once

        def hidden_input(expr: Expr) -> str:
            # expression window argument / PARTITION BY key: evaluate
            # once per batch into a hidden column BEFORE the exchange
            if _find_windows(expr):
                raise SqlError(
                    "window functions cannot nest inside a window "
                    "argument or PARTITION BY key"
                )
            hid = win_input_of.get(expr)
            if hid is None:
                hid = f"__wv{len(win_inputs)}"
                win_input_of[expr] = hid
                win_inputs.append((hid, expr))
            return hid

        def lift(e: Expr) -> Expr:
            for wc in _find_windows(e):
                out = spec_of.get(wc)
                if out is None:
                    out = f"__win{len(specs)}"
                    spec_of[wc] = out
                    vcol = wc.value_col
                    if vcol is not None and not isinstance(vcol, str):
                        vcol = hidden_input(vcol)
                    key = wc.key
                    if isinstance(key, tuple):
                        key = tuple(
                            k if isinstance(k, str) else hidden_input(k)
                            for k in key
                        )
                    elif key is not None and not isinstance(key, str):
                        key = hidden_input(key)
                    order = wc.order
                    if isinstance(order, tuple):
                        # composite/DESC entries: (col_or_expr, desc[, nf])
                        order = tuple(
                            (
                                o[0]
                                if isinstance(o[0], str)
                                else hidden_input(o[0]),
                            )
                            + tuple(o[1:])
                            for o in order
                        )
                    elif order is not None and not isinstance(order, str):
                        order = hidden_input(order)  # bare expression key
                    specs.append(
                        WindowSpec(
                            out, wc.func, vcol, key, order,
                            wc.offset, wc.frame, wc.default, wc.preceding,
                            wc.following,
                            ignore_nulls=getattr(wc, "ignore_nulls", False),
                        )
                    )
                e = _replace(e, wc, Col(out))
            return e

        projs = None
        alias_expr: dict[str, Expr] = {}
        unnest_slot: Optional[tuple] = None
        if where is not None and _find_unnest(where):
            raise SqlError("UNNEST is not allowed in WHERE")
        if projections is not None:
            rewritten: list[tuple[Optional[str], Expr, str]] = []
            for i, (alias, e) in enumerate(projections):
                # name resolved BEFORE the window rewrite so a bare
                # LAG(...) projection defaults to p{i}, not the hidden col
                name = alias or (e.name if isinstance(e, Col) else f"p{i}")
                if isinstance(e, Func) and e.name.lower() == "unnest":
                    # ENGINE EXTENSION: UNNEST(list) — one output row per
                    # element (empty/NULL lists drop the row); runs after
                    # windows/QUALIFY, before projection (runner explode)
                    if len(e.args) != 1:
                        raise SqlError("UNNEST takes exactly one argument")
                    if unnest_slot is not None:
                        raise SqlError("at most one UNNEST per SELECT")
                    unnest_slot = (name, lift(e.args[0]))
                    rewritten.append((alias, Col(name), name))
                    continue
                if _find_unnest(e):
                    raise SqlError(
                        "UNNEST must be a top-level SELECT item"
                    )
                e = lift(e)
                if alias:
                    alias_expr[alias] = e
                rewritten.append((alias, e, name))
            projs = tuple(Projection(n, e) for _, e, n in rewritten)
        if qualify is not None:
            if _find_unnest(qualify):
                raise SqlError("UNNEST is not allowed in QUALIFY")
            if unnest_slot is not None and _contains_col(
                qualify, unnest_slot[0]
            ):
                raise SqlError(
                    "the UNNEST output cannot be referenced in QUALIFY "
                    "(QUALIFY runs before the explode)"
                )
            qualify = lift(qualify)
            # projection ALIASES are legal in QUALIFY (the `QUALIFY rn = 1`
            # idiom); substitute them with their rewritten expressions
            for alias, ae in alias_expr.items():
                qualify = _replace(qualify, Col(alias), ae)
            if not specs:
                raise SqlError(
                    "QUALIFY requires a window function in the query"
                )
        return SelectPlan(
            projections=projs, where=where, distinct=distinct, limit=limit,
            offset=offset,
            order_by=_resolve_order_ordinals(
                order_by,
                [p.name for p in projs] if projs is not None else None,
            ),
            windows=tuple(specs), qualify=qualify,
            unnest=unnest_slot,
            win_inputs=tuple(win_inputs),
        )

    # aggregate statement
    if qualify is not None:
        raise SqlError("QUALIFY cannot be combined with aggregation")
    for _, e in projections or []:
        if _find_unnest(e):
            raise SqlError(
                "UNNEST cannot be combined with aggregation — "
                "UNNEST in a CTE, aggregate over it"
            )
    if projections is None:
        raise SqlError("SELECT * not allowed with GROUP BY / aggregates")
    if any(_find_windows(e) for _, e in projections) or (
        having is not None and _find_windows(having)
    ):
        raise SqlError("window functions cannot be combined with aggregation")
    group_exprs = list(group_by or [])
    keys: list[GroupKey] = []
    key_origin: list[int] = []  # group_exprs index each GroupKey came from
    aggs: list[AggItem] = []
    used_keys: set[int] = set()
    grouping_cols: list[tuple] = []  # (out name, group_exprs index)

    def _grouping_slot(arg: Expr, name: Optional[str]) -> str:
        """Register a GROUPING(col) output (ENGINE EXTENSION, standard SQL
        companion of grouping sets: 1 when the key is rolled up in the
        row's set, else 0 — disambiguates rolled-up from genuine NULLs)."""
        if grouping_sets is None:
            raise SqlError(
                "GROUPING() requires ROLLUP / CUBE / GROUPING SETS"
            )
        j = next((jj for jj, g in enumerate(group_exprs) if g == arg), None)
        if j is None:
            raise SqlError("GROUPING() argument must be a GROUP BY key")
        if name is None:  # HAVING-only slot, reuse an existing output
            for n, jj in grouping_cols:
                if jj == j:
                    return n
            name = f"__grouping{j}"
        grouping_cols.append((name, j))
        return name

    out_names: list[str] = []  # SELECT-list output names (ORDER BY ordinals)
    for i, (alias, e) in enumerate(projections):
        if isinstance(e, Func) and e.name.lower() == "grouping":
            if len(e.args) != 1:
                raise SqlError("GROUPING() takes exactly one argument")
            out_names.append(_grouping_slot(e.args[0], alias or f"p{i}"))
            continue
        calls = _find_aggs(e)
        if len(calls) > 1:
            raise SqlError("at most one aggregate per projection")  # TooManyAggregates
        if calls:
            call = calls[0]
            default = f"count{i}" if call.func == "count" else f"p{i}"
            name = alias or (
                e.name if isinstance(e, Col) else default
            )
            item = _agg_item_of(call, name)
            transform = None
            if e != call:  # surrounding scalar expr → $value transform (:486-653)
                transform = _replace(e, call, Col("$value"))
            aggs.append(
                AggItem(
                    item.name, item.func, item.arg, item.extra, transform,
                    order=item.order, distinct=item.distinct,
                )
            )
            out_names.append(name)
        else:
            # must match a GROUP BY entry by expression-tree equality
            # (aggregate_execution.rs:268-273,341-347 via tree hash)
            match = next(
                (j for j, g in enumerate(group_exprs) if g == e), None
            )
            if match is None:
                raise SqlError(
                    f"projection {alias or e!r} is not in GROUP BY"
                )  # validate_group_key
            used_keys.add(match)
            name = alias or (e.name if isinstance(e, Col) else f"p{i}")
            keys.append(GroupKey(name, e))
            key_origin.append(match)
            out_names.append(name)

    # GROUP BY entries never projected still partition the groups
    for j, g in enumerate(group_exprs):
        if j not in used_keys:
            keys.append(
                GroupKey(g.name if isinstance(g, Col) else f"gk{j}", g)
            )
            key_origin.append(j)

    # ROLLUP/CUBE/GROUPING SETS: translate index sets over group_exprs to
    # name sets over the (possibly multiply-projected) GroupKeys
    plan_sets: tuple = ()
    if grouping_sets is not None:
        plan_sets = tuple(
            tuple(k.name for k, j in zip(keys, key_origin) if j in s)
            for s in grouping_sets
        )
    # HAVING: group keys → their output names; aggregates → existing slots or
    # hidden __having{i} extras (aggregate_execution.rs:88-115);
    # GROUPING(col) → its output slot (or a hidden __grouping{j} one)
    having_expr = having
    if having_expr is not None:
        for gcall in _find_grouping_calls(having_expr):
            if len(gcall.args) != 1:
                raise SqlError("GROUPING() takes exactly one argument")
            n = _grouping_slot(gcall.args[0], None)
            having_expr = _replace(having_expr, gcall, Col(n))
        for call in _find_aggs(having_expr):
            # structural match: same func/arg/extra, no transform
            probe = _agg_item_of(call, "__probe")
            existing = next(
                (
                    a.name
                    for a in aggs
                    if a.func == probe.func
                    and a.arg == probe.arg
                    and a.extra == probe.extra
                    and a.transform is None
                ),
                None,
            )
            if existing is None:
                hname = f"__having{len(aggs)}"
                aggs.append(_agg_item_of(call, hname))
                having_expr = _replace(having_expr, call, Col(hname))
            else:
                having_expr = _replace(having_expr, call, Col(existing))
        for k in keys:
            having_expr = _replace(having_expr, k.expr, Col(k.name))

    if grouping_cols:
        # resolve each GROUPING() target to its (first) GroupKey name —
        # the runner masks/marks by key name (after HAVING, which may add
        # hidden slots)
        origin_name: dict[int, str] = {}
        for k, jo in zip(keys, key_origin):
            origin_name.setdefault(jo, k.name)
        grouping_cols = [(n, origin_name[j]) for n, j in grouping_cols]

    return AggregatePlan(
        group_by=tuple(keys),
        aggs=tuple(aggs),
        where=where,
        having=having_expr,
        distinct=distinct,
        limit=limit,
        offset=offset,
        order_by=_resolve_order_ordinals(order_by, out_names),
        grouping_sets=plan_sets,
        grouping_cols=tuple(grouping_cols),
    )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse(text: str) -> list[Statement]:
    """Parse a definition/query string into TableDef / Query statements."""
    return Parser(text).parse_statements()


def parse_query(text: str) -> Union[Query, SetQuery, WithQuery]:
    stmts = parse(text)
    qs = [s for s in stmts if isinstance(s, (Query, SetQuery, WithQuery))]
    if len(qs) != 1:
        raise SqlError(f"expected exactly one query, got {len(qs)}")
    return qs[0]


def parse_table_defs(text: str) -> list[TableDef]:
    return [s for s in parse(text) if isinstance(s, TableDef)]
