"""Driver-contract queries: Ray pipelines + DuckDB oracle SQL, paired.

Each entry exercises one operator family from SURVEY.md §2 (or a
training-data addition) over the driver's parquet tables; ``oracle_sql()``
entries are ANSI SQL equivalents DuckDB runs on the same tables. Column
names are aligned on both sides (driver hashes values under sorted column
names).

Float determinism policy (cross-engine value-hash equality):
* per-row float math (e.g. ``price * (1 - discount)``) is IEEE-identical in
  both engines — safe unrounded;
* SUMs over floats are order-dependent → queries only sum columns whose
  values are integral (exact in double) or pre-scale to integral
  (``round(x * 10000)``), making the sum exact and order-independent;
* stddev/variance use different algorithms per engine → rounded to 6 dp;
* knn omits the score column (float32/float64 accumulation differences).
"""

from __future__ import annotations

import os
from typing import Any, Callable

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from sqlgrep_ray.functions.exprs import Bin, Case, Cast, Col, Func, InList, Lit, Un
from sqlgrep_ray.pipelines.flagship import (
    FTPD_PATTERN,
    SSH_PATTERN,
    flagship,
    hour_histogram,
    sink_counts,
    sink_role_counts,
)
from sqlgrep_ray.pipelines.plan import (
    AggItem,
    AggregatePlan,
    GroupKey,
    JoinSpec,
    Projection,
    SelectPlan,
)
from sqlgrep_ray.pipelines.runner import run_plan
from sqlgrep_ray.schema import (
    INT,
    STRING,
    ColumnDef,
    JsonPath,
    PatternDef,
    RegexCapture,
    RegexRef,
    TableDef,
)
from sqlgrep_ray.sources.synth import transcripts_for
from sqlgrep_ray.stages.dedup import (
    embedding_dup_pairs,
    exact_dedup,
    minhash_lsh_dedup,
    simhash_dedup,
)
from sqlgrep_ray.stages.multimodal import decode_featurize, synth_media
from sqlgrep_ray.stages.similarity import knn_brute_force, knn_ivf
from sqlgrep_ray.stages.textstats import text_stats

Result = Any  # Dataset | pandas.DataFrame | pyarrow.Table


def _t(sf_dir: str, name: str, columns=None) -> "ray.data.Dataset":
    """Table read; pass ``columns`` (or derive via
    ``runner.referenced_columns(plan)``) so only needed columns leave
    storage — ``select_columns`` after the read does NOT prune it."""
    from sqlgrep_ray.sources import read_parquet_clean

    return read_parquet_clean(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns
    )


def _tp(sf_dir: str, name: str, plan) -> "ray.data.Dataset":
    """Read pruned to exactly the columns ``plan`` references."""
    from sqlgrep_ray.pipelines.runner import referenced_columns

    return _t(sf_dir, name, columns=referenced_columns(plan))


def _pat(sf_dir: str, name: str) -> pa.Table:
    return pq.read_table(os.path.join(sf_dir, f"{name}.parquet"))


# ---------------------------------------------------------------------------
# Relational core (SURVEY §2.2–§2.8)
# ---------------------------------------------------------------------------


def q_select_where_project(sf_dir: str) -> Result:
    """M8 filter + M9 projection with computed column."""
    plan = SelectPlan(
        projections=(
            Projection("l_orderkey", Col("l_orderkey")),
            Projection("l_linenumber", Col("l_linenumber")),
            Projection(
                "revenue",
                Bin(
                    "mul",
                    Col("l_extendedprice"),
                    Bin("sub", Lit(1.0), Col("l_discount")),
                ),
            ),
        ),
        where=Bin(
            "and",
            Bin("gt", Col("l_quantity"), Lit(45.0)),
            Bin("le", Col("l_discount"), Lit(0.05)),
        ),
    )
    return run_plan(_tp(sf_dir, "lineitem", plan), plan)


SQL_SELECT_WHERE_PROJECT = """
SELECT l_orderkey, l_linenumber,
       l_extendedprice * (1.0 - l_discount) AS revenue
FROM lineitem WHERE l_quantity > 45 AND l_discount <= 0.05
"""


def q_orderby_topn(sf_dir: str) -> Result:
    """ORDER BY + LIMIT (engine extension — the reference has no ORDER BY,
    SURVEY §2.7): deterministic top-N via desc sort with full tie-breaks.
    The driver's value hash is order-insensitive, so the LIMIT makes the
    sort itself observable (a wrong order returns a different row SET)."""
    plan = SelectPlan(
        projections=(
            Projection("l_orderkey", Col("l_orderkey")),
            Projection("l_linenumber", Col("l_linenumber")),
            Projection("l_quantity", Col("l_quantity")),
        ),
        order_by=(
            (Col("l_quantity"), True),
            (Col("l_orderkey"), False),
            (Col("l_linenumber"), False),
        ),
        limit=25,
    )
    return run_plan(_tp(sf_dir, "lineitem", plan), plan)


SQL_ORDERBY_TOPN = """
SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem
ORDER BY l_quantity DESC, l_orderkey ASC, l_linenumber ASC LIMIT 25
"""


def q_agg_global(sf_dir: str) -> Result:
    """Global (no GROUP BY) aggregates — one group, key [Null] (§2.6)."""
    plan = AggregatePlan(
        aggs=(
            AggItem("n", "count_star"),
            AggItem("sum_qty", "sum", Col("l_quantity")),
            AggItem("avg_qty", "avg", Col("l_quantity")),
            AggItem("min_price", "min", Col("l_extendedprice")),
            AggItem("max_price", "max", Col("l_extendedprice")),
        ),
    )
    return run_plan(_tp(sf_dir, "lineitem", plan), plan)


SQL_AGG_GLOBAL = """
SELECT count(*) AS n, sum(l_quantity) AS sum_qty, avg(l_quantity) AS avg_qty,
       min(l_extendedprice) AS min_price, max(l_extendedprice) AS max_price
FROM lineitem
"""


def q_groupby_q1(sf_dir: str) -> Result:
    """TPC-H Q1 shape: multi-key groupby, sums exact via integral scaling."""
    rev_c = Func(
        "round",
        (
            Bin(
                "mul",
                Bin(
                    "mul",
                    Col("l_extendedprice"),
                    Bin("sub", Lit(1.0), Col("l_discount")),
                ),
                Lit(10000.0),
            ),
        ),
    )
    plan = AggregatePlan(
        group_by=(
            GroupKey("l_returnflag", Col("l_returnflag")),
            GroupKey("l_linestatus", Col("l_linestatus")),
        ),
        aggs=(
            AggItem("sum_qty", "sum", Col("l_quantity")),
            AggItem("avg_qty", "avg", Col("l_quantity")),
            AggItem("sum_rev_c", "sum", rev_c),
            AggItem("n", "count_star"),
            AggItem("n2", "count_star", transform=Bin("mul", Col("$value"), Lit(2))),
        ),
        where=Bin("le", Col("l_shipdate"), Lit("1998-09-02 00:00:00")),
    )
    return run_plan(_tp(sf_dir, "lineitem", plan), plan)


SQL_GROUPBY_Q1 = """
SELECT l_returnflag, l_linestatus,
       sum(l_quantity) AS sum_qty, avg(l_quantity) AS avg_qty,
       sum(round(l_extendedprice * (1.0 - l_discount) * 10000.0)) AS sum_rev_c,
       count(*) AS n, count(*) * 2 AS n2
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus
"""


def q_groupby_expr_hour(sf_dir: str) -> Result:
    """GROUP BY expression (EXTRACT hour) — §2.6 group-by-expression."""
    plan = AggregatePlan(
        group_by=(GroupKey("hour", Func("timestamp_extract_hour", (Col("ts"),))),),
        aggs=(
            AggItem("n", "count_star"),
            AggItem("max_value", "max", Col("value")),
            AggItem("min_value", "min", Col("value")),
        ),
    )
    return run_plan(_tp(sf_dir, "events", plan), plan)


SQL_GROUPBY_EXPR_HOUR = """
SELECT CAST(extract(hour FROM ts) AS BIGINT) AS hour, count(*) AS n,
       max(value) AS max_value, min(value) AS min_value
FROM events GROUP BY 1 ORDER BY 1
"""


def q_groupby_orderkey(sf_dir: str) -> Result:
    """High-cardinality GROUP BY (one group per order) through the AUTO
    merge-path selection (plan.small_result=None): the runner counts the
    combined partials and picks single-block vs distributed merge itself —
    no manual flag (VERDICT r1 item 6)."""
    plan = AggregatePlan(
        group_by=(GroupKey("l_orderkey", Col("l_orderkey")),),
        aggs=(
            AggItem("n", "count_star"),
            AggItem("sum_qty", "sum", Col("l_quantity")),
        ),
        having=Bin("ge", Col("n"), Lit(6)),
    )
    return run_plan(_tp(sf_dir, "lineitem", plan), plan)


SQL_GROUPBY_ORDERKEY = """
SELECT l_orderkey, count(*) AS n, sum(l_quantity) AS sum_qty
FROM lineitem GROUP BY 1 HAVING count(*) >= 6 ORDER BY 1
"""


def q_having_priority(sf_dir: str) -> Result:
    plan = AggregatePlan(
        group_by=(GroupKey("o_orderpriority", Col("o_orderpriority")),),
        aggs=(
            AggItem("n", "count_star"),
            AggItem("max_total", "max", Col("o_totalprice")),
        ),
        having=Bin("gt", Col("n"), Lit(2900)),
    )
    return run_plan(_tp(sf_dir, "orders", plan), plan)


SQL_HAVING_PRIORITY = """
SELECT o_orderpriority, count(*) AS n, max(o_totalprice) AS max_total
FROM orders GROUP BY 1 HAVING count(*) > 2900 ORDER BY 1
"""


def q_distinct_status(sf_dir: str) -> Result:
    plan = SelectPlan(
        projections=(
            Projection("o_orderstatus", Col("o_orderstatus")),
            Projection("o_orderpriority", Col("o_orderpriority")),
        ),
        distinct=True,
    )
    return run_plan(_tp(sf_dir, "orders", plan), plan)


SQL_DISTINCT_STATUS = """
SELECT DISTINCT o_orderstatus, o_orderpriority FROM orders
"""


def q_join_customer_nation(sf_dir: str) -> Result:
    """ST2 broadcast hash join (inner) + aggregate."""
    nation = _pat(sf_dir, "nation")
    plan = AggregatePlan(
        group_by=(GroupKey("n_name", Col("n_name")),),
        aggs=(
            AggItem("n", "count_star"),
            AggItem("max_bal", "max", Col("c_acctbal")),
            AggItem("min_bal", "min", Col("c_acctbal")),
        ),
        join=JoinSpec(
            right=nation, left_key="c_nationkey", right_key="n_nationkey", how="inner"
        ),
    )
    return run_plan(_tp(sf_dir, "customer", plan), plan)


SQL_JOIN_CUSTOMER_NATION = """
SELECT n_name, count(*) AS n, max(c_acctbal) AS max_bal, min(c_acctbal) AS min_bal
FROM customer JOIN nation ON c_nationkey = n_nationkey
GROUP BY 1 ORDER BY 1
"""


def q_join_left_part(sf_dir: str) -> Result:
    """Left-outer broadcast join (null fill on miss) then aggregate —
    composed as select-path join (OUTER is select-only in the reference,
    execution_engine.rs:186-200) + second aggregate plan."""
    part = _pat(sf_dir, "part")
    import pyarrow.compute as pc

    big = part.filter(pc.greater_equal(part["p_size"], 48)).select(
        ["p_partkey", "p_brand"]
    )
    joined = run_plan(
        _t(sf_dir, "lineitem"),
        SelectPlan(
            join=JoinSpec(
                right=big, left_key="l_partkey", right_key="p_partkey", how="left"
            )
        ),
    )
    return run_plan(
        joined,
        AggregatePlan(
            group_by=(GroupKey("p_brand", Col("p_brand")),),
            aggs=(AggItem("n", "count_star"),),
        ),
    )


SQL_JOIN_LEFT_PART = """
SELECT p_brand, count(*) AS n
FROM lineitem LEFT JOIN (
  SELECT p_partkey, p_brand FROM part WHERE p_size >= 48
) ON l_partkey = p_partkey
GROUP BY 1 ORDER BY 1
"""


def q_join_chain_region(sf_dir: str) -> Result:
    """Composition beyond the reference (which allows ONE join per query):
    two chained broadcast joins supplier→nation→region, then aggregate."""
    nation = _pat(sf_dir, "nation")
    region = _pat(sf_dir, "region")
    j1 = run_plan(
        _t(sf_dir, "supplier"),
        SelectPlan(
            join=JoinSpec(
                right=nation, left_key="s_nationkey", right_key="n_nationkey"
            )
        ),
    )
    j2 = run_plan(
        j1,
        SelectPlan(
            join=JoinSpec(
                right=region, left_key="n_regionkey", right_key="r_regionkey"
            )
        ),
    )
    return run_plan(
        j2,
        AggregatePlan(
            group_by=(GroupKey("r_name", Col("r_name")),),
            aggs=(
                AggItem("n", "count_star"),
                AggItem("max_bal", "max", Col("s_acctbal")),
            ),
        ),
    )


SQL_JOIN_CHAIN_REGION = """
SELECT r_name, count(*) AS n, max(s_acctbal) AS max_bal
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY 1 ORDER BY 1
"""


def q_shuffle_join_orders(sf_dir: str) -> Result:
    """Distributed hash join (both sides shuffle — the large-side fallback,
    stages/enrich.shuffle_join) orders ⋈ customer, then aggregate."""
    from sqlgrep_ray.stages.enrich import shuffle_join

    joined = shuffle_join(
        _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        _t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]),
        on=("o_custkey",),
        right_on=("c_custkey",),
        how="inner",
    )
    return run_plan(
        joined,
        AggregatePlan(
            group_by=(GroupKey("c_mktsegment", Col("c_mktsegment")),),
            aggs=(
                AggItem("n", "count_star"),
                AggItem("max_total", "max", Col("o_totalprice")),
            ),
        ),
    )


SQL_SHUFFLE_JOIN_ORDERS = """
SELECT c_mktsegment, count(*) AS n, max(o_totalprice) AS max_total
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY 1 ORDER BY 1
"""


def q_count_distinct_users(sf_dir: str) -> Result:
    plan = AggregatePlan(
        group_by=(GroupKey("event_type", Col("event_type")),),
        aggs=(
            AggItem("users", "count_distinct", Col("user_id")),
            AggItem("n", "count_star"),
        ),
    )
    return run_plan(_tp(sf_dir, "events", plan), plan)


SQL_COUNT_DISTINCT_USERS = """
SELECT event_type, count(DISTINCT user_id) AS users, count(*) AS n
FROM events GROUP BY 1 ORDER BY 1
"""


def q_stddev_quantity(sf_dir: str) -> Result:
    """Population stddev/variance ((Σx² − (Σx)²/n)/n, reference
    aggregate_execution.rs:490-539), rounded for cross-engine equality."""
    plan = AggregatePlan(
        group_by=(GroupKey("l_returnflag", Col("l_returnflag")),),
        aggs=(
            AggItem(
                "sd_qty",
                "stddev",
                Col("l_quantity"),
                transform=Func("round", (Col("$value"), Lit(6))),
            ),
            AggItem(
                "var_qty",
                "variance",
                Col("l_quantity"),
                transform=Func("round", (Col("$value"), Lit(6))),
            ),
        ),
    )
    return run_plan(_tp(sf_dir, "lineitem", plan), plan)


SQL_STDDEV_QUANTITY = """
SELECT l_returnflag, round(stddev_pop(l_quantity), 6) AS sd_qty,
       round(var_pop(l_quantity), 6) AS var_qty
FROM lineitem GROUP BY 1 ORDER BY 1
"""


def q_percentile_price(sf_dir: str) -> Result:
    """Reference percentile: sort, index = trunc(p·len) (:578-591)."""
    plan = AggregatePlan(
        group_by=(GroupKey("l_linestatus", Col("l_linestatus")),),
        aggs=(AggItem("p50", "percentile", Col("l_extendedprice"), extra=0.5),),
    )
    return run_plan(_tp(sf_dir, "lineitem", plan), plan)


SQL_PERCENTILE_PRICE = """
SELECT l_linestatus,
       (array_agg(l_extendedprice ORDER BY l_extendedprice))
         [CAST(floor(0.5 * count(*)) AS INT) + 1] AS p50
FROM lineitem GROUP BY 1 ORDER BY 1
"""


def q_array_string_agg(sf_dir: str) -> Result:
    """ARRAY_AGG / STRING_AGG (holistic; engine sorts values — documented
    divergence from the reference's insertion order, matched by ORDER BY in
    the oracle)."""
    plan = AggregatePlan(
        group_by=(GroupKey("n_regionkey", Col("n_regionkey")),),
        aggs=(
            AggItem("names", "array_agg", Col("n_name")),
            AggItem("joined", "string_agg", Col("n_name"), extra=","),
        ),
    )
    return run_plan(_tp(sf_dir, "nation", plan), plan)


SQL_ARRAY_STRING_AGG = """
SELECT n_regionkey, array_agg(n_name ORDER BY n_name) AS names,
       string_agg(n_name, ',' ORDER BY n_name) AS joined
FROM nation GROUP BY 1 ORDER BY 1
"""


def q_case_priority(sf_dir: str) -> Result:
    band = Case(
        whens=(
            (
                InList(Col("o_orderpriority"), (Lit("1-URGENT"), Lit("2-HIGH"))),
                Lit("high"),
            ),
            (Bin("eq", Col("o_orderpriority"), Lit("3-MEDIUM")), Lit("mid")),
        ),
        else_=Lit("low"),
    )
    plan = AggregatePlan(
        group_by=(GroupKey("band", band),),
        aggs=(AggItem("n", "count_star"),),
    )
    return run_plan(_tp(sf_dir, "orders", plan), plan)


SQL_CASE_PRIORITY = """
SELECT CASE WHEN o_orderpriority IN ('1-URGENT','2-HIGH') THEN 'high'
            WHEN o_orderpriority = '3-MEDIUM' THEN 'mid'
            ELSE 'low' END AS band, count(*) AS n
FROM orders GROUP BY 1 ORDER BY 1
"""


def q_scalar_funcs_part(sf_dir: str) -> Result:
    """Scalar function battery (§2.3): upper/lower/length/abs/sqrt/case math."""
    plan = SelectPlan(
        projections=(
            Projection("p_partkey", Col("p_partkey")),
            Projection("brand_u", Func("upper", (Col("p_brand"),))),
            Projection("type_l", Func("lower", (Col("p_type"),))),
            Projection("name_len", Func("length", (Col("p_name"),))),
            Projection(
                "price_sqrt", Func("sqrt", (Func("abs", (Col("p_retailprice"),)),))
            ),
            Projection(
                "size_big",
                Func("greatest", (Col("p_size"), Lit(25))),
            ),
        ),
        where=Bin("lt", Col("p_partkey"), Lit(500)),
    )
    return run_plan(_tp(sf_dir, "part", plan), plan)


SQL_SCALAR_FUNCS_PART = """
SELECT p_partkey, upper(p_brand) AS brand_u, lower(p_type) AS type_l,
       length(p_name) AS name_len, sqrt(abs(p_retailprice)) AS price_sqrt,
       greatest(p_size, 25) AS size_big
FROM part WHERE p_partkey < 500
"""


def q_in_list_flags(sf_dir: str) -> Result:
    plan = AggregatePlan(
        group_by=(GroupKey("l_returnflag", Col("l_returnflag")),),
        aggs=(AggItem("n", "count_star"),),
        where=InList(Col("l_returnflag"), (Lit("A"), Lit("R"))),
    )
    return run_plan(_tp(sf_dir, "lineitem", plan), plan)


SQL_IN_LIST_FLAGS = """
SELECT l_returnflag, count(*) AS n FROM lineitem
WHERE l_returnflag IN ('A','R') GROUP BY 1 ORDER BY 1
"""


def q_groupby_limit(sf_dir: str) -> Result:
    """LIMIT after aggregate = truncate sorted result (ST5 / §2.7)."""
    plan = AggregatePlan(
        group_by=(GroupKey("o_orderpriority", Col("o_orderpriority")),),
        aggs=(AggItem("n", "count_star"),),
        limit=3,
    )
    return run_plan(_tp(sf_dir, "orders", plan), plan)


SQL_GROUPBY_LIMIT = """
SELECT o_orderpriority, count(*) AS n FROM orders
GROUP BY 1 ORDER BY 1 LIMIT 3
"""


def q_date_trunc_day(sf_dir: str) -> Result:
    plan = AggregatePlan(
        group_by=(
            GroupKey("day", Func("date_trunc", (Lit("day"), Col("ts")))),
        ),
        aggs=(AggItem("n", "count_star"),),
    )
    return run_plan(_tp(sf_dir, "events", plan), plan)


SQL_DATE_TRUNC_DAY = """
SELECT date_trunc('day', ts) AS day, count(*) AS n
FROM events GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Parse/extract stages (M1–M7) over real columns
# ---------------------------------------------------------------------------

_KW_PATTERN = r"(spark|hash|window) (\w+)"


def q_regex_extract_docs(sf_dir: str) -> Result:
    tdef = TableDef(
        "kw",
        [PatternDef("p", _KW_PATTERN)],
        [
            ColumnDef("kw", STRING, RegexCapture(RegexRef("p", 1))),
            ColumnDef("nxt", STRING, RegexCapture(RegexRef("p", 2))),
        ],
    )
    from sqlgrep_ray.stages.parse import ParseTable

    parsed = _t(sf_dir, "documents", ["text"]).map_batches(
        ParseTable(tdef, "text"), batch_format="pyarrow", zero_copy_batch=True
    )
    return run_plan(
        parsed,
        AggregatePlan(
            group_by=(GroupKey("kw", Col("kw")),),
            aggs=(AggItem("n", "count_star"),),
        ),
    )


SQL_REGEX_EXTRACT_DOCS = """
SELECT regexp_extract(text, '(spark|hash|window) (\\w+)', 1) AS kw, count(*) AS n
FROM documents WHERE regexp_matches(text, '(spark|hash|window) (\\w+)')
GROUP BY 1 ORDER BY 1
"""


def q_json_extract_events(sf_dir: str) -> Result:
    tdef = TableDef(
        "props",
        [],
        [ColumnDef("k", INT, JsonPath(("k",)))],
    )
    from sqlgrep_ray.stages.parse import ParseTable

    parsed = _t(sf_dir, "events", ["props"]).map_batches(
        ParseTable(tdef, "props"), batch_format="pyarrow", zero_copy_batch=True
    )
    return run_plan(
        parsed,
        AggregatePlan(
            group_by=(GroupKey("k", Col("k")),),
            aggs=(AggItem("n", "count_star"),),
        ),
    )


SQL_JSON_EXTRACT_EVENTS = """
SELECT CAST(json_extract(props, '$.k') AS BIGINT) AS k, count(*) AS n
FROM events WHERE json_extract(props, '$.k') IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


def q_split_extract_docs(sf_dir: str) -> Result:
    """Split-mode extraction (M2): first whitespace field, 1-based."""
    tdef = TableDef(
        "sp",
        [PatternDef("s", " ", "split")],
        [ColumnDef("w1", STRING, RegexCapture(RegexRef("s", 1)))],
    )
    from sqlgrep_ray.stages.parse import ParseTable

    parsed = _t(sf_dir, "documents", ["text"]).map_batches(
        ParseTable(tdef, "text"), batch_format="pyarrow", zero_copy_batch=True
    )
    return run_plan(
        parsed,
        AggregatePlan(
            group_by=(GroupKey("w1", Col("w1")),),
            aggs=(AggItem("n", "count_star"),),
        ),
    )


SQL_SPLIT_EXTRACT_DOCS = """
SELECT string_split(text, ' ')[1] AS w1, count(*) AS n
FROM documents GROUP BY 1 ORDER BY 1
"""


def q_sql_regex_groupby(sf_dir: str) -> Result:
    """The same extraction as q_regex_extract_docs, but driven end-to-end
    through the SQL front-end + Tables API (SURVEY §2.11)."""
    from sqlgrep_ray.api import Tables

    t = Tables()
    t.add_tables(
        r"CREATE TABLE kwt('(spark|hash|window) (\\w+)' => kw TEXT);"
    )
    return t.execute_query(
        "SELECT kw, COUNT(*) AS n FROM kwt GROUP BY kw",
        source=_t(sf_dir, "documents", ["text"]),
    )


SQL_SQL_REGEX_GROUPBY = SQL_REGEX_EXTRACT_DOCS


def q_sql_json_groupby(sf_dir: str) -> Result:
    from sqlgrep_ray.api import Tables

    t = Tables()
    t.add_tables("CREATE TABLE props_t({ .k } => k INT);")
    return t.execute_query(
        "SELECT k, COUNT(*) AS n FROM props_t GROUP BY k",
        source=_t(sf_dir, "events", ["props"]),
        text_col="props",
    )


SQL_SQL_JSON_GROUPBY = SQL_JSON_EXTRACT_EVENTS


# ---------------------------------------------------------------------------
# Training-data operators (dedup / text / similarity / multimodal)
# ---------------------------------------------------------------------------


# DuckDB expression for python's " ".join(text.split()): collapse whitespace
# runs then strip the single leading/trailing space
_SQL_WSNORM = (
    "regexp_replace(regexp_replace({c}, '\\s+', ' ', 'g'), '^ | $', '', 'g')"
)


def q_curate_corpus(sf_dir: str) -> Result:
    """Composed curation pipeline (pipelines/curate.py) in its
    SQL-expressible configuration: token floor + exact dedup on the
    normalized-content fingerprint, applied as distributed semi-joins (no
    driver-side keep-set). ``languages=None`` + ``min_quality=0`` turn the
    heuristic filters into no-ops while still executing their code paths,
    so the surviving (doc_id, text) set has an exact DuckDB oracle."""
    from sqlgrep_ray.pipelines.curate import curate

    out = curate(
        _t(sf_dir, "documents", ["doc_id", "text"]),
        languages=None,
        min_quality=0.0,
        min_tokens=5,
        drop_near_dups=False,
    )
    return out.select_columns(["doc_id", "text"])


SQL_CURATE_CORPUS = f"""
WITH f AS (
  SELECT doc_id, text, {_SQL_WSNORM.format(c='text')} AS wsn FROM documents
), kept AS (
  SELECT doc_id, text, lower(wsn) AS norm,
         CASE WHEN wsn = '' THEN 0
              ELSE array_length(regexp_split_to_array(wsn, ' ')) END AS ntok
  FROM f
), flt AS (SELECT * FROM kept WHERE ntok >= 5),
w AS (SELECT min(doc_id) AS doc_id FROM flt GROUP BY norm)
SELECT flt.doc_id, flt.text FROM flt JOIN w USING (doc_id)
"""


def q_curate_full(sf_dir: str) -> Result:
    """Full curation config (lang allowlist + quality floor + near-dup
    removal) — heuristic filters, so rows-only; the SQL-expressible subset
    is oracle-checked by ``curate_corpus``."""
    from sqlgrep_ray.pipelines.curate import curate

    out = curate(
        _t(sf_dir, "documents", ["doc_id", "text"]),
        min_quality=0.2,
        min_tokens=5,
        drop_near_dups=True,
        near_dup_threshold=0.9,
    )
    return out.select_columns(["doc_id", "lang_pred", "quality_score"])


def q_topk_docs_per_lang(sf_dir: str) -> Result:
    """Top-3 longest documents per language (stages/topk.py — combiner-first
    per-block top-k, then one-block merge)."""
    from sqlgrep_ray.stages.topk import grouped_topk

    out = grouped_topk(
        _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        keys=["lang"],
        score_col="n_chars",
        tie_col="doc_id",
        k=3,
    )
    return out.select_columns(["lang", "doc_id", "n_chars"])


SQL_TOPK_DOCS_PER_LANG = """
SELECT lang, doc_id, n_chars FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang
                            ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents
) WHERE rn <= 3
"""


def q_hash_sample_docs(sf_dir: str) -> Result:
    """Deterministic ~20% sample of documents (stages/sample.py) — integer
    Knuth-hash rule, exactly reproducible in SQL."""
    from sqlgrep_ray.stages.sample import hash_sample

    out = hash_sample(
        _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"]),
        id_col="doc_id",
        fraction=0.2,
    )
    return out.select_columns(["doc_id", "lang", "n_chars"])


SQL_HASH_SAMPLE_DOCS = """
SELECT doc_id, lang, n_chars FROM documents
WHERE (doc_id * 2654435761) % 4294967296 < CAST(0.2 * 4294967296 AS BIGINT)
"""


def q_stratified_sample_docs(sf_dir: str) -> Result:
    """Per-language deterministic downsampling."""
    from sqlgrep_ray.stages.sample import stratified_sample

    out = stratified_sample(
        _t(sf_dir, "documents", ["doc_id", "lang"]),
        id_col="doc_id",
        stratum_col="lang",
        fractions={"en": 0.5, "de": 0.1},
    )
    return out.select_columns(["doc_id", "lang"])


SQL_STRATIFIED_SAMPLE_DOCS = """
SELECT doc_id, lang FROM documents
WHERE (lang = 'en' AND (doc_id * 2654435761) % 4294967296
         < CAST(0.5 * 4294967296 AS BIGINT))
   OR (lang = 'de' AND (doc_id * 2654435761) % 4294967296
         < CAST(0.1 * 4294967296 AS BIGINT))
"""


def q_dedup_exact(sf_dir: str) -> Result:
    """Exact dedup on a collision-rich key: keep min doc_id per n_chars."""
    return exact_dedup(
        _t(sf_dir, "documents", ["n_chars", "doc_id"]), key="n_chars", id_col="doc_id"
    )


SQL_DEDUP_EXACT = """
SELECT n_chars, min(doc_id) AS doc_id FROM documents GROUP BY 1 ORDER BY 1
"""


def q_token_counts(sf_dir: str) -> Result:
    ds = text_stats(
        _t(sf_dir, "documents", ["doc_id", "text"]),
        tokens=True,
        quality=False,
        language=False,
        fingerprint=False,
    )
    return run_plan(
        ds,
        SelectPlan(
            projections=(
                Projection("doc_id", Col("doc_id")),
                Projection("n_tokens_ws", Col("n_tokens_ws")),
            )
        ),
    )


SQL_TOKEN_COUNTS = """
SELECT doc_id,
       CAST(array_length(regexp_split_to_array(trim(text), '\\s+')) AS BIGINT)
         AS n_tokens_ws
FROM documents
"""


def q_percentile_global(sf_dir: str) -> Result:
    """Distributed EXACT global percentile THROUGH THE PLAN PATH: a keyless
    all-percentile plan auto-routes to stages/quantile.py (sample → bracket
    → bounded collect, never the whole column on one worker,
    runner._global_percentile). Value is an element of the data (no float
    arithmetic), so it hashes identically cross-engine."""
    from sqlgrep_ray.functions.exprs import Col
    from sqlgrep_ray.pipelines.plan import AggItem, AggregatePlan
    from sqlgrep_ray.pipelines.runner import run_plan

    plan = AggregatePlan(
        aggs=(AggItem("p95", "percentile", Col("l_extendedprice"), extra=0.95),)
    )
    return run_plan(_t(sf_dir, "lineitem", ["l_extendedprice"]), plan)


SQL_PERCENTILE_GLOBAL = """
SELECT x AS p95 FROM (
  SELECT l_extendedprice AS x,
         row_number() OVER (ORDER BY l_extendedprice) AS rn
  FROM lineitem WHERE l_extendedprice IS NOT NULL
) WHERE rn = 1 + CAST(FLOOR(0.95 * (SELECT count(l_extendedprice)
                                    FROM lineitem)) AS BIGINT)
"""


def q_knn_top5(sf_dir: str) -> Result:
    """Brute-force cosine top-5 for 3 query vectors (ids only — float scores
    differ in last ulp across engines)."""
    emb = _pat(sf_dir, "embeddings")
    import pyarrow.compute as pc

    q = emb.filter(pc.less(emb["vec_id"], 3)).select(["vec_id", "embedding"])
    q = q.rename_columns(["query_id", "embedding"])
    out = knn_brute_force(_t(sf_dir, "embeddings", ["vec_id", "embedding"]), q, k=5)
    return out.select_columns(["query_id", "vec_id"])


SQL_KNN_TOP5 = """
SELECT query_id, vec_id FROM (
  SELECT q.vec_id AS query_id, e.vec_id,
         list_cosine_similarity(CAST(q.embedding AS DOUBLE[]),
                                CAST(e.embedding AS DOUBLE[])) AS score
  FROM embeddings q, embeddings e WHERE q.vec_id < 3
  QUALIFY row_number() OVER (PARTITION BY q.vec_id
                             ORDER BY score DESC, e.vec_id) <= 5
)
"""


# Planted-duplicate corpora: the fixtures carry no guaranteed duplicates, so
# the near-dup contract queries UNION a deterministically re-identified copy
# of a row prefix (same payload, id + 100000) — both sides (Ray and the
# DuckDB oracle) construct the identical corpus, making the expected pair
# set exact. Thresholds are pinned to the regime where the LSH family's
# result is provably exact (jaccard=1.0 ⇔ shingle-set equality; hamming=0 +
# exact_confirm ⇔ token-multiset equality; cosine≥0.999 ⇔ identical planted
# vectors), so recall is 100% — identical signatures always collide.


def _planted_docs(sf_dir: str, n_dups: int = 40) -> "ray.data.Dataset":
    t = _pat(sf_dir, "documents").select(["doc_id", "text"])
    import pyarrow.compute as pc

    cp = t.filter(pc.less(t["doc_id"], n_dups))
    cp = cp.set_column(0, "doc_id", pc.add(cp["doc_id"], 100000))
    return ray.data.from_arrow(t).union(ray.data.from_arrow(cp))


def _planted_emb(sf_dir: str, n_dups: int = 25) -> "ray.data.Dataset":
    t = _pat(sf_dir, "embeddings").select(["vec_id", "embedding"])
    import pyarrow.compute as pc

    cp = t.filter(pc.less(t["vec_id"], n_dups))
    cp = cp.set_column(0, "vec_id", pc.add(cp["vec_id"], 100000))
    return ray.data.from_arrow(t).union(ray.data.from_arrow(cp))


def q_minhash_pairs(sf_dir: str) -> Result:
    """MinHash-LSH near-dup pairs over the planted corpus at threshold 1.0:
    jaccard = 1.0 ⇔ equal token-shingle sets ⇔ (for natural text) equal
    whitespace-normalized text — the SQL oracle's equality join. Signatures
    of equal shingle sets are identical, so every band collides: recall is
    exact, not probabilistic."""
    out = minhash_lsh_dedup(_planted_docs(sf_dir), id_col="doc_id", threshold=1.0)
    return out.select_columns(["id_a", "id_b"])


SQL_MINHASH_PAIRS = f"""
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL SELECT doc_id + 100000, text FROM documents WHERE doc_id < 40
), norm AS (
  SELECT doc_id, {_SQL_WSNORM.format(c='text')} AS n FROM corpus
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b
FROM norm a JOIN norm b ON a.n = b.n AND a.doc_id < b.doc_id
"""


def q_simhash_pairs(sf_dir: str) -> Result:
    """SimHash candidate generation + exact token-multiset confirm
    (``exact_confirm=True``): the pair set is exactly 'equal sorted token
    lists', reproduced by the oracle's list_sort equality join."""
    out = simhash_dedup(
        _planted_docs(sf_dir), id_col="doc_id", max_hamming=0, exact_confirm=True
    )
    return out.select_columns(["id_a", "id_b"])


SQL_SIMHASH_PAIRS = f"""
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL SELECT doc_id + 100000, text FROM documents WHERE doc_id < 40
), norm AS (
  SELECT doc_id,
         list_sort(regexp_split_to_array({_SQL_WSNORM.format(c='text')}, ' ')) AS toks
  FROM corpus
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b
FROM norm a JOIN norm b ON a.toks = b.toks AND a.doc_id < b.doc_id
"""


def q_embedding_dups(sf_dir: str) -> Result:
    """Embedding cosine near-dups over planted identical vectors at
    threshold 0.999 — identical vectors share every hyperplane sign bucket
    (recall exact) and no organic pair reaches 0.999 cosine, so the result
    equals the oracle's exact vector-equality join."""
    out = embedding_dup_pairs(_planted_emb(sf_dir), threshold=0.999)
    return out.select_columns(["id_a", "id_b"])


SQL_EMBEDDING_DUPS = """
WITH corpus AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL SELECT vec_id + 100000, embedding FROM embeddings WHERE vec_id < 25
)
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM corpus a JOIN corpus b
ON a.embedding = b.embedding AND a.vec_id < b.vec_id
"""


def q_ngram_jaccard(sf_dir: str) -> Result:
    """Exact all-pairs n-gram Jaccard (the documented small-set operator)
    over a 70-doc planted subset — DuckDB reproduces the shingle sets with
    list lambdas, so the pair set is exact, organic near-dups included."""
    from sqlgrep_ray.stages.dedup import ngram_jaccard_pairs

    t = _pat(sf_dir, "documents").select(["doc_id", "text"])
    import pyarrow.compute as pc

    sub = t.filter(pc.less(t["doc_id"], 60))
    cp = sub.filter(pc.less(sub["doc_id"], 10))
    cp = cp.set_column(0, "doc_id", pc.add(cp["doc_id"], 100000))
    corpus = ray.data.from_arrow(sub).union(ray.data.from_arrow(cp))
    out = ngram_jaccard_pairs(corpus, threshold=0.5)
    return out.select_columns(["id_a", "id_b"])


SQL_NGRAM_JACCARD = f"""
WITH corpus AS (
  SELECT doc_id, text FROM documents WHERE doc_id < 60
  UNION ALL SELECT doc_id + 100000, text FROM documents WHERE doc_id < 10
), toks AS (
  SELECT doc_id,
         regexp_split_to_array({_SQL_WSNORM.format(c='text')}, ' ') AS tk
  FROM corpus
), sh AS (
  SELECT doc_id,
         CASE WHEN len(tk) < 3 THEN list_distinct([array_to_string(tk, ' ')])
              ELSE list_distinct(list_transform(range(1, len(tk) - 1),
                     i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])) END AS sg
  FROM toks
)
SELECT a.doc_id AS id_a, b.doc_id AS id_b
FROM sh a JOIN sh b ON a.doc_id < b.doc_id
WHERE len(list_intersect(a.sg, b.sg))::DOUBLE
      / (len(a.sg) + len(b.sg) - len(list_intersect(a.sg, b.sg))) >= 0.5
"""


def q_dup_ngram_stats(sf_dir: str) -> Result:
    """Per-doc duplicate k-gram occurrence counts (stages/textdup.py — the
    Lee-et-al substring-duplication signal) over the planted corpus: only
    (gram_hash, doc_id, count) int triples ever shuffle; oracle rebuilds the
    gram lists with DuckDB list lambdas. Integer outputs → hash-exact."""
    from sqlgrep_ray.stages.textdup import duplicate_ngram_stats

    return duplicate_ngram_stats(_planted_docs(sf_dir, n_dups=15), k=5)


SQL_DUP_NGRAM_STATS = f"""
WITH corpus AS (
  SELECT doc_id, text FROM documents
  UNION ALL SELECT doc_id + 100000, text FROM documents WHERE doc_id < 15
), toks AS (
  SELECT doc_id,
         regexp_split_to_array({_SQL_WSNORM.format(c='text')}, ' ') AS tk
  FROM corpus
), grams AS (
  SELECT doc_id, unnest(
    CASE WHEN len(tk) < 5 THEN [array_to_string(tk, ' ')]
         ELSE list_transform(range(1, len(tk) - 3),
                i -> tk[i]||' '||tk[i+1]||' '||tk[i+2]||' '||tk[i+3]||' '||tk[i+4])
    END) AS g
  FROM toks WHERE array_to_string(tk, ' ') <> ''
), tot AS (SELECT g, count(*) AS total FROM grams GROUP BY g)
SELECT doc_id,
       SUM(CASE WHEN total >= 2 THEN 1 ELSE 0 END)::BIGINT AS dup_grams,
       count(*)::BIGINT AS total_grams
FROM grams JOIN tot USING (g) GROUP BY doc_id
"""


def q_winnow_pairs(sf_dir: str) -> Result:
    """Winnowing rolling-hash fingerprint collisions (stages/winnow.py —
    MOSS-style partial-copy detection), held to an EXACT oracle via the
    algorithm's recall guarantee: identical text ⇒ identical selected
    fingerprint sets (winnowing is deterministic), so every planted copy
    (id + 100000) MUST pair with its original at min_shared=1. Restricting
    the output to the planted id-offset (id_b − id_a = 100000 can only
    arise from a planted copy) makes the expected set exactly the n_dups
    planted pairs — SQL-expressible. Precision / partial-overlap pairs stay
    pinned by pytest's span-sharing property (tests/test_winnow.py)."""
    from sqlgrep_ray.stages.winnow import shared_fingerprint_pairs

    out = shared_fingerprint_pairs(_planted_docs(sf_dir, n_dups=15), min_shared=1)

    def planted_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(pc.subtract(t["id_b"], t["id_a"]), 100000))

    return out.map_batches(
        planted_only, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["id_a", "id_b"])


SQL_WINNOW_PAIRS = """
SELECT doc_id AS id_a, doc_id + 100000 AS id_b
FROM documents WHERE doc_id < 15
"""


def q_minhash_pairs_dist(sf_dir: str) -> Result:
    """Same planted-corpus contract through the DISTRIBUTED verify path
    (hash-join text back by id → groupby(bucket) verify → pair-dedup
    aggregate) — the 100-TB route, held to the same exact oracle."""
    out = minhash_lsh_dedup(
        _planted_docs(sf_dir), id_col="doc_id", threshold=1.0, distributed=True
    )
    return out.select_columns(["id_a", "id_b"])


def q_simhash_pairs_dist(sf_dir: str) -> Result:
    out = simhash_dedup(
        _planted_docs(sf_dir), id_col="doc_id", max_hamming=0,
        exact_confirm=True, distributed=True,
    )
    return out.select_columns(["id_a", "id_b"])


def q_embedding_dups_dist(sf_dir: str) -> Result:
    out = embedding_dup_pairs(
        _planted_emb(sf_dir), threshold=0.999, distributed=True
    )
    return out.select_columns(["id_a", "id_b"])


def q_knn_ivf(sf_dir: str) -> Result:
    """IVF kNN at n_probe = n_centroids: every inverted list is probed, so
    the candidate set is the whole corpus and the result is EXACTLY the
    brute-force top-k — which makes the IVF plumbing (centroid fit, list
    assignment, probe masking, global merge) oracle-checkable against the
    same SQL as knn_top5. The recall-vs-n_probe approximation regime stays
    covered by pytest (tests/test_newops.py)."""
    emb = _pat(sf_dir, "embeddings")
    import pyarrow.compute as pc

    q = emb.filter(pc.less(emb["vec_id"], 3)).select(["vec_id", "embedding"])
    q = q.rename_columns(["query_id", "embedding"])
    out = knn_ivf(
        _t(sf_dir, "embeddings", ["vec_id", "embedding"]), q, k=5,
        n_centroids=8, n_probe=8,
    )
    return out.select_columns(["query_id", "vec_id"])


def q_lang_quality(sf_dir: str) -> Result:
    ds = text_stats(
        _t(sf_dir, "documents", ["doc_id", "text"]), tokens=False
    )
    return ds.select_columns(["doc_id", "lang_pred", "quality_score", "fingerprint"])


def q_multimodal(sf_dir: str) -> Result:
    media = synth_media(500)
    out = decode_featurize(ray.data.from_arrow(media), batch_size=64)
    return out.select_columns(["media_id", "media_type", "img_mean", "rms"])


# ---------------------------------------------------------------------------
# Flagship transcript pipeline (north_rule) — oracles read the deterministic
# generated parquet directly (driver runs at sf0.01)
# ---------------------------------------------------------------------------

_TR_GLOB = "/tmp/graft_transcripts/sf0.01/transcripts/*.parquet"

# SQL single-quoted strings are not backslash-escaped: pass regexes verbatim
# (neither pattern contains a single quote)
_SQL_FTPD = FTPD_PATTERN
_SQL_SSH = SSH_PATTERN

# sink CASE shared by the transcript oracles (mirrors TranscriptRouter's
# first-match priority; validated == router counts at sf0.01)
_SQL_SINK = f"""
  CASE
    WHEN regexp_matches(text, '{_SQL_FTPD}') THEN 'ftpd'
    WHEN regexp_matches(text, '{_SQL_SSH}') THEN 'ssh'
    WHEN json_valid(text) AND (json_extract(text,'$.timestamp') IS NOT NULL
         OR json_extract(text,'$.metadata.device_id') IS NOT NULL
         OR json_extract(text,'$.metadata.mac_address') IS NOT NULL
         OR json_extract(text,'$.events') IS NOT NULL) THEN 'clients'
    WHEN len(string_split(text, ';')) >= 8
         AND TRY_CAST(string_split(text,';')[3] AS BIGINT) IS NOT NULL
         AND TRY_CAST(string_split(text,';')[5] AS BIGINT) IS NOT NULL
         AND TRY_CAST(string_split(text,';')[6] AS BIGINT) IS NOT NULL
         AND TRY_CAST(string_split(text,';')[7] AS BIGINT) IS NOT NULL
         AND TRY_CAST(string_split(text,';')[8] AS BIGINT) IS NOT NULL THEN 'csv'
    ELSE NULL END
"""


def q_flagship_sink_counts(sf_dir: str) -> Result:
    return sink_counts(flagship(transcripts_for(sf_dir)))


SQL_FLAGSHIP_SINK_COUNTS = f"""
SELECT sink, count(*) AS n FROM (
  SELECT {_SQL_SINK} AS sink FROM read_parquet('{_TR_GLOB}')
) WHERE sink IS NOT NULL GROUP BY sink ORDER BY sink
"""


def q_flagship_sink_role_counts(sf_dir: str) -> Result:
    return sink_role_counts(flagship(transcripts_for(sf_dir)))


SQL_FLAGSHIP_SINK_ROLE_COUNTS = f"""
SELECT sink, role, count(*) AS n FROM (
  SELECT role, {_SQL_SINK} AS sink FROM read_parquet('{_TR_GLOB}')
) WHERE sink IS NOT NULL GROUP BY sink, role ORDER BY sink, role
"""


def q_flagship_hour_histogram(sf_dir: str) -> Result:
    return hour_histogram(flagship(transcripts_for(sf_dir)))


SQL_FLAGSHIP_HOUR_HISTOGRAM = f"""
SELECT hour, count(*) AS n, max(minute) AS max_minute FROM (
  SELECT CASE WHEN sink = 'ftpd'
              THEN CAST(regexp_extract(text, '{_SQL_FTPD}', 6) AS BIGINT)
              WHEN sink = 'csv'
              THEN CAST(string_split(text, ';')[6] AS BIGINT) END AS hour,
         CASE WHEN sink = 'ftpd'
              THEN CAST(regexp_extract(text, '{_SQL_FTPD}', 7) AS BIGINT)
              WHEN sink = 'csv'
              THEN CAST(string_split(text, ';')[7] AS BIGINT) END AS minute
  FROM (SELECT text, {_SQL_SINK} AS sink FROM read_parquet('{_TR_GLOB}'))
  WHERE sink IN ('ftpd', 'csv')
) WHERE hour IS NOT NULL GROUP BY hour ORDER BY hour
"""


def q_flagship_enriched(sf_dir: str) -> Result:
    routed = flagship(transcripts_for(sf_dir))
    return run_plan(
        routed,
        AggregatePlan(
            group_by=(GroupKey("tool_category", Col("tool_category")),),
            aggs=(AggItem("n", "count_star"),),
        ),
    )


SQL_FLAGSHIP_ENRICHED = f"""
SELECT lk.tool_category, count(*) AS n
FROM (
  SELECT tool, {_SQL_SINK} AS sink FROM read_parquet('{_TR_GLOB}')
) r
LEFT JOIN (VALUES ('bash','shell'), ('search','retrieval'), ('editor','shell'),
                  ('browser','retrieval'), ('python','compute'))
       AS lk(tool, tool_category) ON r.tool = lk.tool
WHERE r.sink IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


def q_asof_join_orders(sf_dir: str) -> Result:
    """Backward as-of join: each event matched to the latest order of the
    same user at or before the event time (stages/asof.py). Output keeps the
    matched DATE only — the orderkey is ambiguous under same-date ties and
    DuckDB's ASOF tie-break is arbitrary."""
    from sqlgrep_ray.stages.asof import asof_join

    orders = _pat(sf_dir, "orders").select(["o_custkey", "o_orderdate"])
    out = asof_join(
        _t(sf_dir, "events", ["event_id", "user_id", "ts"]),
        orders,
        left_key="user_id",
        left_ts="ts",
        right_key="o_custkey",
        right_ts="o_orderdate",
        value_cols=["o_orderdate"],
        how="inner",
    )
    return out.select_columns(["event_id", "o_orderdate"])


def q_asof_join_orders_dist(sf_dir: str) -> Result:
    """Same as-of contract through the shuffle-both-sides fallback
    (``asof_join_large``) — the path for right sides too large to
    broadcast; held to the same DuckDB ASOF oracle."""
    from sqlgrep_ray.stages.asof import asof_join_large

    out = asof_join_large(
        _t(sf_dir, "events", ["event_id", "user_id", "ts"]),
        _t(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
        left_key="user_id",
        left_ts="ts",
        right_key="o_custkey",
        right_ts="o_orderdate",
        value_cols=["o_orderdate"],
        how="inner",
    )
    return out.select_columns(["event_id", "o_orderdate"])


def q_asof_join_orders_auto(sf_dir: str) -> Result:
    """Same as-of contract through :func:`asof_join_auto` with the
    broadcast budget set BELOW the right side's row count, so the SIZE
    GATE itself (not an explicit call) dispatches to the shuffle path —
    driver-verifies the auto dispatcher end-to-end (VERDICT r3 #10).
    The gate's choice is asserted, not assumed: a budget above the count
    would broadcast and still pass the oracle, so the test pins the
    branch via window.LAST_RESOLVED_BUCKETS being set by the large path's
    bucket resolution."""
    from sqlgrep_ray.stages import window
    from sqlgrep_ray.stages.asof import asof_join_auto

    window.LAST_RESOLVED_BUCKETS = None
    out = asof_join_auto(
        _t(sf_dir, "events", ["event_id", "user_id", "ts"]),
        _t(sf_dir, "orders", ["o_custkey", "o_orderdate"]),
        left_key="user_id",
        left_ts="ts",
        right_key="o_custkey",
        right_ts="o_orderdate",
        value_cols=["o_orderdate"],
        how="inner",
        broadcast_max_rows=100,  # << orders rows at any test sf
    )
    out = out.select_columns(["event_id", "o_orderdate"])
    assert window.LAST_RESOLVED_BUCKETS is not None, (
        "auto dispatch took the broadcast path despite right > budget"
    )
    return out


SQL_ASOF_JOIN_ORDERS = """
SELECT e.event_id, o.o_orderdate
FROM events e ASOF JOIN orders o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


def q_tumbling_hour(sf_dir: str) -> Result:
    """Fixed 1-hour tumbling windows over the event stream (stages/window.py)
    — window key computed vectorized, then the ordinary aggregate path."""
    from sqlgrep_ray.stages.window import tumbling_window

    return tumbling_window(
        _t(sf_dir, "events"),
        ts_col="ts",
        width_s=3600,
        aggs=(
            AggItem("n", "count_star"),
            AggItem("max_value", "max", Col("value")),
        ),
    )


SQL_TUMBLING_HOUR = """
SELECT date_trunc('hour', ts) AS window_start, count(*) AS n,
       max(value) AS max_value
FROM events GROUP BY 1 ORDER BY 1
"""


def q_hopping_window(sf_dir: str) -> Result:
    """1-hour windows hopping every 15 min (stages/window.py
    hopping_window): each event replicated into its 4 overlapping windows
    by one vectorized take, then the ordinary aggregate path."""
    from sqlgrep_ray.stages.window import hopping_window

    return hopping_window(
        _t(sf_dir, "events", ["ts", "value"]),
        ts_col="ts",
        width_s=3600,
        hop_s=900,
        aggs=(
            AggItem("n", "count_star"),
            AggItem("max_value", "max", Col("value")),
        ),
    )


SQL_HOPPING_WINDOW = """
WITH x AS (
  SELECT make_timestamp(((epoch_us(ts) // 900000000) - j) * 900000000)
           AS window_start,
         value
  FROM events CROSS JOIN generate_series(0, 3) AS t(j)
)
SELECT window_start, count(*) AS n, max(value) AS max_value
FROM x GROUP BY 1 ORDER BY 1
"""


def q_sessionize_users(sf_dir: str) -> Result:
    """Gap-based sessionization per user (30-min inactivity gap)."""
    from sqlgrep_ray.stages.window import sessionize

    return sessionize(
        _t(sf_dir, "events", ["user_id", "ts"]), key="user_id", ts_col="ts", gap_s=1800
    )


SQL_SESSIONIZE_USERS = """
SELECT user_id, session_idx, count(*) AS n_events, min(ts) AS session_start,
       max(ts) AS session_end,
       CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS DOUBLE) / 1e6 AS duration_s
FROM (
  SELECT user_id, ts,
         CAST(SUM(CASE WHEN prev IS NULL OR ts - prev > INTERVAL 30 MINUTE
                       THEN 1 ELSE 0 END)
                OVER (PARTITION BY user_id ORDER BY ts
                      ROWS UNBOUNDED PRECEDING) - 1 AS BIGINT) AS session_idx
  FROM (SELECT user_id, ts,
               lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev
        FROM events)
)
GROUP BY user_id, session_idx ORDER BY 1, 2
"""


def q_assign_sessions(sf_dir: str) -> Result:
    """Row-level sessionization (stages/window.assign_sessions): every
    event tagged with its per-user session ordinal — one vectorized
    sort + boundary scan per key-hash bucket. The oracle replays it with
    SQL window functions; integer ordinal → hash-exact."""
    from sqlgrep_ray.stages.window import assign_sessions

    return assign_sessions(
        _t(sf_dir, "events", ["event_id", "user_id", "ts"]),
        key="user_id",
        ts_col="ts",
        gap_s=1800,
        keep_cols=["event_id"],
    )


SQL_ASSIGN_SESSIONS = """
SELECT user_id, ts, event_id,
       (SUM(CASE WHEN prev IS NULL
                 OR epoch_us(ts) - epoch_us(prev) > 1800000000
            THEN 1 ELSE 0 END)
        OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1)::BIGINT
         AS session_idx
FROM (
  SELECT user_id, ts, event_id,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
)
"""


def q_trailing_window(sf_dir: str) -> Result:
    """Per-event trailing 30-min window count (stages/window.
    trailing_window_agg) — two vectorized searchsorted calls per bucket
    over a composite key-rank/time axis. Oracle: SQL RANGE frame."""
    from sqlgrep_ray.stages.window import trailing_window_agg

    return trailing_window_agg(
        _t(sf_dir, "events", ["event_id", "user_id", "ts"]),
        key="user_id",
        ts_col="ts",
        window_s=1800,
        keep_cols=["event_id"],
    )


SQL_TRAILING_WINDOW = """
SELECT user_id, ts, event_id,
       count(*) OVER (
         PARTITION BY user_id ORDER BY ts
         RANGE BETWEEN INTERVAL 30 MINUTE PRECEDING AND CURRENT ROW
       )::BIGINT AS trailing_count
FROM events
"""


def q_conv_stats(sf_dir: str) -> Result:
    """Per-conversation stats — HIGH-cardinality GROUP BY (one group per
    conv_id, hot conversations own ~20% of rows) through the DISTRIBUTED
    aggregate path (small_result=False): per-block combiner neutralizes the
    hot-key skew before the shuffle (stages/skew.py module doc)."""
    tr = transcripts_for(sf_dir)
    ds = ray.data.read_parquet(tr)
    plan = AggregatePlan(
        group_by=(GroupKey("conv_id", Col("conv_id")),),
        aggs=(
            AggItem("n", "count_star"),
            AggItem("max_turn", "max", Col("turn_idx")),
            AggItem("last_ts", "max", Col("ts")),
        ),
        small_result=False,
    )
    return run_plan(ds, plan)


SQL_CONV_STATS = f"""
SELECT conv_id, count(*) AS n, max(turn_idx) AS max_turn, max(ts) AS last_ts
FROM read_parquet('{_TR_GLOB}') GROUP BY conv_id ORDER BY conv_id
"""


def q_conv_distinct_tools(sf_dir: str) -> Result:
    """Skew-safe exact COUNT(DISTINCT tool) per conversation (two-stage
    groupby, stages/skew.py)."""
    from sqlgrep_ray.stages.skew import salted_count_distinct

    ds = ray.data.read_parquet(transcripts_for(sf_dir))
    return salted_count_distinct(ds, ["conv_id"], "tool", alias="tools")


SQL_CONV_DISTINCT_TOOLS = f"""
SELECT conv_id, count(DISTINCT tool) AS tools
FROM read_parquet('{_TR_GLOB}') GROUP BY conv_id ORDER BY conv_id
"""


def q_hot_conv_roles(sf_dir: str) -> Result:
    """Salted ARRAY_AGG over the hottest conversations: hot keys spread over
    16 reducers, sublists merged per key (stages/skew.py)."""
    from sqlgrep_ray.stages.skew import salted_array_agg

    import pyarrow.compute as pc

    hot = pa.array(["conv-000000", "conv-000001"])
    ds = ray.data.read_parquet(transcripts_for(sf_dir)).map_batches(
        lambda t: t.filter(pc.is_in(t["conv_id"], value_set=hot)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return salted_array_agg(ds, ["conv_id"], "role", alias="roles", salt=16)


SQL_HOT_CONV_ROLES = f"""
SELECT conv_id, array_agg(role ORDER BY role) AS roles
FROM read_parquet('{_TR_GLOB}')
WHERE conv_id IN ('conv-000000', 'conv-000001')
GROUP BY conv_id ORDER BY conv_id
"""


def q_conv_tools_hll(sf_dir: str) -> Result:
    """Sketch-path companion of ``conv_distinct_tools``: per-conversation
    approximate COUNT(DISTINCT tool) via grouped HLL — keys × ≤2^p bytes
    through the shuffle regardless of value cardinality. Hash-exact vs
    ``count(DISTINCT tool)``: per-conversation tool cardinality is tiny,
    so every block stays in the sketch's SPARSE regime (exact distinct
    hash sets, HLL++ shape); at corpus scale hot keys overflow to
    registers and the same query degrades to the ±1.04/√2^p estimate."""
    from sqlgrep_ray.stages.sketch import grouped_approx_distinct

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "tool"]
    )
    return grouped_approx_distinct(ds, "conv_id", "tool", out_col="tools_est")


SQL_CONV_TOOLS_HLL = f"""
SELECT conv_id, count(DISTINCT tool) AS tools_est
FROM read_parquet('{_TR_GLOB}') WHERE tool IS NOT NULL
GROUP BY conv_id ORDER BY conv_id
"""


def q_turn_latency(sf_dir: str) -> Result:
    """Per-turn response latency: ts minus the previous turn's ts within
    the same conversation (LAG window function over (conv_id, turn_idx)) —
    the generic per-partition shift operator, full-row output. NULL for
    each conversation's first turn, microsecond int64 everywhere else:
    hash-exact cross-engine."""
    from sqlgrep_ray.stages.window import lag_shift

    import pyarrow.compute as pc

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "ts"]
    )
    ds = lag_shift(ds, "conv_id", "turn_idx", ["ts"], offset=1)

    def latency(t: pa.Table) -> pa.Table:
        cur = pc.cast(t["ts"], pa.int64())
        prev = pc.cast(t["ts_lag1"], pa.int64())
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "latency_us": pc.subtract(cur, prev),
            }
        )

    return ds.map_batches(latency, batch_format="pyarrow", zero_copy_batch=True)


SQL_TURN_LATENCY = f"""
SELECT conv_id, turn_idx,
       CAST(epoch_us(ts)
            - epoch_us(LAG(ts) OVER (PARTITION BY conv_id ORDER BY turn_idx))
            AS BIGINT) AS latency_us
FROM read_parquet('{_TR_GLOB}')
"""


def q_latency_quantiles(sf_dir: str) -> Result:
    """Composed telemetry metric: p50/p95/p99 inter-turn response latency —
    lag_shift (window function) → vectorized subtraction → KLL quantile
    sketch, three operators in one streaming pipeline. k=131072 exceeds the
    sf0.01 row count so the sketch runs in its exact regime (oracle-able);
    at corpus scale the same pipeline degrades gracefully to the
    pytest-pinned 2/k rank error. Latencies are integral microseconds —
    cast to int64 both sides for hash-exact compare."""
    from sqlgrep_ray.stages.sketch import approx_quantiles
    from sqlgrep_ray.stages.window import lag_shift

    import pyarrow.compute as pc

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "ts"]
    )
    ds = lag_shift(ds, "conv_id", "turn_idx", ["ts"], offset=1)

    def latency(t: pa.Table) -> pa.Table:
        lat = pc.subtract(
            pc.cast(t["ts"], pa.int64()), pc.cast(t["ts_lag1"], pa.int64())
        )
        return pa.table({"latency_us": lat.drop_null()})

    lats = ds.map_batches(latency, batch_format="pyarrow", zero_copy_batch=True)
    p50, p95, p99 = approx_quantiles(
        lats, "latency_us", qs=(0.5, 0.95, 0.99), k=131072
    )
    return pa.table(
        {
            "p50": pa.array([int(p50)], pa.int64()),
            "p95": pa.array([int(p95)], pa.int64()),
            "p99": pa.array([int(p99)], pa.int64()),
        }
    )


SQL_LATENCY_QUANTILES = f"""
WITH lat AS (
  SELECT CAST(epoch_us(ts)
              - epoch_us(LAG(ts) OVER (PARTITION BY conv_id
                                       ORDER BY turn_idx))
              AS BIGINT) AS l
  FROM read_parquet('{_TR_GLOB}')
), ranked AS (
  SELECT l AS x, row_number() OVER (ORDER BY l) AS rn,
         count(*) OVER () AS n
  FROM lat WHERE l IS NOT NULL
)
SELECT
  (SELECT x FROM ranked
    WHERE rn = 1 + LEAST(CAST(FLOOR(0.5 * n) AS BIGINT), n - 1)) AS p50,
  (SELECT x FROM ranked
    WHERE rn = 1 + LEAST(CAST(FLOOR(0.95 * n) AS BIGINT), n - 1)) AS p95,
  (SELECT x FROM ranked
    WHERE rn = 1 + LEAST(CAST(FLOOR(0.99 * n) AS BIGINT), n - 1)) AS p99
"""


def q_sql_turn_latency(sf_dir: str) -> Result:
    """The SQL-dialect surface of the window extension: LAG(ts) OVER
    (PARTITION BY conv_id ORDER BY turn_idx) parsed by sqlfront, lifted
    into a WindowSpec, executed by lag_shift through run_plan — full-row
    timestamp output, hash-exact vs DuckDB's own LAG."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, LAG(ts) OVER "
        "(PARTITION BY conv_id ORDER BY turn_idx) AS prev_ts FROM t"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "ts"]
    )
    return run_plan(ds, plan)


SQL_SQL_TURN_LATENCY = f"""
SELECT conv_id, turn_idx,
       LAG(ts) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS prev_ts
FROM read_parquet('{_TR_GLOB}')
"""


def q_sql_row_number(sf_dir: str) -> Result:
    """ROW_NUMBER() through the SQL dialect (parsed → WindowSpec →
    partition_row_number bucket op), full-row int64 output vs DuckDB."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, ROW_NUMBER() OVER "
        "(PARTITION BY conv_id ORDER BY turn_idx) AS rn FROM t"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx"]
    )
    return run_plan(ds, plan)


SQL_SQL_ROW_NUMBER = f"""
SELECT conv_id, turn_idx,
       ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx) AS rn
FROM read_parquet('{_TR_GLOB}')
"""


def q_sql_running_sum(sf_dir: str) -> Result:
    """Running aggregate through the SQL dialect: cumulative SUM per
    conversation in turn order (the default cumulative frame), executed by
    the partition_running bucket op — int64-exact vs DuckDB."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, SUM(turn_idx) OVER "
        "(PARTITION BY conv_id ORDER BY turn_idx) AS cum FROM t"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx"]
    )
    return run_plan(ds, plan)


SQL_SQL_RUNNING_SUM = f"""
SELECT conv_id, turn_idx,
       CAST(SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx)
            AS BIGINT) AS cum
FROM read_parquet('{_TR_GLOB}')
"""


def q_sql_running_rows(sf_dir: str) -> Result:
    """Explicit ``ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW``
    frame through the SQL dialect (round-4 extension: running aggregates
    default to SQL's RANGE-including-peers frame, and the ROWS frame is
    now an explicit opt-in). (conv_id, turn_idx) is unique per row, the
    documented ROWS determinism contract — hash-exact vs DuckDB's own
    explicit ROWS frame."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, "
        "COUNT(*) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS seen, "
        "AVG(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS avg_turn "
        "FROM t"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx"]
    )
    return run_plan(ds, plan)


SQL_SQL_RUNNING_ROWS = f"""
SELECT conv_id, turn_idx,
       CAST(COUNT(*) OVER w AS BIGINT) AS seen,
       AVG(turn_idx) OVER w AS avg_turn
FROM read_parquet('{_TR_GLOB}')
WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
"""


def q_sql_global_window(sf_dir: str) -> Result:
    """GLOBAL window (no PARTITION BY — round-4 extension): corpus-wide
    ROW_NUMBER / running SUM / LAG over one constant partition. Correct by
    the documented one-task contract (the whole input on one worker —
    fine at oracle scale; the scale path for the associative subset is
    partition_running_ranged). Unique order column (event_id) so every
    function is deterministic; int SUM column — float cumulative sums can
    never hash-match cross-engine (DuckDB's windowed SUM uses a segment
    tree, a different float addition order)."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT event_id, "
        "ROW_NUMBER() OVER (ORDER BY event_id) AS rn, "
        "SUM(user_id) OVER (ORDER BY event_id) AS rs, "
        "LAG(user_id) OVER (ORDER BY event_id) AS prev_user "
        "FROM t"
    ).plan
    return run_plan(_t(sf_dir, "events", ["event_id", "user_id"]), plan)


SQL_SQL_GLOBAL_WINDOW = """
SELECT event_id,
       CAST(ROW_NUMBER() OVER (ORDER BY event_id) AS BIGINT) AS rn,
       CAST(SUM(user_id) OVER (ORDER BY event_id) AS BIGINT) AS rs,
       LAG(user_id) OVER (ORDER BY event_id) AS prev_user
FROM events
"""


def q_sql_global_running(sf_dir: str) -> Result:
    """GLOBAL running aggregates through the CHUNK-SAFE distributed path
    (round-5, VERDICT r4 #3): an all-associative ``OVER (ORDER BY …)``
    frame auto-routes to ``window.global_running_ranged`` instead of the
    one-task whole-input contract. The chunk threshold is forced below
    the oracle row count so the driver exercises the real chunked code
    (order-value bins, driver-pulled exclusive prefixes, one bucketed
    exchange) — the path a 100-TB ``SUM(x) OVER (ORDER BY ts)`` takes —
    and asserts the routing took it. Int SUM / COUNT / COUNT(*) only
    (int cumulative sums are bit-exact cross-engine; AVG covered by the
    bit-equality pytest against the one-task path)."""
    from sqlgrep_ray.sqlfront import parse_query
    from sqlgrep_ray.stages import window

    plan = parse_query(
        "SELECT event_id, "
        "SUM(user_id) OVER (ORDER BY event_id) AS rs, "
        "COUNT(user_id) OVER (ORDER BY event_id) AS rc, "
        "COUNT(*) OVER (ORDER BY event_id) AS rn "
        "FROM t"
    ).plan
    old = window.GLOBAL_RANGED_CHUNK_ROWS
    window.GLOBAL_RANGED_CHUNK_ROWS = 2000
    window.LAST_GLOBAL_WINDOW_PATH = None
    try:
        out = run_plan(_t(sf_dir, "events", ["event_id", "user_id"]), plan)
        assert window.LAST_GLOBAL_WINDOW_PATH == "ranged", (
            "global associative frame did not route to the ranged path"
        )
    finally:
        window.GLOBAL_RANGED_CHUNK_ROWS = old
    return out


SQL_SQL_GLOBAL_RUNNING = """
SELECT event_id,
       CAST(SUM(user_id) OVER (ORDER BY event_id) AS BIGINT) AS rs,
       CAST(COUNT(user_id) OVER (ORDER BY event_id) AS BIGINT) AS rc,
       CAST(COUNT(*) OVER (ORDER BY event_id) AS BIGINT) AS rn
FROM events
"""


def q_sql_qualify_dedup(sf_dir: str) -> Result:
    """The canonical SQL dedup idiom through the dialect (round-4
    extension): keep ONE row per key with ``QUALIFY ROW_NUMBER() OVER
    (...) = 1`` — here each conversation's first turn. Identical OVER
    calls in SELECT and QUALIFY dedupe to one shuffle; the filter runs
    streaming on the hidden window column before projection."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, role, "
        "ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx) AS rn "
        "FROM t QUALIFY rn = 1"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "role"]
    )
    return run_plan(ds, plan)


SQL_SQL_QUALIFY_DEDUP = f"""
SELECT conv_id, turn_idx, role,
       CAST(ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx)
            AS BIGINT) AS rn
FROM read_parquet('{_TR_GLOB}')
QUALIFY rn = 1
"""


def q_sql_union_chars(sf_dir: str) -> Result:
    """UNION ALL through the SQL dialect (round-4 extension: set
    operations — the reference dialect has none). Two filtered selects
    over documents concatenate block-wise (Ray's zero-shuffle union);
    the trailing ORDER BY / LIMIT bind to the whole set and run as the
    usual bounded top-n."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT lang, n_chars FROM docs WHERE n_chars < 120 "
        "UNION ALL "
        "SELECT lang, n_chars FROM docs WHERE n_chars > 3500 "
        "ORDER BY n_chars, lang LIMIT 500",
        {"docs": _t(sf_dir, "documents", ["lang", "n_chars"])},
    )


SQL_SQL_UNION_CHARS = """
SELECT lang, n_chars FROM documents WHERE n_chars < 120
UNION ALL
SELECT lang, n_chars FROM documents WHERE n_chars > 3500
ORDER BY n_chars, lang LIMIT 500
"""


def q_sql_cte_quality(sf_dir: str) -> Result:
    """CTE chain through the SQL dialect (round-4 extension: WITH — the
    reference dialect has none): an aggregate CTE feeds a second CTE's
    filter, the body re-aggregates, and a plain UNION (distinct) folds
    in a second branch. Exercises CTE→CTE chaining, aggregate-over-CTE,
    and set-level dedup in one driver-checked query."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "WITH per_src AS (SELECT source, lang, COUNT(*) AS n, "
        "AVG(n_chars) AS avg_chars FROM docs GROUP BY source, lang), "
        "big AS (SELECT source, lang, n FROM per_src WHERE n >= 5) "
        "SELECT source, COUNT(*) AS n_langs, SUM(n) AS n_docs FROM big "
        "GROUP BY source "
        "UNION "
        "SELECT source, COUNT(*) AS n_langs, SUM(n) AS n_docs FROM big "
        "GROUP BY source "
        "ORDER BY source",
        {"docs": _t(sf_dir, "documents", ["source", "lang", "n_chars"])},
    )


SQL_SQL_CTE_QUALITY = """
WITH per_src AS (
  SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n,
         AVG(n_chars) AS avg_chars
  FROM documents GROUP BY source, lang
), big AS (
  SELECT source, lang, n FROM per_src WHERE n >= 5
)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_langs,
       CAST(SUM(n) AS BIGINT) AS n_docs
FROM big GROUP BY source
UNION
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_langs,
       CAST(SUM(n) AS BIGINT) AS n_docs
FROM big GROUP BY source
ORDER BY source
"""


def q_sql_intersect_pairs(sf_dir: str) -> Result:
    """INTERSECT (distinct) through the SQL dialect (round-5 extension;
    the reference dialect has no set operations). Two filtered selects
    over documents; the engine runs the bounded one-merge multiplicity
    path (runner.run_set_op): per-block pyarrow group_by combiners emit
    per-side counts, ONE merge (exchange.merge) sums them per distinct
    row, a vectorized finisher keeps rows present on both sides."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT lang, n_chars FROM docs WHERE n_chars < 2500 "
        "INTERSECT "
        "SELECT lang, n_chars FROM docs WHERE n_chars > 200 "
        "ORDER BY lang, n_chars",
        {"docs": _t(sf_dir, "documents", ["lang", "n_chars"])},
    )


SQL_SQL_INTERSECT_PAIRS = """
SELECT lang, n_chars FROM documents WHERE n_chars < 2500
INTERSECT
SELECT lang, n_chars FROM documents WHERE n_chars > 200
ORDER BY lang, n_chars
"""


def q_sql_except_langs(sf_dir: str) -> Result:
    """EXCEPT ALL through the SQL dialect (round-5 extension): bag
    semantics — each lang survives max(count_first − count_second, 0)
    times. Exercises the multiplicity finisher's np.repeat path (counts
    ≫ 1 per distinct row) rather than the 0/1 distinct case."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT lang FROM docs WHERE n_chars < 3000 "
        "EXCEPT ALL "
        "SELECT lang FROM docs WHERE n_chars >= 1000 "
        "ORDER BY lang",
        {"docs": _t(sf_dir, "documents", ["lang", "n_chars"])},
    )


SQL_SQL_EXCEPT_LANGS = """
SELECT lang FROM documents WHERE n_chars < 3000
EXCEPT ALL
SELECT lang FROM documents WHERE n_chars >= 1000
ORDER BY lang
"""


def q_sql_rollup_docs(sf_dir: str) -> Result:
    """GROUP BY ROLLUP through the SQL dialect (round-5 extension). The
    Expand path (runner._grouping_sets_path): rows re-emitted once per
    grouping set with excluded keys NULLed + a __gid ordinal, ONE ordinary
    combiner-first aggregate over (source, lang, __gid) — shuffle bytes
    bounded by groups × sets, not rows × sets. Covers subtotal rows per
    source and the grand total."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT source, lang, COUNT(*) AS n, SUM(n_chars) AS total_chars, "
        "MIN(n_chars) AS min_chars FROM docs "
        "GROUP BY ROLLUP(source, lang)",
        {"docs": _t(sf_dir, "documents", ["source", "lang", "n_chars"])},
    )


SQL_SQL_ROLLUP_DOCS = """
SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       MIN(n_chars) AS min_chars
FROM documents
GROUP BY ROLLUP(source, lang)
"""


def q_sql_grouping_sets_docs(sf_dir: str) -> Result:
    """Explicit GROUPING SETS incl. the empty set and a HAVING filter
    evaluated per grouping-set group (round-5 extension). The genuine-NULL
    vs rolled-up-NULL distinction rides the hidden __gid key during the
    aggregate and is dropped from the output (standard SQL shape)."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT source, lang, COUNT(*) AS n FROM docs "
        "WHERE n_chars > 100 "
        "GROUP BY GROUPING SETS ((source), (lang), ()) "
        "HAVING COUNT(*) > 3",
        {"docs": _t(sf_dir, "documents", ["source", "lang", "n_chars"])},
    )


SQL_SQL_GROUPING_SETS_DOCS = """
SELECT source, lang, CAST(COUNT(*) AS BIGINT) AS n
FROM documents
WHERE n_chars > 100
GROUP BY GROUPING SETS ((source), (lang), ())
HAVING COUNT(*) > 3
"""


def q_sql_right_join(sf_dir: str) -> Result:
    """RIGHT OUTER JOIN through the SQL dialect (round-5 extension; the
    reference's only join shapes are inner and streamed-side left-outer).
    The streamed side is a CTE-filtered orders subset so unmatched
    customers exist — they surface once with NULL order columns via the
    anti half of runner._right_outer_broadcast (inner broadcast probe +
    narrow matched-key scan bounded by |build keys|)."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "WITH big AS (SELECT o_custkey, o_totalprice FROM orders "
        "WHERE o_totalprice > 250000) "
        "SELECT o_totalprice, customer.c_custkey AS ck, "
        "customer.c_acctbal AS bal FROM big "
        "RIGHT JOIN customer ON o_custkey = c_custkey",
        {
            "orders": _t(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
            "customer": _t(sf_dir, "customer", ["c_custkey", "c_acctbal"]),
        },
    )


SQL_SQL_RIGHT_JOIN = """
WITH big AS (
  SELECT o_custkey, o_totalprice FROM orders WHERE o_totalprice > 250000
)
SELECT o_totalprice, c_custkey AS ck, c_acctbal AS bal
FROM big RIGHT JOIN customer ON o_custkey = c_custkey
"""


def q_sql_grouping_fn(sf_dir: str) -> Result:
    """GROUPING(col) indicator columns over a ROLLUP (round-5 extension):
    1 when the key is rolled up in the row's grouping set, else 0 —
    distinguishes rolled-up NULLs from genuine NULL keys. Emitted by the
    expand stage as set-constant columns riding as extra group keys."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT source, lang, GROUPING(source) AS gs, GROUPING(lang) AS gl, "
        "COUNT(*) AS n FROM docs GROUP BY ROLLUP(source, lang) "
        "HAVING GROUPING(source) = 1 OR COUNT(*) > 2",
        {"docs": _t(sf_dir, "documents", ["source", "lang"])},
    )


SQL_SQL_GROUPING_FN = """
SELECT source, lang, CAST(GROUPING(source) AS BIGINT) AS gs,
       CAST(GROUPING(lang) AS BIGINT) AS gl,
       CAST(COUNT(*) AS BIGINT) AS n
FROM documents
GROUP BY ROLLUP(source, lang)
HAVING GROUPING(source) = 1 OR COUNT(*) > 2
"""


def q_sql_order_nulls_last(sf_dir: str) -> Result:
    """ORDER BY … NULLS LAST with LIMIT (round-5 extension; the engine
    default is NULLs first). The NULL placement is observable through the
    LIMIT cut: NULL-keyed rows (injected via CASE) fall out of the top-N
    instead of monopolizing it."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT doc_id, "
        "CASE WHEN n_chars < 300 THEN NULL ELSE n_chars END AS k "
        "FROM docs ORDER BY k NULLS LAST, doc_id LIMIT 200",
        {"docs": _t(sf_dir, "documents", ["doc_id", "n_chars"])},
    )


SQL_SQL_ORDER_NULLS_LAST = """
SELECT doc_id, CASE WHEN n_chars < 300 THEN NULL ELSE n_chars END AS k
FROM documents ORDER BY k NULLS LAST, doc_id LIMIT 200
"""


def q_sql_multikey_join(sf_dir: str) -> Result:
    """Composite-key broadcast join (round-5 extension; the reference
    accepts exactly one ON equality): ON a = x AND b = y rides the same
    one-pass broadcast probe — the pandas merge takes the key-column
    list directly, NULL==NULL per key as before. The small side is a
    per-(source, lang) aggregate of the same table (a group-stats
    enrichment, the classic composite-key join shape)."""
    from sqlgrep_ray.api import run_sql

    docs = _t(sf_dir, "documents", ["source", "lang", "doc_id", "n_chars"])
    stats = run_sql(
        "SELECT source AS s, lang AS l, COUNT(*) AS grp_n, "
        "SUM(n_chars) AS grp_chars FROM d GROUP BY source, lang",
        {"d": docs},
    )
    return run_sql(
        "SELECT doc_id, source, lang, st.grp_n AS grp_n, "
        "st.grp_chars AS grp_chars "
        "FROM docs INNER JOIN st ON docs.source = st.s AND docs.lang = st.l",
        {"docs": docs, "st": stats},
    )


SQL_SQL_MULTIKEY_JOIN = """
WITH st AS (
  SELECT source AS s, lang AS l, CAST(COUNT(*) AS BIGINT) AS grp_n,
         CAST(SUM(n_chars) AS BIGINT) AS grp_chars
  FROM documents GROUP BY source, lang
)
SELECT doc_id, source, lang, st.grp_n AS grp_n, st.grp_chars AS grp_chars
FROM documents JOIN st ON documents.source = st.s AND documents.lang = st.l
"""


def q_sql_dialect_sugar(sf_dir: str) -> Result:
    """Round-5 dialect sugar in one driver-checked query: GROUP BY
    ordinal (1-based SELECT position, standard SQL — previously a
    constant key), TIMESTAMP/DATE literals (datetime Lit, one Arrow
    comparison kernel), INTERVAL arithmetic (timedelta Lit — timestamp ±
    interval is one pc.add/subtract kernel), and CASE without ELSE
    (omitted → NULL, an extension past the reference's required-ELSE
    parser.rs:990-1019)."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT event_type, COUNT(*) AS n, "
        "CASE WHEN COUNT(*) > 2000 THEN 'hot' END AS bucket "
        "FROM events "
        "WHERE ts >= TIMESTAMP '2024-01-10 00:00:00' "
        "AND ts < DATE '2024-01-10' + INTERVAL '10 days' "
        "GROUP BY 1",
        {"events": _t(sf_dir, "events", ["event_type", "ts"])},
    )


SQL_SQL_DIALECT_SUGAR = """
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
       CASE WHEN COUNT(*) > 2000 THEN 'hot' END AS bucket
FROM events
WHERE ts >= TIMESTAMP '2024-01-10 00:00:00'
  AND ts < DATE '2024-01-10' + INTERVAL '10 days'
GROUP BY 1
"""


def q_sql_limit_offset(sf_dir: str) -> Result:
    """LIMIT … OFFSET paging + ORDER BY ordinals (round-5 extension):
    the ordinal rewrites to the SELECT-list output column at parse; the
    offset rides the combiner-first top-n pass (keep limit+offset rows,
    final sorted slice starts at offset) — no full sort, no extra
    exchange."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT doc_id, n_chars FROM docs "
        "ORDER BY 2 DESC, 1 LIMIT 100 OFFSET 50",
        {"docs": _t(sf_dir, "documents", ["doc_id", "n_chars"])},
    )


SQL_SQL_LIMIT_OFFSET = """
SELECT doc_id, n_chars FROM documents
ORDER BY 2 DESC, 1 LIMIT 100 OFFSET 50
"""


def q_sql_distinct_agg(sf_dir: str) -> Result:
    """ARRAY_AGG/STRING_AGG(DISTINCT x) (round-5 extension): dedupe the
    group's values; output stays value-ascending, so DuckDB replays it
    as DISTINCT x ORDER BY x. (SUM/AVG DISTINCT are refused at parse —
    previously DISTINCT was silently ignored there.)"""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT source, ARRAY_AGG(DISTINCT lang) AS langs, "
        "STRING_AGG(DISTINCT lang, ',') AS sl "
        "FROM docs GROUP BY source",
        {"docs": _t(sf_dir, "documents", ["source", "lang"])},
    )


SQL_SQL_DISTINCT_AGG = """
SELECT source, ARRAY_AGG(DISTINCT lang ORDER BY lang) AS langs,
       STRING_AGG(DISTINCT lang, ',' ORDER BY lang) AS sl
FROM documents GROUP BY source
"""


def q_sql_sum_avg_distinct(sf_dir: str) -> Result:
    """SUM/AVG(DISTINCT x) (round-5 extension): holistic aggregates
    over each group's distinct non-null values, riding COUNT(DISTINCT)'s
    skew-safe two-stage path (runner._count_distinct_two_stage) when
    every distinct aggregate shares one argument — the distinct value
    is the stage-1 subgroup key, so SUM(DISTINCT) is one extra int64
    partial per distinct row, never a per-group set. AVG keeps the
    engine's truncating integer division for int inputs (reference AVG,
    aggregate_execution.rs:473-489); the DuckDB replay floor-divides,
    identical on this non-negative column."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT source, SUM(DISTINCT n_chars) AS sd, "
        "AVG(DISTINCT n_chars) AS ad, "
        "COUNT(DISTINCT n_chars) AS cd, COUNT(*) AS n "
        "FROM docs GROUP BY source",
        {"docs": _t(sf_dir, "documents", ["source", "n_chars"])},
    )


SQL_SQL_SUM_AVG_DISTINCT = """
SELECT source, CAST(SUM(DISTINCT n_chars) AS BIGINT) AS sd,
       CAST(SUM(DISTINCT n_chars) // COUNT(DISTINCT n_chars) AS BIGINT) AS ad,
       COUNT(DISTINCT n_chars) AS cd, COUNT(*) AS n
FROM documents GROUP BY source
"""


def q_sql_window_expr_key(sf_dir: str) -> Result:
    """Expression PARTITION BY keys (round-5): a non-column key lifts
    into the same hidden __wv* pre-window input as expression window
    arguments, so the bucket exchange partitions on the evaluated value
    (e.g. one frame per day: PARTITION BY date_trunc('day', ts))."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT event_id, "
        "SUM(user_id) OVER (PARTITION BY date_trunc('day', ts) "
        "ORDER BY event_id) AS s, "
        "ROW_NUMBER() OVER (PARTITION BY date_trunc('hour', ts) "
        "ORDER BY event_id) AS rn "
        "FROM ev",
        {"ev": _t(sf_dir, "events", ["event_id", "ts", "user_id"])},
    )


SQL_SQL_WINDOW_EXPR_KEY = """
SELECT event_id,
  CAST(SUM(user_id) OVER (PARTITION BY date_trunc('day', ts)
       ORDER BY event_id) AS BIGINT) AS s,
  ROW_NUMBER() OVER (PARTITION BY date_trunc('hour', ts)
       ORDER BY event_id) AS rn
FROM events
"""


def q_pushdown_scan(sf_dir: str) -> Result:
    """Parquet scan pushdown (round-5): PATH-valued sources in run_sql
    read ONLY the referenced columns and push the pushable WHERE subset
    into the scan as a pyarrow.dataset filter (row-group statistics
    pruning; sources/pushdown.py). The engine re-applies the full WHERE
    — pushdown is bandwidth-only, results are bit-identical. This entry
    runs the whole query from path strings."""
    import os as _os

    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT lang, COUNT(*) AS n, MAX(n_chars) AS mx FROM docs "
        "WHERE n_chars > 150 AND lang IN ('en', 'de', 'fr') "
        "AND source IS NOT NULL "
        "GROUP BY lang",
        {"docs": _os.path.join(sf_dir, "documents.parquet")},
    )


SQL_PUSHDOWN_SCAN = """
SELECT lang, COUNT(*) AS n, MAX(n_chars) AS mx FROM documents
WHERE n_chars > 150 AND lang IN ('en', 'de', 'fr')
  AND source IS NOT NULL
GROUP BY lang
"""


def q_sql_any_all(sf_dir: str) -> Result:
    """Quantified comparisons (round-5 extension): x <op> ANY/ALL
    (SELECT …) rewrite onto MIN/MAX scalar subqueries (evaluate-once
    literals) or the exact IN-subquery semi/anti-join — no per-row
    subquery execution anywhere. Empty-set ALL diverges (engine
    NULL⇒false; the oracle set is non-empty by construction)."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT o_orderkey, o_totalprice FROM orders "
        "WHERE o_totalprice > ALL "
        "(SELECT o_totalprice FROM orders WHERE o_orderpriority = '1-URGENT' "
        "AND o_custkey < 50) "
        "AND o_custkey = ANY (SELECT c_custkey FROM customer "
        "WHERE c_acctbal > 9000)",
        {
            "orders": _t(
                sf_dir, "orders",
                ["o_orderkey", "o_totalprice", "o_orderpriority", "o_custkey"],
            ),
            "customer": _t(sf_dir, "customer", ["c_custkey", "c_acctbal"]),
        },
    )


SQL_SQL_ANY_ALL = """
SELECT o_orderkey, o_totalprice FROM orders
WHERE o_totalprice > ALL
  (SELECT o_totalprice FROM orders WHERE o_orderpriority = '1-URGENT'
   AND o_custkey < 50)
  AND o_custkey = ANY (SELECT c_custkey FROM customer
                       WHERE c_acctbal > 9000)
"""


def q_sql_try_cast(sf_dir: str) -> Result:
    """TRY_CAST(x AS T) (round-5 extension, DuckDB parity): NULL where
    the conversion fails; string sources coerce vectorized (one pandas
    C call per batch), round-half-away string→INT like DuckDB. Exercised
    over the documents props-free columns via string round-trips."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT doc_id, "
        "TRY_CAST(lang AS INT) AS li, "
        "TRY_CAST(CAST(n_chars AS TEXT) AS INT) AS ni, "
        "TRY_CAST(CAST(n_chars AS TEXT) AS DOUBLE) AS nf "
        "FROM docs WHERE mod(doc_id, 59) = 0",
        {"docs": _t(sf_dir, "documents", ["doc_id", "lang", "n_chars"])},
    )


SQL_SQL_TRY_CAST = """
SELECT doc_id,
       TRY_CAST(lang AS INT) AS li,
       TRY_CAST(CAST(n_chars AS TEXT) AS INT) AS ni,
       TRY_CAST(CAST(n_chars AS TEXT) AS DOUBLE) AS nf
FROM documents WHERE mod(doc_id, 59) = 0
"""


def q_sql_concat_op(sf_dir: str) -> Result:
    """The `||` concatenation operator (round-5: NULL-propagating,
    left-assoc, binds tighter than comparison; non-strings cast) plus
    the IF/IFNULL aliases. Identical SQL runs on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT doc_id, lang || ':' || source AS tag, "
        "doc_id || '#' || lang AS idtag, "
        "IF(n_chars > 300, 'long', 'short') AS sz, "
        "IFNULL(lang, '??') AS lg "
        "FROM docs WHERE mod(doc_id, 47) = 0",
        {
            "docs": _t(
                sf_dir, "documents",
                ["doc_id", "lang", "source", "n_chars"],
            )
        },
    )


SQL_SQL_CONCAT_OP = """
SELECT doc_id, lang || ':' || source AS tag,
       doc_id || '#' || lang AS idtag,
       IF(n_chars > 300, 'long', 'short') AS sz,
       IFNULL(lang, '??') AS lg
FROM documents WHERE mod(doc_id, 47) = 0
"""


def q_sql_scalar_ext3(sf_dir: str) -> Result:
    """Round-5 scalar batch 3: regexp_replace (first-match default, 'g'
    flag — pc.replace_substring_regex), regexp_extract (whole first
    match, '' on no-match, NULL stays NULL — pc.extract_regex via one
    named wrap group), concat_ws (skip-NULL join,
    pc.binary_join_element_wise), instr ≡ strpos, levenshtein (per-row
    DP utility, SURVEY §M10 fallback). Identical SQL runs on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT doc_id, "
        "regexp_replace(source, '[0-9]+', '#', 'g') AS rr, "
        "regexp_replace(lang, '[aeiou]', '*') AS r1, "
        "regexp_extract(source, '[0-9]+') AS re, "
        "concat_ws('-', lang, source) AS cw, "
        "instr(source, '1') AS ip, "
        "levenshtein(lang, 'en') AS lv "
        "FROM docs WHERE mod(doc_id, 43) = 0",
        {"docs": _t(sf_dir, "documents", ["doc_id", "lang", "source"])},
    )


SQL_SQL_SCALAR_EXT3 = """
SELECT doc_id,
       regexp_replace(source, '[0-9]+', '#', 'g') AS rr,
       regexp_replace(lang, '[aeiou]', '*') AS r1,
       regexp_extract(source, '[0-9]+') AS re,
       concat_ws('-', lang, source) AS cw,
       instr(source, '1') AS ip,
       levenshtein(lang, 'en') AS lv
FROM documents WHERE mod(doc_id, 43) = 0
"""


def q_sql_date_parts(sf_dir: str) -> Result:
    """date_part('part', ts) + year/month/day/hour/minute/second
    shortcuts (dispatch into the EXTRACT kernel family) and strftime
    (per-row C-format render). Identical SQL runs on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT event_id, year(ts) AS y, month(ts) AS mo, day(ts) AS d, "
        "hour(ts) AS h, minute(ts) AS mi, second(ts) AS s, "
        "date_part('hour', ts) AS dp, "
        "strftime(ts, '%Y-%m-%d %H:%M') AS sf "
        "FROM ev WHERE mod(event_id, 53) = 0",
        {"ev": _t(sf_dir, "events", ["event_id", "ts"])},
    )


SQL_SQL_DATE_PARTS = """
SELECT event_id, year(ts) AS y, month(ts) AS mo, day(ts) AS d,
       hour(ts) AS h, minute(ts) AS mi, second(ts) AS s,
       date_part('hour', ts) AS dp,
       strftime(ts, '%Y-%m-%d %H:%M') AS sf
FROM events WHERE mod(event_id, 53) = 0
"""


def q_sql_cross_join(sf_dir: str) -> Result:
    """CROSS JOIN (round-5 extension): cartesian product with a small
    broadcast side (enrich.CrossJoiner — one vectorized repeat-take per
    batch, right columns tiled; no keys, no shuffle), chained with a
    further equi-join stage. Identical SQL runs on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT r.r_name AS rn, n.n_name AS nn, "
        "COUNT(*) AS cnt "
        "FROM region r CROSS JOIN nation n "
        "GROUP BY r.r_name, n.n_name",
        {
            "region": _t(sf_dir, "region", ["r_name"]),
            "nation": _t(sf_dir, "nation", ["n_name"]),
        },
    )


SQL_SQL_CROSS_JOIN = """
SELECT r.r_name AS rn, n.n_name AS nn, COUNT(*) AS cnt
FROM region r CROSS JOIN nation n
GROUP BY r.r_name, n.n_name
"""


def q_sql_range_frames(sf_dir: str) -> Result:
    """RANGE frames with FOLLOWING bounds (round-5 extension): value-
    offset windows both directions over a numeric order column —
    ``RANGE BETWEEN x PRECEDING AND y FOLLOWING``, ``CURRENT ROW AND y
    FOLLOWING`` (start = first peer), ``UNBOUNDED PRECEDING AND y
    FOLLOWING``, ``x PRECEDING AND UNBOUNDED FOLLOWING``. The frame end
    is a second vectorized per-row binary search (window.range_end),
    mirroring range_start; identical SQL runs on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT event_id, "
        "SUM(user_id) OVER (PARTITION BY event_type ORDER BY event_id "
        "RANGE BETWEEN 50 PRECEDING AND 20 FOLLOWING) AS s, "
        "COUNT(*) OVER (PARTITION BY event_type ORDER BY event_id "
        "RANGE BETWEEN CURRENT ROW AND 30 FOLLOWING) AS c, "
        "round(AVG(user_id) OVER (PARTITION BY event_type ORDER BY event_id "
        "RANGE BETWEEN UNBOUNDED PRECEDING AND 10 FOLLOWING), 6) AS a "
        "FROM ev",
        {"ev": _t(sf_dir, "events", ["event_id", "event_type", "user_id"])},
    )


SQL_SQL_RANGE_FRAMES = """
SELECT event_id,
  CAST(SUM(user_id) OVER (PARTITION BY event_type ORDER BY event_id
       RANGE BETWEEN 50 PRECEDING AND 20 FOLLOWING) AS BIGINT) AS s,
  COUNT(*) OVER (PARTITION BY event_type ORDER BY event_id
       RANGE BETWEEN CURRENT ROW AND 30 FOLLOWING) AS c,
  round(AVG(user_id) OVER (PARTITION BY event_type ORDER BY event_id
       RANGE BETWEEN UNBOUNDED PRECEDING AND 10 FOLLOWING), 6) AS a
FROM events
"""


def q_sql_multi_join(sf_dir: str) -> Result:
    """Multi-join chains (round-5 extension): FROM customer JOIN nation
    JOIN region — each further JOIN is one more broadcast map_batches
    stage over the stream (Query.extra_joins → runner loop), no
    intermediate materialization; a chained ON may reference an earlier
    join's columns through its prefixed stream name. The identical SQL
    runs on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT r.r_name AS region, n.n_name AS nation_name, "
        "COUNT(*) AS n, MIN(c.c_acctbal) AS min_bal "
        "FROM customer c "
        "JOIN nation n ON c.c_nationkey = n.n_nationkey "
        "JOIN region r ON n.n_regionkey = r.r_regionkey "
        "GROUP BY r.r_name, n.n_name",
        {
            "customer": _t(
                sf_dir, "customer", ["c_nationkey", "c_acctbal"]
            ),
            "nation": _t(sf_dir, "nation", None),
            "region": _t(sf_dir, "region", None),
        },
    )


SQL_SQL_MULTI_JOIN = """
SELECT r.r_name AS region, n.n_name AS nation_name,
       COUNT(*) AS n, MIN(c.c_acctbal) AS min_bal
FROM customer c
JOIN nation n ON c.c_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name, n.n_name
"""


def q_sql_window_expr(sf_dir: str) -> Result:
    """Expression arguments to window functions (round-5 extension):
    ``SUM(a*b) OVER …`` / ``LAG(a+1) OVER …`` — the expression lifts
    into ONE hidden pre-window column (__wv*) computed by a streaming
    map_batches BEFORE the bucket exchange (sqlfront convert_query
    lift → runner.run_select), so the window kernels stay plain-column
    and the exchange ships the evaluated value, not its inputs."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT event_id, "
        "SUM(user_id * 2) OVER (PARTITION BY event_type ORDER BY event_id) AS s, "
        "LAG(user_id + 1) OVER (PARTITION BY event_type ORDER BY event_id) AS lg "
        "FROM ev",
        {"ev": _t(sf_dir, "events", ["event_id", "event_type", "user_id"])},
    )


SQL_SQL_WINDOW_EXPR = """
SELECT event_id,
  CAST(SUM(user_id * 2) OVER (PARTITION BY event_type ORDER BY event_id)
       AS BIGINT) AS s,
  LAG(user_id + 1) OVER (PARTITION BY event_type ORDER BY event_id) AS lg
FROM events
"""


def q_sql_stats_agg(sf_dir: str) -> Result:
    """Statistical aggregate family (round-5 extension): sample
    stddev/variance ((n−1), NULL below two observations), two-column
    COVAR_POP/COVAR_SAMP/CORR with pairwise NULL semantics (all
    associative — (Σx, Σy, Σxy, Σx², Σy², n) partials through the same
    combiner-first pipeline as SUM), and MEDIAN as the engine's
    truncation-index percentile (replayed in DuckDB via the sorted
    array_agg index, like percentile_price). Floats rounded for a
    stable cross-engine hash."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT l_returnflag, "
        "round(stddev_samp(l_quantity), 6) AS ss, "
        "round(var_samp(l_quantity), 6) AS vs, "
        "round(covar_samp(l_quantity, l_extendedprice), 2) AS cs, "
        "round(covar_pop(l_quantity, l_extendedprice), 2) AS cp, "
        "round(corr(l_quantity, l_extendedprice), 8) AS cr, "
        "median(l_quantity) AS md "
        "FROM li GROUP BY l_returnflag",
        {
            "li": _t(
                sf_dir, "lineitem",
                ["l_returnflag", "l_quantity", "l_extendedprice"],
            )
        },
    )


SQL_SQL_STATS_AGG = """
SELECT l_returnflag,
       round(stddev_samp(l_quantity), 6) AS ss,
       round(var_samp(l_quantity), 6) AS vs,
       round(covar_samp(l_quantity, l_extendedprice), 2) AS cs,
       round(covar_pop(l_quantity, l_extendedprice), 2) AS cp,
       round(corr(l_quantity, l_extendedprice), 8) AS cr,
       (array_agg(l_quantity ORDER BY l_quantity))
         [CAST(floor(0.5 * count(*)) AS INT) + 1] AS md
FROM lineitem GROUP BY l_returnflag
"""


def q_sql_derived_alias(sf_dir: str) -> Result:
    """Derived tables + table aliases (round-5 extension): FROM
    (SELECT …) t JOIN (SELECT … GROUP BY …) s ON … — each derived table
    binds like a member-scoped CTE (api._run_sql_stmt), the join side
    broadcast-materializes exactly like a named table, and alias-
    qualified references resolve through the normal bind path. The
    DuckDB replay only adds BIGINT casts for its HUGEINT sums."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT t.source AS source, COUNT(*) AS n, MAX(s.total) AS mx "
        "FROM (SELECT source, lang FROM docs WHERE n_chars > 100) t "
        "JOIN (SELECT lang, SUM(n_chars) AS total FROM docs GROUP BY lang) s "
        "ON t.lang = s.lang "
        "GROUP BY t.source",
        {"docs": _t(sf_dir, "documents", ["source", "lang", "n_chars"])},
    )


SQL_SQL_DERIVED_ALIAS = """
SELECT t.source AS source, COUNT(*) AS n, CAST(MAX(s.total) AS BIGINT) AS mx
FROM (SELECT source, lang FROM documents WHERE n_chars > 100) t
JOIN (SELECT lang, CAST(SUM(n_chars) AS BIGINT) AS total
      FROM documents GROUP BY lang) s
ON t.lang = s.lang
GROUP BY t.source
"""


def q_sql_scalar_ext2(sf_dir: str) -> Result:
    """Round-5 scalar-function additions in one projection: trig family
    (sin/cos/atan2 — pyarrow kernels), degrees/radians/cbrt, one-arg
    (base-10) and two-arg log, POSITION(x IN y)
    parser sugar for strpos (initcap exists too but DuckDB lacks it —
    pytest-covered instead), and the per-row utility fallbacks
    translate/md5/ascii/chr/to_hex (off-hot-path, SURVEY §M10 allows the
    row loop there). Floats round to 9 decimals for a stable
    cross-engine hash."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        _SCALAR_EXT2_SQL.replace("documents", "docs"),
        {"docs": _t(sf_dir, "documents", ["doc_id", "lang", "source"])},
    )


_SCALAR_EXT2_SQL = """
SELECT doc_id,
       round(sin(mod(doc_id, 7)), 9) AS s,
       round(cos(mod(doc_id, 7)), 9) AS c,
       round(atan2(mod(doc_id, 5), 3), 9) AS a2,
       round(degrees(1.0), 9) AS dg,
       round(radians(180.0), 9) AS rd,
       round(cbrt(doc_id + 1), 9) AS cb,
       round(log(doc_id + 10), 9) AS lg10,
       round(log(2, doc_id + 10), 9) AS lg2,
       round(tan(0.5), 9) AS tn,
       round(asin(0.5), 9) AS asn,
       round(acos(0.5), 9) AS acs,
       round(atan(0.5), 9) AS at1,
       position('b' IN source) AS pos_b,
       translate(source, 'abc', 'xy') AS tr,
       md5(lang) AS h,
       ascii(source) AS ac,
       chr(CAST(65 + mod(doc_id, 26) AS INTEGER)) AS ch,
       to_hex(doc_id) AS hx
FROM documents
WHERE mod(doc_id, 41) = 0
"""

SQL_SQL_SCALAR_EXT2 = _SCALAR_EXT2_SQL


def q_sql_ordered_agg(sf_dir: str) -> Result:
    """ARRAY_AGG/STRING_AGG … ORDER BY key [DESC] (round-5 extension):
    explicit element ordering replaces the engine's default
    value-ascending determinism choice. Elements sort by the order key
    (NULL keys last either direction), ties by the VALUE ascending —
    the DuckDB replay appends the value as an explicit tiebreak."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT source, "
        "ARRAY_AGG(doc_id ORDER BY n_chars DESC) AS ids, "
        "STRING_AGG(lang, ',' ORDER BY doc_id) AS langs "
        "FROM docs GROUP BY source",
        {"docs": _t(sf_dir, "documents", ["source", "doc_id", "lang", "n_chars"])},
    )


SQL_SQL_ORDERED_AGG = """
SELECT source,
       ARRAY_AGG(doc_id ORDER BY n_chars DESC, doc_id) AS ids,
       STRING_AGG(lang, ',' ORDER BY doc_id) AS langs
FROM documents GROUP BY source
"""


def q_sql_unnest_tokens(sf_dir: str) -> Result:
    """UNNEST + string_to_array (round-5 extension): pure-SQL token
    counting — the vocab pipeline expressed in the dialect. The explode
    is one vectorized map_batches (list_flatten + parent-row take over
    np.repeat indices), streaming, no shuffle; empty/NULL lists drop the
    row (SQL parity); the CTE feeds a plain grouped COUNT."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "WITH toks AS (SELECT lang, "
        "UNNEST(string_to_array(text, ' ')) AS tok FROM docs) "
        "SELECT lang, tok, COUNT(*) AS n FROM toks "
        "GROUP BY lang, tok HAVING COUNT(*) >= 50",
        {"docs": _t(sf_dir, "documents", ["lang", "text"])},
    )


SQL_SQL_UNNEST_TOKENS = """
WITH toks AS (
  SELECT lang, UNNEST(string_split(text, ' ')) AS tok FROM documents
)
SELECT lang, tok, CAST(COUNT(*) AS BIGINT) AS n
FROM toks GROUP BY lang, tok HAVING COUNT(*) >= 50
"""


def q_sql_window_desc(sf_dir: str) -> Result:
    """DESC / composite OVER(ORDER BY …) ordering (round-5 extension):
    the in-bucket sort takes per-column directions, tie runs (peers) are
    equality over ALL order columns, and NULL order keys sort last in
    either direction (DuckDB's default) — same ONE shared-frame bucket
    exchange as ascending windows."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, "
        "ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx DESC) "
        "AS rn_desc, "
        "LAG(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx DESC) "
        "AS next_turn, "
        "SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx DESC) "
        "AS rev_cumsum, "
        "RANK() OVER (PARTITION BY conv_id ORDER BY role, turn_idx DESC) "
        "AS role_rank FROM t"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "role"]
    )
    return run_plan(ds, plan)


SQL_SQL_WINDOW_DESC = f"""
SELECT conv_id, turn_idx,
 CAST(ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY turn_idx DESC)
      AS BIGINT) AS rn_desc,
 LAG(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx DESC)
   AS next_turn,
 CAST(SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx DESC)
      AS BIGINT) AS rev_cumsum,
 CAST(RANK() OVER (PARTITION BY conv_id ORDER BY role, turn_idx DESC)
      AS BIGINT) AS role_rank
FROM read_parquet('{_TR_GLOB}')
"""


def q_sql_window_nulls(sf_dir: str) -> Result:
    """NULLS FIRST/LAST in OVER(ORDER BY …) (round-5 extension): per-key
    placement rides 0/1 validity markers in the one bucket-sort pass
    (pyarrow's null_placement is global, so markers are the per-key
    mechanism); the NULL-bearing order key is derived first (window args
    are plain columns)."""
    from sqlgrep_ray.api import run_sql
    from sqlgrep_ray.sqlfront import parse_query

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx"]
    )
    derived = run_sql(
        "SELECT conv_id, turn_idx, "
        "CASE WHEN mod(turn_idx, 7) = 0 THEN NULL ELSE turn_idx END AS o "
        "FROM t",
        ds,
    )
    plan = parse_query(
        "SELECT conv_id, turn_idx, "
        "ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY o NULLS FIRST, "
        "turn_idx) AS rn_nf, "
        "SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY o DESC "
        "NULLS FIRST, turn_idx) AS rs_dnf FROM t"
    ).plan
    return run_plan(derived, plan)


SQL_SQL_WINDOW_NULLS = f"""
WITH d AS (
  SELECT conv_id, turn_idx,
         CASE WHEN mod(turn_idx, 7) = 0 THEN NULL ELSE turn_idx END AS o
  FROM read_parquet('{_TR_GLOB}')
)
SELECT conv_id, turn_idx,
 CAST(ROW_NUMBER() OVER (PARTITION BY conv_id ORDER BY o NULLS FIRST,
      turn_idx) AS BIGINT) AS rn_nf,
 CAST(SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY o DESC NULLS FIRST,
      turn_idx) AS BIGINT) AS rs_dnf
FROM d
"""


def q_sql_agg_filter(sf_dir: str) -> Result:
    """Aggregate FILTER (WHERE …) clauses (round-5 extension): rewritten
    at parse time to NULL-skip CASE arguments (every engine aggregate
    drops NULL inputs, so agg(CASE WHEN cond THEN x ELSE NULL END) is
    exactly the filtered aggregate; COUNT(*) counts a literal 1) — zero
    new runtime machinery, the partial/combine path is unchanged."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT source, COUNT(*) AS n, "
        "COUNT(*) FILTER (WHERE lang = 'en') AS n_en, "
        "SUM(n_chars) FILTER (WHERE n_chars >= 300) AS big_chars, "
        "MIN(n_chars) FILTER (WHERE lang <> 'en') AS min_other, "
        "COUNT(DISTINCT lang) FILTER (WHERE n_chars < 500) AS langs_small "
        "FROM docs GROUP BY source",
        {"docs": _t(sf_dir, "documents", ["source", "lang", "n_chars"])},
    )


SQL_SQL_AGG_FILTER = """
SELECT source, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(*) FILTER (WHERE lang = 'en') AS BIGINT) AS n_en,
       CAST(SUM(n_chars) FILTER (WHERE n_chars >= 300) AS BIGINT)
         AS big_chars,
       MIN(n_chars) FILTER (WHERE lang <> 'en') AS min_other,
       CAST(COUNT(DISTINCT lang) FILTER (WHERE n_chars < 500) AS BIGINT)
         AS langs_small
FROM documents GROUP BY source
"""


def q_sql_ignore_nulls(sf_dir: str) -> Result:
    """IGNORE NULLS navigation through the SQL dialect (round-5
    extension): LAG/LEAD step over the partition's NON-NULL values only
    (k-th non-null back/forward), FIRST_VALUE/LAST_VALUE read the frame's
    first/last non-null. One cumsum of the validity bitmap per value
    column powers all four (stages/window.py nn_stats); the NULL-bearing
    column is derived first (tool='none' → NULL) since window args are
    plain columns."""
    from sqlgrep_ray.api import run_sql
    from sqlgrep_ray.sqlfront import parse_query

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "tool"]
    )
    derived = run_sql(
        "SELECT conv_id, turn_idx, "
        "CASE WHEN tool = 'none' THEN NULL ELSE tool END AS v FROM t",
        ds,
    )
    plan = parse_query(
        "SELECT conv_id, turn_idx, v, "
        "LAG(v) IGNORE NULLS OVER (PARTITION BY conv_id ORDER BY turn_idx) "
        "AS prev_tool, "
        "LEAD(v, 2) IGNORE NULLS OVER (PARTITION BY conv_id ORDER BY "
        "turn_idx) AS next2_tool, "
        "FIRST_VALUE(v) IGNORE NULLS OVER (PARTITION BY conv_id ORDER BY "
        "turn_idx) AS first_tool, "
        "LAST_VALUE(v) IGNORE NULLS OVER (PARTITION BY conv_id ORDER BY "
        "turn_idx ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) "
        "AS last_tool FROM t"
    ).plan
    return run_plan(derived, plan)


SQL_SQL_IGNORE_NULLS = f"""
WITH d AS (
  SELECT conv_id, turn_idx,
         CASE WHEN tool = 'none' THEN NULL ELSE tool END AS v
  FROM read_parquet('{_TR_GLOB}')
)
SELECT conv_id, turn_idx, v,
 LAG(v, 1 IGNORE NULLS) OVER (PARTITION BY conv_id ORDER BY turn_idx)
   AS prev_tool,
 LEAD(v, 2 IGNORE NULLS) OVER (PARTITION BY conv_id ORDER BY turn_idx)
   AS next2_tool,
 FIRST_VALUE(v IGNORE NULLS) OVER (PARTITION BY conv_id ORDER BY turn_idx)
   AS first_tool,
 LAST_VALUE(v IGNORE NULLS) OVER (PARTITION BY conv_id ORDER BY turn_idx
   ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING) AS last_tool
FROM d
"""


_SCALAR_EXT_SQL = """
SELECT doc_id,
       concat(upper(left(lang, 1)), '-', source) AS tag,
       coalesce(nullif(lang, 'und'), 'unknown') AS lang2,
       substring(text, 1, 12) AS head,
       replace(lang, 'e', 'E') AS lang3,
       strpos(text, 'the') AS pos_the,
       split_part(source, 'c', 2) AS src_tail,
       starts_with(text, 'the') AS t0,
       contains(text, 'data') AS has_data,
       reverse(lang) AS gnal,
       CAST(sign(n_chars - 500) AS BIGINT) AS size_sign,
       mod(n_chars, 7) AS m7,
       CAST(floor(n_chars / 3.0) AS BIGINT) AS third
FROM documents
WHERE right(source, 1) = '3' OR ends_with(source, '7')
"""


SQL_SQL_LIKE_BETWEEN = """
SELECT doc_id, lang, source, n_chars FROM documents
WHERE (lang LIKE 'e%' OR source ILIKE 'SRC1%')
  AND n_chars BETWEEN 100 AND 2000
  AND source NOT LIKE '%9'
"""


def q_sql_like_between(sf_dir: str) -> Result:
    """LIKE / ILIKE / NOT LIKE and BETWEEN through the SQL dialect
    (round-4 extension; pc.match_like kernels, BETWEEN desugars to
    ge∧le). Columns are non-null so the engine's NULL⇒false comparison
    semantics and SQL's NULL agree — identical SQL runs on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        SQL_SQL_LIKE_BETWEEN.replace("documents", "docs"),
        {
            "docs": _t(
                sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"]
            )
        },
    )


def q_sql_scalar_ext(sf_dir: str) -> Result:
    """The engine-extension scalar-function family (round-4 addition:
    coalesce/nullif/concat/substring/replace/trim family/starts_with/
    ends_with/contains/strpos/split_part/left/right/reverse/floor/ceil/
    sign/mod/repeat/ln/log2/log10/exp — each ONE pyarrow kernel,
    exprs.py) exercised in one projection+filter over documents; the
    identical SQL runs on DuckDB. strpos counts CHARACTERS (multi-byte
    safe); split_part returns '' past the last field."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        _SCALAR_EXT_SQL.replace("documents", "docs"),
        {
            "docs": _t(
                sf_dir, "documents",
                ["doc_id", "text", "lang", "source", "n_chars"],
            )
        },
    )


SQL_SQL_SCALAR_EXT = _SCALAR_EXT_SQL


SQL_SQL_PAD_FUNCS = """
SELECT doc_id,
       lpad(lang, 5, '_') AS lang_lpad,
       rpad(lang, 5, '.') AS lang_rpad,
       lpad(source, 4, '0') AS src_trunc,
       rpad(source, 12, ' ') AS src_wide
FROM documents
WHERE mod(doc_id, 37) = 0
"""


def q_sql_pad_funcs(sf_dir: str) -> Result:
    """lpad/rpad (round-5 extension; pc.utf8_lpad/utf8_rpad plus a
    reconciling slice — Postgres/DuckDB truncate overlong inputs to
    the width, Arrow does not). Exercises both the pad-out and the
    truncate direction (DuckDB's 3-arg form is used throughout because
    the identical SQL runs on both engines; the 2-arg space default is
    pytest-covered)."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        SQL_SQL_PAD_FUNCS.replace("documents", "docs"),
        {"docs": _t(sf_dir, "documents", ["doc_id", "lang", "source"])},
    )


def q_sql_scalar_subquery(sf_dir: str) -> Result:
    """Scalar subqueries through the SQL dialect (round-4 extension):
    ``(SELECT AVG(…))`` evaluates once to a literal spliced into the
    plan, so the outer WHERE stays one vectorized kernel. Output columns
    are exact ints (the float scalar only selects rows) — hash-exact vs
    DuckDB running the identical SQL."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT o_orderkey, o_custkey FROM orders "
        "WHERE o_totalprice > (SELECT AVG(o_totalprice) FROM orders)",
        {"orders": _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])},
    )


SQL_SQL_SCALAR_SUBQUERY = """
SELECT o_orderkey, o_custkey FROM orders
WHERE o_totalprice > (SELECT AVG(o_totalprice) FROM orders)
"""


def q_sql_time_range_window(sf_dir: str) -> Result:
    """Trailing TIME window per row (round-5 extension): ``SUM/COUNT(*)
    OVER (PARTITION BY conv_id ORDER BY ts RANGE BETWEEN INTERVAL
    '0:0:30' PRECEDING AND CURRENT ROW)`` — the canonical log-pipeline
    frame ("events in the last 30 s, per key, at every event"). The
    interval literal uses the dialect's H:M:S form and lowers to a µs
    order-value lookback; the frame start is one vectorized binary
    search per bucket (window.py range_start). RANGE semantics make it
    tie-safe (peers share frame ends), so ts duplicates are fine.
    Hash-exact vs DuckDB's native INTERVAL RANGE frame."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, ts, "
        "SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY ts "
        "RANGE BETWEEN INTERVAL '0:0:30' PRECEDING AND CURRENT ROW) AS tsum, "
        "COUNT(*) OVER (PARTITION BY conv_id ORDER BY ts "
        "RANGE BETWEEN '0:2:0' PRECEDING AND CURRENT ROW) AS tcnt "
        "FROM t"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "ts"]
    )
    return run_plan(ds, plan)


SQL_SQL_TIME_RANGE_WINDOW = f"""
SELECT conv_id, turn_idx, ts,
 CAST(SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY ts
      RANGE BETWEEN INTERVAL '30 seconds' PRECEDING AND CURRENT ROW)
      AS BIGINT) AS tsum,
 CAST(COUNT(*) OVER (PARTITION BY conv_id ORDER BY ts
      RANGE BETWEEN INTERVAL '2 minutes' PRECEDING AND CURRENT ROW)
      AS BIGINT) AS tcnt
FROM read_parquet('{_TR_GLOB}')
"""


def q_sql_moving_window(sf_dir: str) -> Result:
    """Bounded window frames through the SQL dialect (round-4 extension;
    round-5 adds ``n PRECEDING AND m FOLLOWING`` and numeric
    ``RANGE x PRECEDING``): moving SUM/AVG/COUNT(*) over backward,
    centered and order-value frames plus MIN/MAX OVER. All compute in
    the ONE shared-frame bucket pass; bounded aggregates are
    exclusive-prefix differences over [j0, j1] (ROWS: position offsets
    clamped to the partition; RANGE: one vectorized binary search for
    the frame start), MIN/MAX ride pandas' cython expanding/rolling
    kernels (window.py). (conv_id, turn_idx) is unique, satisfying the
    ROWS determinism contract — hash-exact vs DuckDB."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, "
        "SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS msum, "
        "AVG(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS mavg, "
        "COUNT(*) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS mcnt, "
        "MIN(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx) "
        "AS mn, "
        "MAX(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS mx, "
        "SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS csum, "
        "COUNT(*) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS fcnt, "
        "SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx "
        "RANGE BETWEEN 4 PRECEDING AND CURRENT ROW) AS rsum "
        "FROM t"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx"]
    )
    return run_plan(ds, plan)


SQL_SQL_MOVING_WINDOW = f"""
SELECT conv_id, turn_idx,
 CAST(SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx
      ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS BIGINT) AS msum,
 AVG(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx
      ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS mavg,
 CAST(COUNT(*) OVER (PARTITION BY conv_id ORDER BY turn_idx
      ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS mcnt,
 MIN(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx) AS mn,
 MAX(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx
      ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS mx,
 CAST(SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx
      ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS BIGINT) AS csum,
 CAST(COUNT(*) OVER (PARTITION BY conv_id ORDER BY turn_idx
      ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS BIGINT) AS fcnt,
 CAST(SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx
      RANGE BETWEEN 4 PRECEDING AND CURRENT ROW) AS BIGINT) AS rsum
FROM read_parquet('{_TR_GLOB}')
"""


def q_sql_in_subquery(sf_dir: str) -> Result:
    """``IN (SELECT …)`` through the SQL dialect (round-4 extension):
    the parser lifts the top-level WHERE conjunct into
    ``Query.in_subqueries`` and execution runs it as the exact
    bloom-accelerated semi-join (stages/bloom) against the subquery's
    key column — identical SQL runs on DuckDB as the oracle."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
        "WHERE o_totalprice > 100000 AND o_custkey IN "
        "(SELECT c_custkey FROM customer WHERE c_acctbal > 7000)",
        {
            "orders": _t(
                sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
            ),
            "customer": _t(sf_dir, "customer", ["c_custkey", "c_acctbal"]),
        },
    )


SQL_SQL_IN_SUBQUERY = """
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
WHERE o_totalprice > 100000 AND o_custkey IN
(SELECT c_custkey FROM customer WHERE c_acctbal > 7000)
"""


def q_sql_approx_distinct(sf_dir: str) -> Result:
    """``APPROX_COUNT_DISTINCT`` through the SQL dialect (round-5
    extension): dispatches to the HLL++ sketch family — per-key
    fixed-size partials (≤ 2×2^p bytes regardless of cardinality), the
    100-TB answer to COUNT(DISTINCT). Hash-exact against DuckDB's exact
    count in the sparse regime the test tables occupy (per-role distinct
    tools ≪ 2^12/8); beyond it the same query degrades to the
    ±1.04/√2^p estimate. NULL group keys form one group (a split-off
    global sketch pass inside the runner path)."""
    from sqlgrep_ray.api import run_sql

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["role", "tool"]
    )
    return run_sql(
        "SELECT role, APPROX_COUNT_DISTINCT(tool) AS n_tools "
        "FROM t GROUP BY role",
        ds,
    )


SQL_SQL_APPROX_DISTINCT = f"""
SELECT role, CAST(COUNT(DISTINCT tool) AS BIGINT) AS n_tools
FROM read_parquet('{_TR_GLOB}') GROUP BY role
"""


def q_sql_mode(sf_dir: str) -> Result:
    """``MODE(x)`` through the SQL dialect (round-5 extension): each
    group's most frequent non-NULL value with DETERMINISTIC ties (the
    smallest value) — runner._mode_path runs it as two bounded shuffles
    (per-(key, value) combiner-first counts, then one auto-sized bucket
    pass picking the first row per key by (validity desc, count desc,
    value asc)); no group ever lands whole on one worker. The DuckDB
    replay spells the tie-break out explicitly (its own mode() leaves
    ties unspecified)."""
    from sqlgrep_ray.api import run_sql

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["role", "tool"]
    )
    return run_sql(
        "SELECT role, MODE(tool) AS top_tool FROM t GROUP BY role", ds
    )


SQL_SQL_MODE = f"""
WITH c AS (
  SELECT role, tool, count(*) AS c FROM read_parquet('{_TR_GLOB}')
  WHERE tool IS NOT NULL GROUP BY role, tool
), r AS (
  SELECT role, tool,
         row_number() OVER (PARTITION BY role ORDER BY c DESC, tool ASC) AS rn
  FROM c
)
SELECT d.role, r.tool AS top_tool
FROM (SELECT DISTINCT role FROM read_parquet('{_TR_GLOB}')) d
LEFT JOIN r ON (d.role IS NOT DISTINCT FROM r.role) AND r.rn = 1
"""


def q_sql_corr_exists(sf_dir: str) -> Result:
    """Correlated ``EXISTS`` / ``NOT EXISTS`` through the SQL dialect
    (round-5 extension): the parser DECORRELATES the classic one-
    equality correlated EXISTS into the existing exact bloom semi/anti-
    join path (sqlfront._decorrelate_exists → Query.in_subqueries) —
    EXISTS(… WHERE r.k = t.k AND p) ≡ t.k IN (SELECT k FROM r WHERE p).
    Both polarities plus a COMPOSITE two-equality correlation (derived
    null-safe key through the same path) in one query; identical SQL
    runs on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT o_orderkey, o_custkey, o_totalprice FROM orders "
        "WHERE EXISTS (SELECT 1 FROM customer "
        "WHERE customer.c_custkey = orders.o_custkey "
        "AND customer.c_acctbal > 5000) "
        "AND NOT EXISTS (SELECT 1 FROM lineitem "
        "WHERE lineitem.l_orderkey = orders.o_orderkey "
        "AND lineitem.l_quantity > 45) "
        "AND EXISTS (SELECT 1 FROM lineitem "
        "WHERE lineitem.l_orderkey = orders.o_orderkey "
        "AND lineitem.l_linenumber = orders.o_custkey)",
        {
            "orders": _t(
                sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]
            ),
            "customer": _t(sf_dir, "customer", ["c_custkey", "c_acctbal"]),
            "lineitem": _t(
                sf_dir, "lineitem",
                ["l_orderkey", "l_quantity", "l_linenumber"],
            ),
        },
    )


SQL_SQL_CORR_EXISTS = """
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
WHERE EXISTS (SELECT 1 FROM customer
  WHERE customer.c_custkey = orders.o_custkey AND customer.c_acctbal > 5000)
AND NOT EXISTS (SELECT 1 FROM lineitem
  WHERE lineitem.l_orderkey = orders.o_orderkey AND lineitem.l_quantity > 45)
AND EXISTS (SELECT 1 FROM lineitem
  WHERE lineitem.l_orderkey = orders.o_orderkey
  AND lineitem.l_linenumber = orders.o_custkey)
"""


def q_sql_corr_scalar(sf_dir: str) -> Result:
    """Correlated SCALAR-aggregate subqueries through the SQL dialect
    (round-5 extension): ``sqlfront._decorrelate_scalar`` rewrites
    ``t.x <op> (SELECT AGG(y) FROM r WHERE r.k = t.k …)`` into a
    per-key aggregate + size-gated LEFT join + streaming filter
    (api._apply_in_subqueries). One SUM comparison plus a COUNT = 0
    conjunct (SQL: COUNT over an empty correlated set is 0 — orders
    with NO qualifying lineitem must survive the count-zero filter,
    exercising the left-join NULL fill). Identical SQL on DuckDB."""
    from sqlgrep_ray.api import run_sql

    return run_sql(
        "SELECT o_orderkey, o_totalprice FROM orders "
        "WHERE (SELECT SUM(l_quantity) FROM lineitem "
        "WHERE lineitem.l_orderkey = orders.o_orderkey) > 100 "
        "AND (SELECT COUNT(l_quantity) FROM lineitem "
        "WHERE lineitem.l_orderkey = orders.o_orderkey "
        "AND lineitem.l_quantity > 48) = 0",
        {
            "orders": _t(sf_dir, "orders", ["o_orderkey", "o_totalprice"]),
            "lineitem": _t(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]),
        },
    )


SQL_SQL_CORR_SCALAR = """
SELECT o_orderkey, o_totalprice FROM orders
WHERE (SELECT SUM(l_quantity) FROM lineitem
  WHERE lineitem.l_orderkey = orders.o_orderkey) > 100
AND (SELECT COUNT(l_quantity) FROM lineitem
  WHERE lineitem.l_orderkey = orders.o_orderkey
  AND lineitem.l_quantity > 48) = 0
"""


def q_running_sum_ranged(sf_dir: str) -> Result:
    """The chunk-safe two-phase running aggregate
    (stages/window.partition_running_ranged) with ``chunk_rows`` forced
    far below the corpus size, so the driver verifies the DISTRIBUTED
    path end-to-end: order-value chunking, per-(key, chunk) totals,
    distributed exclusive prefixes, hash-join back, bounded final pass —
    bit-equal to the one-task path and to DuckDB's RANGE-frame window SQL
    by construction (VERDICT r3 #7)."""
    from sqlgrep_ray.stages.window import partition_running_ranged

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx"]
    )
    return partition_running_ranged(
        ds, "conv_id", "turn_idx", "turn_idx", func="sum", out_col="cum",
        chunk_rows=5_000,  # sf0.01 = 60k rows → ≥12 chunks, forced multi-chunk
    )


SQL_RUNNING_SUM_RANGED = f"""
SELECT conv_id, turn_idx,
       CAST(SUM(turn_idx) OVER (PARTITION BY conv_id ORDER BY turn_idx)
            AS BIGINT) AS cum
FROM read_parquet('{_TR_GLOB}')
"""


def q_sql_rank_ties(sf_dir: str) -> Result:
    """RANK/DENSE_RANK/PERCENT_RANK/CUME_DIST through the SQL dialect on
    data WITH real ties (line items share quantities within an order):
    all four are tie-independent, so the result is deterministic and
    hash-exact cross-engine even where row order is not (the float
    outputs are int/int divisions — the same IEEE op both engines)."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT l_orderkey, l_linenumber, l_quantity, "
        "RANK() OVER (PARTITION BY l_orderkey ORDER BY l_quantity) AS r, "
        "DENSE_RANK() OVER (PARTITION BY l_orderkey ORDER BY l_quantity) "
        "AS dr, "
        "PERCENT_RANK() OVER (PARTITION BY l_orderkey ORDER BY l_quantity) "
        "AS pr, "
        "CUME_DIST() OVER (PARTITION BY l_orderkey ORDER BY l_quantity) "
        "AS cd FROM t"
    ).plan
    return run_plan(
        _t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"]),
        plan,
    )


SQL_SQL_RANK_TIES = """
SELECT l_orderkey, l_linenumber, l_quantity,
       CAST(RANK() OVER (PARTITION BY l_orderkey ORDER BY l_quantity)
            AS BIGINT) AS r,
       CAST(DENSE_RANK() OVER (PARTITION BY l_orderkey ORDER BY l_quantity)
            AS BIGINT) AS dr,
       PERCENT_RANK() OVER (PARTITION BY l_orderkey ORDER BY l_quantity) AS pr,
       CUME_DIST() OVER (PARTITION BY l_orderkey ORDER BY l_quantity) AS cd
FROM lineitem
"""


def q_sql_ntile(sf_dir: str) -> Result:
    """NTILE(4) through the SQL dialect — the deterministic
    shard-assignment window (n near-equal ordered groups per
    conversation) — full-row int64 output vs DuckDB."""
    from sqlgrep_ray.sqlfront import parse_query

    plan = parse_query(
        "SELECT conv_id, turn_idx, NTILE(4) OVER "
        "(PARTITION BY conv_id ORDER BY turn_idx) AS shard FROM t"
    ).plan
    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx"]
    )
    return run_plan(ds, plan)


SQL_SQL_NTILE = f"""
SELECT conv_id, turn_idx,
       CAST(NTILE(4) OVER (PARTITION BY conv_id ORDER BY turn_idx)
            AS BIGINT) AS shard
FROM read_parquet('{_TR_GLOB}')
"""


def q_conv_latency_p90(sf_dir: str) -> Result:
    """Per-conversation p90 response latency: LAG → vectorized subtraction
    → grouped_percentile (the bucketized scale twin of the holistic
    per-group percentile: one sort + one gather per bucket, never a Python
    call per key). Values are elements of the data (int64 µs) — hash-exact
    vs DuckDB's per-partition truncation-index percentile."""
    from sqlgrep_ray.stages.quantile import grouped_percentile
    from sqlgrep_ray.stages.window import lag_shift

    import pyarrow.compute as pc

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "ts"]
    )
    ds = lag_shift(ds, "conv_id", "turn_idx", ["ts"], offset=1)

    def latency(t: pa.Table) -> pa.Table:
        lat = pc.subtract(
            pc.cast(t["ts"], pa.int64()), pc.cast(t["ts_lag1"], pa.int64())
        )
        return pa.table({"conv_id": t["conv_id"], "l": lat})

    lats = ds.map_batches(latency, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_percentile(
        lats, "conv_id", "l", 0.9, out_col="p90_latency_us"
    )


def q_profile_documents(sf_dir: str) -> Result:
    """Column profiling (round-4 addition, stages/profile): per-column
    row/null/distinct counts and min/max in ONE streaming pass with
    corpus-size-independent partials (counts + extrema + a ≤32KB HLL
    sketch per block-column). Distinct counts are in the HLL sparse-EXACT
    regime at sf0.01, extrema merge numerically for numeric columns —
    hash-exact vs DuckDB's aggregate replay."""
    from sqlgrep_ray.stages.profile import profile_columns

    return profile_columns(
        _t(sf_dir, "documents", ["doc_id", "lang", "source", "n_chars"]),
        ["doc_id", "lang", "source", "n_chars"],
    )


SQL_PROFILE_DOCUMENTS = """
SELECT 'doc_id' AS column, CAST(COUNT(*) AS BIGINT) AS n,
       CAST(COUNT(*) - COUNT(doc_id) AS BIGINT) AS nulls,
       CAST(COUNT(DISTINCT doc_id) AS BIGINT) AS n_distinct,
       CAST(MIN(doc_id) AS VARCHAR) AS min_v,
       CAST(MAX(doc_id) AS VARCHAR) AS max_v FROM documents
UNION ALL
SELECT 'lang', COUNT(*), COUNT(*) - COUNT(lang), COUNT(DISTINCT lang),
       MIN(lang), MAX(lang) FROM documents
UNION ALL
SELECT 'source', COUNT(*), COUNT(*) - COUNT(source),
       COUNT(DISTINCT source), MIN(source), MAX(source) FROM documents
UNION ALL
SELECT 'n_chars', COUNT(*), COUNT(*) - COUNT(n_chars),
       COUNT(DISTINCT n_chars), CAST(MIN(n_chars) AS VARCHAR),
       CAST(MAX(n_chars) AS VARCHAR) FROM documents
"""


def q_grouped_heavy_src(sf_dir: str) -> Result:
    """Per-key Misra-Gries heavy hitters (round-4 addition,
    sketch.grouped_heavy_hitters — completes the grouped-sketch family
    beside grouped HLL and grouped KLL) in the EXACT regime: ≤ k
    distinct sources per lang, so no decrement ever fires and counts
    hash-match plain GROUP BY. Per-key state is ≤ k rows at every stage;
    the vectorized per-key compression is one sort + one gather for all
    keys at once."""
    from sqlgrep_ray.stages.sketch import grouped_heavy_hitters

    return grouped_heavy_hitters(
        _t(sf_dir, "documents", ["lang", "source"]),
        "lang",
        "source",
        k=64,
    )


SQL_GROUPED_HEAVY_SRC = """
SELECT lang, source AS item, CAST(COUNT(*) AS BIGINT) AS count
FROM documents GROUP BY lang, source
"""


def q_grouped_kll_chars(sf_dir: str) -> Result:
    """Per-key KLL quantiles (round-4 addition,
    sketch.grouped_approx_quantiles) in the EXACT regime: every
    (lang) key holds ≤ k values at sf0.01, so no compaction fires and
    the weighted gather reproduces the truncation-index percentile rule
    per key — hash-exact vs DuckDB's ROW_NUMBER replay. The scale twin
    of grouped_percentile: a hot key's state is O(k·log n), never its
    full value set."""
    from sqlgrep_ray.stages.sketch import grouped_approx_quantiles

    return grouped_approx_quantiles(
        _t(sf_dir, "documents", ["lang", "n_chars"]),
        "lang",
        "n_chars",
        qs=(0.5, 0.9),
        k=2048,
    )


SQL_GROUPED_KLL_CHARS = """
WITH ranked AS (
  SELECT lang, CAST(n_chars AS DOUBLE) AS v,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars) AS rn,
         count(*) OVER (PARTITION BY lang) AS n
  FROM documents WHERE n_chars IS NOT NULL
)
SELECT lang,
       MAX(CASE WHEN rn = 1 + LEAST(CAST(FLOOR(0.5 * n) AS BIGINT), n - 1)
                THEN v END) AS q50,
       MAX(CASE WHEN rn = 1 + LEAST(CAST(FLOOR(0.9 * n) AS BIGINT), n - 1)
                THEN v END) AS q90
FROM ranked GROUP BY lang
"""


SQL_CONV_LATENCY_P90 = f"""
WITH lat AS (
  SELECT conv_id,
         CAST(epoch_us(ts)
              - epoch_us(LAG(ts) OVER (PARTITION BY conv_id
                                       ORDER BY turn_idx))
              AS BIGINT) AS l
  FROM read_parquet('{_TR_GLOB}')
), ranked AS (
  SELECT conv_id, l,
         row_number() OVER (PARTITION BY conv_id ORDER BY l) AS rn,
         count(l) OVER (PARTITION BY conv_id) AS n
  FROM lat WHERE l IS NOT NULL
)
SELECT conv_id, l AS p90_latency_us
FROM ranked
WHERE rn = 1 + LEAST(CAST(FLOOR(0.9 * n) AS BIGINT), n - 1)
"""


def q_reassemble_convs(sf_dir: str) -> Result:
    """Turns → documents bridge: every conversation collapsed to one
    '{{role}}: {{text}}' newline-joined document in turn order, plus
    n_turns. String-exact vs DuckDB's ordered string_agg — validates the
    segment-join (one vectorized sort + binary_join per bucket) that feeds
    the curation suite at conversation granularity."""
    from sqlgrep_ray.stages.conversation import reassemble_conversations

    ds = ray.data.read_parquet(
        transcripts_for(sf_dir), columns=["conv_id", "turn_idx", "role", "text"]
    )
    return reassemble_conversations(ds)


SQL_REASSEMBLE_CONVS = f"""
SELECT conv_id,
       CAST(count(*) AS BIGINT) AS n_turns,
       string_agg(role || ': ' || text, chr(10) ORDER BY turn_idx) AS doc
FROM read_parquet('{_TR_GLOB}')
GROUP BY conv_id
"""


def q_mixture_sample_docs(sf_dir: str) -> Result:
    """Corpus mixture construction: per-language target row counts turn
    into deterministic hash-sample rates via one strata-cardinality count
    — en downsampled to ~60, fr to ~25, de target above its size keeps the
    whole stratum, unlisted languages drop. The oracle replays the same
    integer-hash threshold with rates recomputed as target/count(*) in
    SQL (single float64 division, IEEE-identical)."""
    from sqlgrep_ray.stages.sample import mixture_sample

    out, _rates = mixture_sample(
        _t(sf_dir, "documents", ["doc_id", "lang"]),
        id_col="doc_id",
        stratum_col="lang",
        targets={"en": 60, "de": 10_000, "fr": 25},
    )
    return out.select_columns(["doc_id", "lang"])


SQL_MIXTURE_SAMPLE_DOCS = """
WITH n AS (SELECT lang, count(*) AS c FROM documents GROUP BY lang)
SELECT d.doc_id, d.lang
FROM documents d JOIN n USING (lang)
WHERE (d.lang = 'en' AND (d.doc_id * 2654435761) % 4294967296
         < CAST(FLOOR(LEAST(1.0, 60.0 / n.c) * 4294967296.0) AS BIGINT))
   OR (d.lang = 'de' AND (d.doc_id * 2654435761) % 4294967296
         < CAST(FLOOR(LEAST(1.0, 10000.0 / n.c) * 4294967296.0) AS BIGINT))
   OR (d.lang = 'fr' AND (d.doc_id * 2654435761) % 4294967296
         < CAST(FLOOR(LEAST(1.0, 25.0 / n.c) * 4294967296.0) AS BIGINT))
"""


def q_cms_event_counts(sf_dir: str) -> Result:
    """Count-Min sketch point frequencies (round-4 addition,
    stages/sketch.count_min_counts) in its SPARSE-EXACT regime: ≤
    width/2 distinct event types keeps every partial an exact
    (hash, count) table, so the answer is deterministic and hash-exact
    vs plain GROUP BY counts — the same exact-regime trick the HLL++
    and KLL oracles use. One streaming pass, no shuffle, bounded
    partials."""
    from sqlgrep_ray.stages.sketch import count_min_counts

    return count_min_counts(
        _t(sf_dir, "events", ["event_type"]),
        "event_type",
        ["click", "error", "purchase", "signup", "view", "absent"],
    )


SQL_CMS_EVENT_COUNTS = """
SELECT v.event_type, CAST(COALESCE(c.n, 0) AS BIGINT) AS n
FROM (VALUES ('click'), ('error'), ('purchase'), ('signup'), ('view'),
             ('absent')) AS v(event_type)
LEFT JOIN (SELECT event_type, COUNT(*) AS n FROM events GROUP BY event_type)
       AS c USING (event_type)
"""


def q_kll_quantiles(sf_dir: str) -> Result:
    """KLL quantile sketch in its EXACT regime (n=2000 part rows < k=4096,
    no compaction ever fires): reproduces the engine's truncation-index
    percentile bit-for-bit. Values are elements of the data (no float
    arithmetic) so they hash identically cross-engine; accuracy past the
    exact regime is pinned by pytest (rank error < 2/k at 200k values)."""
    from sqlgrep_ray.stages.sketch import approx_quantiles

    q50, q90, q99 = approx_quantiles(
        _t(sf_dir, "part", ["p_retailprice"]),
        "p_retailprice",
        qs=(0.5, 0.9, 0.99),
        k=4096,
    )
    return pa.table({"q50": [q50], "q90": [q90], "q99": [q99]})


SQL_KLL_QUANTILES = """
WITH ranked AS (
  SELECT p_retailprice AS x,
         row_number() OVER (ORDER BY p_retailprice) AS rn,
         count(*) OVER () AS n
  FROM part WHERE p_retailprice IS NOT NULL
)
SELECT
  (SELECT x FROM ranked
    WHERE rn = 1 + LEAST(CAST(FLOOR(0.5 * n) AS BIGINT), n - 1)) AS q50,
  (SELECT x FROM ranked
    WHERE rn = 1 + LEAST(CAST(FLOOR(0.9 * n) AS BIGINT), n - 1)) AS q90,
  (SELECT x FROM ranked
    WHERE rn = 1 + LEAST(CAST(FLOOR(0.99 * n) AS BIGINT), n - 1)) AS q99
"""


# ---------------------------------------------------------------------------
# Round-2 additions: decontamination, vocabulary, PII scrub, sketches,
# clustering, quality counts
# ---------------------------------------------------------------------------

# k=8 token grams as a DuckDB list lambda (shared by the decontam oracle)
_SQL_GRAM8 = (
    "tk[i]||' '||tk[i+1]||' '||tk[i+2]||' '||tk[i+3]||' '||tk[i+4]"
    "||' '||tk[i+5]||' '||tk[i+6]||' '||tk[i+7]"
)


def q_bloom_semi_orders(sf_dir: str) -> Result:
    """Bloom-accelerated EXACT semi-join (round-4 addition,
    stages/bloom): orders whose customer has a high balance. The key
    side compiles to a fixed-size bitmap broadcast once; corpus batches
    probe it vectorized and only bloom hits pay the exact verify — the
    100-TB decontamination/blocklist pattern. Result is exact (bloom
    only prunes), so it hash-matches DuckDB's IN-subquery."""
    from sqlgrep_ray.stages.bloom import bloom_semi_join

    return bloom_semi_join(
        _t(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
        _t(sf_dir, "customer", ["c_custkey", "c_acctbal"]).filter(
            expr="c_acctbal > 9000"
        ),
        "o_custkey",
        "c_custkey",
        keep=True,
    )


SQL_BLOOM_SEMI_ORDERS = """
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000)
"""


def q_bloom_anti_orders(sf_dir: str) -> Result:
    """The anti direction (decontamination proper: drop corpus rows whose
    key appears in the blocklist), forced through the DISTRIBUTED verify
    (broadcast_max=0): bloom candidates hash-partition against the key
    set, verified hits anti-join back against the corpus — no driver
    state, no broadcast of the exact key set. o_custkey is NOT NULL so
    SQL's NOT-IN null quirk doesn't apply."""
    from sqlgrep_ray.stages.bloom import bloom_semi_join

    return bloom_semi_join(
        _t(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        _t(sf_dir, "customer", ["c_custkey", "c_acctbal"]).filter(
            expr="c_acctbal > 9000"
        ),
        "o_custkey",
        "c_custkey",
        keep=False,
        broadcast_max=0,
    )


SQL_BLOOM_ANTI_ORDERS = """
SELECT o_orderkey, o_custkey FROM orders
WHERE o_custkey NOT IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000)
"""


def q_decontam_docs(sf_dir: str) -> Result:
    """Test-set decontamination (stages/decontam.py): benchmark = the texts
    of doc_id < 40, corpus = all documents; any doc sharing a lowercased
    8-gram with the benchmark is flagged. Benchmark gram set is built once
    on the driver and broadcast (small side by contract); the corpus side
    is one vectorized map_batches. Integer/bool outputs → hash-exact."""
    from sqlgrep_ray.stages.decontam import decontaminate

    t = _pat(sf_dir, "documents").select(["doc_id", "text"])
    import pyarrow.compute as pc

    bench = t.filter(pc.less(t["doc_id"], 40))["text"].to_pylist()
    return decontaminate(_t(sf_dir, "documents", ["doc_id", "text"]), bench, k=8)


SQL_DECONTAM_DOCS = f"""
WITH toks AS (
  SELECT doc_id,
         regexp_split_to_array({_SQL_WSNORM.format(c='lower(text)')}, ' ') AS tk
  FROM documents
), grams AS (
  SELECT doc_id, unnest(
    CASE WHEN len(tk) < 8 THEN [array_to_string(tk, ' ')]
         ELSE list_transform(range(1, len(tk) - 6), i -> {_SQL_GRAM8}) END) AS g
  FROM toks WHERE array_to_string(tk, ' ') <> ''
), bench AS (SELECT DISTINCT g FROM grams WHERE doc_id < 40)
SELECT doc_id,
       count(*)::BIGINT AS total_grams,
       SUM(CASE WHEN bench.g IS NOT NULL THEN 1 ELSE 0 END)::BIGINT AS n_hits,
       bool_or(bench.g IS NOT NULL) AS contaminated
FROM grams LEFT JOIN bench USING (g) GROUP BY doc_id
"""


def q_top_tokens_docs(sf_dir: str) -> Result:
    """Corpus vocabulary top-k (stages/vocab.py): combiner-first token
    counts (one value_counts per block, shuffle bounded by vocabulary),
    deterministic ties (count desc, token asc)."""
    from sqlgrep_ray.stages.vocab import top_tokens

    return top_tokens(_t(sf_dir, "documents", ["text"]), 30)


SQL_TOP_TOKENS_DOCS = f"""
WITH toks AS (
  SELECT unnest(regexp_split_to_array(
           {_SQL_WSNORM.format(c='lower(text)')}, ' ')) AS token
  FROM documents WHERE {_SQL_WSNORM.format(c='lower(text)')} <> ''
)
SELECT token, count(*)::BIGINT AS count FROM toks
GROUP BY token ORDER BY count DESC, token ASC LIMIT 30
"""


def q_scrub_pii_docs(sf_dir: str) -> Result:
    """PII scrub (stages/scrub.py) over documents with deterministic
    planted contact info on every 5th doc (the raw corpus has none — a
    scrub that finds nothing verifies nothing, VERDICT r1 item 4). The
    redacted TEXT itself is hash-compared: Arrow and DuckDB both run RE2,
    so replacement output is byte-identical."""
    from sqlgrep_ray.stages.scrub import scrub_pii

    def plant(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t["doc_id"]
        s = pc.cast(ids, pa.string())
        mod = pc.cast(pc.subtract(ids, pc.multiply(pc.divide(ids, 256), 256)), pa.string())
        suffix = pc.binary_join_element_wise(
            pa.scalar(" contact user"), s, pa.scalar("@example.com or https://ex.org/d/"),
            s, pa.scalar(" ip 10.1."), mod, pa.scalar(".7"), pa.scalar(""),
        )
        planted = pc.binary_join_element_wise(t["text"], suffix, pa.scalar(""))
        is5 = pc.equal(pc.subtract(ids, pc.multiply(pc.divide(ids, 5), 5)), 0)
        return t.set_column(
            t.schema.get_field_index("text"), "text", pc.if_else(is5, planted, t["text"])
        )

    ds = _t(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        plant, batch_format="pyarrow", zero_copy_batch=True
    )
    return scrub_pii(ds)


from sqlgrep_ray.stages.scrub import EMAIL_RE as _EM, IPV4_RE as _IP, URL_RE as _UR

SQL_SCRUB_PII_DOCS = f"""
WITH src AS (
  SELECT doc_id,
    CASE WHEN doc_id % 5 = 0 THEN text || ' contact user' || doc_id
         || '@example.com or https://ex.org/d/' || doc_id
         || ' ip 10.1.' || (doc_id % 256) || '.7'
    ELSE text END AS text
  FROM documents
), s1 AS (
  SELECT doc_id, len(regexp_extract_all(text, '{_UR}'))::BIGINT AS n_urls,
         regexp_replace(text, '{_UR}', '<URL>', 'g') AS t FROM src
), s2 AS (
  SELECT doc_id, n_urls, len(regexp_extract_all(t, '{_EM}'))::BIGINT AS n_emails,
         regexp_replace(t, '{_EM}', '<EMAIL>', 'g') AS t FROM s1
)
SELECT doc_id, n_urls, n_emails,
       len(regexp_extract_all(t, '{_IP}'))::BIGINT AS n_ips,
       regexp_replace(t, '{_IP}', '<IP>', 'g') AS redacted
FROM s2
"""


def q_quality_counts_docs(sf_dir: str) -> Result:
    """TextStats integer numerators (counts=True): char-class and stopword
    COUNTS instead of ratios — exact cross-engine, upgrading the quality
    family from rows-only to oracle-checked."""
    ds = text_stats(
        _t(sf_dir, "documents", ["doc_id", "text"]),
        tokens=True, quality=False, language=False, fingerprint=False,
        counts=True,
    )
    return ds.select_columns(
        ["doc_id", "n_chars", "n_non_alpha", "n_punct", "n_tokens_ws", "n_stopwords"]
    )


def _sql_stoplist() -> str:
    from sqlgrep_ray.stages.textstats import _STOPWORDS

    return "[" + ", ".join(f"'{w}'" for w in sorted(_STOPWORDS)) + "]"


SQL_QUALITY_COUNTS_DOCS = f"""
WITH base AS (
  SELECT doc_id, text, {_SQL_WSNORM.format(c='text')} AS wsn FROM documents
)
SELECT doc_id,
  length(text)::BIGINT AS n_chars,
  len(regexp_extract_all(text, '[^\\pL\\pZ\\s]'))::BIGINT AS n_non_alpha,
  len(regexp_extract_all(text, '[^\\pL\\pN\\pZ\\s]'))::BIGINT AS n_punct,
  (CASE WHEN wsn = '' THEN 0
        ELSE len(regexp_split_to_array(wsn, ' ')) END)::BIGINT AS n_tokens_ws,
  (CASE WHEN wsn = '' THEN 0 ELSE len(list_filter(
     list_transform(regexp_split_to_array(wsn, ' '),
       x -> lower(regexp_replace(x, '^[.,!?;:''"]+|[.,!?;:''"]+$', '', 'g'))),
     x -> list_contains({_sql_stoplist()}, x))) END)::BIGINT AS n_stopwords
FROM base
"""


def q_semdedup_emb(sf_dir: str) -> Result:
    """SemDeDup (stages/semdedup.py): k-means buckets + within-cluster
    cosine pairs, over the planted-duplicate embedding corpus. At
    threshold 0.95 only exact copies qualify (max organic cosine ≈ 0.51 in
    this fixture), and identical vectors always co-cluster (deterministic
    argmin), so the pair set equals the SQL equality join — kmeans'
    cross-cluster recall trade-off cannot bite. Exact oracle."""
    from sqlgrep_ray.stages.semdedup import semdedup_pairs

    out = semdedup_pairs(
        _planted_emb(sf_dir), k=4, threshold=0.95, n_iter=6
    )
    return out.select_columns(["id_a", "id_b"])


def q_heavy_tokens_docs(sf_dir: str) -> Result:
    """Misra-Gries heavy hitters (stages/sketch.py) over document tokens.
    The fixture vocabulary (31 tokens) is far below k=256, so no compress
    ever fires and the sketch is provably EXACT here — the oracle is the
    full token-count table; the approximate regime (guarantee + lower
    bounds) is pinned by pytest."""
    from sqlgrep_ray.stages.sketch import heavy_tokens

    out = heavy_tokens(_t(sf_dir, "documents", ["text"]), k=256)
    return out.map_batches(
        lambda t: t.rename_columns(["token", "count"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


SQL_HEAVY_TOKENS_DOCS = f"""
WITH toks AS (
  SELECT unnest(regexp_split_to_array(
           {_SQL_WSNORM.format(c='lower(text)')}, ' ')) AS token
  FROM documents WHERE {_SQL_WSNORM.format(c='lower(text)')} <> ''
)
SELECT token, count(*)::BIGINT AS count FROM toks GROUP BY token
"""


def q_pack_docs(sf_dir: str) -> Result:
    """Sequence packing (stages/pack.py): next-fit over documents ordered
    by doc_id into 2000-token bins. The contract pins the whole-corpus
    deterministic order (sort + one block); production packs per block.
    The DuckDB oracle replays the same scan with a recursive CTE —
    integer outputs, hash-exact."""
    from sqlgrep_ray.stages.pack import pack_sequences

    ds = text_stats(
        _t(sf_dir, "documents", ["doc_id", "text"]),
        tokens=True, quality=False, language=False, fingerprint=False,
    ).select_columns(["doc_id", "n_tokens_ws"])
    packed = pack_sequences(
        ds.sort("doc_id").repartition(1), budget=2000, tokens_col="n_tokens_ws"
    )
    return packed


SQL_PACK_DOCS = f"""
WITH RECURSIVE base AS (
  SELECT doc_id, {_SQL_WSNORM.format(c='text')} AS wsn FROM documents
), seq AS (
  SELECT doc_id,
         (CASE WHEN wsn = '' THEN 0
               ELSE len(regexp_split_to_array(wsn, ' ')) END)::BIGINT AS n_tokens_ws,
         row_number() OVER (ORDER BY doc_id) AS rn
  FROM base
), pack AS (
  SELECT rn, doc_id, n_tokens_ws, doc_id AS bin_id, n_tokens_ws AS cum
  FROM seq WHERE rn = 1
  UNION ALL
  SELECT s.rn, s.doc_id, s.n_tokens_ws,
         CASE WHEN p.cum + s.n_tokens_ws > 2000 THEN s.doc_id ELSE p.bin_id END,
         CASE WHEN p.cum + s.n_tokens_ws > 2000 THEN s.n_tokens_ws
              ELSE p.cum + s.n_tokens_ws END
  FROM pack p JOIN seq s ON s.rn = p.rn + 1
)
SELECT doc_id, n_tokens_ws, bin_id FROM pack
"""


def q_lm_oov_docs(sf_dir: str) -> Result:
    """Char-trigram LM quality scoring (stages/lmscore.py — the CCNet
    perplexity-filter shape): model trained by the engine on the doc_id%10
    reference subset, every doc scored against it. The INTEGER outputs
    (trigram count, OOV count) are hash-exact vs a DuckDB char-trigram
    reproduction; the float bits_per_char is pinned by pytest."""
    from sqlgrep_ray.stages.lmscore import lm_score, train_char_lm

    docs = _t(sf_dir, "documents", ["doc_id", "text"])

    def ref_subset(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t["doc_id"]
        mod10 = pc.subtract(ids, pc.multiply(pc.divide(ids, 10), 10))
        return t.filter(pc.equal(mod10, 0))

    ref = docs.map_batches(ref_subset, batch_format="pyarrow", zero_copy_batch=True)
    model = train_char_lm(ref)
    out = lm_score(docs, model)
    return out.select_columns(["doc_id", "n_trigrams", "n_oov"])


SQL_LM_OOV_DOCS = f"""
WITH nrm AS (
  SELECT doc_id, lower({_SQL_WSNORM.format(c='text')}) AS s FROM documents
), tri AS (
  SELECT doc_id, unnest(list_transform(range(1, length(s) - 1),
                   i -> substring(s, i, 3))) AS g
  FROM nrm WHERE length(s) >= 3
), ref AS (SELECT DISTINCT g FROM tri WHERE doc_id % 10 = 0)
SELECT tri.doc_id, count(*)::BIGINT AS n_trigrams,
       SUM(CASE WHEN ref.g IS NULL THEN 1 ELSE 0 END)::BIGINT AS n_oov
FROM tri LEFT JOIN ref USING (g) GROUP BY tri.doc_id
"""


def q_dsir_weights(sf_dir: str) -> Result:
    """DSIR importance weights (stages/dsir.py): target LM = en docs,
    background LM = whole corpus; every doc scored by the per-char
    log-likelihood ratio in one pass against the two broadcast models.
    Float weights → rows-only; the integer trigram machinery underneath is
    oracle-checked by ``lm_oov_docs`` and the domain-separation property by
    pytest."""
    from sqlgrep_ray.stages.dsir import importance_weights
    from sqlgrep_ray.stages.lmscore import train_char_lm

    docs = _t(sf_dir, "documents", ["doc_id", "text", "lang"])

    def en_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(t["lang"], "en"))

    target = train_char_lm(
        docs.map_batches(en_only, batch_format="pyarrow", zero_copy_batch=True)
    )
    background = train_char_lm(docs)
    return importance_weights(docs, target, background)


def q_inverted_df(sf_dir: str) -> Result:
    """Inverted-index build (stages/index.py): per-block (token, doc)
    dedup + skew-safe two-phase posting-list collection. The (token, df)
    projection is integer/string → hash-exact."""
    from sqlgrep_ray.stages.index import build_inverted_index

    idx = build_inverted_index(_t(sf_dir, "documents", ["doc_id", "text"]))
    return idx.select_columns(["token", "df"])


SQL_INVERTED_DF = f"""
WITH toks AS (
  SELECT DISTINCT doc_id, unnest(regexp_split_to_array(
           {_SQL_WSNORM.format(c='lower(text)')}, ' ')) AS token
  FROM documents WHERE {_SQL_WSNORM.format(c='lower(text)')} <> ''
)
SELECT token, count(*)::BIGINT AS df FROM toks GROUP BY token
"""


def q_index_search(sf_dir: str) -> Result:
    """Distributed AND-search over the inverted index: docs containing
    every query term, without materializing a posting list anywhere."""
    from sqlgrep_ray.stages.index import build_inverted_index, search_index

    idx = build_inverted_index(_t(sf_dir, "documents", ["doc_id", "text"]))
    return search_index(idx, ["spark", "hash", "window"])


SQL_INDEX_SEARCH = f"""
WITH toks AS (
  SELECT DISTINCT doc_id, unnest(regexp_split_to_array(
           {_SQL_WSNORM.format(c='lower(text)')}, ' ')) AS token
  FROM documents WHERE {_SQL_WSNORM.format(c='lower(text)')} <> ''
)
SELECT doc_id FROM toks WHERE token IN ('spark', 'hash', 'window')
GROUP BY doc_id HAVING count(*) = 3
"""


def q_connected_components(sf_dir: str) -> Result:
    """Distributed connected components (stages/cc.py — min-label
    propagation, one hash-join + min-label merge per round, sum-invariant
    convergence): deterministic chain graph over doc ids (doc→doc+1 for
    doc_id%10<4 ⇒ 5-node paths per decade, diameter 4). The DuckDB oracle
    computes the same components with a recursive CTE — integer outputs,
    hash-exact."""
    from sqlgrep_ray.stages.cc import connected_components

    docs = _t(sf_dir, "documents", ["doc_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t["doc_id"]
        mod = pc.subtract(ids, pc.multiply(pc.divide(ids, 10), 10))
        a = ids.filter(pc.less(mod, 4))
        if isinstance(a, pa.ChunkedArray):
            a = a.combine_chunks()
        return pa.table({"id_a": a, "id_b": pc.add(a, 1)})

    edges = docs.map_batches(mk_edges, batch_format="pyarrow", zero_copy_batch=True)
    return connected_components(edges)


SQL_CONNECTED_COMPONENTS = """
WITH RECURSIVE e AS (
  SELECT doc_id AS a, doc_id + 1 AS b FROM documents WHERE doc_id % 10 < 4
), und AS (
  SELECT a AS n, b AS m FROM e UNION ALL SELECT b, a FROM e
), nodes AS (SELECT DISTINCT n FROM und),
reach(n, m) AS (
  SELECT n, n FROM nodes
  UNION
  SELECT u.m, r.m FROM reach r JOIN und u ON u.n = r.n
)
SELECT n AS node, MIN(m)::BIGINT AS component FROM reach GROUP BY n
"""


def q_grouped_sample(sf_dir: str) -> Result:
    """Deterministic k-per-group sample (stages/sample.grouped_sample):
    the 10 smallest Knuth-hashes of doc_id per language — SQL-exact via
    row_number over the same integer hash."""
    from sqlgrep_ray.stages.sample import grouped_sample

    return grouped_sample(
        _t(sf_dir, "documents", ["doc_id", "lang"]),
        keys=["lang"],
        id_col="doc_id",
        k=10,
    )


SQL_GROUPED_SAMPLE = """
SELECT doc_id, lang FROM (
  SELECT doc_id, lang,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY (doc_id * 2654435761) % 4294967296 ASC, doc_id ASC
         ) AS rn
  FROM documents
) WHERE rn <= 10
"""


def q_bpe_counts(sf_dir: str) -> Result:
    """BPE tokenizer (stages/bpe.py): merges trained by the engine on the
    corpus word counts, then per-doc piece counts. Hash-oracled since
    round 5 (VERDICT r4 #5): the DuckDB replay TRAINS ITSELF — a
    recursive CTE carries the full (word, symbols, count) state, each
    selection iteration picks the max-count lexicographically-smallest
    pair via an aggregate over the working table, and application
    iterations merge one leftmost occurrence per word until none remain
    (leftmost-repeat ≡ the engine's left-to-right pass — neither merge
    output ``ab`` can recreate the pair to its left or right, proven in
    test_bpe). For training words, greedy rank-priority encoding equals
    the training end state (test-pinned), so the final CTE state IS the
    per-word piece count — no merge-table literal crosses between the
    engines; the two sides share only the corpus."""
    from sqlgrep_ray.stages.bpe import bpe_token_counts, train_bpe

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    merges = train_bpe(docs, n_merges=40)
    return bpe_token_counts(docs, merges)


def _bpe_counts_oracle_sql(n_merges: int = 40) -> str:
    wsl = _SQL_WSNORM.format(c="lower(text)")
    return f"""
WITH RECURSIVE words AS (
  SELECT doc_id, unnest(regexp_split_to_array({wsl}, ' ')) AS w
  FROM documents WHERE {wsl} <> ''
), wc AS (
  SELECT w, count(*)::BIGINT AS cnt FROM words GROUP BY w
), train AS (
  -- state: it = iteration, m = merges completed, (pa, pb) = the pair
  -- currently being applied (NULL -> next iteration SELECTS a pair)
  SELECT 0 AS it, 0 AS m, w,
         list_append(regexp_split_to_array(w, ''), '</w>') AS syms, cnt,
         CAST(NULL AS VARCHAR) AS pa, CAST(NULL AS VARCHAR) AS pb
  FROM wc
  UNION ALL
  SELECT it + 1,
         CASE WHEN pa IS NULL OR any_occ THEN m ELSE m + 1 END,
         w,
         CASE WHEN pa IS NOT NULL AND opos IS NOT NULL
              THEN syms[1:opos-1] || [syms[opos] || syms[opos+1]] || syms[opos+2:]
              ELSE syms END,
         cnt,
         CASE WHEN pa IS NULL THEN best[1] WHEN any_occ THEN pa END,
         CASE WHEN pa IS NULL THEN best[2] WHEN any_occ THEN pb END
  FROM (
    SELECT t.*,
      -- leftmost occurrence of the frozen pair in this word
      (SELECT min(i) FROM unnest(range(1, len(t.syms))) AS u(i)
        WHERE t.syms[i] = t.pa AND t.syms[i+1] = t.pb) AS opos,
      -- selection: best pair by overlapping count-weighted frequency,
      -- ties to the lexicographically smallest (a, b) — exactly
      -- bpe_merge_loop's rule
      (SELECT [p.a, p.b] FROM (
          SELECT tt.syms[i] AS a, tt.syms[i+1] AS b, SUM(tt.cnt) AS c
          FROM train tt, unnest(range(1, len(tt.syms))) AS u(i)
          GROUP BY 1, 2
        ) p ORDER BY p.c DESC, p.a ASC, p.b ASC LIMIT 1) AS best,
      EXISTS (SELECT 1 FROM train tt, unnest(range(1, len(tt.syms))) AS u(i)
              WHERE tt.syms[i] = tt.pa AND tt.syms[i+1] = tt.pb) AS any_occ
    FROM train t
  ) s
  WHERE (pa IS NOT NULL) OR (m < {n_merges} AND best IS NOT NULL)
), final AS (
  SELECT w, len(syms)::BIGINT AS np FROM train
  WHERE it = (SELECT max(it) FROM train)
), per_doc AS (
  SELECT words.doc_id, count(*)::BIGINT AS n_words,
         SUM(f.np)::BIGINT AS n_pieces
  FROM words JOIN final f USING (w) GROUP BY words.doc_id
)
SELECT d.doc_id, COALESCE(pd.n_words, 0)::BIGINT AS n_words,
       COALESCE(pd.n_pieces, 0)::BIGINT AS n_pieces
FROM documents d LEFT JOIN per_doc pd USING (doc_id)
ORDER BY doc_id
"""


# Static seed vocabulary for the ORACLE-CHECKED BPE entry: the merge
# table derives from these fixed counts via the engine's own pure-local
# merge loop (bpe_merge_loop — deterministic, tie-broken lexicographically),
# so the Ray query and the DuckDB replay below share one merge table by
# construction. Corpus-TRAINED BPE stays covered by the rows-only
# ``bpe_counts`` (its training loop is iterative and not SQL-expressible).
_BPE_SEED_COUNTS = {
    "spark": 8, "sparks": 5, "shuffle": 4, "hash": 6, "hashes": 3,
    "window": 7, "windows": 4, "the": 20, "these": 5, "than": 6,
    "batch": 5, "batches": 4, "data": 9, "dataset": 5, "stream": 6,
    "streaming": 4, "arrow": 5, "pipeline": 6, "worker": 4, "workers": 3,
}


def _bpe_static_merges() -> "list[tuple[str, str]]":
    from sqlgrep_ray.stages.bpe import bpe_merge_loop

    return bpe_merge_loop(_BPE_SEED_COUNTS, 30)


def q_bpe_encode_docs(sf_dir: str) -> Result:
    """BPE ENCODING with a fixed merge table (stages/bpe.apply_merges via
    the dictionary-encoded ``bpe_token_counts`` path): per-doc word and
    piece counts. Unlike ``bpe_counts`` (corpus-trained, rows-only), the
    merge table here is static — derived from ``_BPE_SEED_COUNTS`` by the
    same deterministic merge loop — so the greedy rank-priority encoding
    itself is hash-checked against a DuckDB recursive-CTE replay
    (VERDICT r3 #6)."""
    from sqlgrep_ray.stages.bpe import bpe_token_counts

    docs = _t(sf_dir, "documents", ["doc_id", "text"])
    return bpe_token_counts(docs, _bpe_static_merges())


def _bpe_oracle_sql() -> str:
    merges = "[" + ", ".join(
        f"['{a}', '{b}']" for a, b in _bpe_static_merges()
    ) + "]"
    wsl = _SQL_WSNORM.format(c="lower(text)")
    return f"""
WITH RECURSIVE words AS (
  SELECT doc_id, unnest(regexp_split_to_array({wsl}, ' ')) AS w
  FROM documents WHERE {wsl} <> ''
), uniq AS (
  SELECT DISTINCT w FROM words
), seed AS (
  SELECT w, list_append(regexp_split_to_array(w, ''), '</w>') AS syms FROM uniq
), enc AS (
  -- greedy BPE: each step merges the LEFTMOST occurrence of the
  -- BEST-RANKED applicable pair (rank = 1-based position in the merge
  -- table; list_position returns 0 when absent); len(syms) strictly
  -- decreases, so the final encoding per word is the min-length row
  SELECT w, syms FROM seed
  UNION ALL
  SELECT w, syms[1:bi-1] || [syms[bi] || syms[bi+1]] || syms[bi+2:]
  FROM (
    SELECT w, syms,
      (SELECT i FROM unnest(range(1, len(syms))) AS t(i)
       WHERE list_position({merges}, [syms[i], syms[i+1]]) > 0
       ORDER BY list_position({merges}, [syms[i], syms[i+1]]), i
       LIMIT 1) AS bi
    FROM enc
  ) s WHERE bi IS NOT NULL
), pieces AS (
  SELECT w, min(len(syms))::BIGINT AS np FROM enc GROUP BY w
), per_doc AS (
  SELECT words.doc_id, count(*)::BIGINT AS n_words,
         SUM(p.np)::BIGINT AS n_pieces
  FROM words JOIN pieces p USING (w) GROUP BY words.doc_id
)
SELECT d.doc_id, COALESCE(pd.n_words, 0)::BIGINT AS n_words,
       COALESCE(pd.n_pieces, 0)::BIGINT AS n_pieces
FROM documents d LEFT JOIN per_doc pd USING (doc_id)
ORDER BY doc_id
"""


def q_ranked_search(sf_dir: str) -> Result:
    """Integer-ranked retrieval over the term-frequency index
    (stages/index.ranked_search): top-15 docs by (matched terms desc,
    summed tf desc, doc asc). Integer-only ranking → the top-k SET is
    hash-exact against the SQL replay."""
    from sqlgrep_ray.stages.index import ranked_search, token_doc_tf

    tt = token_doc_tf(_t(sf_dir, "documents", ["doc_id", "text"]))
    return ranked_search(tt, ["spark", "hash", "window"], k=15)


SQL_RANKED_SEARCH = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_split_to_array(
           {_SQL_WSNORM.format(c='lower(text)')}, ' ')) AS token
  FROM documents WHERE {_SQL_WSNORM.format(c='lower(text)')} <> ''
), tf AS (
  SELECT doc_id, token, count(*)::BIGINT AS tf FROM toks
  WHERE token IN ('spark', 'hash', 'window') GROUP BY doc_id, token
)
SELECT doc_id, count(*)::BIGINT AS n_matched, SUM(tf)::BIGINT AS sum_tf
FROM tf GROUP BY doc_id
ORDER BY n_matched DESC, sum_tf DESC, doc_id ASC LIMIT 15
"""


def q_approx_distinct_users(sf_dir: str) -> Result:
    """HyperLogLog++ approximate COUNT(DISTINCT) (stages/sketch.py) — the
    fixed-size-sketch scale path (sketches, not values, move). Hash-exact
    vs ``count(DISTINCT user_id)`` while total cardinality stays below the
    sparse-regime ceiling (2^p/4 = 4096 at the default p=14 — the test
    tables top out at 1500 users at sf0.1); beyond that the same query
    degrades gracefully to the ±1.04/√2^p register estimate. Pytest pins
    the estimator's error bound in the dense regime."""
    from sqlgrep_ray.stages.sketch import approx_count_distinct

    est = approx_count_distinct(_t(sf_dir, "events", ["user_id"]), "user_id")
    return pa.table({"approx_distinct_users": pa.array([est], pa.int64())})


SQL_APPROX_DISTINCT_USERS = """
SELECT count(DISTINCT user_id) AS approx_distinct_users FROM events
"""


def q_kmeans_clusters(sf_dir: str) -> Result:
    """Distributed Lloyd's k-means (stages/cluster.py) over the embeddings
    table: centroids broadcast per iteration, per-block partial sums, no
    shuffle. Cluster sizes per centroid — iterative algorithm, not
    SQL-expressible → rows-only; pytest recovers planted clusters."""
    from sqlgrep_ray.stages.cluster import kmeans

    from sqlgrep_ray.stages import exchange

    labeled, _ = kmeans(
        _t(sf_dir, "embeddings", ["vec_id", "embedding"]), k=10, n_iter=8
    )
    counts = labeled.map_batches(
        lambda t: pa.TableGroupBy(t.select(["cluster_id"]), ["cluster_id"]).aggregate(
            [([], "count_all")]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    sizes = exchange.to_table(
        exchange.merge(counts, ["cluster_id"], [("count_all", "sum")])
    )
    return sizes.rename_columns(["cluster_id", "count()"]).sort_by("cluster_id")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def q_repetition_docs(sf_dir: str) -> Result:
    """Gopher-style within-doc repetition signals as exact int64 counts
    (stages/repetition.py) — single streaming map_batches, no shuffle;
    hash-exact vs the unnest/window oracle."""
    from sqlgrep_ray.stages.repetition import repetition_stats

    return repetition_stats(_t(sf_dir, "documents", ["doc_id", "text"]))


SQL_REPETITION_DOCS = """
WITH base AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS ts
  FROM documents
), flat AS (
  SELECT doc_id, unnest(ts) AS tok,
         unnest(range(1, len(ts) + 1)) AS pos
  FROM base
), uni AS (
  SELECT doc_id,
         count(*) AS n_tokens,
         count(DISTINCT tok) AS n_distinct_tokens
  FROM flat GROUP BY doc_id
), maxc AS (
  SELECT doc_id, max(c) AS max_token_count FROM (
    SELECT doc_id, tok, count(*) AS c FROM flat GROUP BY doc_id, tok
  ) GROUP BY doc_id
), big AS (
  SELECT doc_id, tok,
         lead(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS nxt
  FROM flat
), bi AS (
  SELECT doc_id,
         count(*) AS n_2grams,
         count(DISTINCT tok || ' ' || nxt) AS n_distinct_2grams
  FROM big WHERE nxt IS NOT NULL GROUP BY doc_id
)
SELECT u.doc_id,
       CAST(u.n_tokens AS BIGINT) AS n_tokens,
       CAST(u.n_distinct_tokens AS BIGINT) AS n_distinct_tokens,
       CAST(m.max_token_count AS BIGINT) AS max_token_count,
       CAST(COALESCE(b.n_2grams, 0) AS BIGINT) AS n_2grams,
       CAST(COALESCE(b.n_distinct_2grams, 0) AS BIGINT) AS n_distinct_2grams
FROM uni u
JOIN maxc m USING (doc_id)
LEFT JOIN bi b USING (doc_id)
"""


def q_segment_dedup_docs(sf_dir: str) -> Result:
    """Segment-level corpus dedup (stages/segdedup.py) instantiated at
    token granularity (sep=' '): corpus-frequent tokens (>= 50 occurrences)
    are scrubbed from every document. Cleaned text is a pure string
    function of the input -> hash-exact vs the unnest/string_agg oracle."""
    from sqlgrep_ray.stages.segdedup import segment_dedup

    return segment_dedup(
        _t(sf_dir, "documents", ["doc_id", "text"]),
        sep=" ",
        join_str=" ",
        min_count=50,
    )


SQL_SEGMENT_DEDUP_DOCS = """
WITH base AS (
  SELECT doc_id, regexp_split_to_array(text, ' ') AS ss FROM documents
), flat AS (
  SELECT doc_id, unnest(ss) AS seg,
         unnest(range(1, len(ss) + 1)) AS pos
  FROM base
), counts AS (
  SELECT seg, count(*) AS c FROM flat GROUP BY seg
)
SELECT f.doc_id,
       COALESCE(
         string_agg(CASE WHEN c.c < 50 THEN f.seg END, ' ' ORDER BY f.pos),
         ''
       ) AS text,
       CAST(count(*) AS BIGINT) AS n_segments,
       CAST(count(*) FILTER (WHERE c.c >= 50) AS BIGINT) AS n_removed
FROM flat f JOIN counts c USING (seg)
GROUP BY f.doc_id
"""


QUERIES: dict[str, Callable[[str], Result]] = {
    # Registry order controls driver verification: CORRECTNESS runs the
    # FIRST 50 entries. Round-5 rotation (VERDICT r4 #4): the 7 entries
    # never driver-checked through r4 lead, then the round-5 early
    # additions (sql_global_running; bpe_counts newly hash-oracled;
    # winnow_pairs re-checked after the bucket-sizing change), the
    # round-5 LATE additions (distinct/statistical aggregates, derived
    # tables, multi-join/cross-join, window expression args/keys, RANGE
    # FOLLOWING, scalar batches, scan pushdown — none driver-checked
    # yet), the 4 flagship heads, and the stalest earlier greens.
    # -- never driver-checked through r4 --
    "latency_quantiles": q_latency_quantiles,
    "conv_latency_p90": q_conv_latency_p90,
    "segment_dedup_docs": q_segment_dedup_docs,
    "repetition_docs": q_repetition_docs,
    "sql_rank_ties": q_sql_rank_ties,
    "sql_ntile": q_sql_ntile,
    "dsir_weights": q_dsir_weights,
    # -- round-5 new / changed --
    "sql_global_running": q_sql_global_running,
    "bpe_counts": q_bpe_counts,
    "winnow_pairs": q_winnow_pairs,
    "sql_time_range_window": q_sql_time_range_window,
    "sql_corr_exists": q_sql_corr_exists,
    "sql_corr_scalar": q_sql_corr_scalar,
    "sql_approx_distinct": q_sql_approx_distinct,
    "sql_mode": q_sql_mode,
    # -- round-5 late additions (never driver-checked) --
    "sql_sum_avg_distinct": q_sql_sum_avg_distinct,
    "sql_scalar_ext2": q_sql_scalar_ext2,
    "sql_derived_alias": q_sql_derived_alias,
    "sql_stats_agg": q_sql_stats_agg,
    "sql_window_expr": q_sql_window_expr,
    "sql_multi_join": q_sql_multi_join,
    "sql_range_frames": q_sql_range_frames,
    "sql_cross_join": q_sql_cross_join,
    "sql_scalar_ext3": q_sql_scalar_ext3,
    "sql_date_parts": q_sql_date_parts,
    "pushdown_scan": q_pushdown_scan,
    "sql_window_expr_key": q_sql_window_expr_key,
    "sql_concat_op": q_sql_concat_op,
    "sql_try_cast": q_sql_try_cast,
    "sql_any_all": q_sql_any_all,
    # -- flagship (always in the window) --
    "flagship_sink_counts": q_flagship_sink_counts,
    "flagship_sink_role_counts": q_flagship_sink_role_counts,
    "flagship_hour_histogram": q_flagship_hour_histogram,
    "flagship_enriched": q_flagship_enriched,
    # -- last driver-checked in r1 --
    "sessionize_users": q_sessionize_users,
    "conv_stats": q_conv_stats,
    "conv_distinct_tools": q_conv_distinct_tools,
    "hot_conv_roles": q_hot_conv_roles,
    # -- stalest r3 greens --
    "select_where_project": q_select_where_project,
    "orderby_topn": q_orderby_topn,
    "agg_global": q_agg_global,
    "groupby_q1": q_groupby_q1,
    "groupby_expr_hour": q_groupby_expr_hour,
    "groupby_orderkey": q_groupby_orderkey,
    "having_priority": q_having_priority,
    "distinct_status": q_distinct_status,
    "join_customer_nation": q_join_customer_nation,
    "join_left_part": q_join_left_part,
    "join_chain_region": q_join_chain_region,
    "shuffle_join_orders": q_shuffle_join_orders,
    "count_distinct_users": q_count_distinct_users,
    "stddev_quantity": q_stddev_quantity,
    "percentile_price": q_percentile_price,
    "percentile_global": q_percentile_global,
    "array_string_agg": q_array_string_agg,
    "case_priority": q_case_priority,
    "scalar_funcs_part": q_scalar_funcs_part,
    "in_list_flags": q_in_list_flags,
    "groupby_limit": q_groupby_limit,
    "date_trunc_day": q_date_trunc_day,
    "regex_extract_docs": q_regex_extract_docs,
    "json_extract_events": q_json_extract_events,
    "sql_regex_groupby": q_sql_regex_groupby,
    "sql_json_groupby": q_sql_json_groupby,
    "split_extract_docs": q_split_extract_docs,
    "curate_corpus": q_curate_corpus,
    "curate_full": q_curate_full,
    "topk_docs_per_lang": q_topk_docs_per_lang,
    "hash_sample_docs": q_hash_sample_docs,
    "stratified_sample_docs": q_stratified_sample_docs,
    # -- rotation tail (r3/r4 greens) --
    "sql_union_chars": q_sql_union_chars,
    "sql_cte_quality": q_sql_cte_quality,
    "sql_intersect_pairs": q_sql_intersect_pairs,
    "sql_except_langs": q_sql_except_langs,
    "sql_rollup_docs": q_sql_rollup_docs,
    "sql_grouping_sets_docs": q_sql_grouping_sets_docs,
    "sql_right_join": q_sql_right_join,
    "sql_grouping_fn": q_sql_grouping_fn,
    "sql_order_nulls_last": q_sql_order_nulls_last,
    "sql_ignore_nulls": q_sql_ignore_nulls,
    "sql_agg_filter": q_sql_agg_filter,
    "sql_window_desc": q_sql_window_desc,
    "sql_window_nulls": q_sql_window_nulls,
    "sql_unnest_tokens": q_sql_unnest_tokens,
    "sql_ordered_agg": q_sql_ordered_agg,
    "sql_limit_offset": q_sql_limit_offset,
    "sql_dialect_sugar": q_sql_dialect_sugar,
    "sql_multikey_join": q_sql_multikey_join,
    "sql_distinct_agg": q_sql_distinct_agg,
    "bloom_semi_orders": q_bloom_semi_orders,
    "bloom_anti_orders": q_bloom_anti_orders,
    "cms_event_counts": q_cms_event_counts,
    "sql_in_subquery": q_sql_in_subquery,
    "sql_moving_window": q_sql_moving_window,
    "sql_scalar_subquery": q_sql_scalar_subquery,
    "sql_scalar_ext": q_sql_scalar_ext,
    "sql_pad_funcs": q_sql_pad_funcs,
    "sql_like_between": q_sql_like_between,
    "grouped_kll_chars": q_grouped_kll_chars,
    "grouped_heavy_src": q_grouped_heavy_src,
    "profile_documents": q_profile_documents,
    "conv_tools_hll": q_conv_tools_hll,
    "turn_latency": q_turn_latency,
    "sql_running_sum": q_sql_running_sum,
    "sql_running_rows": q_sql_running_rows,
    "running_sum_ranged": q_running_sum_ranged,
    "sql_qualify_dedup": q_sql_qualify_dedup,
    "sql_global_window": q_sql_global_window,
    "kll_quantiles": q_kll_quantiles,
    "mixture_sample_docs": q_mixture_sample_docs,
    "top_tokens_docs": q_top_tokens_docs,
    "scrub_pii_docs": q_scrub_pii_docs,
    "quality_counts_docs": q_quality_counts_docs,
    "approx_distinct_users": q_approx_distinct_users,
    "semdedup_emb": q_semdedup_emb,
    "heavy_tokens_docs": q_heavy_tokens_docs,
    "lm_oov_docs": q_lm_oov_docs,
    "inverted_df": q_inverted_df,
    "index_search": q_index_search,
    "ranked_search": q_ranked_search,
    "grouped_sample": q_grouped_sample,
    "asof_join_orders_auto": q_asof_join_orders_auto,
    "bpe_encode_docs": q_bpe_encode_docs,
    "sql_turn_latency": q_sql_turn_latency,
    "sql_row_number": q_sql_row_number,
    "kmeans_clusters": q_kmeans_clusters,
    "hopping_window": q_hopping_window,
    "assign_sessions": q_assign_sessions,
    "trailing_window": q_trailing_window,
    "decontam_docs": q_decontam_docs,
    "connected_components": q_connected_components,
    "pack_docs": q_pack_docs,
    "reassemble_convs": q_reassemble_convs,
    "dedup_exact": q_dedup_exact,
    "token_counts": q_token_counts,
    "knn_top5": q_knn_top5,
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "embedding_dups": q_embedding_dups,
    "ngram_jaccard": q_ngram_jaccard,
    "dup_ngram_stats": q_dup_ngram_stats,
    "minhash_pairs_dist": q_minhash_pairs_dist,
    "simhash_pairs_dist": q_simhash_pairs_dist,
    "embedding_dups_dist": q_embedding_dups_dist,
    "knn_ivf": q_knn_ivf,
    "lang_quality": q_lang_quality,
    "multimodal_features": q_multimodal,
    "asof_join_orders": q_asof_join_orders,
    "asof_join_orders_dist": q_asof_join_orders_dist,
    "tumbling_hour": q_tumbling_hour,
}

ORACLES: dict[str, str] = {
    "sql_union_chars": SQL_SQL_UNION_CHARS,
    "sql_cte_quality": SQL_SQL_CTE_QUALITY,
    "sql_intersect_pairs": SQL_SQL_INTERSECT_PAIRS,
    "sql_except_langs": SQL_SQL_EXCEPT_LANGS,
    "sql_rollup_docs": SQL_SQL_ROLLUP_DOCS,
    "sql_grouping_sets_docs": SQL_SQL_GROUPING_SETS_DOCS,
    "sql_right_join": SQL_SQL_RIGHT_JOIN,
    "sql_grouping_fn": SQL_SQL_GROUPING_FN,
    "sql_order_nulls_last": SQL_SQL_ORDER_NULLS_LAST,
    "sql_ignore_nulls": SQL_SQL_IGNORE_NULLS,
    "sql_agg_filter": SQL_SQL_AGG_FILTER,
    "sql_window_desc": SQL_SQL_WINDOW_DESC,
    "sql_window_nulls": SQL_SQL_WINDOW_NULLS,
    "sql_unnest_tokens": SQL_SQL_UNNEST_TOKENS,
    "sql_ordered_agg": SQL_SQL_ORDERED_AGG,
    "sql_limit_offset": SQL_SQL_LIMIT_OFFSET,
    "sql_dialect_sugar": SQL_SQL_DIALECT_SUGAR,
    "sql_multikey_join": SQL_SQL_MULTIKEY_JOIN,
    "sql_distinct_agg": SQL_SQL_DISTINCT_AGG,
    "sql_sum_avg_distinct": SQL_SQL_SUM_AVG_DISTINCT,
    "sql_scalar_ext2": SQL_SQL_SCALAR_EXT2,
    "sql_derived_alias": SQL_SQL_DERIVED_ALIAS,
    "sql_stats_agg": SQL_SQL_STATS_AGG,
    "sql_window_expr": SQL_SQL_WINDOW_EXPR,
    "sql_multi_join": SQL_SQL_MULTI_JOIN,
    "sql_range_frames": SQL_SQL_RANGE_FRAMES,
    "sql_cross_join": SQL_SQL_CROSS_JOIN,
    "sql_scalar_ext3": SQL_SQL_SCALAR_EXT3,
    "sql_date_parts": SQL_SQL_DATE_PARTS,
    "pushdown_scan": SQL_PUSHDOWN_SCAN,
    "sql_window_expr_key": SQL_SQL_WINDOW_EXPR_KEY,
    "sql_concat_op": SQL_SQL_CONCAT_OP,
    "sql_try_cast": SQL_SQL_TRY_CAST,
    "sql_any_all": SQL_SQL_ANY_ALL,
    "bloom_semi_orders": SQL_BLOOM_SEMI_ORDERS,
    "bloom_anti_orders": SQL_BLOOM_ANTI_ORDERS,
    "cms_event_counts": SQL_CMS_EVENT_COUNTS,
    "sql_in_subquery": SQL_SQL_IN_SUBQUERY,
    "sql_moving_window": SQL_SQL_MOVING_WINDOW,
    "sql_scalar_subquery": SQL_SQL_SCALAR_SUBQUERY,
    "sql_scalar_ext": SQL_SQL_SCALAR_EXT,
    "sql_pad_funcs": SQL_SQL_PAD_FUNCS,
    "sql_like_between": SQL_SQL_LIKE_BETWEEN,
    "grouped_kll_chars": SQL_GROUPED_KLL_CHARS,
    "grouped_heavy_src": SQL_GROUPED_HEAVY_SRC,
    "profile_documents": SQL_PROFILE_DOCUMENTS,
    "select_where_project": SQL_SELECT_WHERE_PROJECT,
    "orderby_topn": SQL_ORDERBY_TOPN,
    "agg_global": SQL_AGG_GLOBAL,
    "groupby_q1": SQL_GROUPBY_Q1,
    "groupby_expr_hour": SQL_GROUPBY_EXPR_HOUR,
    "groupby_orderkey": SQL_GROUPBY_ORDERKEY,
    "having_priority": SQL_HAVING_PRIORITY,
    "distinct_status": SQL_DISTINCT_STATUS,
    "join_customer_nation": SQL_JOIN_CUSTOMER_NATION,
    "join_left_part": SQL_JOIN_LEFT_PART,
    "join_chain_region": SQL_JOIN_CHAIN_REGION,
    "shuffle_join_orders": SQL_SHUFFLE_JOIN_ORDERS,
    "count_distinct_users": SQL_COUNT_DISTINCT_USERS,
    "stddev_quantity": SQL_STDDEV_QUANTITY,
    "percentile_price": SQL_PERCENTILE_PRICE,
    "percentile_global": SQL_PERCENTILE_GLOBAL,
    "array_string_agg": SQL_ARRAY_STRING_AGG,
    "case_priority": SQL_CASE_PRIORITY,
    "scalar_funcs_part": SQL_SCALAR_FUNCS_PART,
    "in_list_flags": SQL_IN_LIST_FLAGS,
    "groupby_limit": SQL_GROUPBY_LIMIT,
    "date_trunc_day": SQL_DATE_TRUNC_DAY,
    "regex_extract_docs": SQL_REGEX_EXTRACT_DOCS,
    "json_extract_events": SQL_JSON_EXTRACT_EVENTS,
    "sql_regex_groupby": SQL_SQL_REGEX_GROUPBY,
    "sql_json_groupby": SQL_SQL_JSON_GROUPBY,
    "split_extract_docs": SQL_SPLIT_EXTRACT_DOCS,
    "curate_corpus": SQL_CURATE_CORPUS,
    "topk_docs_per_lang": SQL_TOPK_DOCS_PER_LANG,
    "hash_sample_docs": SQL_HASH_SAMPLE_DOCS,
    "stratified_sample_docs": SQL_STRATIFIED_SAMPLE_DOCS,
    "dedup_exact": SQL_DEDUP_EXACT,
    "token_counts": SQL_TOKEN_COUNTS,
    "knn_top5": SQL_KNN_TOP5,
    "asof_join_orders": SQL_ASOF_JOIN_ORDERS,
    "asof_join_orders_dist": SQL_ASOF_JOIN_ORDERS,
    "tumbling_hour": SQL_TUMBLING_HOUR,
    "hopping_window": SQL_HOPPING_WINDOW,
    "sessionize_users": SQL_SESSIONIZE_USERS,
    "assign_sessions": SQL_ASSIGN_SESSIONS,
    "trailing_window": SQL_TRAILING_WINDOW,
    "conv_stats": SQL_CONV_STATS,
    "conv_distinct_tools": SQL_CONV_DISTINCT_TOOLS,
    "hot_conv_roles": SQL_HOT_CONV_ROLES,
    "turn_latency": SQL_TURN_LATENCY,
    "sql_turn_latency": SQL_SQL_TURN_LATENCY,
    "sql_row_number": SQL_SQL_ROW_NUMBER,
    "sql_running_sum": SQL_SQL_RUNNING_SUM,
    "sql_running_rows": SQL_SQL_RUNNING_ROWS,
    "running_sum_ranged": SQL_RUNNING_SUM_RANGED,
    "sql_qualify_dedup": SQL_SQL_QUALIFY_DEDUP,
    "sql_global_window": SQL_SQL_GLOBAL_WINDOW,
    "sql_global_running": SQL_SQL_GLOBAL_RUNNING,
    "sql_time_range_window": SQL_SQL_TIME_RANGE_WINDOW,
    "sql_corr_exists": SQL_SQL_CORR_EXISTS,
    "sql_corr_scalar": SQL_SQL_CORR_SCALAR,
    "sql_approx_distinct": SQL_SQL_APPROX_DISTINCT,
    "sql_mode": SQL_SQL_MODE,
    "sql_rank_ties": SQL_SQL_RANK_TIES,
    "sql_ntile": SQL_SQL_NTILE,
    "conv_latency_p90": SQL_CONV_LATENCY_P90,
    "reassemble_convs": SQL_REASSEMBLE_CONVS,
    "kll_quantiles": SQL_KLL_QUANTILES,
    "latency_quantiles": SQL_LATENCY_QUANTILES,
    "mixture_sample_docs": SQL_MIXTURE_SAMPLE_DOCS,
    "flagship_sink_counts": SQL_FLAGSHIP_SINK_COUNTS,
    "flagship_sink_role_counts": SQL_FLAGSHIP_SINK_ROLE_COUNTS,
    "flagship_hour_histogram": SQL_FLAGSHIP_HOUR_HISTOGRAM,
    "flagship_enriched": SQL_FLAGSHIP_ENRICHED,
    "minhash_pairs": SQL_MINHASH_PAIRS,
    "simhash_pairs": SQL_SIMHASH_PAIRS,
    "embedding_dups": SQL_EMBEDDING_DUPS,
    "ngram_jaccard": SQL_NGRAM_JACCARD,
    "dup_ngram_stats": SQL_DUP_NGRAM_STATS,
    "minhash_pairs_dist": SQL_MINHASH_PAIRS,
    "simhash_pairs_dist": SQL_SIMHASH_PAIRS,
    "embedding_dups_dist": SQL_EMBEDDING_DUPS,
    "decontam_docs": SQL_DECONTAM_DOCS,
    "top_tokens_docs": SQL_TOP_TOKENS_DOCS,
    "scrub_pii_docs": SQL_SCRUB_PII_DOCS,
    "quality_counts_docs": SQL_QUALITY_COUNTS_DOCS,
    "semdedup_emb": SQL_EMBEDDING_DUPS,
    "heavy_tokens_docs": SQL_HEAVY_TOKENS_DOCS,
    "pack_docs": SQL_PACK_DOCS,
    "lm_oov_docs": SQL_LM_OOV_DOCS,
    "inverted_df": SQL_INVERTED_DF,
    "index_search": SQL_INDEX_SEARCH,
    "ranked_search": SQL_RANKED_SEARCH,
    "grouped_sample": SQL_GROUPED_SAMPLE,
    "connected_components": SQL_CONNECTED_COMPONENTS,
    "repetition_docs": SQL_REPETITION_DOCS,
    "segment_dedup_docs": SQL_SEGMENT_DEDUP_DOCS,
    "winnow_pairs": SQL_WINNOW_PAIRS,
    "knn_ivf": SQL_KNN_TOP5,  # probe-all IVF == brute force (q_knn_ivf doc)
    # sparse-regime HLL sketches are exact below 2^p/4 (global) / while
    # every per-key block partial stays sparse (grouped) — both hold for
    # the test tables by construction, so these two are hash-checked:
    "conv_tools_hll": SQL_CONV_TOOLS_HLL,
    "approx_distinct_users": SQL_APPROX_DISTINCT_USERS,
    "asof_join_orders_auto": SQL_ASOF_JOIN_ORDERS,  # same contract, auto gate
    "bpe_encode_docs": _bpe_oracle_sql(),  # recursive-CTE greedy-merge replay
    # self-TRAINING recursive-CTE replay (round 5): DuckDB re-derives the
    # merge table from the corpus itself — nothing crosses engines
    "bpe_counts": _bpe_counts_oracle_sql(),
    # lang_quality / multimodal_features / kmeans_clusters / dsir_weights:
    # probabilistic, heuristic, or float-valued — rows-only
}
