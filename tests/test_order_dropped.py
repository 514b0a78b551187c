"""ORDER BY a column the SELECT list drops: the sort key is computed
before the projection and dropped after the sort or top-n, for both the
full sort and the LIMIT path, checked against DuckDB."""

import duckdb
import pyarrow as pa
import pytest

from sqlgrep_ray.sqlfront import parse_query

A = pa.table({"k": ["b", None, "a", "c"], "v": [3, 1, 2, 4]})
B = pa.table({"k": ["a", "c", None, "b"], "v": [9, 0, 7, 5]})
t = pa.concat_tables([A, B])  # read by DuckDB

CASES = [
    "SELECT v FROM t ORDER BY k NULLS FIRST, v",
    "SELECT v FROM t ORDER BY k DESC NULLS LAST, v LIMIT 3",
    "SELECT v AS x FROM t ORDER BY k NULLS LAST, x",
    "SELECT v * 10 AS w FROM t ORDER BY length(k) NULLS FIRST, v DESC LIMIT 5",
    "SELECT v FROM t ORDER BY k NULLS LAST, v LIMIT 2 OFFSET 3",
]


@pytest.mark.parametrize("sql", CASES)
def test_order_by_dropped_column_vs_duckdb(ray_session, sql):
    import ray.data

    from sqlgrep_ray.api import run_sql

    got = [
        tuple(r.values())
        for r in run_sql(sql, {"t": ray.data.from_arrow([A, B])}).take_all()
    ]
    want = duckdb.sql(sql).fetchall()
    assert got == want
    assert all(len(r) == 1 for r in got)  # the hidden key is dropped


def test_order_by_output_columns_plan_unchanged():
    """A query whose ORDER BY reads only output columns (the analytics
    workload's top-n query) keeps its plan: no hidden key, and the read
    prunes to the output columns as before."""
    from sqlgrep_ray.pipelines.runner import _hidden_order_keys, referenced_columns

    plan = parse_query(
        "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
        "ORDER BY l_extendedprice DESC, l_linenumber LIMIT 20"
    ).plan
    order_by, hidden = _hidden_order_keys(plan)
    assert hidden == [] and order_by == plan.order_by
    assert referenced_columns(plan) == [
        "l_extendedprice", "l_linenumber", "l_orderkey"
    ]
    dropped = parse_query("SELECT v FROM t ORDER BY k, v").plan
    assert [n for n, _ in _hidden_order_keys(dropped)[1]] == ["__obx0"]
    assert referenced_columns(dropped) == ["k", "v"]
