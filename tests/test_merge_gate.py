"""One merge gate (``runner._merge_partials``) serves associative GROUP BY,
two-stage COUNT/SUM/AVG(DISTINCT) and SELECT DISTINCT: each shape gives
the same answer on the driver merge and on the Ray exchange (the gate
forced shut with ``SMALL_MERGE_MAX_PARTIAL_ROWS = 1``)."""

import duckdb
import pyarrow as pa
import pytest

from sqlgrep_ray import Tables
from sqlgrep_ray.api import run_sql
from sqlgrep_ray.explain import explain_sql
from sqlgrep_ray.pipelines import runner
from sqlgrep_ray.sqlfront import SqlError

T = pa.table(
    {
        "k": pa.array(["a", "b", None, "a", "b", "a", None, "b", "c", "a"]),
        "j": pa.array([1, 1, 2, None, 2, 1, 2, None, 3, 1], pa.int64()),
        "u": pa.array([1, 2, 2, 1, None, 3, 2, 2, None, 5], pa.int64()),
        "v": pa.array([10, 20, 30, 40, 50, 60, 70, 80, 90, None], pa.int64()),
    }
)

QUERIES = {
    "group_by": "SELECT k, j, COUNT(*) AS n, SUM(v) AS s, MIN(u) AS mn "
    "FROM t GROUP BY k, j",
    "group_by_having_order_limit": "SELECT k, SUM(v) AS s FROM t GROUP BY k "
    "HAVING COUNT(*) > 1 ORDER BY s DESC LIMIT 2",
    "group_by_global": "SELECT COUNT(*) AS n, AVG(v) AS a FROM t",
    "distinct_mixed": "SELECT k, COUNT(DISTINCT u) AS cu, SUM(DISTINCT u) AS su, "
    "AVG(DISTINCT u) AS au, SUM(v) AS sv, COUNT(*) AS n FROM t GROUP BY k",
    "distinct_two_keys": "SELECT k, j, COUNT(DISTINCT u) AS cu FROM t "
    "GROUP BY k, j",
    "distinct_having": "SELECT k, COUNT(DISTINCT u) AS cu FROM t GROUP BY k "
    "HAVING COUNT(DISTINCT u) >= 2",
    "distinct_order_limit": "SELECT k, COUNT(DISTINCT u) AS cu, SUM(v) AS sv "
    "FROM t GROUP BY k ORDER BY cu DESC, k LIMIT 2",
    "distinct_global": "SELECT COUNT(DISTINCT u) AS cu, SUM(DISTINCT u) AS su, "
    "COUNT(*) AS n FROM t",
    "select_distinct": "SELECT DISTINCT k, u FROM t",
    "select_distinct_order_limit": "SELECT DISTINCT k, j FROM t "
    "ORDER BY k, j LIMIT 3",
}


def _rows(sql: str, table: pa.Table, blocks: int = 4) -> list:
    import ray.data

    ds = ray.data.from_arrow(table).repartition(blocks)
    return run_sql(sql, {"t": ds}).take_all()


def _key(row: dict) -> tuple:
    return tuple((v is None, v) for v in row.values())


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_driver_merge_equals_exchange(ray_session, monkeypatch, name):
    sql = QUERIES[name]
    driver = _rows(sql, T)
    monkeypatch.setattr(runner, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    exchange = _rows(sql, T)
    if "ORDER BY" in sql or "GROUP BY" in sql:
        assert driver == exchange  # key order (NULL first) is part of it
    else:
        assert sorted(driver, key=_key) == sorted(exchange, key=_key)
    assert driver


@pytest.mark.parametrize(
    "name", ["group_by", "distinct_mixed", "distinct_two_keys", "distinct_global"]
)
def test_driver_merge_matches_duckdb(ray_session, name):
    # AVG(DISTINCT) of ints truncates (engine AVG parity); DuckDB's is real
    sql = QUERIES[name].replace(", AVG(DISTINCT u) AS au", "")
    got = _rows(sql, T)
    con = duckdb.connect()
    con.register("t", T)
    want = con.sql(sql).arrow().to_pylist()
    assert sorted(got, key=_key) == sorted(want, key=_key)


@pytest.mark.parametrize(
    "name",
    ["group_by", "group_by_global", "distinct_mixed", "distinct_global",
     "select_distinct"],
)
def test_empty_input_gives_no_rows_on_both_paths(ray_session, monkeypatch, name):
    assert _rows(QUERIES[name], T.slice(0, 0), blocks=1) == []
    monkeypatch.setattr(runner, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    assert _rows(QUERIES[name], T.slice(0, 0), blocks=1) == []


def test_keyless_having_filters_on_both_paths(ray_session, monkeypatch):
    sql = "SELECT COUNT(*) AS n FROM t HAVING COUNT(*) > 100"
    assert _rows(sql, T) == []
    monkeypatch.setattr(runner, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    assert _rows(sql, T) == []


def test_small_count_distinct_runs_no_exchange(ray_session, monkeypatch):
    import ray.data

    def stats() -> str:
        ds = ray.data.from_arrow(T).repartition(4)
        return run_sql(QUERIES["distinct_mixed"], {"t": ds}).materialize().stats()

    small = stats()
    assert "Aggregate" not in small and "Sort" not in small
    monkeypatch.setattr(runner, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    large = stats()
    assert "Aggregate" in large and "Sort" in large


def test_wide_partials_take_the_exchange(ray_session, monkeypatch):
    # the gate bounds bytes too: 40 rows fit a bound of 100 rows, but not
    # its 3,200 bytes
    import ray.data

    monkeypatch.setattr(runner, "SMALL_MERGE_MAX_PARTIAL_ROWS", 100)
    wide = pa.table({"s": [f"{i % 20:04d}" + "x" * 200 for i in range(40)]})
    ds = run_sql("SELECT DISTINCT s FROM t", {"t": ray.data.from_arrow(wide)})
    ds = ds.materialize()
    assert "Aggregate" in ds.stats()
    assert sorted(r["s"] for r in ds.take_all()) == sorted(set(wide["s"].to_pylist()))
    narrow = ray.data.from_arrow(pa.table({"s": pa.array(range(10))}))
    ds = run_sql("SELECT DISTINCT s FROM t", {"t": narrow}).materialize()
    assert "Aggregate" not in ds.stats()


def test_null_typed_key_block_joins_the_null_group(ray_session):
    # a block whose key is all NULL has key type `null`, which the per-block
    # encoding cannot fill; the driver merge must still put its rows in the
    # one NULL group
    import ray.data

    blocks = [
        pa.table({"k": pa.nulls(3), "v": pa.array([1, 2, 3])}),
        pa.table({"k": pa.array(["a", None, "b"]), "v": pa.array([4, 5, 6])}),
    ]

    def rows(sql: str) -> list:
        return run_sql(sql, {"t": ray.data.from_arrow(blocks)}).take_all()

    assert rows("SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k") == [
        {"k": None, "n": 4, "s": 11},
        {"k": "a", "n": 1, "s": 4},
        {"k": "b", "n": 1, "s": 6},
    ]
    assert rows("SELECT k, COUNT(DISTINCT v) AS n FROM t GROUP BY k") == [
        {"k": None, "n": 4}, {"k": "a", "n": 1}, {"k": "b", "n": 1},
    ]


def test_follow_snapshot_equals_query(ray_session, tmp_path):
    # follow mode merges and finishes through runner.GroupMerge, as a query
    # does: NULL keys first, HAVING with and without keys
    import pyarrow.parquet as pq
    import ray.data

    from sqlgrep_ray.functions.exprs import Bin, Col, Lit
    from sqlgrep_ray.pipelines.plan import AggItem, AggregatePlan, GroupKey
    from sqlgrep_ray.pipelines.runner import run_plan
    from sqlgrep_ray.state.follow import FollowRun

    aggs = (AggItem("n", "count_star"), AggItem("s", "sum", Col("v")))
    plans = [
        AggregatePlan(group_by=(GroupKey("k", Col("k")),), aggs=aggs,
                      having=Bin("gt", Col("n"), Lit(1))),
        AggregatePlan(group_by=(), aggs=aggs, having=Bin("gt", Col("n"), Lit(100))),
        AggregatePlan(group_by=(), aggs=aggs),
    ]
    snaps = []
    for i, plan in enumerate(plans):
        inp = tmp_path / f"in{i}"
        inp.mkdir()
        for j, (a, b) in enumerate([(0, 4), (4, 10)]):
            pq.write_table(T.slice(a, b - a), str(inp / f"shard-{j}.parquet"))
        fr = FollowRun(str(inp), str(tmp_path / f"out{i}"), plan)
        fr.poll_once()
        pq.write_table(T.slice(0, 3), str(inp / "shard-2.parquet"))
        snaps.append(fr.poll_once().to_pylist())
        want = run_plan(ray.data.read_parquet(str(inp)), plan).take_all()
        assert snaps[-1] == want
    assert snaps[0] == [
        {"k": None, "n": 3, "s": 130}, {"k": "a", "n": 5, "s": 120},
        {"k": "b", "n": 4, "s": 170},
    ]
    assert snaps[1] == []
    assert snaps[2] == [{"n": 13, "s": 510}]


@pytest.mark.parametrize(
    "name", ["group_by", "distinct_mixed", "select_distinct"]
)
def test_explain_names_the_gate(name):
    gate = f"driver merge when the partials are ≤ {runner.SMALL_MERGE_MAX_PARTIAL_ROWS:,} rows"
    assert gate in explain_sql(QUERIES[name])


LINES = ["k=p x=1", "k=q x=2", "k=r x=3"]


@pytest.fixture(scope="module")
def ab_tables():
    t = Tables()
    t.add_tables(r"CREATE TABLE a(line = 'k=(\\w+) x=([0-9]+)', "
                 r"line[1] => k TEXT, line[2] => x INT);"
                 r"CREATE TABLE b(line = 'k=(\\w+) y=([0-9]+)', "
                 r"line[1] => k TEXT, line[2] => y INT);")
    return t


def test_wildcard_select_filters_on_input(ray_session, ab_tables):
    rows = ab_tables.execute_query_rows(
        "SELECT * FROM a WHERE input LIKE '%q%'", source=LINES
    )
    assert rows == [{"k": "q", "x": 2}]


def test_wildcard_join_filters_on_input(ray_session, ab_tables, tmp_path):
    right = tmp_path / "b.log"
    right.write_text("k=p y=10\nk=q y=20\n")
    rows = ab_tables.execute_query_rows(
        f"SELECT * FROM a JOIN b::'{right}' ON a.k = b.k WHERE input LIKE '%q%'",
        source=LINES,
    )
    assert rows == [{"k": "q", "x": 2, "b.k": "q", "b.y": 20}]


def test_compile_query_rejects_scalar_subquery(ab_tables):
    with pytest.raises(SqlError, match="use execute_query"):
        ab_tables.compile_query(
            "SELECT x FROM a WHERE x > (SELECT MIN(x) FROM a)", source=LINES
        )


def test_try_cast_int_is_exact(ray_session):
    import ray.data

    vals = ["9007199254740993", "-9223372036854775808", "9223372036854775807",
            "12.5", "x", " +7 ", "-12.5", "99999999999999999999", "1e30",
            "+-5", "1" * 5000, "-0000000000000000000042"]
    ds = ray.data.from_arrow(pa.table({"s": pa.array(vals)}))
    rows = run_sql("SELECT TRY_CAST(s AS INT) AS i FROM t", {"t": ds}).take_all()
    assert [r["i"] for r in rows] == [
        2**53 + 1, -(2**63), 2**63 - 1, 13, None, 7, -13, None, None,
        None, None, -42,
    ]
