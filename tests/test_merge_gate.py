"""One merge gate (``exchange.merge``) serves associative GROUP BY,
two-stage COUNT/SUM/AVG(DISTINCT) and SELECT DISTINCT: each shape gives
the same answer on the driver merge and on the bucketed merge (the gate
forced shut with ``SMALL_MERGE_MAX_PARTIAL_ROWS = 1``)."""

import duckdb
import pyarrow as pa
import pytest

from sqlgrep_ray import Tables
from sqlgrep_ray.api import run_sql
from sqlgrep_ray.explain import explain_sql
from sqlgrep_ray.stages import exchange
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
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    bucketed = _rows(sql, T)
    if "ORDER BY" in sql or "GROUP BY" in sql:
        assert driver == bucketed  # key order (NULL first) is part of it
    else:
        assert sorted(driver, key=_key) == sorted(bucketed, key=_key)
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
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    assert _rows(QUERIES[name], T.slice(0, 0), blocks=1) == []


def test_keyless_having_filters_on_both_paths(ray_session, monkeypatch):
    sql = "SELECT COUNT(*) AS n FROM t HAVING COUNT(*) > 100"
    assert _rows(sql, T) == []
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    assert _rows(sql, T) == []


def test_small_count_distinct_runs_no_exchange(ray_session, monkeypatch):
    import ray.data

    def stats() -> str:
        ds = ray.data.from_arrow(T).repartition(4)
        return run_sql(QUERIES["distinct_mixed"], {"t": ds}).materialize().stats()

    small = stats()
    assert "Aggregate" not in small and "Sort" not in small
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    large = stats()
    assert "add_bucket" in large and "Sort" in large


def test_wide_partials_take_the_exchange(ray_session, monkeypatch):
    # the gate bounds bytes too: 40 rows fit a bound of 100 rows, but not
    # its 3,200 bytes
    import ray.data

    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 100)
    wide = pa.table({"s": [f"{i % 20:04d}" + "x" * 200 for i in range(40)]})
    ds = run_sql("SELECT DISTINCT s FROM t", {"t": ray.data.from_arrow(wide)})
    ds = ds.materialize()
    assert "add_bucket" in ds.stats()
    assert sorted(r["s"] for r in ds.take_all()) == sorted(set(wide["s"].to_pylist()))
    narrow = ray.data.from_arrow(pa.table({"s": pa.array(range(10))}))
    ds = run_sql("SELECT DISTINCT s FROM t", {"t": narrow}).materialize()
    assert "add_bucket" not in ds.stats()


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


@pytest.mark.parametrize(
    "path, sql",
    [
        ("exchange", "SELECT k, COUNT(*) AS n FROM t GROUP BY k"),
        ("driver", "SELECT DISTINCT k FROM t"),
        ("exchange", "SELECT DISTINCT k FROM t"),
        ("driver", "SELECT DISTINCT k, v FROM t"),
        ("exchange", "SELECT DISTINCT k, v FROM t"),
    ],
)
def test_null_typed_key_block_on_both_paths(ray_session, monkeypatch, path, sql):
    # one block types `k` as `null` (every value NULL), the other as string:
    # both merge paths give the one NULL group / row DuckDB gives (the
    # driver GROUP BY case is test_null_typed_key_block_joins_the_null_group)
    import ray.data

    blocks = [
        pa.table({"k": pa.nulls(3), "v": pa.array([1, 2, 2])}),
        pa.table({"k": pa.array(["x", None, "y"]), "v": pa.array([4, 5, 6])}),
    ]
    if path == "exchange":
        monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    got = run_sql(sql, {"t": ray.data.from_arrow(blocks)}).take_all()
    con = duckdb.connect()
    con.register("t", pa.concat_tables(blocks, promote_options="default"))
    want = con.sql(sql).arrow().to_pylist()
    assert sorted(got, key=_key) == sorted(want, key=_key)


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
    gate = f"driver merge when the partials are ≤ {exchange.SMALL_MERGE_MAX_PARTIAL_ROWS:,} rows"
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


# -- every keyed merge takes the one gate: null-typed blocks, NULL keys ------

NULL_BLOCK = pa.table({"k": pa.nulls(3)})
TYPED_BLOCK = pa.table({"k": pa.array(["x", None, "y"])})


@pytest.mark.parametrize("path", ["driver", "exchange"])
@pytest.mark.parametrize("null_first", [True, False])
@pytest.mark.parametrize("op", ["INTERSECT", "INTERSECT ALL", "EXCEPT ALL"])
def test_set_op_over_null_typed_block(ray_session, monkeypatch, path, null_first, op):
    # a block typed `null` (every value NULL), first or second: the set
    # operation types it from the other block and gives DuckDB's answer,
    # against itself and against its first block alone (`u`)
    import ray.data

    blocks = [NULL_BLOCK, TYPED_BLOCK] if null_first else [TYPED_BLOCK, NULL_BLOCK]
    if path == "exchange":
        monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    con = duckdb.connect()
    con.register("t", pa.concat_tables(blocks, promote_options="default"))
    con.register("u", blocks[0].cast(pa.schema([("k", pa.string())])))
    for rhs in ("t", "u"):
        sql = f"SELECT k FROM t {op} SELECT k FROM {rhs}"
        got = run_sql(
            sql,
            {"t": ray.data.from_arrow(blocks), "u": ray.data.from_arrow(blocks[:1])},
        ).take_all()
        want = con.sql(sql).arrow().to_pylist()
        assert sorted(got, key=_key) == sorted(want, key=_key), sql


@pytest.mark.parametrize(
    "expr, on_null, on_typed",
    [
        ("LENGTH(k)", None, [1, None, 1]),
        ("UPPER(k)", None, ["X", None, "Y"]),
        ("SUBSTR(k, 1, 2)", None, ["x", None, "y"]),
        ("COALESCE(k, 'z')", "z", ["x", "z", "y"]),
    ],
)
def test_scalar_function_over_null_typed_block(ray_session, expr, on_null, on_typed):
    # a null-typed argument takes the parameter's type: NULL in, SQL's
    # answer for NULL out (for COALESCE, its second argument)
    import ray.data

    ds = ray.data.from_arrow([NULL_BLOCK, TYPED_BLOCK])
    got = [r["n"] for r in run_sql(f"SELECT {expr} AS n FROM t", {"t": ds}).take_all()]
    order = lambda v: (v is None, v)  # noqa: E731
    assert sorted(got, key=order) == sorted([on_null] * 3 + on_typed, key=order)


@pytest.mark.parametrize("path", ["driver", "exchange"])
def test_raw_null_key_is_its_own_group(ray_session, monkeypatch, path):
    # a stage's raw key keeps NULL apart from '' (only null-encoded
    # (marker, key) pairs are filled)
    import ray.data

    from sqlgrep_ray.stages.dedup import exact_dedup

    t = pa.table(
        {"key": pa.array(["a", None, "", None, "a"]), "id": pa.array([5, 4, 3, 2, 1])}
    )
    if path == "exchange":
        monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 0)
    ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2)])
    got = sorted(exact_dedup(ds, "key", "id").take_all(), key=_key)
    assert got == [{"key": "", "id": 3}, {"key": "a", "id": 1}, {"key": None, "id": 2}]


def test_token_frequencies_on_both_paths(ray_session, monkeypatch):
    from collections import Counter

    import ray.data

    from sqlgrep_ray.stages.vocab import token_frequencies

    texts = ["the cat sat", "The dog", None, "a cat and THE dog", ""]
    ds = ray.data.from_arrow(pa.table({"text": texts})).repartition(3)
    want = Counter(w for s in texts for w in (s or "").lower().split())

    def run() -> dict:
        return {r["token"]: r["count"] for r in token_frequencies(ds).take_all()}

    assert run() == dict(want)
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 0)
    assert run() == dict(want)


def test_hot_buckets_on_both_paths(ray_session, monkeypatch):
    import ray.data

    from sqlgrep_ray.stages.dedup import _hot_buckets

    buckets = [1, 2, 2, 3, 3, 3, 4, 5, 5, 1, 6]
    ds = ray.data.from_arrow(pa.table({"bucket": pa.array(buckets, pa.int64())}))

    def run() -> tuple:
        hot, n_hot, n_cand = _hot_buckets(ds.repartition(3))
        return sorted((r["bucket"], r["n"]) for r in hot.take_all()), n_hot, n_cand

    want = ([(1, 2), (2, 2), (3, 3), (5, 2)], 4, 9)
    assert run() == want
    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 0)
    assert run() == want
