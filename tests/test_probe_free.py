"""A query over Parquet paths binds with no Ray execution: the join side,
the window's row count and the ORDER BY key types come from Parquet
footers and the driver, not from probe jobs. Plus the answers those
paths give where the probes used to matter: directory and empty join
sides, all-NULL first blocks under ORDER BY, SELECT DISTINCT."""

import os

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sqlgrep_ray.api import run_sql

LINEITEM = pa.table(
    {
        "l_orderkey": pa.array([1, 1, 2, 3, 3, 3, 4, 5], pa.int64()),
        "l_linenumber": pa.array([1, 2, 1, 1, 2, 3, 1, 1], pa.int64()),
        "l_price": [10.0, 30.0, 20.0, 5.0, 30.0, 7.5, 99.0, None],
    }
)
ORDERS = pa.table(
    {
        "o_orderkey": pa.array([1, 2, 3, 4, 6], pa.int64()),
        "o_custkey": pa.array([7, 8, 7, 9, 8], pa.int64()),
        "o_total": [40.0, 20.0, 42.5, 99.0, 1.0],
        "o_comment": ["a", "b", "c", "d", "e"],
    }
)

PROBE_FREE = {
    "join": "SELECT l_orderkey, l_linenumber, o_custkey FROM lineitem "
    "JOIN orders ON l_orderkey = o_orderkey",
    "window": "SELECT o_custkey, o_orderkey, ROW_NUMBER() OVER "
    "(PARTITION BY o_custkey ORDER BY o_total DESC, o_orderkey) AS rn "
    "FROM orders",
    "topn": "SELECT l_orderkey, l_linenumber, l_price FROM lineitem "
    "ORDER BY l_price DESC NULLS LAST, l_linenumber LIMIT 3",
    # a join can multiply the FROM side's rows: no footer bounds the
    # window's input, so it shuffles, lazily
    "window_join": "SELECT l_orderkey, l_linenumber, o_custkey, ROW_NUMBER() "
    "OVER (PARTITION BY o_custkey ORDER BY l_orderkey, l_linenumber) AS rn "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey",
}


@pytest.fixture(scope="module")
def star(tmp_path_factory):
    d = tmp_path_factory.mktemp("star")
    paths = {}
    for name, t in (("lineitem", LINEITEM), ("orders", ORDERS)):
        paths[name] = str(d / f"{name}.parquet")
        pq.write_table(t, paths[name])
    return paths


def _duck(sql: str, **tables) -> list:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return con.execute(sql).arrow().to_pylist()


def _key(row: dict) -> tuple:
    return tuple((v is None, v) for v in row.values())


@pytest.mark.parametrize("name", sorted(PROBE_FREE))
def test_bind_runs_no_ray_execution(ray_session, monkeypatch, star, name):
    import ray.data
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    def probe(self, *args, **kwargs):
        raise AssertionError("a Ray execution while the query was bound")

    schema = ray.data.Dataset.schema

    def known_schema(self, fetch_if_missing=True):
        # Ray's own groupby asks for the schema it knows without running
        return schema(self, False) if not fetch_if_missing else probe(self)

    for attr in ("count", "iter_batches", "materialize"):
        monkeypatch.setattr(ray.data.Dataset, attr, probe)
    monkeypatch.setattr(ray.data.Dataset, "schema", known_schema)
    monkeypatch.setattr(StreamingExecutor, "execute", probe)
    ds = run_sql(PROBE_FREE[name], dict(star))
    monkeypatch.undo()
    got = ds.take_all()
    want = _duck(PROBE_FREE[name], lineitem=LINEITEM, orders=ORDERS)
    if name == "topn":
        assert got == want
    else:
        assert sorted(got, key=_key) == sorted(want, key=_key)


def test_directory_join_side_matches_the_ray_read(ray_session, tmp_path):
    """A hive-partitioned directory written by ``CheckpointedRun`` (with
    its ``_manifest`` directory of JSON files) joins from its path with the
    rows, column types and string partition columns of Ray's read."""
    import ray.data

    from sqlgrep_ray.sources import read_parquet_clean, read_parquet_table
    from sqlgrep_ray.state.checkpoint import CheckpointedRun

    src = tmp_path / "in"
    src.mkdir()
    for i in range(3):
        pq.write_table(
            pa.table(
                {
                    "id": pa.array([3 * i, 3 * i + 1, 3 * i + 2], pa.int64()),
                    "val": [f"v{i}a", None, f"v{i}c"],
                    "g": pa.array([i % 2, 1, i % 2], pa.int64()),
                }
            ),
            str(src / f"s{i}.parquet"),
        )
    out = str(tmp_path / "out")
    CheckpointedRun(
        str(src), out, lambda ds: ds, extra_partition_cols=["g"], files_per_chunk=2
    ).run()
    assert os.listdir(os.path.join(out, "_manifest"))

    ray_read = read_parquet_clean(out)
    want = pa.concat_tables(list(ray_read.iter_batches(batch_format="pyarrow")))
    got = read_parquet_table(out)
    assert got.schema == want.schema
    assert got.schema.field("g").type == pa.string()  # not pyarrow's int32
    assert sorted(got.to_pylist(), key=_key) == sorted(want.to_pylist(), key=_key)

    left = pa.table({"k": pa.array([0, 1, 4, 8, 9], pa.int64())})
    sql = "SELECT l.k, r.val, r.shard, r.g FROM l JOIN r ON l.k = r.id"
    by_path = run_sql(sql, {"l": ray.data.from_arrow(left), "r": out})
    by_ray = run_sql(sql, {"l": ray.data.from_arrow(left), "r": ray_read})
    assert by_path.schema().base_schema == by_ray.schema().base_schema
    rows = sorted(by_path.take_all(), key=_key)
    assert rows == sorted(by_ray.take_all(), key=_key)
    assert [(r["l.k"], r["r.shard"], r["r.g"]) for r in rows] == [
        (0, "s0", "0"), (1, "s0", "1"), (4, "s1", "1"), (8, "s2", "0"),
    ]

    # the same directory as a FROM source: pruned, filtered scan
    sql = "SELECT id, g FROM r WHERE val IS NOT NULL AND g = '0'"
    by_path = run_sql(sql, {"r": out}).take_all()
    assert sorted(by_path, key=_key) == sorted(
        run_sql(sql, {"r": ray_read}).take_all(), key=_key
    )
    assert sorted(r["id"] for r in by_path) == [0, 2, 6, 8]


def test_empty_file_join_side_keeps_its_schema(ray_session, star, tmp_path):
    empty = str(tmp_path / "empty.parquet")
    pq.write_table(ORDERS.schema.empty_table(), empty)
    sql = (
        "SELECT l_orderkey, o.o_custkey, o.o_comment FROM lineitem "
        "LEFT JOIN o ON l_orderkey = o.o_orderkey"
    )
    ds = run_sql(sql, {"lineitem": star["lineitem"], "o": empty})
    types = dict(zip(ds.schema().names, ds.schema().types))
    assert types["o.o_custkey"] == pa.int64()
    assert types["o.o_comment"] == pa.string()
    rows = ds.take_all()
    assert sorted(r["l_orderkey"] for r in rows) == sorted(
        LINEITEM["l_orderkey"].to_pylist()
    )
    assert {(r["o.o_custkey"], r["o.o_comment"]) for r in rows} == {(None, None)}


NULL_FIRST_BLOCK = [
    pa.table({"k": pa.nulls(3, pa.null()), "v": pa.array([5, 6, 7], pa.int64())}),
    pa.table({"k": ["x", None, "y"], "v": pa.array([1, 2, 3], pa.int64())}),
]
ORDERED = [
    "SELECT k, v FROM t ORDER BY k NULLS FIRST, v LIMIT 5",
    "SELECT k, v FROM t ORDER BY k DESC NULLS FIRST, v LIMIT 4",
    "SELECT k, v FROM t ORDER BY k NULLS FIRST, v",
    "SELECT k, v FROM t ORDER BY k NULLS FIRST",
    # LENGTH has no kernel for a ``null``-typed column: the top-n block of
    # 3 rows > 2 cannot rank itself and goes to the merge whole
    "SELECT k, v FROM t ORDER BY LENGTH(k) NULLS FIRST, v LIMIT 2",
    "SELECT k, v FROM t ORDER BY LENGTH(k) NULLS FIRST, v",
]


@pytest.mark.parametrize("blocks", ["null_first", "null_last"])
@pytest.mark.parametrize("sql", ORDERED)
def test_order_by_over_an_all_null_block(ray_session, sql, blocks):
    """A block whose key column is all NULL (``null``-typed) orders with
    the typed blocks as DuckDB orders the whole table."""
    import ray.data

    parts = NULL_FIRST_BLOCK if blocks == "null_first" else NULL_FIRST_BLOCK[::-1]
    got = run_sql(sql, {"t": ray.data.from_arrow(parts)}).take_all()
    whole = pa.concat_tables(parts, promote_options="default")
    want = _duck(sql, t=whole)
    if sql.endswith("NULLS FIRST"):  # ties among the NULL keys: any order
        assert [r["k"] for r in got] == [r["k"] for r in want]
        assert sorted(got, key=_key) == sorted(want, key=_key)
    else:
        assert got == want


def test_select_distinct_binds_with_one_execution(ray_session, monkeypatch):
    """SELECT DISTINCT runs its partials once at bind time (the merge
    gate), with no schema probe of the input."""
    import ray.data
    from ray.data._internal.execution import streaming_executor as se

    t = pa.table({"k": ["a", None, "a", "b"], "u": pa.array([1, 2, 1, None])})
    calls = []
    execute = se.StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", counted)
    ds = run_sql("SELECT DISTINCT k, u FROM t", {"t": ray.data.from_arrow(t)})
    assert len(calls) == 1
    want = _duck("SELECT DISTINCT k, u FROM t", t=t)
    assert sorted(ds.take_all(), key=_key) == sorted(want, key=_key)


def test_select_distinct_over_zero_blocks(ray_session):
    import ray.data

    empty = ray.data.from_items([{"k": 1}]).filter(lambda r: False)
    assert run_sql("SELECT DISTINCT k FROM t", {"t": empty}).take_all() == []
