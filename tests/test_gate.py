"""One bound for every small exchange (the driver gate
``exchange.gather``, or a Parquet footer estimate), and one task
(``exchange.one_block``) for every one-block finish: each client gives
the same rows with the gate open and forced shut
(``SMALL_MERGE_MAX_PARTIAL_ROWS = 0``), and a ``run_sql`` window, top-n
and GROUP BY over a one-file Parquet source run no ``SplitBlocks``,
``Sort`` or ``Repartition`` operator."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sqlgrep_ray.api import run_sql
from sqlgrep_ray.stages import exchange

SHUT = "SMALL_MERGE_MAX_PARTIAL_ROWS"

NULL_KEYS = pa.table(
    {
        "k": pa.array(["a", None, "b", "a", None, "b", "a", "c", None, "a"]),
        "o": pa.array([5, 3, 1, 2, 8, 4, 9, 7, 6, 1], pa.int64()),
        "v": pa.array([1.5, None, 2.0, 3.0, 4.0, None, 5.0, 6.0, 7.0, 8.0]),
    }
)
NULL_TYPED_FIRST = [
    pa.table({"k": pa.nulls(3, pa.null()), "o": pa.array([3, 1, 2], pa.int64())}),
    pa.table({"k": ["x", None, "x", "y"], "o": pa.array([2, 5, 1, 4], pa.int64())}),
]
WINDOW = (
    "SELECT k, o, ROW_NUMBER() OVER (PARTITION BY k ORDER BY o) AS rn, "
    "SUM(o) OVER (PARTITION BY k ORDER BY o) AS s FROM t"
)


def _duck(sql: str, **tables) -> list:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return con.execute(sql).arrow().to_pylist()


def _key(row: dict) -> tuple:
    return tuple((v is None, v) for v in row.values())


def _both(monkeypatch, run) -> tuple:
    """``run()`` with the gate open, then forced shut."""
    open_ = run()
    with monkeypatch.context() as m:
        m.setattr(exchange, SHUT, 0)
        shut = run()
    return open_, shut


@pytest.mark.parametrize("blocks", ["null_keys", "null_typed_first"])
def test_window_gate_branches_agree(ray_session, monkeypatch, tmp_path, blocks):
    """The window's bucket exchange (a Dataset source, or the gate shut)
    and its one bucket in one task (a Parquet path whose footers pass the
    gate) give DuckDB's rows, over NULL keys and over a first block typed
    ``null``."""
    import ray.data

    if blocks == "null_keys":
        parts, sql = [NULL_KEYS.slice(0, 4), NULL_KEYS.slice(4)], WINDOW
    else:
        parts, sql = NULL_TYPED_FIRST, WINDOW.split(", SUM")[0] + " FROM t"
    whole = pa.concat_tables(parts, promote_options="default")
    want = sorted(_duck(sql, t=whole), key=_key)

    rows = run_sql(sql, {"t": ray.data.from_arrow(parts)}).take_all()
    assert sorted(rows, key=_key) == want
    if blocks == "null_keys":
        path = str(tmp_path / "t.parquet")
        pq.write_table(whole, path)
        lazy, shut = _both(
            monkeypatch, lambda: sorted(run_sql(sql, {"t": path}).take_all(), key=_key)
        )
        assert lazy == want
        assert shut == want


def test_topn_with_offset_agrees(ray_session, monkeypatch):
    import ray.data

    def ds():
        return ray.data.from_arrow([NULL_KEYS.slice(0, 3), NULL_KEYS.slice(3)])

    ordered = "SELECT k, o FROM t ORDER BY o DESC, k LIMIT 4 OFFSET 3"
    want = _duck(ordered, t=NULL_KEYS)
    got, shut = _both(monkeypatch, lambda: run_sql(ordered, {"t": ds()}).take_all())
    assert got == want and shut == want
    # unordered OFFSET: any 2 of the rows, none twice
    rows = run_sql("SELECT o FROM t LIMIT 2 OFFSET 3", {"t": ds()}).take_all()
    assert len(rows) == 2 and len({r["o"] for r in rows}) == 2


def test_grouped_topk_gate_branches_agree(ray_session, monkeypatch):
    import ray.data

    from sqlgrep_ray.stages.topk import grouped_topk

    t = NULL_KEYS.append_column("id", pa.array(range(NULL_KEYS.num_rows), pa.int64()))
    want = sorted(
        _duck(
            "SELECT k, o, id FROM (SELECT *, ROW_NUMBER() OVER (PARTITION BY k "
            "ORDER BY o DESC, id) AS r FROM t) WHERE r <= 2",
            t=t,
        ),
        key=_key,
    )

    def run(distributed=None):
        ds = ray.data.from_arrow([t.slice(0, 5), t.slice(5)])
        out = grouped_topk(ds, ["k"], "o", "id", 2, distributed=distributed)
        return sorted(out.select_columns(["k", "o", "id"]).take_all(), key=_key)

    driver, shut = _both(monkeypatch, run)
    assert driver == want and shut == want
    assert run(distributed=False) == want


def test_top_tokens_gate_branches_agree(ray_session, monkeypatch):
    import ray.data

    from sqlgrep_ray.stages.vocab import top_tokens

    docs = pa.table({"text": ["b a a", "c b a", "d", "B c e e e e"]})
    blocks = [docs.slice(0, 2), docs.slice(2)]
    got, shut = _both(
        monkeypatch, lambda: top_tokens(ray.data.from_arrow(blocks), 3).take_all()
    )
    want = [
        {"token": "e", "count": 4},
        {"token": "a", "count": 3},
        {"token": "b", "count": 3},
    ]
    assert got == want and shut == want


def test_grouped_heavy_hitters_gate_branches_agree(ray_session, monkeypatch):
    """Few distinct items per key: the sketch's counts are exact on both
    branches."""
    import ray.data

    from sqlgrep_ray.stages.sketch import grouped_heavy_hitters

    t = pa.table(
        {"k": list("aababbb"), "v": list("xyxxzzx")}
    )

    def run():
        ds = ray.data.from_arrow([t.slice(0, 3), t.slice(3)])
        return sorted(grouped_heavy_hitters(ds, "k", "v", k=8).take_all(), key=_key)

    got, shut = _both(monkeypatch, run)
    sql = "SELECT k, v AS item, COUNT(*) AS count FROM t GROUP BY k, v"
    want = sorted(_duck(sql, t=t), key=_key)
    assert got == want and shut == want


def test_salted_count_distinct_skips_null(ray_session, monkeypatch):
    import ray.data

    from sqlgrep_ray.stages.skew import salted_count_distinct

    t = pa.table(
        {"k": list("aaabb"), "v": pa.array([1, None, 2, None, None], pa.int64())}
    )
    sql = "SELECT k, COUNT(DISTINCT v) AS distinct_count FROM t GROUP BY k"
    want = sorted(_duck(sql, t=t), key=_key)
    assert want == [{"k": "a", "distinct_count": 2}, {"k": "b", "distinct_count": 0}]

    def run():
        ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2)])
        return sorted(salted_count_distinct(ds, ["k"], "v").take_all(), key=_key)

    driver, shut = _both(monkeypatch, run)
    assert driver == want and shut == want


def test_co_bucketed_runs_a_lazy_side_once(ray_session):
    """Sizing the buckets of two lazy sides does not run their upstream a
    second time: each side's map runs once per block."""
    import ray
    import ray.data

    @ray.remote(num_cpus=0)
    class Calls:
        def __init__(self):
            self.n = 0

        def add(self):
            self.n += 1

        def get(self):
            return self.n

    calls = Calls.options(name="co_bucketed_upstream_calls").remote()

    def counted(t: pa.Table) -> pa.Table:
        ray.get(ray.get_actor("co_bucketed_upstream_calls").add.remote())
        return t

    left = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()), "x": ["a", "b", "c", "d"]})
    right = pa.table({"k": pa.array([2, 4, 5], pa.int64()), "y": [20, 40, 50]})
    lds = ray.data.from_arrow([left.slice(0, 2), left.slice(2)]).map_batches(
        counted, batch_format="pyarrow"
    )
    rds = ray.data.from_arrow([right.slice(0, 1), right.slice(1)]).map_batches(
        counted, batch_format="pyarrow"
    )

    def inner(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt.join(rt, "k", join_type="inner")

    out = exchange.co_bucketed(lds, rds, "k", "k", inner)
    rows = sorted(out.take_all(), key=lambda r: r["k"])
    assert rows == [{"k": 2, "x": "b", "y": 20}, {"k": 4, "x": "d", "y": 40}]
    assert ray.get(calls.get.remote()) == 4  # 2 blocks a side, once each
    ray.kill(calls)


SHAPES = {
    "window": "SELECT o_custkey, o_orderkey, ROW_NUMBER() OVER "
    "(PARTITION BY o_custkey ORDER BY o_total DESC, o_orderkey) AS rn FROM orders",
    "topn": "SELECT o_orderkey, o_total FROM orders "
    "ORDER BY o_total DESC, o_orderkey LIMIT 3",
    "group_by": "SELECT o_custkey, COUNT(*) AS n, SUM(o_total) AS s FROM orders "
    "GROUP BY o_custkey",
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_one_file_source_runs_no_split_sort_or_repartition(
    ray_session, monkeypatch, tmp_path, name
):
    """Counted at ``StreamingExecutor.execute``: every operator of every
    Ray execution of the query, binding included."""
    from ray.data._internal.execution import streaming_executor as se

    orders = pa.table(
        {
            "o_orderkey": pa.array(range(1, 401), pa.int64()),
            "o_custkey": pa.array([i % 37 for i in range(400)], pa.int64()),
            "o_total": [float((i * 7919) % 1000) for i in range(400)],
        }
    )
    path = str(tmp_path / "orders.parquet")
    pq.write_table(orders, path, row_group_size=50)
    ops: list = []
    execute = se.StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        stack = [dag]
        while stack:
            op = stack.pop()
            ops.append(op.name)
            stack.extend(op.input_dependencies)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(se.StreamingExecutor, "execute", counted)
    got = run_sql(SHAPES[name], {"orders": path}).take_all()
    banned = ("SplitBlocks", "Sort", "Repartition")
    assert ops and not [o for o in ops if any(w in o for w in banned)], ops
    want = _duck(SHAPES[name], orders=orders)
    if name == "topn":
        assert got == want
    else:
        assert sorted(got, key=_key) == sorted(want, key=_key)


@pytest.mark.parametrize("dictionary", [False, True])
def test_window_over_wide_footer_bytes_takes_the_exchange(
    ray_session, monkeypatch, tmp_path, dictionary
):
    """The footer estimate counts bytes as 32-byte rows, as the gate does:
    100 rows of 1 kB strings pass a 1,000-row bound by rows but not by
    bytes, so the window shuffles (a ``Sort``) instead of taking one task.
    Dictionary-encoded, the strings take ~1 kB in the file but 100 kB
    once read, and count as read."""
    from ray.data._internal.execution import streaming_executor as se

    t = pa.table(
        {
            "k": pa.array([i % 7 for i in range(100)], pa.int64()),
            "o": pa.array(range(100), pa.int64()),
            "pad": ["x" * 1000] * 100,
        }
    )
    path = str(tmp_path / "wide.parquet")
    pq.write_table(t, path, use_dictionary=dictionary)
    md = pq.ParquetFile(path).metadata
    assert (md.row_group(0).total_byte_size < 10_000) == dictionary
    sql = "SELECT k, o, pad, ROW_NUMBER() OVER (PARTITION BY k ORDER BY o) AS rn FROM t"
    ops: list = []
    execute = se.StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        ops.append(dag.name)
        return execute(self, dag, *args, **kwargs)

    want = sorted(_duck(sql, t=t), key=_key)
    assert sorted(run_sql(sql, {"t": path}).take_all(), key=_key) == want
    monkeypatch.setattr(exchange, SHUT, 1000)
    monkeypatch.setattr(se.StreamingExecutor, "execute", counted)
    ds = run_sql(sql, {"t": path})
    assert not ops  # decided from the footers, at bind
    assert sorted(ds.take_all(), key=_key) == want
    assert "Sort" in ds.stats()


def test_one_file_source_splits_past_the_target_block_size(
    ray_session, monkeypatch, tmp_path
):
    """A one-file source reads in one task up to Ray's target block size
    by its footers, and splits into one block per target size beyond."""
    import math

    import ray.data

    from sqlgrep_ray import sources

    path = str(tmp_path / "wide.parquet")
    pq.write_table(pa.table({"pad": ["x" * 1000] * 100}), path, use_dictionary=False)
    seen: dict = {}
    read = ray.data.read_parquet

    def spy(paths, **kwargs):
        seen.update(kwargs)
        return read(paths, **kwargs)

    monkeypatch.setattr(ray.data, "read_parquet", spy)
    sources.read_parquet_clean(path)
    assert seen["override_num_blocks"] == 1
    ctx = ray.data.DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", 40_000)
    ds = sources.read_parquet_clean(path)
    blocks = math.ceil(sources.parquet_size(path)[1] / 40_000)
    assert blocks == 3 and seen["override_num_blocks"] == blocks
    assert ds.count() == 100
