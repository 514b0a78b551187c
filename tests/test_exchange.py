"""The engine's bucket exchange (``stages/exchange.py``) and the
distributed join built on it (``enrich.shuffle_join``): every bucket runs
the broadcast path's own kernels, so the large branch of a size gate
returns the small branch's rows — NULL keys, list columns, mixed key
widths and null-typed blocks included."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from sqlgrep_ray.stages.enrich import BroadcastJoiner, shuffle_join
from sqlgrep_ray.stages.exchange import co_bucketed

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sides():
    """Left: int64 key with NULLs and a list<float32> payload; right:
    int32 key with a NULL, some keys absent from the left."""
    rng = np.random.default_rng(7)
    n, m = 400, 60
    lk = [None if i % 37 == 0 else int(x) for i, x in enumerate(rng.integers(0, 80, n))]
    left = pa.table(
        {
            "k": pa.array(lk, pa.int64()),
            "v": pa.array(np.arange(n, dtype=np.int64)),
            "emb": pa.array(
                [[float(i), 0.5] for i in range(n)], pa.list_(pa.float32())
            ),
        }
    )
    rk = [None if j == 3 else j for j in range(m)]
    right = pa.table(
        {
            "rk": pa.array(rk, pa.int32()),
            "w": pa.array(np.arange(m, dtype=np.int64) * 10),
            "tags": pa.array([[j, j + 1] for j in range(m)], pa.list_(pa.int64())),
        }
    )
    return left, right


def _rows(t: pa.Table) -> list:
    return sorted(map(repr, t.to_pylist()))


def _collect(ds) -> pa.Table:
    return pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow") if b.num_columns],
        promote_options="permissive",
    )


def _broadcast_answer(left, right, how):
    if how in ("semi", "anti"):
        mask = pc.is_in(left["k"], value_set=right["rk"].cast(pa.int64()))
        return left.filter(mask if how == "semi" else pc.invert(mask))
    r = right.rename_columns(["__rk0", "w", "tags"])
    return BroadcastJoiner(r, "k", "__rk0", how=how)(left).drop_columns(["__rk0"])


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_shuffle_join_equals_broadcast(ray_session, how):
    import ray.data

    left, right = _sides()
    # the first left block's key is all NULL, so that block types it null
    blocks = [
        pa.table({"k": pa.nulls(5), "v": left["v"][:5], "emb": left["emb"][:5]}),
        left.slice(5, 200),
        left.slice(205),
    ]
    full_left = pa.concat_tables(blocks, promote_options="permissive")
    got = _collect(
        shuffle_join(
            ray.data.from_arrow(blocks),
            ray.data.from_arrow([right.slice(0, 30), right.slice(30)]),
            on=["k"], right_on=["rk"], how=how,
        )
    )
    want = _broadcast_answer(full_left, right, how)
    assert got.schema.names == want.schema.names
    assert _rows(got) == _rows(want)
    if how != "anti":
        # NULL keys match each other, as on the broadcast path
        assert pc.sum(pc.is_null(got["k"])).as_py() > 0


def test_left_join_types_empty_bucket_columns(ray_session):
    """A LEFT join whose right side has one key: most buckets hold no
    right row, yet every bucket's NULL columns carry the right's types."""
    import ray.data

    left = pa.table({"k": pa.array(range(50), pa.int64())})
    right = pa.table({"k2": pa.array([7], pa.int64()), "tags": [[1, 2]]})
    got = shuffle_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        on=["k"], right_on=["k2"], how="left",
    )
    blocks = [b for b in got.iter_batches(batch_format="pyarrow") if b.num_rows]
    assert all(b.schema.field("tags").type == pa.list_(pa.int64()) for b in blocks)
    t = pa.concat_tables(blocks)
    assert t.num_rows == 50
    assert t.filter(pc.equal(t["k"], 7))["tags"].to_pylist() == [[1, 2]]


def test_co_bucketed_composite_keys(ray_session):
    """Composite keys of different widths bucket alike on both sides."""
    import ray.data

    left = pa.table(
        {"a": pa.array([1, 2, 3, 1], pa.int32()), "b": ["x", "y", "z", "y"]}
    )
    right = pa.table(
        {"a2": pa.array([1, 3, 1], pa.int64()), "b2": ["x", "z", "q"]}
    )

    def pairs(lt: pa.Table, rt: pa.Table) -> pa.Table:
        lkeys = set(zip(lt["a"].to_pylist(), lt["b"].to_pylist()))
        rkeys = set(zip(rt["a2"].to_pylist(), rt["b2"].to_pylist()))
        both = sorted(lkeys & rkeys)
        return pa.table(
            {"a": pa.array([p[0] for p in both], pa.int64()),
             "b": pa.array([p[1] for p in both], pa.string())}
        )

    got = co_bucketed(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        ["a", "b"], ["a2", "b2"], pairs, num_buckets=4,
    )
    assert sorted((r["a"], r["b"]) for r in got.take_all()) == [(1, "x"), (3, "z")]


def test_shuffle_join_one_cpu_vs_duckdb(tmp_path):
    """A 1,000 × 143-row join finishes on a 1-CPU Ray session, with
    DuckDB's rows (Ray's hash-shuffle join waited there for aggregator
    resources that a 1-CPU session cannot grant)."""
    script = textwrap.dedent(
        """
        import duckdb, numpy as np, pyarrow as pa, ray, ray.data
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        from sqlgrep_ray.stages.enrich import shuffle_join
        rng = np.random.default_rng(1)
        l = pa.table({"k": rng.integers(0, 200, 1000), "v": np.arange(1000)})
        r = pa.table({"k2": np.arange(143), "w": np.arange(143) * 3})
        got = shuffle_join(ray.data.from_arrow([l.slice(0, 500), l.slice(500)]),
                           ray.data.from_arrow(r), on=["k"], right_on=["k2"])
        got = sorted((x["k"], x["v"], x["w"]) for x in got.take_all())
        want = sorted(duckdb.sql(
            "SELECT k, v, w FROM l JOIN r ON l.k = r.k2").fetchall())
        ray.shutdown()
        assert got == want and len(got) > 0, (len(got), len(want))
        print("OK", len(got))
        """
    )
    env = dict(os.environ, PYTHONPATH=REPO)
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=str(tmp_path), env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().startswith("OK")
