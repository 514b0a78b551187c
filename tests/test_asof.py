"""As-of join (stages/asof.py): backward match, boundary, misses."""

import datetime as dt

import pyarrow as pa

from sqlgrep_ray.stages.asof import asof_join


def _right():
    return pa.table(
        {
            "k": pa.array([1, 1, 1, 2], pa.int64()),
            "eff": pa.array(
                [
                    dt.datetime(2024, 1, 1),
                    dt.datetime(2024, 1, 10),
                    dt.datetime(2024, 1, 20),
                    dt.datetime(2024, 1, 5),
                ],
                pa.timestamp("us"),
            ),
            "val": pa.array(["a", "b", "c", "z"]),
        }
    )


def _left():
    return pa.table(
        {
            "k": pa.array([1, 1, 1, 2, 3], pa.int64()),
            "ts": pa.array(
                [
                    dt.datetime(2024, 1, 15),   # → b
                    dt.datetime(2024, 1, 10),   # boundary: eff == ts → b
                    dt.datetime(2023, 12, 31),  # before all → miss
                    dt.datetime(2024, 2, 1),    # → z
                    dt.datetime(2024, 1, 1),    # unknown key → miss
                ],
                pa.timestamp("us"),
            ),
        }
    )


def test_asof_inner(ray_session):
    import ray.data

    out = asof_join(
        ray.data.from_arrow(_left()).repartition(2),
        _right(),
        left_key="k",
        left_ts="ts",
        right_key="k",
        right_ts="eff",
        value_cols=["val", "eff"],
        how="inner",
    ).to_pandas()
    got = sorted(zip(out["k"], out["ts"], out["val"]))
    assert got == [
        (1, dt.datetime(2024, 1, 10), "b"),
        (1, dt.datetime(2024, 1, 15), "b"),
        (2, dt.datetime(2024, 2, 1), "z"),
    ]


def test_asof_left_outer_nulls(ray_session):
    import ray.data

    out = asof_join(
        ray.data.from_arrow(_left()),
        _right(),
        left_key="k",
        left_ts="ts",
        right_key="k",
        right_ts="eff",
        value_cols=["val"],
        how="left",
    ).to_pandas()
    assert len(out) == 5
    misses = out[out["val"].isna()]
    assert sorted(misses["k"]) == [1, 3]  # before-all and unknown key


def test_asof_auto_dispatch_equivalence(ray_session):
    """asof_join_auto picks broadcast below the budget and the bucketed
    shuffle above it, and both give identical rows."""
    import ray.data

    from sqlgrep_ray.stages.asof import asof_join_auto

    left = ray.data.from_arrow(_left()).repartition(2)
    right_ds = ray.data.from_arrow(_right())

    def rows(ds):
        out = ds.to_pandas()
        return sorted(zip(out["k"], out["ts"], out["val"]))

    kw = dict(
        left_key="k", left_ts="ts", right_key="k", right_ts="eff",
        value_cols=["val"], how="inner",
    )
    broadcast = rows(asof_join_auto(left, right_ds, **kw))
    shuffled = rows(
        asof_join_auto(left, right_ds, broadcast_max_rows=0, num_buckets=4, **kw)
    )
    table_side = rows(asof_join_auto(left, _right(), **kw))
    assert broadcast == shuffled == table_side
    assert len(broadcast) == 3


def test_asof_forced_shuffle_null_key_list_value(ray_session):
    """The bucketed path equals the broadcast path on a NULL key and a
    list-typed value column, for both join kinds."""
    import ray.data

    from sqlgrep_ray.stages.asof import asof_join_auto

    left = pa.table(
        {
            "k": pa.array([1, None, 2, 3, 1], pa.int64()),
            "ts": pa.array([dt.datetime(2024, 1, d) for d in (2, 3, 6, 7, 25)]),
        }
    )
    right = pa.table(
        {
            "k": pa.array([1, 1, None, 2], pa.int64()),
            "eff": pa.array([dt.datetime(2024, 1, d) for d in (1, 20, 1, 5)]),
            "val": pa.array(
                [[1.0], [2.0], [3.0], [4.0]], pa.list_(pa.float32())
            ),
        }
    )
    kw = dict(
        left_key="k", left_ts="ts", right_key="k", right_ts="eff",
        value_cols=["val"],
    )

    def rows(ds):
        return sorted(
            ((r["k"], r["ts"], None if r["val"] is None else list(r["val"]))
             for r in ds.take_all()),
            key=repr,
        )

    for how in ("inner", "left"):
        small = rows(
            asof_join_auto(
                ray.data.from_arrow(left), ray.data.from_arrow(right),
                how=how, **kw,
            )
        )
        large = rows(
            asof_join_auto(
                ray.data.from_arrow(left), ray.data.from_arrow(right),
                how=how, broadcast_max_rows=0, num_buckets=4, **kw,
            )
        )
        assert small == large
    assert (None, dt.datetime(2024, 1, 3), None) in large  # LEFT keeps it
