"""Second-layer semantics parity: intervals, NULL group keys, both aggregate
paths, remaining aggregates."""

import datetime as dt

import numpy as np
import pyarrow as pa
import pytest

from sqlgrep_ray.functions.exprs import (
    Bin,
    Cast,
    Col,
    Func,
    Lit,
    compile_expr,
)
from sqlgrep_ray.pipelines.plan import (
    AggItem,
    AggregatePlan,
    GroupKey,
    Projection,
    SelectPlan,
)
from sqlgrep_ray.pipelines.runner import run_plan
from sqlgrep_ray.schema import FLOAT, INT, INTERVAL, STRING


def _eval(expr, table):
    v = compile_expr(expr)(table)
    if isinstance(v, pa.Scalar):
        return v.as_py()
    return v.to_pylist() if hasattr(v, "to_pylist") else v


def test_timestamp_plus_interval():
    t = pa.table(
        {
            "ts": pa.array([dt.datetime(2020, 1, 1, 0, 0, 0)], pa.timestamp("us")),
            "iv": pa.array([dt.timedelta(hours=2)], pa.duration("us")),
        }
    )
    out = _eval(Bin("add", Col("ts"), Col("iv")), t)
    assert out == [dt.datetime(2020, 1, 1, 2, 0, 0)]
    out = _eval(Bin("sub", Col("ts"), Col("iv")), t)
    assert out == [dt.datetime(2019, 12, 31, 22, 0, 0)]


def test_interval_plus_interval_and_abs():
    t = pa.table(
        {
            "a": pa.array([dt.timedelta(minutes=5)], pa.duration("us")),
            "b": pa.array([dt.timedelta(minutes=-3)], pa.duration("us")),
        }
    )
    assert _eval(Bin("add", Col("a"), Col("b")), t) == [dt.timedelta(minutes=2)]
    assert _eval(Func("abs", (Col("b"),)), t) == [dt.timedelta(minutes=3)]
    assert _eval(Func("greatest", (Col("a"), Col("b"))), t) == [
        dt.timedelta(minutes=5)
    ]


def test_interval_cast_to_int_seconds():
    """x::int on interval = whole seconds; ::real = fractional seconds
    (expression_execution.rs:533-559)."""
    t = pa.table(
        {
            "iv": pa.array(
                [dt.timedelta(seconds=90, milliseconds=500)], pa.duration("us")
            )
        }
    )
    assert _eval(Cast(Col("iv"), INT), t) == [90]
    assert _eval(Cast(Col("iv"), FLOAT), t) == [90.5]


def test_interval_cast_to_text_display_parity():
    """::text uses reference Display: HH:MM:SS.mmm (model.rs:345-351)."""
    t = pa.table(
        {
            "iv": pa.array(
                [dt.timedelta(hours=1, minutes=2, seconds=3, milliseconds=45)],
                pa.duration("us"),
            )
        }
    )
    assert _eval(Cast(Col("iv"), STRING), t) == ["01:02:03.045"]


def _null_key_table():
    return pa.table(
        {
            "k": pa.array(["b", None, "a", None, "b", "a", None]),
            "v": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        }
    )


@pytest.mark.parametrize("small", [True, False])
def test_null_group_keys_both_paths(ray_session, small):
    """NULL is a valid group key and sorts FIRST (SURVEY §2.6)."""
    import ray.data

    ds = ray.data.from_arrow(_null_key_table()).repartition(3)
    plan = AggregatePlan(
        group_by=(GroupKey("k", Col("k")),),
        aggs=(AggItem("n", "count_star"), AggItem("s", "sum", Col("v"))),
        small_result=small,
    )
    rows = run_plan(ds, plan).take_all()
    assert rows == [
        {"k": None, "n": 3, "s": 13},
        {"k": "a", "n": 2, "s": 9},
        {"k": "b", "n": 2, "s": 6},
    ]


def test_null_group_key_holistic_path(ray_session):
    import ray.data

    ds = ray.data.from_arrow(_null_key_table()).repartition(3)
    plan = AggregatePlan(
        group_by=(GroupKey("k", Col("k")),),
        aggs=(AggItem("vals", "array_agg", Col("v")),),
    )
    rows = run_plan(ds, plan).take_all()
    assert [r["k"] for r in rows] == [None, "a", "b"]  # null first
    assert rows[0]["vals"] == [2, 4, 7]
    assert rows[1]["vals"] == [3, 6]


def test_distinct_with_nulls(ray_session):
    import ray.data

    t = pa.table({"a": ["x", None, "x", None], "b": [1, 2, 1, 2]})
    ds = ray.data.from_arrow(t).repartition(2)
    rows = run_plan(
        ds, SelectPlan(projections=None, distinct=True)
    ).take_all()
    key = sorted(((r["a"] or "", r["b"]) for r in rows))
    assert key == [("", 2), ("x", 1)]


def test_bool_and_or_aggregates(ray_session):
    import ray.data

    t = pa.table(
        {
            "k": ["a", "a", "b", "b"],
            "f": pa.array([True, False, True, True]),
        }
    )
    plan = AggregatePlan(
        group_by=(GroupKey("k", Col("k")),),
        aggs=(
            AggItem("ba", "bool_and", Col("f")),
            AggItem("bo", "bool_or", Col("f")),
        ),
    )
    rows = run_plan(ray.data.from_arrow(t).repartition(2), plan).take_all()
    assert rows == [
        {"k": "a", "ba": False, "bo": True},
        {"k": "b", "ba": True, "bo": True},
    ]


def test_stddev_population_formula(ray_session):
    import ray.data

    vals = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    t = pa.table({"k": ["g"] * len(vals), "v": pa.array(vals)})
    plan = AggregatePlan(
        group_by=(GroupKey("k", Col("k")),),
        aggs=(
            AggItem("sd", "stddev", Col("v")),
            AggItem("var", "variance", Col("v")),
        ),
    )
    rows = run_plan(ray.data.from_arrow(t).repartition(3), plan).take_all()
    assert rows[0]["sd"] == pytest.approx(2.0)  # classic population example
    assert rows[0]["var"] == pytest.approx(4.0)


def test_string_agg_delimiter(ray_session):
    import ray.data

    t = pa.table({"k": ["a", "a", "b"], "s": ["z", "y", "x"]})
    plan = AggregatePlan(
        group_by=(GroupKey("k", Col("k")),),
        aggs=(AggItem("j", "string_agg", Col("s"), extra="|"),),
    )
    rows = run_plan(ray.data.from_arrow(t), plan).take_all()
    assert rows == [{"k": "a", "j": "y|z"}, {"k": "b", "j": "x"}]


def test_small_vs_distributed_equivalence(ray_session):
    """The two associative aggregate paths must agree exactly."""
    import ray.data

    rng = np.random.RandomState(5)
    t = pa.table(
        {
            "k": pa.array(rng.choice(["p", "q", "r"], 500)),
            "v": pa.array(rng.randint(0, 100, 500).astype(np.int64)),
        }
    )
    aggs = (
        AggItem("n", "count_star"),
        AggItem("s", "sum", Col("v")),
        AggItem("mn", "min", Col("v")),
        AggItem("mx", "max", Col("v")),
        AggItem("avg", "avg", Col("v")),
    )
    rows_small = run_plan(
        ray.data.from_arrow(t).repartition(5),
        AggregatePlan(group_by=(GroupKey("k", Col("k")),), aggs=aggs),
    ).take_all()
    rows_dist = run_plan(
        ray.data.from_arrow(t).repartition(5),
        AggregatePlan(
            group_by=(GroupKey("k", Col("k")),), aggs=aggs, small_result=False
        ),
    ).take_all()
    assert rows_small == rows_dist


def test_select_preserves_input_order_with_option(ray_session):
    """Reference select output follows input line order (executor.rs:79-104);
    Ray matches it under the preserve_order execution option (SURVEY §7.5)."""
    import ray.data
    from ray.data import DataContext

    ctx = DataContext.get_current()
    prev = ctx.execution_options.preserve_order
    ctx.execution_options.preserve_order = True
    try:
        t = pa.table({"i": pa.array(range(1000), pa.int64())})
        ds = ray.data.from_arrow(t).repartition(8)
        out = run_plan(
            ds,
            SelectPlan(
                projections=(Projection("i", Col("i")),),
                where=Bin("ge", Col("i"), Lit(0)),
            ),
        ).take_all()
        assert [r["i"] for r in out] == list(range(1000))
    finally:
        ctx.execution_options.preserve_order = prev


def test_auto_merge_path_selection(ray_session, monkeypatch):
    """plan.small_result=None picks the merge path from the partial-row
    count: with the bound forced to 1 the bucketed merge engages and
    produces the same result as the driver merge."""
    import ray.data
    import pyarrow as pa

    from sqlgrep_ray.functions.exprs import Col
    from sqlgrep_ray.stages import exchange
    from sqlgrep_ray.pipelines.plan import AggItem, AggregatePlan, GroupKey
    from sqlgrep_ray.pipelines.runner import run_plan

    t = pa.table(
        {
            "k": pa.array([i % 50 for i in range(2000)], pa.int64()),
            "v": pa.array(list(range(2000)), pa.int64()),
        }
    )
    plan = AggregatePlan(
        group_by=(GroupKey("k", Col("k")),),
        aggs=(AggItem("n", "count_star"), AggItem("s", "sum", Col("v"))),
    )
    assert plan.small_result is None  # auto is the default
    ds = ray.data.from_arrow(t).repartition(8)
    small = run_plan(ds, plan).to_pandas()

    monkeypatch.setattr(exchange, "SMALL_MERGE_MAX_PARTIAL_ROWS", 1)
    dist = run_plan(ray.data.from_arrow(t).repartition(8), plan).to_pandas()
    assert small.equals(dist)
    assert len(small) == 50


def test_count_distinct_two_stage_equals_holistic(ray_session, monkeypatch):
    """The skew-safe two-stage COUNT(DISTINCT) path must agree with the
    holistic whole-group path on NULL keys, NULL values, mixed associative
    aggregates and the global (no-key) shape."""
    import ray.data
    import pyarrow as pa

    from sqlgrep_ray.functions.exprs import Col
    from sqlgrep_ray.pipelines import runner
    from sqlgrep_ray.pipelines.plan import AggItem, AggregatePlan, GroupKey
    from sqlgrep_ray.pipelines.runner import run_plan

    t = pa.table(
        {
            "k": pa.array(["a", "b", None, "a", "b", "a", None, "b"]),
            "u": pa.array([1, 2, 2, 1, None, 3, 2, 2], pa.int64()),
            "v": pa.array([10, 20, 30, 40, 50, 60, 70, 80], pa.int64()),
        }
    )
    plan = AggregatePlan(
        group_by=(GroupKey("k", Col("k")),),
        aggs=(
            AggItem("users", "count_distinct", Col("u")),
            AggItem("n", "count_star"),
            AggItem("sv", "sum", Col("v")),
        ),
    )
    gplan = AggregatePlan(
        aggs=(AggItem("users", "count_distinct", Col("u")),),
    )
    assert runner._cd_two_stage_eligible(plan)
    two = run_plan(ray.data.from_arrow(t).repartition(4), plan).to_pandas()
    gtwo = run_plan(ray.data.from_arrow(t).repartition(4), gplan).to_pandas()

    monkeypatch.setattr(runner, "_cd_two_stage_eligible", lambda p: False)
    hol = run_plan(ray.data.from_arrow(t).repartition(4), plan).to_pandas()
    ghol = run_plan(ray.data.from_arrow(t).repartition(4), gplan).to_pandas()

    import pandas as pd

    norm = lambda df: df.sort_values(list(df.columns)[0]).reset_index(drop=True)[
        sorted(df.columns)
    ]
    pd.testing.assert_frame_equal(norm(two), norm(hol), check_dtype=False)
    pd.testing.assert_frame_equal(gtwo[sorted(gtwo.columns)], ghol[sorted(ghol.columns)], check_dtype=False)
    assert set(two.columns) == {"k", "users", "n", "sv"}


def test_count_distinct_two_stage_same_arg_pair(ray_session):
    """Two COUNT(DISTINCT) aggregates over the SAME expression (e.g. a
    HAVING hidden slot beside the projection) both ride one two-stage
    shuffle and agree with the holistic rule."""
    import ray.data
    import pyarrow as pa

    from sqlgrep_ray.functions.exprs import Bin, Col, Lit
    from sqlgrep_ray.pipelines import runner
    from sqlgrep_ray.pipelines.plan import AggItem, AggregatePlan, GroupKey
    from sqlgrep_ray.pipelines.runner import run_plan

    t = pa.table(
        {
            "k": pa.array(["a", "a", "b", "b", "b", "a"]),
            "u": pa.array([1, 1, 2, 3, None, 4], pa.int64()),
        }
    )
    plan = AggregatePlan(
        group_by=(GroupKey("k", Col("k")),),
        aggs=(
            AggItem("users", "count_distinct", Col("u")),
            AggItem("__having0", "count_distinct", Col("u")),
            AggItem("n", "count_star"),
        ),
        having=Bin("ge", Col("__having0"), Lit(2)),
    )
    assert runner._cd_two_stage_eligible(plan)
    out = run_plan(ray.data.from_arrow(t).repartition(3), plan).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert list(out["k"]) == ["a", "b"]
    assert list(out["users"]) == [2, 2]  # a: {1,4}; b: {2,3} (null ignored)
    assert list(out["n"]) == [3, 3]
    assert "__having0" not in out.columns  # hidden slot dropped after filter
