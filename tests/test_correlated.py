"""Correlated subquery decorrelation (round 5): [NOT] EXISTS → semi/anti
semi-join; scalar-aggregate comparisons → per-key aggregate + LEFT join +
filter. Each case runs the SAME SQL through run_sql and DuckDB."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from sqlgrep_ray.sqlfront import SqlError, parse_query


def _tables():
    rng = np.random.default_rng(3)
    orders = pa.table(
        {
            "o_id": pa.array(range(300), pa.int64()),
            "cust": pa.array(rng.integers(0, 40, 300).astype("int64")),
            "amount": pa.array(rng.integers(1, 500, 300).astype("int64")),
        }
    )
    # ord drawn past the order range so some orders have NO items
    items = pa.table(
        {
            "ord": pa.array(rng.integers(0, 330, 900).astype("int64")),
            "qty": pa.array(rng.integers(1, 9, 900).astype("int64")),
        }
    )
    cust = pa.table(
        {
            "c_id": pa.array(range(40), pa.int64()),
            "vip": pa.array((rng.random(40) < 0.3)),
        }
    )
    return orders, items, cust


def _run_both(sql, ray_session):
    import ray.data

    from sqlgrep_ray.api import run_sql

    orders, items, cust = _tables()
    src = {
        "orders": ray.data.from_arrow(orders),
        "items": ray.data.from_arrow(items),
        "cust": ray.data.from_arrow(cust),
    }
    got = (
        run_sql(sql, src)
        .to_pandas()
        .sort_values("o_id")
        .reset_index(drop=True)
        .astype("int64")
    )
    want = (
        duckdb.sql(sql).df().sort_values("o_id").reset_index(drop=True)
        .astype("int64")
    )
    assert got.equals(want), (len(got), len(want), sql)
    return len(got)


CASES = [
    # correlated EXISTS (inner filter + outer conjunct), either = order
    "SELECT o_id, amount FROM orders WHERE EXISTS (SELECT 1 FROM cust "
    "WHERE cust.c_id = orders.cust AND cust.vip = true) AND amount > 100",
    "SELECT o_id FROM orders WHERE NOT EXISTS (SELECT 1 FROM cust "
    "WHERE orders.cust = cust.c_id AND cust.vip = true)",
    # correlated scalar aggregates: sub on right / left, COUNT-empty=0
    "SELECT o_id FROM orders WHERE (SELECT SUM(qty) FROM items "
    "WHERE items.ord = orders.o_id) >= 20",
    "SELECT o_id FROM orders WHERE (SELECT COUNT(qty) FROM items "
    "WHERE items.ord = orders.o_id) = 0",
    "SELECT o_id, amount FROM orders WHERE amount > "
    "(SELECT AVG(qty * 1.0) * 50 FROM items WHERE items.ord = orders.o_id)",
    "SELECT o_id FROM orders WHERE (SELECT MAX(qty) FROM items "
    "WHERE items.ord = orders.o_id AND qty > 2) = 8",
]


@pytest.mark.parametrize("sql", CASES)
def test_correlated_vs_duckdb(ray_session, sql):
    assert _run_both(sql, ray_session) >= 0


def test_correlated_scalar_shuffle_path(ray_session, monkeypatch):
    """Above the broadcast gate the LEFT join shuffles both sides —
    same results (COUNT-empty=0 included)."""
    import sqlgrep_ray.api as api

    monkeypatch.setattr(api, "_CORR_BROADCAST_MAX", 0)
    for sql in (CASES[2], CASES[3]):
        _run_both(sql, ray_session)


def test_uncorrelated_paths_untouched(ray_session):
    """Uncorrelated EXISTS / scalar subqueries keep the evaluate-once
    literal path."""
    _run_both(
        "SELECT o_id FROM orders WHERE EXISTS (SELECT 1 FROM cust "
        "WHERE vip = true) AND amount > 490",
        ray_session,
    )
    _run_both(
        "SELECT o_id FROM orders WHERE amount > "
        "(SELECT AVG(amount) FROM orders) + 170",
        ray_session,
    )


def test_correlated_exists_composite_key(ray_session):
    """Multi-equality EXISTS correlates on a composite key: both sides
    collapse to one null-safe derived key column through the same bloom
    semi/anti path."""
    _run_both(
        "SELECT o_id FROM orders WHERE EXISTS (SELECT 1 FROM items "
        "WHERE items.ord = orders.o_id AND items.qty = orders.cust)",
        ray_session,
    )
    _run_both(
        "SELECT o_id FROM orders WHERE NOT EXISTS (SELECT 1 FROM items "
        "WHERE orders.o_id = items.ord AND items.qty = orders.cust)",
        ray_session,
    )


def test_correlated_error_shapes():
    """Unsupported correlated shapes raise clear SqlErrors instead of
    mis-evaluating."""
    with pytest.raises(SqlError, match="one correlation equality"):
        parse_query(
            "SELECT o_id FROM orders WHERE EXISTS (SELECT 1 FROM items "
            "WHERE items.ord = orders.o_id AND items.ord = orders.amount)"
        )
    with pytest.raises(SqlError, match="single aggregate|ONE aggregate"):
        parse_query(
            "SELECT o_id FROM orders WHERE 1 = (SELECT qty FROM items "
            "WHERE items.ord = orders.o_id)"
        )
    with pytest.raises(SqlError, match="outer references"):
        parse_query(
            "SELECT o_id FROM orders WHERE EXISTS (SELECT 1 FROM items "
            "WHERE items.ord = orders.o_id AND items.qty > orders.amount)"
        )


def test_correlated_through_tables_text_path(ray_session):
    """Correlated subqueries and APPROX_COUNT_DISTINCT also work on the
    raw-text Tables surface (the reference's CLI path): the subquery's
    FROM resolves to another defined table parsed from the same lines."""
    from sqlgrep_ray import Tables

    t = Tables()
    t.add_tables(
        r"""
CREATE TABLE kv(line = '(\\w+)=(\\d+)', line[1] => k TEXT, line[2] => v INT);
CREATE TABLE flags(line = 'flag:(\\w+)', line[1] => fk TEXT);
"""
    )
    lines = ["a=1", "b=2", "c=3", "a=9", "flag:a", "flag:c"]
    rows = t.execute_query_rows(
        "SELECT k, v FROM kv WHERE EXISTS "
        "(SELECT 1 FROM flags WHERE flags.fk = kv.k)",
        source=lines,
    )
    assert sorted((r["k"], r["v"]) for r in rows) == [
        ("a", 1), ("a", 9), ("c", 3),
    ]
    rows = t.execute_query_rows(
        "SELECT k FROM kv WHERE (SELECT COUNT(fk) FROM flags "
        "WHERE flags.fk = kv.k) = 0",
        source=lines,
    )
    assert sorted(r["k"] for r in rows) == ["b"]
    rows = t.execute_query_rows(
        "SELECT k, APPROX_COUNT_DISTINCT(v) AS nd FROM kv GROUP BY k",
        source=lines,
    )
    assert sorted((r["k"], r["nd"]) for r in rows) == [
        ("a", 2), ("b", 1), ("c", 1),
    ]


def test_quantified_comparisons(ray_session):
    """x <op> ANY/ALL/SOME (SELECT …) (round-5): all seven operator
    shapes vs DuckDB; MIN/MAX bounds evaluate ONCE; = ANY/!= ALL ride
    the exact IN-subquery path; empty-set ALL documents the NULL⇒false
    divergence (engine false, SQL true)."""
    import duckdb
    import pyarrow as pa
    import ray.data

    from sqlgrep_ray.api import run_sql

    lt = pa.table({"x": [1, 3, 5, 7, 9]})
    rt = pa.table({"v": [3, 5, 6]})
    src = {"l": ray.data.from_arrow(lt), "r": ray.data.from_arrow(rt)}
    con = duckdb.connect()
    con.register("l", lt)
    con.register("r", rt)
    for q in [
        "SELECT x FROM l WHERE x > ALL (SELECT v FROM r)",
        "SELECT x FROM l WHERE x < ALL (SELECT v FROM r)",
        "SELECT x FROM l WHERE x >= ANY (SELECT v FROM r)",
        "SELECT x FROM l WHERE x < SOME (SELECT v FROM r)",
        "SELECT x FROM l WHERE x = ANY (SELECT v FROM r)",
        "SELECT x FROM l WHERE x != ALL (SELECT v FROM r)",
        "SELECT x FROM l WHERE x != ANY (SELECT v FROM r)",
        "SELECT x FROM l WHERE x = ALL (SELECT v FROM r WHERE v = 5)",
    ]:
        got = sorted(r["x"] for r in run_sql(q, src).take_all())
        exp = sorted(r[0] for r in con.execute(q).fetchall())
        assert got == exp, (q, got, exp)
    con.close()

    # documented divergence: empty-set ALL is FALSE here (SQL: TRUE)
    empty_all = run_sql(
        "SELECT x FROM l WHERE x > ALL (SELECT v FROM r WHERE v > 100)",
        src,
    ).take_all()
    assert empty_all == []

    # unsupported subquery shapes error clearly
    with pytest.raises(SqlError, match="single-column"):
        parse_query("SELECT x FROM l WHERE x > ALL (SELECT v, v FROM r)")


NULL_KEY_CASES = [
    # a NULL outer key equals no key: the subquery's NULL group must not
    # join it
    "SELECT k, v FROM t WHERE v > (SELECT AVG(v) FROM u WHERE u.k = t.k)",
    # aliased outer and inner tables over the same source
    "SELECT k, v FROM t t1 WHERE v > "
    "(SELECT AVG(v) FROM t t2 WHERE t2.k = t1.k)",
]


@pytest.mark.parametrize("broadcast_max", [2_000_000, 0])
@pytest.mark.parametrize("sql", NULL_KEY_CASES)
def test_correlated_scalar_null_key_and_alias(
    ray_session, monkeypatch, sql, broadcast_max
):
    """Both the broadcast and the key-bucketed LEFT join (forced with
    ``_CORR_BROADCAST_MAX = 0``) answer as DuckDB does."""
    import ray.data

    import sqlgrep_ray.api as api
    from sqlgrep_ray.api import run_sql

    monkeypatch.setattr(api, "_CORR_BROADCAST_MAX", broadcast_max)
    t = pa.table({"k": ["a", "a", None, None, "b"], "v": [1, 5, 2, 8, 3]})
    u = t  # noqa: F841  (read by DuckDB)
    src = {"t": ray.data.from_arrow(t), "u": ray.data.from_arrow(t)}
    got = sorted(
        ((r["k"], r["v"]) for r in run_sql(sql, src).take_all()), key=repr
    )
    want = sorted(duckdb.sql(sql).fetchall(), key=repr)
    assert got == want == [("a", 5)]
