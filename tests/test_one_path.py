"""Raw-text ``Tables`` queries and ``run_sql`` share one binder, one
join-side materializer and one statement dispatcher: shapes that once
took a different route per front door give the same answers, plus the
fixes that ride on that path (zero-column Parquet scan, self-join
pruning, IS NULL on list columns)."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sqlgrep_ray import Tables

AB_DEF = r"""
CREATE TABLE a(line = 'k=(\\w+) x=([0-9]+)', line[1] => k TEXT, line[2] => x INT);
CREATE TABLE b(line = 'k=(\\w+) y=([0-9]+)', line[1] => k TEXT, line[2] => y INT);
"""
A_LINES = ["k=p x=1", "k=q x=2", "k=r x=3"]
B_LINES = ["k=p y=10", "k=q y=20"]


@pytest.fixture(scope="module")
def ab_tables():
    t = Tables()
    t.add_tables(AB_DEF)
    return t


def test_join_file_with_in_subquery(ray_session, ab_tables, tmp_path):
    right = tmp_path / "right.log"
    right.write_text("\n".join(B_LINES) + "\n")
    rows = ab_tables.execute_query_rows(
        f"SELECT a.k, b.y FROM a JOIN b::'{right}' ON a.k = b.k "
        "WHERE a.x IN (SELECT x FROM a WHERE x < 3)",
        source=A_LINES,
    )
    assert sorted((r["a.k"], r["b.y"]) for r in rows) == [("p", 10), ("q", 20)]


def test_input_in_where_only(ray_session, ab_tables):
    rows = ab_tables.execute_query_rows(
        "SELECT x FROM a WHERE input LIKE '%q%'", source=A_LINES
    )
    assert rows == [{"x": 2}]


def test_input_with_in_subquery(ray_session, ab_tables):
    rows = ab_tables.execute_query_rows(
        "SELECT input FROM a WHERE x IN (SELECT x FROM a WHERE x = 2)",
        source=A_LINES,
    )
    assert rows == [{"input": "k=q x=2"}]


def test_tabledef_join_binds_without_execution(ray_session, ab_tables, monkeypatch):
    """Catalog column names bind a TableDef join: no Dataset.schema()
    (one Ray execution per call) while the query is bound."""
    import ray.data

    calls = []

    def no_schema(self, *args, **kwargs):
        calls.append(args)
        raise AssertionError("Dataset.schema() called at bind time")

    monkeypatch.setattr(ray.data.Dataset, "schema", no_schema)
    ds = ab_tables.execute_query(
        "SELECT a.k, y, b2.y AS y2 FROM a JOIN b ON a.k = b.k "
        "JOIN b b2 ON a.k = b2.k",
        source=A_LINES,
        join_source=B_LINES,
    )
    monkeypatch.undo()
    assert calls == []
    assert sorted((r["a.k"], r["y"], r["y2"]) for r in ds.take_all()) == [
        ("p", 10, 10),
        ("q", 20, 20),
    ]


@pytest.fixture(scope="module")
def emp_path(tmp_path_factory):
    p = str(tmp_path_factory.mktemp("emp") / "emp.parquet")
    pq.write_table(
        pa.table(
            {
                "id": [1, 2, 3],
                "name": ["ann", "bob", "cid"],
                "dept": ["eng", "ops", "eng"],
                "boss": [None, 1, 1],
            }
        ),
        p,
    )
    return p


def test_count_star_over_parquet_path(ray_session, emp_path):
    from sqlgrep_ray.api import run_sql

    rows = run_sql("SELECT COUNT(*) AS n FROM emp", {"emp": emp_path}).take_all()
    assert rows == [{"n": 3}]


def test_self_join_aliases_keep_their_columns(ray_session, emp_path):
    from sqlgrep_ray.api import run_sql

    sql = (
        "SELECT e.name, m.dept FROM emp e JOIN emp m ON e.boss = m.id "
        "JOIN emp m2 ON e.id = m2.id"
    )
    got = sorted(
        tuple(r.values()) for r in run_sql(sql, {"emp": emp_path}).take_all()
    )
    want = sorted(
        duckdb.sql(sql.replace("FROM emp e", f"FROM '{emp_path}' e")
                   .replace("JOIN emp", f"JOIN '{emp_path}'")).fetchall()
    )
    assert got == want == [("bob", "eng"), ("cid", "eng")]


def test_is_null_on_list_column(ray_session):
    t = Tables()
    t.add_tables("CREATE TABLE c({ .id } => id INT, { .events } => events TEXT[]);")
    lines = ['{"id": 1, "events": ["a", "b"]}', '{"id": 2}', '{"id": 3, "events": []}']
    not_null = t.execute_query_rows(
        "SELECT id FROM c WHERE events IS NOT NULL ORDER BY id", source=lines
    )
    is_null = t.execute_query_rows(
        "SELECT id FROM c WHERE events IS NULL", source=lines
    )
    assert [r["id"] for r in not_null] == [1, 3]
    assert [r["id"] for r in is_null] == [2]
