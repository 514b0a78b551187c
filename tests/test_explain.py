"""EXPLAIN renderer (explain.py): static plan + physical-strategy text,
no execution, honest about the runner's actual dispatch."""

from sqlgrep_ray.explain import explain_sql, fmt_expr
from sqlgrep_ray.sqlfront import parse_query


def test_explain_select_windows():
    txt = explain_sql(
        "SELECT event_id, SUM(user_id * 2) OVER (PARTITION BY k ORDER BY o "
        "RANGE BETWEEN 5 PRECEDING AND 2 FOLLOWING) AS s, "
        "SUM(v) OVER (ORDER BY ts) AS g FROM events WHERE v > 0"
    )
    assert "streaming filter" in txt
    assert "window input: __wv0" in txt
    assert "ONE bucket exchange" in txt
    # the window names the gate it takes, with its one bound
    from sqlgrep_ray.stages.exchange import SMALL_MERGE_MAX_PARTIAL_ROWS as b

    assert (
        f"one bucket in one task, no exchange, when the FROM path's Parquet "
        f"footers read ≤ {b:,} rows and {32 * b // 10**6} MB, else ONE bucket "
        f"exchange (Sort)"
    ) in txt
    assert "chunk-safe distributed ranged path" in txt
    assert "project:" in txt


def test_explain_aggregate_paths():
    # associative
    t1 = explain_sql("SELECT k, SUM(v) AS s FROM t GROUP BY k")
    assert "ASSOCIATIVE combiner-first" in t1
    # two-stage distinct
    t2 = explain_sql(
        "SELECT k, COUNT(DISTINCT v) AS c, SUM(DISTINCT v) AS s "
        "FROM t GROUP BY k"
    )
    assert "TWO-STAGE distinct" in t2
    # holistic
    t3 = explain_sql("SELECT k, PERCENTILE(v, 0.5) AS p FROM t GROUP BY k")
    assert "HOLISTIC map_groups" in t3


def test_explain_statement_shapes():
    txt = explain_sql(
        "WITH c AS (SELECT k FROM t WHERE k > 1) "
        "SELECT d.k AS k, s.n AS n FROM (SELECT k FROM t) d "
        "JOIN (SELECT k, COUNT(*) AS n FROM t GROUP BY k) s ON d.k = s.k "
        "CROSS JOIN c ORDER BY 1 LIMIT 3"
    )
    assert "CTE c:" in txt
    assert "derived table d:" in txt
    assert "broadcast build side" in txt
    assert "CROSS c" in txt and "cartesian" in txt
    assert "combiner-first top-n, merged in one task, no Repartition" in txt
    off = explain_sql("SELECT k FROM t LIMIT 3 OFFSET 2")
    assert "offset: merged in one task, no Repartition" in off
    u = explain_sql("SELECT k FROM a UNION ALL SELECT k FROM b")
    assert "UNION ALL over 2 members" in u
    sub = explain_sql(
        "SELECT k FROM t WHERE k IN (SELECT k FROM u WHERE k > 2)"
    )
    assert "SEMI-join" in sub and "bloom" in sub


def test_fmt_expr_roundtrip_shapes():
    q = parse_query(
        "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END AS c FROM t "
        "WHERE a NOT IN (1, 2) AND b IS NOT NULL"
    )
    w = fmt_expr(q.plan.where)
    assert "NOT IN (1, 2)" in w and "IS NOT" in w
    assert fmt_expr(q.plan.projections[0].expr).startswith("CASE WHEN")
