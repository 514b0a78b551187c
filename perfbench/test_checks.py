"""Each correctness check rejects a perturbed result.

Run with ``python3 -m pytest perfbench -q``; no Ray session is needed.
"""

from __future__ import annotations

import copy
import os
import sys

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# flagship_batch: routed rows against the generator's truth
# ---------------------------------------------------------------------------


def _write_routed(out: str, truth: pa.Table) -> None:
    """What a correct pipeline writes: admitted rows, partitioned by
    (shard, sink)."""
    rows = truth.filter(truth["sink"].is_valid())
    rows = rows.append_column("shard", pa.array(["part-0000"] * rows.num_rows))
    pads.write_dataset(rows, out, format="parquet", partitioning=["shard", "sink"],
                       partitioning_flavor="hive")


def _counts(truth: pa.Table) -> dict:
    """The three aggregates, as the engine would return them."""
    from collections import Counter

    rows = [r for r in truth.to_pylist() if r["sink"] is not None]
    hours: dict = {}
    for r in rows:
        if r["hour"] is not None:
            hours.setdefault(r["hour"], []).append(r["minute"])
    return {
        "sink_counts": [{"sink": s, "n": n} for s, n in Counter(r["sink"] for r in rows).items()],
        "sink_role_counts": [{"sink": s, "role": ro, "n": n} for (s, ro), n in
                             Counter((r["sink"], r["role"]) for r in rows).items()],
        "hour_histogram": [{"hour": h, "n": len(m), "max_minute": max(m)}
                           for h, m in hours.items()],
    }


@pytest.fixture
def flagship_case(tmp_path):
    _table, truth = gen.transcript_tables(seed=3, n_turns=600)
    truth_path = str(tmp_path / "truth.parquet")
    pq.write_table(truth, truth_path)
    return tmp_path, truth, truth_path


def test_flagship_accepts_the_truth(flagship_case):
    tmp, truth, truth_path = flagship_case
    _write_routed(str(tmp / "out"), truth)
    assert oracles.check_flagship(str(tmp / "out"), truth_path, _counts(truth)) == {}


@pytest.mark.parametrize("column, value", [("sink", "ssh"), ("hour", 99), ("tool_cost", None),
                                           ("events", ["forged"])])
def test_flagship_rejects_a_wrong_field(flagship_case, column, value):
    tmp, truth, truth_path = flagship_case
    rows = truth.to_pylist()
    i = next(k for k, r in enumerate(rows)
             if r["sink"] == ("clients" if column == "events" else "ftpd")
             and r[column] != value)
    rows[i][column] = value
    _write_routed(str(tmp / "out"), pa.Table.from_pylist(rows, schema=truth.schema))
    assert "checkpointed_run" in oracles.check_flagship(str(tmp / "out"), truth_path, {})


def test_flagship_rejects_a_missing_and_a_noise_row(flagship_case):
    tmp, truth, truth_path = flagship_case
    _write_routed(str(tmp / "a"), truth.slice(1))
    assert "checkpointed_run" in oracles.check_flagship(str(tmp / "a"), truth_path, {})
    noisy = truth.to_pylist()
    k = next(i for i, r in enumerate(noisy) if r["sink"] is None)
    noisy[k]["sink"] = "csv"  # a noise turn the router should have dropped
    _write_routed(str(tmp / "b"), pa.Table.from_pylist(noisy, schema=truth.schema))
    assert "checkpointed_run" in oracles.check_flagship(str(tmp / "b"), truth_path, {})


@pytest.mark.parametrize("agg", ["sink_counts", "sink_role_counts", "hour_histogram"])
def test_flagship_rejects_a_wrong_aggregate(flagship_case, agg):
    tmp, truth, truth_path = flagship_case
    _write_routed(str(tmp / "out"), truth)
    aggs = _counts(truth)
    aggs[agg][0]["n"] += 1
    assert list(oracles.check_flagship(str(tmp / "out"), truth_path, aggs)) == [agg]


# ---------------------------------------------------------------------------
# sql_analytics: DuckDB, multiset equality with a float tolerance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sql_case(tmp_path_factory):
    d = tmp_path_factory.mktemp("star")
    gen.write_star(str(d), seed=5, n_lineitem=4000)
    fixed = tmp_path_factory.mktemp("fixed")
    gen.write_fixed(str(fixed))
    paths = workloads.star_paths(str(d), str(fixed))
    return oracles.sql_expected(workloads.SQL_QUERIES, paths)


def test_sql_oracle_matches_itself_in_any_row_order(sql_case):
    for name, rows in sql_case.items():
        ordered = name in workloads.ORDERED
        got = rows if ordered else list(reversed(rows))
        assert oracles.compare_rows(got, rows, ordered) == [], name
    assert sql_case["q_count_star"] == [{"n": 100}]


@pytest.mark.parametrize("name", [n for n, _ in workloads.SQL_QUERIES])
def test_sql_rejects_a_perturbed_result(sql_case, name):
    want = sql_case[name]
    ordered = name in workloads.ORDERED
    assert oracles.compare_rows(want[1:], want, ordered)  # a row lost
    got = copy.deepcopy(want)
    key, v = next((k, v) for k, v in got[0].items() if isinstance(v, (int, float)))
    got[0][key] = v * 1.001 + 1  # beyond the float tolerance
    assert oracles.compare_rows(got, want, ordered)


def test_sql_tolerates_float_rounding_only():
    want = [{"k": 1, "s": 1234.5678}]
    assert oracles.compare_rows([{"k": 1, "s": 1234.5678 * (1 + 1e-12)}], want, False) == []
    assert oracles.compare_rows([{"k": 1, "s": 1234.57}], want, False)
    assert oracles.compare_rows([{"k": 1, "t": 1234.5678}], want, False)  # renamed column


def test_ordered_results_must_keep_their_order(sql_case):
    want = sql_case["q_topn"]
    assert oracles.compare_rows(list(reversed(want)), want, ordered=True)


# ---------------------------------------------------------------------------
# logsql_interactive: plain-Python re/json evaluation of the same lines
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def log_case(tmp_path_factory):
    d = tmp_path_factory.mktemp("log")
    gen.write_rawlog(str(d), seed=9, n_lines=3000)
    fixed = tmp_path_factory.mktemp("fixed")
    gen.write_fixed(str(fixed))
    return oracles.log_expected({"app": str(d / "app.log"), "users": str(d / "users.log"),
                                 "fixed": str(fixed / "fixed_clients.log")})


def test_log_oracle_reads_each_shape():
    line = ("Jun 07 01:02:03 combo ftpd[1]: connection from 1.2.3.4 () at Mon Jun 07 "
            "01:02:03 2005")
    assert list(oracles.conns([line]))[0]["hostname"] is None
    assert list(oracles.ssh(["x rhost=a.b  user=root"])) == [
        {"hostname": "a.b", "username": "root"}]
    row = next(oracles.clients(['{"timestamp": 5, "metadata": {"device_id": "7"}}']))
    assert row["device_id"] == 7 and row["events"] is None
    assert list(oracles.splits(["1.2.3.4;h;2005;Jun;x;1;2;3"])) == []  # NOT NULL day


@pytest.mark.parametrize("name", [q[0] for q in workloads.LOG_QUERIES])
def test_log_rejects_a_perturbed_result(log_case, name):
    want = log_case[name]
    assert want, f"{name} has no rows to perturb"
    ordered = name in workloads.ORDERED
    assert oracles.check_lines(want[:-1], want, ordered)
    assert oracles.check_lines([want[0] + "x"] + want[1:], want, ordered)


def test_log_order_matters_only_with_order_by(log_case):
    want = log_case["clients_limit"]
    assert oracles.check_lines(list(reversed(want)), want, ordered=True)
    assert oracles.check_lines(list(reversed(want)), want, ordered=False) == []


# ---------------------------------------------------------------------------
# run.judge: failures, known faults and determinism
# ---------------------------------------------------------------------------


def _res(ops_per_round: list[list[tuple]], digests=None) -> dict:
    rounds = [{"wall": 1.0, "ops": [{"name": n, "s": 0.1, "error": e} for n, e in ops]}
              for ops in ops_per_round]
    return {"rounds": rounds,
            "digests": digests or [{n: "d" for n, e in ops if e is None} for ops in ops_per_round],
            "results": {}}


def test_judge_counts_known_faults_as_failed(monkeypatch):
    monkeypatch.setattr(run, "expected_and_check", lambda *a: {"q_count_star": ["0 rows"]})
    res = _res([[("q_agg_lowcard", None), ("q_count_star", None)]] * 3)
    assert run.judge("sql_analytics", {}, res)[:3] == (True, 6, 3)


def test_judge_marks_other_wrong_answers_incorrect(monkeypatch):
    monkeypatch.setattr(run, "expected_and_check", lambda *a: {"q_topn": ["row 0"]})
    res = _res([[("q_topn", None)]])
    assert run.judge("sql_analytics", {}, res)[0] is False


def test_judge_marks_round_to_round_differences_incorrect(monkeypatch):
    monkeypatch.setattr(run, "expected_and_check", lambda *a: {})
    res = _res([[("q_topn", None)]] * 2, digests=[{"q_topn": "a"}, {"q_topn": "b"}])
    assert run.judge("sql_analytics", {}, res)[0] is False


def test_judge_counts_raised_errors_as_failed(monkeypatch):
    monkeypatch.setattr(run, "expected_and_check", lambda *a: {})
    res = _res([[("events_not_null", "ArrowNotImplementedError"), ("ssh_join", None)]] * 2)
    assert run.judge("logsql_interactive", {}, res)[:3] == (True, 4, 2)


# ---------------------------------------------------------------------------
# spans: self times and the ds.stats() breakdown
# ---------------------------------------------------------------------------

STATS = """Operator 1 ReadParquet->MapBatches(f): 2 tasks executed, 2 blocks produced in 0.09s
* Remote wall time: 2.25ms min, 29.9ms max, 16.08ms mean, 32.15ms total
* UDF time: 48.79us min, 304.07us max, 176.43us mean, 2ms total

Operator 2 MapBatches(g): 1 tasks executed, 1 blocks produced in 0.05s
* Remote wall time: 40ms min, 40ms max, 40ms mean, 40ms total
* UDF time: 30ms min, 30ms max, 30ms mean, 30ms total

Operator 3 Aggregate: executed in 3.77s

	Suboperator 0 AggregateMap: 1 tasks executed, 2 blocks produced
	* Remote wall time: 339.39ms min, 389.16ms max, 364.27ms mean, 728.55ms total

	Suboperator 1 AggregateReduce: 1 tasks executed, 2 blocks produced
	* Remote wall time: 349.88ms min, 402.29ms max, 376.09ms mean, 752.17ms total

Dataset iterator time breakdown:
    * Total time user thread is blocked by Ray Data iter_batches: 12.53ms
"""


def test_stats_breakdown_splits_scan_map_exchange_and_blocked():
    import spans

    got = spans.stats_breakdown(STATS)
    assert got["scan"] == pytest.approx(0.03215 - 0.002)
    assert got["map"] == pytest.approx(0.002 + 0.040)
    assert got["exchange"] == pytest.approx(0.72855 + 0.75217)
    assert got["iter_blocked"] == pytest.approx(0.01253)


def test_self_time_subtracts_children():
    import spans

    tr = spans.Tracer("t")
    with tr.span("op"):
        with tr.span("child"):
            pass
    tr.spans[0].update(start=0.0, end=1.0)
    tr.spans[1].update(start=0.2, end=0.5)
    assert tr.self_times() == pytest.approx([0.7, 0.3])
    assert tr.spans[1]["parent"] == 0 and tr.spans[0]["run_id"] == "t"


# ---------------------------------------------------------------------------
# run.TreeCpu: CPU time of a process tree, ended descendants included
# ---------------------------------------------------------------------------


def test_tree_cpu_keeps_descendants_that_ended():
    import subprocess
    import time

    # a grandchild spins for 0.4 s of CPU and ends while its parent sleeps
    spin = "import time; t = time.process_time() + 0.4\nwhile time.process_time() < t: pass"
    proc = subprocess.Popen(["sh", "-c", f'{sys.executable} -c "{spin}"; sleep 0.5'])
    cpu = run.TreeCpu(proc.pid)
    t0 = time.monotonic()
    while proc.poll() is None:
        cpu.sample()
        time.sleep(0.02)
    assert cpu.between(t0, time.monotonic()) >= 0.35
