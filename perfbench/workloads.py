"""The three workloads, as run inside the Ray driver process.

A workload object has

* ``define()`` — table definitions, lookups, anything built once per session;
* ``warm()`` — one untimed round on small warm-up inputs, so that Ray's
  worker processes are up and every operation's code path has run once;
* ``ops(warm)`` — the operations of one round, ``(name, rows_read, fn)``; ``fn``
  takes a tracer (or ``None``) and returns a JSON-able result that the
  parent process checks against an independent computation;
* ``layer_stats(tracer)`` — workload-only layer figures for the trace file.

The queries are module constants so that the oracles in ``oracles.py`` and
the kernel rates in ``kernels.py`` run the very same SQL.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time
from contextlib import nullcontext

import pyarrow.parquet as pq

import gen
from spans import add_breakdown


def _span(tracer, name: str):
    return tracer.span(name) if tracer else nullcontext()


class Workload:
    """Defaults shared by the three workloads."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = {}  # ds.stats() seconds, traced rounds

    def define(self) -> None:
        pass

    def ops(self, warm: bool = False) -> list:
        raise NotImplementedError

    def warm(self) -> None:
        """Every operation of a round, once, on the small warm-up inputs;
        failures of known-fault operations are expected here."""
        for _name, _rows, fn in self.ops(warm=True):
            try:
                fn(None)
            except Exception:  # counted when it recurs in a measured round
                pass
        self.end_round()

    def end_round(self) -> None:
        """Untimed clean-up after a round."""

    def layer_stats(self, tracer) -> dict:
        return {}


# ---------------------------------------------------------------------------
# logsql_interactive
# ---------------------------------------------------------------------------

# CREATE TABLE string literals follow the reference dialect: each backslash of
# the regex is written twice
LOG_TABLES = r"""
CREATE TABLE conns(
    line = 'connection from ([0-9.]+) \\((.+)?\\) at ([a-zA-Z]+) ([a-zA-Z]+) ([0-9]+) ([0-9]+):([0-9]+):([0-9]+) ([0-9]+)',
    line[1] => ip TEXT,
    line[2] => hostname TEXT,
    line[9] => year INT,
    line[4] => month TEXT,
    line[5] => day INT,
    line[6] => hour INT,
    line[7] => minute INT,
    line[8] => second INT
);
CREATE TABLE ssh(
    line = 'rhost=([a-zA-Z0-9_\\.\\-]+)\\s+user=(\\w+)',
    line[1] => hostname TEXT,
    line[2] => username TEXT
);
CREATE TABLE clients(
    { .timestamp } => event_ms INT,
    { .metadata.device_id } => device_id INT CONVERT,
    { .metadata.mac_address } => mac_address TEXT,
    { .events } => events TEXT[]
);
CREATE TABLE splits(
    s = split ';',
    s[1] => ip TEXT,
    s[2] => hostname TEXT,
    s[3] => year INT NOT NULL,
    s[4] => month TEXT,
    s[5] => day INT NOT NULL,
    s[6] => hour INT NOT NULL,
    s[7] => minute INT NOT NULL,
    s[8] => second INT NOT NULL
);
CREATE TABLE users(
    line = 'user=(\\w+) team=(\\w+) level=([0-9]+)',
    line[1] => name TEXT,
    line[2] => team TEXT,
    line[3] => level INT
);
"""

# (name, sql, source file, join source file or None); "fixed" marks the
# seed-independent input of the known-fault query
LOG_QUERIES = [
    ("ftpd_filter",
     "SELECT ip, hostname, hour FROM conns WHERE hour >= 20 AND year = 2005",
     "app", None),
    ("ssh_having",
     "SELECT username, hostname, COUNT(*) AS n FROM ssh "
     "GROUP BY username, hostname HAVING COUNT(*) > 12",
     "app", None),
    ("ssh_distinct", "SELECT DISTINCT username FROM ssh", "app", None),
    ("clients_limit",
     "SELECT event_ms, device_id FROM clients ORDER BY event_ms DESC LIMIT 10",
     "app", None),
    ("ftpd_case",
     "SELECT ip, CASE WHEN hour < 12 THEN 'am' ELSE 'pm' END AS half "
     "FROM conns WHERE minute = 0",
     "app", None),
    ("clients_group",
     "SELECT device_id, COUNT(*) AS n, MAX(event_ms) AS last_ms FROM clients "
     "GROUP BY device_id HAVING COUNT(*) > 1",
     "app", None),
    ("splits_group",
     "SELECT month, year, COUNT(*) AS n, SUM(second) AS s FROM splits "
     "GROUP BY month, year",
     "app", None),
    ("ssh_join",
     "SELECT ssh.username, users.team, users.level FROM ssh "
     "INNER JOIN users ON ssh.username = users.name "
     "WHERE ssh.hostname = 'mail.example.com'",
     "app", "users"),
    # fails today: IS [NOT] NULL on a TEXT[] column (functions/exprs.py:216-225)
    ("events_not_null",
     "SELECT device_id FROM clients WHERE events IS NOT NULL",
     "fixed", None),
]
LOG_KNOWN_FAULTS = {"events_not_null": "sqlgrep_ray/functions/exprs.py:216-225"}


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class LogSql(Workload):
    def __init__(self, spec: dict):
        super().__init__()
        d, fixed = spec["inputs"]["rawlog"], spec["inputs"]["fixed"]
        self.files = {
            "app": os.path.join(d, "app.log"),
            "users": os.path.join(d, "users.log"),
            "fixed": os.path.join(fixed, "fixed_clients.log"),
            "warm": os.path.join(d, "warm.log"),
        }
        self.lines = {k: _count_lines(p) for k, p in self.files.items()}

    def define(self) -> None:
        from sqlgrep_ray import Tables

        self.tables = Tables()
        self.tables.add_tables(LOG_TABLES)

    def _run(self, sql: str, src: str, join, tracer):
        from sqlgrep_ray.sinks import format_text

        with _span(tracer, "api.bind"):
            ds = self.tables.execute_query(
                sql, source=self.files[src],
                join_source=self.files[join] if join else None)
        with _span(tracer, "sinks.format_text"):
            lines = format_text(ds)
        if tracer:
            add_breakdown(self.stats, ds)
        return lines

    def ops(self, warm: bool = False):
        out = []
        for name, sql, src, join in LOG_QUERIES:
            src = "warm" if warm and src == "app" else src
            rows = self.lines[src] + (self.lines[join] if join else 0)
            out.append((name, rows,
                        lambda tr, sql=sql, src=src, join=join: self._run(sql, src, join, tr)))
        return out


# ---------------------------------------------------------------------------
# sql_analytics
# ---------------------------------------------------------------------------

SQL_QUERIES = [
    ("q_agg_lowcard",
     "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS qty, "
     "SUM(l_extendedprice) AS price, AVG(l_discount) AS disc "
     "FROM lineitem GROUP BY l_returnflag"),
    ("q_agg_highcard",
     "SELECT l_partkey, COUNT(*) AS n, SUM(l_quantity) AS qty "
     "FROM lineitem GROUP BY l_partkey"),
    ("q_filter_project",
     "SELECT l_orderkey, l_linenumber, l_extendedprice * (1 - l_discount) AS revenue "
     "FROM lineitem WHERE l_quantity > 45 AND l_shipmode = 'AIR'"),
    ("q_join_orders",
     "SELECT o_orderstatus, COUNT(*) AS n, SUM(l_extendedprice) AS price "
     "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
     "WHERE l_discount > 0.05 GROUP BY o_orderstatus"),
    ("q_window_rownum",
     "SELECT o_custkey, o_orderkey, ROW_NUMBER() OVER "
     "(PARTITION BY o_custkey ORDER BY o_totalprice DESC, o_orderkey) AS rn "
     "FROM orders"),
    ("q_topn",
     "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem "
     "ORDER BY l_extendedprice DESC, l_linenumber LIMIT 20"),
    ("q_count_distinct",
     "SELECT p_brand, COUNT(DISTINCT p_container) AS containers "
     "FROM part GROUP BY p_brand"),
    # returns no row today: the zero-column scan (sources/pushdown.py:191-197)
    ("q_count_star", "SELECT COUNT(*) AS n FROM fixed_part"),
]
SQL_KNOWN_FAULTS = {"q_count_star": "sqlgrep_ray/sources/pushdown.py:191-197"}
ORDERED = {"clients_limit", "q_topn"}  # queries whose row order is checked


def star_paths(star_dir: str, fixed_dir: str, prefix: str = "") -> dict[str, str]:
    paths = {n: os.path.join(star_dir, f"{prefix}{n}.parquet")
             for n in ("lineitem", "orders", "part")}
    paths["fixed_part"] = os.path.join(fixed_dir, "fixed_part.parquet")
    return paths


def _tables_of(sql: str, names) -> list[str]:
    words = set(sql.replace(",", " ").split())
    return [n for n in names if n in words]


class SqlAnalytics(Workload):
    def __init__(self, spec: dict):
        super().__init__()
        star, fixed = spec["inputs"]["star"], spec["inputs"]["fixed"]
        self.paths = star_paths(star, fixed)
        self.warm_paths = star_paths(star, fixed, prefix="warm_")
        self.rows = {n: pq.ParquetFile(p).metadata.num_rows for n, p in self.paths.items()}

    def _run(self, sql: str, paths: dict, tracer):
        from sqlgrep_ray.api import run_sql

        with _span(tracer, "api.bind"):
            ds = run_sql(sql, dict(paths))
        with _span(tracer, "ray.execute"):
            rows = ds.take_all()
        if tracer:
            add_breakdown(self.stats, ds)
        return rows

    def ops(self, warm: bool = False):
        paths = self.warm_paths if warm else self.paths
        return [
            (name, sum(self.rows[t] for t in _tables_of(sql, self.rows)),
             lambda tr, sql=sql: self._run(sql, paths, tr))
            for name, sql in SQL_QUERIES
        ]


# ---------------------------------------------------------------------------
# flagship_batch
# ---------------------------------------------------------------------------

FILES_PER_CHUNK = 2
FLAGSHIP_AGGS = ("sink_counts", "sink_role_counts", "hour_histogram")


class Flagship(Workload):
    def __init__(self, spec: dict):
        super().__init__()
        d = spec["inputs"]["transcripts"]
        self.shards = os.path.join(d, "shards")
        self.warm_dir = os.path.join(d, "warm")
        self.n_turns = sum(pq.ParquetFile(os.path.join(self.shards, f)).metadata.num_rows
                           for f in os.listdir(self.shards))
        self.work = spec["work_dir"]
        self.passes = 0
        self.last_out = None
        self.stale: list[str] = []
        self.chunk_s: list[float] = []
        self.written: list[tuple[int, int, int]] = []  # (files, bytes, rows)
        self._outs: list = []

    def define(self) -> None:
        self.lookup = gen.tool_lookup_table()

    def _build(self, ds):
        from sqlgrep_ray.pipelines.flagship import KEEP_COLS, TranscriptRouter, enrich_tools

        routed = ds.map_batches(TranscriptRouter(keep_cols=KEEP_COLS + ["shard"]),
                                batch_format="pyarrow", zero_copy_batch=True)
        out = enrich_tools(routed, self.lookup)
        self._outs.append(out)
        return out

    def _fresh_out(self) -> str:
        if self.last_out:
            self.stale.append(self.last_out)
        self.passes += 1
        self.last_out = os.path.join(self.work, f"routed-{self.passes}")
        return self.last_out

    def _job(self, shards: str, tracer):
        from sqlgrep_ray.state.checkpoint import CheckpointedRun

        out = self._fresh_out()
        self._outs = []
        with _span(tracer, "checkpoint.run"):
            results = CheckpointedRun(shards, out, self._build, extra_partition_cols=["sink"],
                                      files_per_chunk=FILES_PER_CHUNK).run()
        if tracer:
            for ds in self._outs:
                add_breakdown(self.stats, ds)
            self.chunk_s += [r.seconds for r in results]
            self.written.append(_written(out))
        return {"rows_out": sum(r.rows_out for r in results)}

    def _agg(self, name: str, tracer):
        import ray.data
        from sqlgrep_ray.pipelines import flagship

        with _span(tracer, "pipelines.build"):
            routed = ray.data.read_parquet(self.last_out, file_extensions=["parquet"])
            ds = getattr(flagship, name)(routed)
        with _span(tracer, "ray.execute"):
            rows = ds.take_all()
        if tracer:
            add_breakdown(self.stats, ds)
        return rows

    def end_round(self) -> None:
        for d in self.stale:
            shutil.rmtree(d, ignore_errors=True)
        self.stale = []

    def ops(self, warm: bool = False):
        shards = self.warm_dir if warm else self.shards
        ops = [("checkpointed_run", self.n_turns, lambda tr: self._job(shards, tr))]
        ops += [(a, self.n_turns, lambda tr, a=a: self._agg(a, tr)) for a in FLAGSHIP_AGGS]
        return ops

    def layer_stats(self, tracer) -> dict:
        """Chunk times, written files and bytes, and a resume over the
        completed manifests of the last pass."""
        from sqlgrep_ray.state.checkpoint import CheckpointedRun

        t0 = time.perf_counter()
        with tracer.span("checkpoint.resume"):
            res = CheckpointedRun(self.shards, self.last_out, self._build,
                                  extra_partition_cols=["sink"],
                                  files_per_chunk=FILES_PER_CHUNK).run()
        resume_s = time.perf_counter() - t0
        if not all(r.skipped for r in res):
            raise RuntimeError("resume re-ran a completed chunk")
        files, nbytes, rows = (statistics.median(x) for x in zip(*self.written))
        return {
            "checkpoint.chunk_s": statistics.median(self.chunk_s),
            "checkpoint.resume_s": resume_s,
            "sinks.files_written": files,
            "sinks.bytes_per_row": nbytes / max(rows, 1),
        }


def _written(out: str) -> tuple[int, int, int]:
    files = nbytes = rows = 0
    for root, _dirs, names in os.walk(out):
        for n in names:
            if n.endswith(".parquet"):
                p = os.path.join(root, n)
                files += 1
                nbytes += os.path.getsize(p)
                rows += pq.ParquetFile(p).metadata.num_rows
    return files, nbytes, rows


WORKLOADS = {
    "flagship_batch": Flagship,
    "logsql_interactive": LogSql,
    "sql_analytics": SqlAnalytics,
}
KNOWN_FAULTS = {**LOG_KNOWN_FAULTS, **SQL_KNOWN_FAULTS}
