"""Single-core kernel rates on fixed batches, measured in the driver process.

Each kernel is an engine layer's public callable applied to one in-memory
batch built with the benchmark's own generators (the same line shapes, star
schema and lookup the workloads read), so the rate does not depend on Ray.
A rate is rows of the batch divided by the median time of one call.
"""

from __future__ import annotations

import statistics
import time

import pyarrow as pa

import gen
from workloads import LOG_QUERIES, LOG_TABLES, SQL_QUERIES

LOG_BATCH = 20_000
TRANSCRIPT_BATCH = 20_000
STAR_ROWS = 100_000  # lineitem rows, as in the sql_analytics input
MIN_SECONDS = 0.2  # time spent per kernel after its warm-up call


def _median_call(fn, min_seconds: float = MIN_SECONDS) -> float:
    fn()  # warm-up: compiled patterns, lazy imports
    times = []
    t_end = time.perf_counter() + min_seconds
    while len(times) < 3 or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _rate(fn, rows: int) -> float:
    return rows / _median_call(fn)


def kernel_rates(seed: int) -> dict[str, float]:
    from sqlgrep_ray.functions.exprs import compile_expr, compile_predicate
    from sqlgrep_ray.pipelines.flagship import TranscriptRouter
    from sqlgrep_ray.sinks import format_text
    from sqlgrep_ray.sqlfront import parse_query, parse_table_defs
    from sqlgrep_ray.stages.aggregate import PartialAggregator
    from sqlgrep_ray.stages.enrich import BroadcastJoiner
    from sqlgrep_ray.stages.parse import ParseTable

    out: dict[str, float] = {}

    # parse: one ParseTable per table shape over raw log lines
    lines = pa.table({"text": pa.array(gen.log_lines(seed, LOG_BATCH), pa.string())})
    defs = {t.name: t for t in parse_table_defs(LOG_TABLES)}
    for key, table in (("regex", "conns"), ("json", "clients"), ("split", "splits")):
        parser = ParseTable(defs[table], "text")
        out[f"parse.{key}_rows_per_s"] = _rate(lambda p=parser: p(lines), lines.num_rows)

    # flagship router, with the rows it hands to each table's extraction
    transcripts, _truth = gen.transcript_tables(seed, TRANSCRIPT_BATCH)
    counted, router = TranscriptRouter(), TranscriptRouter()
    counts = {"handed": 0, "admitted": 0}

    def counting(extract):
        def wrapped(batch):
            extracted, keep = extract(batch)
            counts["handed"] += batch.num_rows
            counts["admitted"] += int(keep.sum())
            return extracted, keep
        return wrapped

    for p in counted.parsers:
        p.extract_with_mask = counting(p.extract_with_mask)
    routed = counted(transcripts)
    out["flagship.extract_yield"] = counts["admitted"] / max(counts["handed"], 1)
    out["flagship.router_rows_per_s"] = _rate(lambda: router(transcripts), transcripts.num_rows)

    # enrich probes: the 6-row tool lookup, and the orders side of the star
    lookup = BroadcastJoiner(gen.tool_lookup_table(), "tool", "tool", how="left",
                             right_prefix="lk_")
    out["enrich.probe_lookup_rows_per_s"] = _rate(lambda: lookup(routed), routed.num_rows)
    star = gen.star_tables(seed, STAR_ROWS)
    lineitem = star["lineitem"]
    orders = BroadcastJoiner(star["orders"], "l_orderkey", "o_orderkey", how="inner",
                             right_prefix="orders.")
    out["enrich.probe_large_rows_per_s"] = _rate(lambda: orders(lineitem), lineitem.num_rows)

    # compiled expressions and the partial aggregate of the SQL workload
    sql = dict(SQL_QUERIES)
    fp = parse_query(sql["q_filter_project"]).plan
    pred = compile_predicate(fp.where)
    out["exprs.filter_rows_per_s"] = _rate(lambda: pred(lineitem), lineitem.num_rows)
    proj = compile_expr(fp.projections[-1].expr)
    out["exprs.project_rows_per_s"] = _rate(lambda: proj(lineitem), lineitem.num_rows)
    partial = PartialAggregator(parse_query(sql["q_agg_lowcard"]).plan)
    out["aggregate.partial_rows_per_s"] = _rate(lambda: partial(lineitem), lineitem.num_rows)

    # the text sink over a result-sized table
    result = lineitem.select(["l_orderkey", "l_returnflag", "l_extendedprice"]).slice(0, 5000)
    out["sinks.format_rows_per_s"] = _rate(lambda: format_text(result), result.num_rows)

    # SQL front end: median parse time of one benchmark query
    texts = [q[1] for q in LOG_QUERIES] + [q[1] for q in SQL_QUERIES]
    out["sqlfront.parse_s"] = statistics.median(
        _median_call(lambda s=s: parse_query(s), 0.02) for s in texts)
    return out
