"""The flagship pipeline: parse → enrich → route → aggregate over transcripts.

This is the north-star workload (BASELINE.json ``north_rule``): a Ray-Data
log/telemetry pipeline over the transcript table
``(conv_id, turn_idx, role, text, tool, ts)``:

1. **parse** — ONE ``map_batches`` pass runs four sqlgrep-style table
   definitions over the ``text`` column (ftpd regex-capture, ssh
   regex-capture, clients JSON-path, csv split-mode — the shapes of the
   reference's golden corpora, ``/root/reference/testdata/{ftpd,ssh_failure,
   clients,ftpd_csv}.txt``) and routes each turn to the FIRST table that
   admits it (``sink`` column); turns admitted by none are dropped (the
   reference's ``any_result`` grep-ness);
2. **enrich** — broadcast left-join of the small ``tool → (category, cost)``
   lookup (the reference's in-memory joined table, ``src/join.rs``) inside an
   actor-pool ``map_batches`` stage;
3. **route** — ``write_parquet(partition_cols=["sink"])`` fans matched rows
   out to one Parquet directory per sink;
4. **aggregate** — per-sink / per-(sink, role) / per-hour counts via the
   combiner-first groupby engine.

Every stage is lazy/streaming; nothing materializes the full dataset.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from sqlgrep_ray.functions.exprs import Col, Func
from sqlgrep_ray.pipelines.plan import AggItem, AggregatePlan, GroupKey
from sqlgrep_ray.pipelines.runner import run_plan
from sqlgrep_ray.schema import (
    INT,
    STRING,
    ColumnDef,
    JsonPath,
    PatternDef,
    RegexCapture,
    RegexRef,
    TableDef,
    array_of,
)
from sqlgrep_ray.stages.enrich import BroadcastJoiner
from sqlgrep_ray.stages.parse import ParseTable
from sqlgrep_ray.sources import list_input_shards, read_shards
from sqlgrep_ray.sources.synth import tool_lookup_table

# ---------------------------------------------------------------------------
# The four sqlgrep table definitions (reference testdata shapes)
# ---------------------------------------------------------------------------

FTPD_PATTERN = (
    r"connection from ([0-9.]+) \((.+)?\) at ([a-zA-Z]+) ([a-zA-Z]+) "
    r"([0-9]+) ([0-9]+):([0-9]+):([0-9]+) ([0-9]+)"
)
SSH_PATTERN = r"rhost=([a-zA-Z0-9_\.\-]+)\s+user=(\w+)"

FTPD_TABLE = TableDef(
    "ftpd",
    [PatternDef("line", FTPD_PATTERN)],
    [
        ColumnDef("ip", STRING, RegexCapture(RegexRef("line", 1))),
        ColumnDef("hostname", STRING, RegexCapture(RegexRef("line", 2))),
        ColumnDef("year", INT, RegexCapture(RegexRef("line", 9))),
        ColumnDef("month", STRING, RegexCapture(RegexRef("line", 4))),
        ColumnDef("day", INT, RegexCapture(RegexRef("line", 5))),
        ColumnDef("hour", INT, RegexCapture(RegexRef("line", 6))),
        ColumnDef("minute", INT, RegexCapture(RegexRef("line", 7))),
        ColumnDef("second", INT, RegexCapture(RegexRef("line", 8))),
    ],
)

SSH_TABLE = TableDef(
    "ssh",
    [PatternDef("line", SSH_PATTERN)],
    [
        ColumnDef("hostname", STRING, RegexCapture(RegexRef("line", 1))),
        ColumnDef("user", STRING, RegexCapture(RegexRef("line", 2))),
    ],
)

CLIENTS_TABLE = TableDef(
    "clients",
    [],
    [
        ColumnDef("event_ms", INT, JsonPath(("timestamp",))),
        ColumnDef("device_id", INT, JsonPath(("metadata", "device_id")), convert=True),
        ColumnDef("mac_address", STRING, JsonPath(("metadata", "mac_address"))),
        ColumnDef("events", array_of(STRING), JsonPath(("events",))),
    ],
)

CSV_TABLE = TableDef(
    "csv",
    [PatternDef("s", ";", "split")],
    [
        ColumnDef("ip", STRING, RegexCapture(RegexRef("s", 1))),
        ColumnDef("hostname", STRING, RegexCapture(RegexRef("s", 2))),
        ColumnDef("year", INT, RegexCapture(RegexRef("s", 3)), not_null=True),
        ColumnDef("month", STRING, RegexCapture(RegexRef("s", 4))),
        ColumnDef("day", INT, RegexCapture(RegexRef("s", 5)), not_null=True),
        ColumnDef("hour", INT, RegexCapture(RegexRef("s", 6)), not_null=True),
        ColumnDef("minute", INT, RegexCapture(RegexRef("s", 7)), not_null=True),
        ColumnDef("second", INT, RegexCapture(RegexRef("s", 8)), not_null=True),
    ],
)

# priority order — a turn goes to the FIRST admitting table
ROUTE_TABLES: list[TableDef] = [FTPD_TABLE, SSH_TABLE, CLIENTS_TABLE, CSV_TABLE]

# NECESSARY-substring prefilters, one per route table: a row can only
# admit to the table if its text contains the literal (it appears
# verbatim in the pattern / is required by the extraction), so running
# the expensive regex/JSON/split extraction ONLY on substring candidates
# is semantics-preserving (equivalence pinned by
# test_flagship::test_router_prefilter_equivalence). match_substring is
# ~an order of magnitude cheaper than extract_regex per row, and most
# rows match at most one needle.
ROUTE_PREFILTERS: list[str] = ["connection from ", "rhost=", "{", ";"]

KEEP_COLS = ["conv_id", "turn_idx", "role", "tool", "ts"]

# unified output schema across sinks (absent fields → NULL)
_UNIFIED_FIELDS: list[tuple[str, pa.DataType]] = [
    ("ip", pa.string()),
    ("hostname", pa.string()),
    ("user", pa.string()),
    ("year", pa.int64()),
    ("month", pa.string()),
    ("day", pa.int64()),
    ("hour", pa.int64()),
    ("minute", pa.int64()),
    ("second", pa.int64()),
    ("event_ms", pa.int64()),
    ("device_id", pa.int64()),
    ("mac_address", pa.string()),
    ("events", pa.list_(pa.string())),
]


class TranscriptRouter:
    """``map_batches`` stage: one pass over ``text`` → unified routed rows.

    Each batch is matched against the route tables in priority order; rows
    already claimed by an earlier table are masked out before the next
    table's admission check, so exactly one sink per turn.
    """

    def __init__(
        self,
        keep_cols: Optional[list[str]] = None,
        prefilter: bool = True,
    ):
        self.keep_cols = keep_cols if keep_cols is not None else KEEP_COLS
        self.prefilter = prefilter
        self.parsers = [
            ParseTable(t, "text", keep_cols=self.keep_cols) for t in ROUTE_TABLES
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        # rows claimed by an earlier table are REMOVED from the batch before
        # the next table's extraction runs — later (more expensive: JSON,
        # split) parsers only see the still-unclaimed tail; a cheap
        # necessary-substring prefilter narrows each extraction to its
        # candidate rows first (ROUTE_PREFILTERS)
        pieces: list[pa.Table] = []
        cur = batch
        for tdef, parser, needle in zip(
            ROUTE_TABLES, self.parsers, ROUTE_PREFILTERS
        ):
            if cur.num_rows == 0:
                break
            pre = None
            cand = cur
            if self.prefilter:
                pre = pc.fill_null(
                    pc.match_substring(cur["text"], pattern=needle), False
                ).to_numpy(zero_copy_only=False)
                if not pre.any():
                    continue
                cand = cur.filter(pa.array(pre))
            extracted, keep = parser.extract_with_mask(cand)
            if keep.any():
                sub = extracted.filter(pa.array(keep))
                pieces.append(self._unify(sub, tdef.name))
            if pre is None:
                rest = ~keep
            else:
                claimed = np.zeros(len(pre), dtype=bool)
                claimed[np.flatnonzero(pre)] = keep
                rest = ~claimed
            if not rest.any():
                cur = cur.slice(0, 0)
                break
            cur = cur.filter(pa.array(rest))
        if not pieces:
            return self._empty()
        return pa.concat_tables(pieces, promote_options="default")

    def _unify(self, sub: pa.Table, sink: str) -> pa.Table:
        cols: dict[str, Any] = {}
        for k in self.keep_cols:
            cols[k] = sub[k]
        cols["sink"] = pa.array([sink] * sub.num_rows, pa.string())
        for name, typ in _UNIFIED_FIELDS:
            if name in sub.column_names:
                col = sub[name]
                col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
                cols[name] = col.cast(typ)
            else:
                cols[name] = pa.nulls(sub.num_rows, typ)
        return pa.table(cols)

    def _empty(self) -> pa.Table:
        cols: dict[str, Any] = {}
        schema_cols = {
            "conv_id": pa.string(),
            "turn_idx": pa.int32(),
            "role": pa.string(),
            "tool": pa.string(),
            "ts": pa.timestamp("us"),
        }
        for k in self.keep_cols:
            cols[k] = pa.array([], schema_cols.get(k, pa.string()))
        cols["sink"] = pa.array([], pa.string())
        for name, typ in _UNIFIED_FIELDS:
            cols[name] = pa.array([], typ)
        return pa.table(cols)


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------


# Module-level per-worker caches: stateless map_batches TASKS reuse Ray's
# pre-started worker processes (no actor-pool spin-up per pipeline); the
# router/joiner build once per worker process — same compile-once contract as
# an actor __init__ (reference data_model.rs:44-50) without the startup cost.
_ROUTER_CACHE: dict[str, TranscriptRouter] = {}
_JOINER_CACHE: dict[str, BroadcastJoiner] = {}


def _route_batch(batch: pa.Table) -> pa.Table:
    r = _ROUTER_CACHE.get("default")
    if r is None:
        r = _ROUTER_CACHE["default"] = TranscriptRouter()
    return r(batch)


def _enrich_batch(batch: pa.Table, lookup_ref=None) -> pa.Table:
    key = lookup_ref.hex() if hasattr(lookup_ref, "hex") else str(id(lookup_ref))
    j = _JOINER_CACHE.get(key)
    if j is None:
        right = ray.get(lookup_ref) if isinstance(lookup_ref, ray.ObjectRef) else lookup_ref
        j = _JOINER_CACHE[key] = BroadcastJoiner(
            right=right,
            left_key="tool",
            right_key="tool",
            how="left",
            right_prefix="lk_",
        )
    t = j(batch)
    return t.drop_columns(["lk_tool"]).rename_columns(
        [
            c.replace("lk_", "") if c.startswith("lk_") else c
            for c in t.column_names
            if c != "lk_tool"
        ]
    )


def parse_and_route(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    return ds.map_batches(
        _route_batch,
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def enrich_tools(
    ds: "ray.data.Dataset", lookup: Optional[pa.Table] = None
) -> "ray.data.Dataset":
    lookup = lookup if lookup is not None else tool_lookup_table()
    # broadcast ONCE via the object store; workers fetch zero-copy per process
    ref = ray.put(lookup)
    return ds.map_batches(
        _enrich_batch,
        fn_kwargs=dict(lookup_ref=ref),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def route_to_sinks(ds: "ray.data.Dataset", out_dir: str) -> None:
    """Fan-out writer: one Parquet directory per sink (S8 in SURVEY §2.1)."""
    ds.write_parquet(out_dir, partition_cols=["sink"])


def flagship_ds(
    ds: "ray.data.Dataset", lookup: Optional[pa.Table] = None
) -> "ray.data.Dataset":
    """parse → enrich over an already-constructed Dataset."""
    return enrich_tools(parse_and_route(ds), lookup)


def flagship(
    transcripts_dir: str,
    out_dir: Optional[str] = None,
    lookup: Optional[pa.Table] = None,
) -> "ray.data.Dataset":
    """Full parse → enrich [→ route] pipeline; returns the routed Dataset.

    When ``out_dir`` is given the routed rows are also fanned out to
    per-sink Parquet directories.
    """
    # one read task per shard file, capped per CPU: the read fuses with
    # parse → route → enrich (sources.read_shards)
    ds = read_shards(list_input_shards(transcripts_dir))
    routed = enrich_tools(parse_and_route(ds), lookup)
    if out_dir is not None:
        route_to_sinks(routed, out_dir)
    return routed


def sink_counts(routed: "ray.data.Dataset") -> "ray.data.Dataset":
    # sink cardinality is 4 — skip the auto merge-path count (one less
    # barrier on the hot bench path)
    plan = AggregatePlan(
        group_by=(GroupKey("sink", Col("sink")),),
        aggs=(AggItem("n", "count_star"),),
        small_result=True,
    )
    return run_plan(routed, plan)


def sink_role_counts(routed: "ray.data.Dataset") -> "ray.data.Dataset":
    plan = AggregatePlan(
        group_by=(GroupKey("sink", Col("sink")), GroupKey("role", Col("role"))),
        aggs=(AggItem("n", "count_star"),),
        small_result=True,
    )
    return run_plan(routed, plan)


def hour_histogram(routed: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per extracted-hour counts over the ftpd+csv sinks (GROUP BY hour:
    COUNT(*), MAX(minute) — the reference's bench aggregate shape,
    ``benches/full_pipeline.rs:73-129``)."""
    from sqlgrep_ray.functions.exprs import Bin, Lit

    plan = AggregatePlan(
        group_by=(GroupKey("hour", Col("hour")),),
        aggs=(
            AggItem("n", "count_star"),
            AggItem("max_minute", "max", Col("minute")),
        ),
        where=Bin("is_not", Col("hour"), Lit(None, INT)),
        small_result=True,
    )
    return run_plan(routed, plan)
