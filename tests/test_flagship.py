"""Flagship transcript pipeline: routing, enrich, checkpoint/resume, metrics."""

import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sqlgrep_ray.pipelines.flagship import (
    TranscriptRouter,
    flagship,
    parse_and_route,
    sink_counts,
)
from sqlgrep_ray.sources.synth import (
    ensure_transcripts,
    generate_transcripts,
    tool_lookup_table,
)
from sqlgrep_ray.state.checkpoint import CheckpointedRun
from sqlgrep_ray.state.metrics import MetricsCollector


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    return ensure_transcripts(0.001)


def test_generator_deterministic():
    a = generate_transcripts(500)
    b = generate_transcripts(500)
    assert a.equals(b)
    assert a.schema.names == ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    assert a["turn_idx"].type == pa.int32()
    assert a["ts"].type == pa.timestamp("us")


def test_router_first_match_priority():
    # a line that matches both ftpd (regex) and csv-split would go to ftpd;
    # here verify every routed row got exactly one sink and noise is dropped
    t = generate_transcripts(2000)
    router = TranscriptRouter()
    out = router(t)
    assert 0 < out.num_rows < 2000  # noise dropped
    sinks = set(out["sink"].to_pylist())
    assert sinks <= {"ftpd", "ssh", "clients", "csv"}
    # ftpd rows have ip+hostname-or-null and year=2005
    ftpd = out.filter(pa.compute.equal(out["sink"], "ftpd"))
    assert set(ftpd["year"].to_pylist()) == {2005}
    # keyed columns survive
    assert {"conv_id", "turn_idx", "role", "tool", "ts"} <= set(out.column_names)


def test_router_row_conservation():
    """Each input turn routes to AT MOST one sink; matched+noise == total."""
    t = generate_transcripts(3000)
    router = TranscriptRouter()
    out = router(t)
    # conv_id+turn_idx unique in output (no double-routing)
    import collections

    keys = collections.Counter(
        zip(out["conv_id"].to_pylist(), out["turn_idx"].to_pylist())
    )
    assert max(keys.values()) == 1


def test_flagship_enrich_left_join(ray_session, tiny_dir):
    routed = flagship(tiny_dir)
    df = routed.to_pandas()
    # tools with lookup rows got categories; "none" stayed null (left-outer)
    known = df[df.tool == "bash"]
    assert (known["tool_category"] == "shell").all()
    misses = df[df.tool == "none"]
    assert misses["tool_category"].isna().all()
    assert len(misses) > 0


def test_sink_counts_match_pandas_oracle(ray_session, tiny_dir):
    routed = flagship(tiny_dir)
    got = sink_counts(routed).to_pandas().set_index("sink")["n"].to_dict()
    df = routed.to_pandas()
    expect = df.groupby("sink").size().to_dict()
    assert got == expect


def test_checkpoint_resume(ray_session, tiny_dir, tmp_path):
    out = str(tmp_path / "ckpt_out")

    from sqlgrep_ray.pipelines.flagship import KEEP_COLS

    def build(ds):
        # checkpoint contract: the shard column must survive the pipeline
        return ds.map_batches(
            TranscriptRouter,
            fn_constructor_kwargs=dict(keep_cols=KEEP_COLS + ["shard"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
            concurrency=(1, 4),
        )

    run = CheckpointedRun(tiny_dir, out, build, files_per_chunk=1)
    n_chunks = len(run.chunks())
    assert n_chunks >= 1

    # simulate a killed run: process only the first chunk
    first = run.run(max_chunks=1)
    done1 = [r for r in first if not r.skipped]
    assert len(done1) == 1 and done1[0].rows_out > 0

    # resume: previously-completed chunks are skipped, rest processed
    second = run.run()
    skipped = [r for r in second if r.skipped]
    fresh = [r for r in second if not r.skipped]
    assert len(skipped) == 1
    assert skipped[0].chunk_id == done1[0].chunk_id
    assert len(fresh) == n_chunks - 1

    # a third run does nothing
    third = run.run()
    assert all(r.skipped for r in third)

    # output rows = routed rows from a direct run
    import ray.data

    direct = parse_and_route(ray.data.read_parquet(tiny_dir)).count()
    total = sum(
        pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
        for root, _d, files in os.walk(out)
        for f in files
        if f.endswith(".parquet")
    )
    assert total == direct


def test_metrics_counters(ray_session, tiny_dir):
    import ray.data

    mc = MetricsCollector.create()
    ds = ray.data.read_parquet(tiny_dir).map_batches(
        mc.counting("parse", TranscriptRouter()),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_out = ds.count()
    snap = mc.snapshot()
    assert snap["counters"]["parse.rows_out"] == n_out
    assert snap["counters"]["parse.rows_in"] >= n_out


def test_per_turn_text_equality(ray_session, tiny_dir):
    """The north-rule invariant: for every routed turn, the text recovered by
    joining the routed (conv_id, turn_idx) keys back to the input equals the
    input text, compared under stable (conv_id, turn_idx) ordering; and the
    routed set is exactly the set an independent reimplementation of the
    routing predicate admits."""
    import pandas as pd
    import re as _re
    import json as _json

    import pyarrow.parquet as pq

    from sqlgrep_ray.pipelines.flagship import (
        FTPD_PATTERN,
        SSH_PATTERN,
        parse_and_route,
    )
    import ray.data

    routed = (
        parse_and_route(ray.data.read_parquet(tiny_dir))
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    inp = (
        pq.read_table(tiny_dir)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )

    ftpd = _re.compile(FTPD_PATTERN)
    ssh = _re.compile(SSH_PATTERN)

    def expected_sink(text: str):
        if ftpd.search(text):
            return "ftpd"
        if ssh.search(text):
            return "ssh"
        try:
            obj = _json.loads(text)
            if isinstance(obj, dict) and (
                "timestamp" in obj or "metadata" in obj or "events" in obj
            ):
                return "clients"
        except ValueError:
            pass
        parts = text.split(";")
        if len(parts) >= 8 and all(
            p.lstrip("-").isdigit() for p in (parts[2], parts[4], parts[5], parts[6], parts[7])
        ):
            return "csv"
        return None

    inp["expected"] = inp["text"].map(expected_sink)
    expected = inp[inp["expected"].notna()]

    # routed set == independently predicted set, with matching sinks
    merged = expected.merge(
        routed[["conv_id", "turn_idx", "sink"]],
        on=["conv_id", "turn_idx"],
        how="outer",
        indicator=True,
    )
    assert (merged["_merge"] == "both").all()
    assert (merged["expected"] == merged["sink"]).all()

    # per-turn text equality under the stable ordering: keys in routed map
    # 1:1 onto input rows whose text is byte-identical
    back = routed.merge(
        inp[["conv_id", "turn_idx", "text"]], on=["conv_id", "turn_idx"]
    )
    assert len(back) == len(routed)
    assert (back["text"] == expected.set_index(["conv_id", "turn_idx"]).loc[
        list(zip(back["conv_id"], back["turn_idx"]))
    ]["text"].values).all()


def test_route_to_sinks_partitioned(ray_session, tiny_dir, tmp_path):
    out = str(tmp_path / "sinks")
    flagship(tiny_dir, out_dir=out)
    parts = {d for d in os.listdir(out) if d.startswith("sink=")}
    assert parts == {"sink=ftpd", "sink=ssh", "sink=clients", "sink=csv"}


def test_segmented_generation_unique_convs(tmp_path, monkeypatch):
    """Large-corpus segmented generation: globally unique conv ids across
    segments, full row count, shard numbering continuous."""
    import os

    import pyarrow.parquet as pq

    from sqlgrep_ray.sources import synth

    monkeypatch.setattr(synth, "SEG_ROWS", 400)
    d = synth.ensure_transcripts(
        1000 / synth.ROWS_PER_SF, root=str(tmp_path), force=True
    )
    files = sorted(f for f in os.listdir(d) if f.endswith(".parquet"))
    tbl = pq.read_table(d)
    assert tbl.num_rows == 1000
    convs = set(tbl["conv_id"].to_pylist())
    # per-segment prefixes conv0-/conv1-/conv2- all present, no collisions
    prefixes = {c.split("-")[0] for c in convs}
    assert prefixes == {"conv0", "conv1", "conv2"}
    assert len(files) >= 3


def test_router_prefilter_equivalence():
    """The necessary-substring prefilter must not change routing — pinned
    on the synthetic corpus plus adversarial rows (needle hits with regex
    misses, bare valid JSON without fields, short csv, multi-needle)."""
    import pyarrow as pa

    from sqlgrep_ray.pipelines.flagship import TranscriptRouter
    from sqlgrep_ray.sources.synth import generate_transcripts

    def canon(t):
        return t.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        ).to_pydict()

    on, off = TranscriptRouter(prefilter=True), TranscriptRouter(prefilter=False)
    t = generate_transcripts(50_000, 7)
    assert canon(on(t)) == canon(off(t))
    adv = pa.table(
        {
            "conv_id": pa.array([f"c{i}" for i in range(6)]),
            "turn_idx": pa.array(range(6), pa.int32()),
            "role": pa.array(["user"] * 6),
            "tool": pa.array(["bash"] * 6),
            "ts": pa.array([0] * 6, pa.timestamp("us")),
            "text": pa.array(
                [
                    "connection from here but no full match",
                    "rhost= user=",
                    "5",
                    "true",
                    "a;b",
                    "noise {brace} with ; and rhost=x user=y",
                ]
            ),
        }
    )
    assert canon(on(adv)) == canon(off(adv))


def test_checkpoint_chunk_is_one_fused_task_per_shard(ray_session, tmp_path):
    """A chunk reads one task per shard file, so read → shard → route →
    enrich → write fuse into one operator (no ``SplitBlocks``) and a pass
    writes exactly one file per (shard, sink) directory, holding the rows
    ``parse_and_route`` gives over the same shards."""
    import ray.data

    from sqlgrep_ray.pipelines.flagship import KEEP_COLS, enrich_tools

    shards = tmp_path / "shards"
    shards.mkdir()
    t = generate_transcripts(6000, 5)
    for i in range(3):
        pq.write_table(t.slice(i * 2000, 2000), str(shards / f"shard-{i:05d}.parquet"))
    outs = []

    def build(ds):
        routed = ds.map_batches(
            TranscriptRouter(keep_cols=KEEP_COLS + ["shard"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        outs.append(enrich_tools(routed))
        return outs[-1]

    out = str(tmp_path / "out")
    run = CheckpointedRun(
        str(shards), out, build, extra_partition_cols=["sink"], files_per_chunk=2
    )
    results = run.run()
    assert [len(r.files) for r in results] == [2, 1]
    for ds in outs:
        stats = ds.stats()
        assert "SplitBlocks" not in stats
        assert "ReadParquet->MapBatches(_add_shard)" in stats

    sink_dirs = [
        (root, [n for n in names if n.endswith(".parquet")])
        for root, _d, names in os.walk(out)
        if os.path.basename(root).startswith("sink=")
    ]
    assert len(sink_dirs) == 3 * 4  # every shard routes to all four sinks
    assert all(len(files) == 1 for _root, files in sink_dirs)

    def rows(tbl: pa.Table) -> list:
        # (conv_id, turn_idx) is unique, so the sort never compares NULLs
        cols = ["conv_id", "turn_idx", "role", "tool", "sink", "ip", "user",
                "hour", "device_id", "events"]
        return sorted(zip(*(tbl[c].to_pylist() for c in cols)))

    written = pq.read_table(out, partitioning="hive")
    direct = pa.Table.from_pylist(
        parse_and_route(ray.data.read_parquet(str(shards))).take_all()
    )
    assert written.num_rows == direct.num_rows > 0
    assert rows(written) == rows(direct)
    assert all(r.skipped for r in run.run())
