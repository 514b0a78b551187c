"""Flagship pipeline as a submittable Ray job — checkpointed and resumable.

Submit to a cluster (north_rule operational shape):

    ray job submit --working-dir . -- python jobs/run_flagship.py \
        --input /data/transcripts --out /data/routed_out

or run standalone (this sandbox has no dashboard, so plain `python` —
identical code path; `ray.init(address="local")` vs the job driver's
auto-attach is the only difference):

    python jobs/run_flagship.py --input /tmp/graft_transcripts/sf0.01/transcripts \
        --out /tmp/flagship_out

Behavior:
* input shards are processed in chunks via ``CheckpointedRun`` — a killed run
  rerun with the same --out SKIPS completed chunks (per-chunk manifest with
  input lineage under ``<out>/_manifest/``);
* routed rows land in ``<out>/shard=<name>/sink=<sink>/*.parquet`` (fan-out
  router S8 + per-shard resume units);
* per-stage row counters (parse in/out) and per-chunk timings are written to
  ``<out>/metrics.json`` at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="transcripts parquet dir")
    ap.add_argument("--out", required=True, help="output root (checkpointed)")
    ap.add_argument(
        "--files-per-chunk",
        type=int,
        default=8,
        help="shards per chunk, the unit of resume; a chunk reads one task "
        "per shard file, so this is also its parallelism",
    )
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        help="stop after N fresh chunks (simulates a killed run; rerun resumes)",
    )
    ap.add_argument(
        "--follow",
        action="store_true",
        help="tail mode: poll --input for new shards and re-emit the per-sink "
        "count snapshot each round (sqlgrep -f analogue, state/follow.py)",
    )
    ap.add_argument("--poll-interval", type=float, default=5.0)
    ap.add_argument(
        "--max-rounds", type=int, default=None,
        help="follow mode: stop after N poll rounds (default: run until killed)",
    )
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # under `ray job submit` RAY_ADDRESS is set and this attaches to the
        # cluster; standalone it starts a local session
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow as pa

    from sqlgrep_ray.pipelines.flagship import KEEP_COLS, TranscriptRouter, enrich_tools
    from sqlgrep_ray.state.checkpoint import CheckpointedRun
    from sqlgrep_ray.state.metrics import MetricsCollector

    mc = MetricsCollector.create()

    def build(ds):
        # checkpoint contract: preserve the shard column through the pipeline
        routed = ds.map_batches(
            mc.counting(
                "parse", TranscriptRouter(keep_cols=KEEP_COLS + ["shard"])
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        return enrich_tools(routed)

    if args.follow:
        from sqlgrep_ray.functions.exprs import Col
        from sqlgrep_ray.pipelines.plan import AggItem, AggregatePlan, GroupKey
        from sqlgrep_ray.state.follow import FollowRun

        plan = AggregatePlan(
            group_by=(GroupKey("sink", Col("sink")),),
            aggs=(AggItem("n", "count_star"),),
        )
        fr = FollowRun(
            args.input,
            args.out,
            plan,
            build_pipeline=build,
            files_per_chunk=1,  # stable chunk identity as shards appear
            extra_partition_cols=["sink"],
        )
        for snap in fr.follow(
            poll_interval=args.poll_interval, max_rounds=args.max_rounds
        ):
            print(json.dumps({"snapshot": snap.to_pydict()}), flush=True)
        ray.shutdown()
        return 0

    run = CheckpointedRun(
        args.input,
        args.out,
        build,
        extra_partition_cols=["sink"],
        files_per_chunk=args.files_per_chunk,
    )
    t0 = time.time()
    results = run.run(max_chunks=args.max_chunks)
    wall = time.time() - t0

    done = [r for r in results if not r.skipped]
    skipped = [r for r in results if r.skipped]
    rows = sum(r.rows_out for r in done)
    metrics = {
        "wall_s": round(wall, 2),
        "chunks_done": len(done),
        "chunks_skipped_resume": len(skipped),
        "rows_out": rows,
        "rows_per_sec": round(rows / wall, 1) if wall > 0 else None,
        "stage_counters": mc.snapshot()["counters"],
        "chunks": [
            {"chunk_id": r.chunk_id, "rows": r.rows_out, "sec": round(r.seconds, 2)}
            for r in done
        ],
    }
    with open(os.path.join(args.out, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=2)
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
