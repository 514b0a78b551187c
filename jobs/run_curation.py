"""Corpus curation as a submittable Ray job — staged and resumable.

    ray job submit --working-dir . -- python jobs/run_curation.py \
        --input /data/documents --out /data/curated

Global operators (corpus-wide dedup, near-dup pairs, duplicate-gram totals)
cannot checkpoint per input chunk the way the flagship parse does — each
stage needs the WHOLE corpus. The resumable unit is therefore the STAGE:
every stage writes its parquet output plus a ``_DONE.<stage>`` marker and a
rerun skips completed stages (the standard staged-materialization pattern
for all-to-all steps). Stages:

0. ``reassemble`` — (with ``--from-transcripts``) collapse a transcript
                  turn table into one document per conversation
                  (stages/conversation.py); doc_id = hash64(conv_id)
1. ``stats``    — text_stats + language/quality/token filter → stats parquet
2. ``winners``  — exact-dedup surviving ids (fingerprint min-id)
3. ``pairs``    — MinHash-LSH near-dup pairs above the threshold
4. ``dupgrams`` — per-doc duplicate k-gram occurrence counts
5. ``decontam`` — (with ``--benchmark``) ids of docs sharing a token
                  n-gram with the benchmark corpus (test-set leakage)
6. ``final``    — semi-join winners, anti-join near-dup losers, drop docs
                  whose duplicate-gram fraction exceeds the cap (and any
                  benchmark-contaminated ids), optionally PII-scrub the
                  surviving text (``--scrub-pii``); write the surviving
                  corpus partitioned by language + metrics.json

Each stage streams from the previous stage's parquet — nothing is held on
the driver.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _done(out: str, stage: str) -> str:
    return os.path.join(out, f"_DONE.{stage}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="documents parquet file/dir")
    ap.add_argument("--out", required=True)
    ap.add_argument(
        "--from-transcripts",
        action="store_true",
        help="input is a transcript turn table (conv_id, turn_idx, role, "
        "text, ...); a reassemble stage collapses each conversation into "
        "one document before curation",
    )
    ap.add_argument("--languages", default="en", help="comma list; 'all' disables")
    ap.add_argument("--min-quality", type=float, default=0.3)
    ap.add_argument("--min-tokens", type=int, default=5)
    ap.add_argument("--near-dup-threshold", type=float, default=0.9)
    ap.add_argument("--dup-ngram-max-frac", type=float, default=0.8)
    ap.add_argument("--dup-ngram-k", type=int, default=8)
    ap.add_argument(
        "--benchmark",
        default=None,
        help="parquet of benchmark texts; docs sharing an n-gram are dropped",
    )
    ap.add_argument("--decontam-k", type=int, default=8)
    ap.add_argument(
        "--scrub-pii",
        action="store_true",
        help="redact URLs/emails/IPv4s in the surviving text",
    )
    ap.add_argument(
        "--max-dup-token-frac",
        type=float,
        default=None,
        help="drop docs whose within-doc duplicate-token fraction "
        "(1 - distinct/total, Gopher repetition rule) exceeds this",
    )
    ap.add_argument(
        "--scrub-boilerplate",
        action="store_true",
        help="remove corpus-repeated segments from surviving text "
        "(segment-level dedup)",
    )
    ap.add_argument(
        "--boiler-sep", default=r"\n",
        help="segment separator regex for --scrub-boilerplate",
    )
    ap.add_argument(
        "--boiler-min-count", type=int, default=2,
        help="corpus occurrences at/above which a segment is boilerplate",
    )
    ap.add_argument(
        "--boiler-join", default="\n",
        help="string joining the surviving segments (the separator's "
        "canonical form when the sep is a regex)",
    )
    ap.add_argument(
        "--pack-budget",
        type=int,
        default=None,
        help="assign bin_id for training-sequence packing (tokens per bin)",
    )
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            num_cpus=args.num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from sqlgrep_ray.pipelines.curate import _semi_filter, _collect_ids
    from sqlgrep_ray.sources import read_parquet_clean
    from sqlgrep_ray.stages.dedup import exact_dedup, minhash_lsh_dedup
    from sqlgrep_ray.stages.textdup import duplicate_ngram_stats
    from sqlgrep_ray.stages.textstats import text_stats

    _STAGE_DIRS = {
        "reassemble": "docs", "stats": "stats", "winners": "winners",
        "pairs": "pairs", "dupgrams": "dupgrams", "decontam": "decontam",
        "final": "final",
    }
    os.makedirs(args.out, exist_ok=True)
    t0 = time.time()
    timings: dict[str, float] = {}
    skipped: list[str] = []

    def stage(name: str):
        """True ⇒ run it (marker absent). A rerun first DELETES the stage's
        partial output (idempotent, like CheckpointedRun._clean_partial) so
        interrupted stages never leave duplicate files behind."""
        if os.path.exists(_done(args.out, name)):
            skipped.append(name)
            return False
        shutil.rmtree(os.path.join(args.out, _STAGE_DIRS[name]), ignore_errors=True)
        return True

    def finish(name: str, t_start: float) -> None:
        timings[name] = round(time.time() - t_start, 2)
        # an all-empty stage writes no files at all — pin the directory so
        # resume checks and downstream reads see "empty", not "missing"
        os.makedirs(os.path.join(args.out, _STAGE_DIRS[name]), exist_ok=True)
        open(_done(args.out, name), "w").write(str(time.time()))

    def read_stage(path: str, schema: "dict[str, pa.DataType]"):
        """Read a stage's parquet, or an empty typed Dataset when the stage
        legitimately produced zero rows (e.g. no near-dup pairs)."""
        import glob

        if glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True):
            return rd.read_parquet(path)
        return rd.from_arrow(
            pa.table({k: pa.array([], v) for k, v in schema.items()})
        )

    corpus_input = args.input
    if args.from_transcripts:
        # stage 0: turns -> documents. doc_id is a deterministic 64-bit
        # hash of conv_id (collision odds ~n²/2^64 — negligible below
        # ~10^9 conversations per job); conv_id rides along for lineage.
        docs_dir = os.path.join(args.out, "docs")
        if stage("reassemble"):
            t = time.time()
            import pandas as pd

            from sqlgrep_ray.stages.conversation import reassemble_conversations

            turns = read_parquet_clean(
                args.input, columns=["conv_id", "turn_idx", "role", "text"]
            )

            def add_doc_id(tb: pa.Table) -> pa.Table:
                h = pd.util.hash_pandas_object(
                    tb.select(["conv_id"]).to_pandas(), index=False
                ).to_numpy()
                return tb.append_column(
                    "doc_id", pa.array(h.astype("int64"))
                ).rename_columns(
                    [("text" if c == "doc" else c) for c in tb.column_names]
                    + ["doc_id"]
                )

            reassemble_conversations(turns).map_batches(
                add_doc_id, batch_format="pyarrow", zero_copy_batch=True
            ).write_parquet(docs_dir)
            finish("reassemble", t)
        corpus_input = docs_dir

    stats_dir = os.path.join(args.out, "stats")
    if stage("stats"):
        t = time.time()
        langs = (
            None
            if args.languages == "all"
            else pa.array(args.languages.split(","))
        )
        stat_cols = ["doc_id", "text"] + (
            ["conv_id"] if args.from_transcripts else []
        )
        ds = text_stats(read_parquet_clean(corpus_input, columns=stat_cols))
        if args.max_dup_token_frac is not None:
            from sqlgrep_ray.stages.repetition import with_repetition

            ds = with_repetition(ds)

        def keep(tb: pa.Table) -> pa.Table:
            mask = pc.and_(
                pc.greater_equal(tb["quality_score"], args.min_quality),
                pc.greater_equal(tb["n_tokens_ws"], args.min_tokens),
            )
            if langs is not None:
                mask = pc.and_(pc.is_in(tb["lang_pred"], value_set=langs), mask)
            if args.max_dup_token_frac is not None:
                # Gopher repetition rule, integer-safe: duplicate-token
                # fraction = (n_tokens - n_distinct) / n_tokens <= F
                dup = pc.subtract(tb["n_tokens"], tb["n_distinct_tokens"])
                cap = pc.multiply(
                    tb["n_tokens"].cast(pa.float64()),
                    pa.scalar(float(args.max_dup_token_frac)),
                )
                mask = pc.and_(
                    pc.less_equal(dup.cast(pa.float64()), cap), mask
                )
            return tb.filter(mask)

        ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
            stats_dir
        )
        finish("stats", t)

    winners_dir = os.path.join(args.out, "winners")
    if stage("winners"):
        t = time.time()
        exact_dedup(
            rd.read_parquet(stats_dir), key="fingerprint", id_col="doc_id"
        ).write_parquet(winners_dir)
        finish("winners", t)

    pairs_dir = os.path.join(args.out, "pairs")
    if stage("pairs"):
        t = time.time()
        minhash_lsh_dedup(
            rd.read_parquet(stats_dir),
            id_col="doc_id",
            threshold=args.near_dup_threshold,
        ).write_parquet(pairs_dir)
        finish("pairs", t)

    dup_dir = os.path.join(args.out, "dupgrams")
    if stage("dupgrams"):
        t = time.time()
        duplicate_ngram_stats(
            rd.read_parquet(stats_dir), k=args.dup_ngram_k
        ).write_parquet(dup_dir)
        finish("dupgrams", t)

    decon_dir = os.path.join(args.out, "decontam")
    if args.benchmark and stage("decontam"):
        t = time.time()
        from sqlgrep_ray.stages.decontam import benchmark_ngrams, decontaminate

        bench_texts = (
            read_parquet_clean(args.benchmark, columns=["text"])
            .to_pandas()["text"]
            .tolist()
        )
        bench = benchmark_ngrams(bench_texts, args.decontam_k)
        flagged = decontaminate(
            rd.read_parquet(stats_dir), bench, k=args.decontam_k
        )
        flagged.map_batches(
            lambda tb: tb.filter(tb["contaminated"]).select(["doc_id"]),
            batch_format="pyarrow", zero_copy_batch=True,
        ).write_parquet(decon_dir)
        finish("decontam", t)

    final_dir = os.path.join(args.out, "final")
    if stage("final"):
        t = time.time()
        from sqlgrep_ray.pipelines.curate import _id_filter

        filtered = rd.read_parquet(stats_dir)
        winners = rd.read_parquet(winners_dir)
        # size-aware keep-set application (same policy as pipelines.curate):
        # broadcast small id sets, key-bucketed semi/anti-join above the bound
        kept = _id_filter(filtered, winners, "doc_id", keep=True)
        pairs = read_stage(
            pairs_dir,
            {"id_a": pa.int64(), "id_b": pa.int64(), "jaccard": pa.float64()},
        )
        losers_ds = pairs.map_batches(
            lambda tb: pa.table({"doc_id": tb["id_b"]}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        kept = _id_filter(kept, losers_ds, "doc_id", keep=False)
        # duplicate-gram fraction cap: broadcast the over-cap ids
        dup = read_stage(
            dup_dir,
            {"doc_id": pa.int64(), "dup_grams": pa.int64(),
             "total_grams": pa.int64()},
        )

        def over_cap(tb: pa.Table) -> pa.Table:
            frac = pc.divide(
                tb["dup_grams"].cast(pa.float64()),
                pc.max_element_wise(tb["total_grams"].cast(pa.float64()), 1.0),
            )
            return tb.filter(pc.greater(frac, args.dup_ngram_max_frac)).select(
                ["doc_id"]
            )

        bad = dup.map_batches(over_cap, batch_format="pyarrow", zero_copy_batch=True)
        bad_ids = _collect_ids(bad, "doc_id")
        if len(bad_ids):
            kept = _semi_filter(kept, bad_ids, "doc_id", keep=False)
        if args.benchmark:
            contaminated = read_stage(decon_dir, {"doc_id": pa.int64()})
            kept = _id_filter(kept, contaminated, "doc_id", keep=False)
        if args.scrub_boilerplate:
            from sqlgrep_ray.stages.segdedup import segment_dedup

            # corpus-repeated segments removed from the surviving text;
            # original columns (lang_pred partition key, stats) survive
            kept = segment_dedup(
                kept,
                sep=args.boiler_sep,
                join_str=args.boiler_join,
                min_count=args.boiler_min_count,
            )
        if args.scrub_pii:
            from sqlgrep_ray.stages.scrub import scrub_pii

            # redacted text replaces the raw column in the output corpus
            kept = scrub_pii(kept, text_col="text", redacted_col="text")
        if args.pack_budget:
            from sqlgrep_ray.stages.pack import pack_sequences

            # training-sequence packing: deterministic per-block next-fit
            # over the stats-stage token counts (docs sharing a bin_id
            # concatenate into one ≤ budget-token training sequence).
            # repartition to a FIXED block count after the sort so block
            # boundaries — and therefore bin assignment — are reproducible
            # across runs and cluster sizes (pack.py packs per block; at
            # most PACK_BLOCKS-1 boundary bins are under-filled)
            PACK_BLOCKS = 16
            kept = pack_sequences(
                kept.sort("doc_id").repartition(PACK_BLOCKS),
                budget=args.pack_budget,
                tokens_col="n_tokens_ws",
            )
        kept.write_parquet(final_dir, partition_cols=["lang_pred"])
        finish("final", t)

    rows_out = read_stage(final_dir, {"doc_id": pa.int64()}).count()
    metrics = {
        "wall_s": round(time.time() - t0, 2),
        "rows_out": rows_out,
        "stages_run": timings,
        "stages_skipped_resume": skipped,
    }
    with open(os.path.join(args.out, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=1)
    print(json.dumps(metrics))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
