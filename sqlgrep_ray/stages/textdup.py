"""Duplicate n-gram span statistics — corpus-level repeated-text signal.

Per document: how many of its token k-gram OCCURRENCES also occur elsewhere
in the corpus (or again in the same document) — the "duplicate n-gram
fraction" quality signal from substring-dedup work on LLM training data
(Lee et al. 2022, "Deduplicating Training Data Makes Language Models
Better"); C4/RefinedWeb-style pipelines drop or down-weight documents with
high duplicate fractions.

Not in the reference (its dedup stops at SELECT DISTINCT,
``execution/helpers.rs:5-25``); built from the same Ray Data primitives as
the rest of the engine and scale-safe by construction:

1. per-block combine: (gram_hash, doc_id) → occurrence count
   (``pa.TableGroupBy``, vectorized) — only fixed-width int pairs leave the
   block, never text;
2. one merge on (gram_hash, doc_id) — global per-doc gram counts;
3. per gram: the gram's total occurrences, and a flag on grams with
   total ≥ 2 — in one gram-bucketed pass (``exchange.bucketed``), or on
   the driver when step 2 merged there; then one merge on doc_id sums
   duplicate vs total occurrences.

Both merges are the engine's one merge gate (``exchange.merge``): on the
driver when the partials are few, else bucketed.

Output: (doc_id, dup_grams, total_grams) — integers, so the DuckDB oracle
(string shingles via list lambdas) matches hash-exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages import exchange


def _gram_hashes(text: str, k: int) -> np.ndarray:
    """64-bit hashes of each token k-gram occurrence (with multiplicity).
    Texts shorter than ``k`` tokens contribute ONE gram: the whole token
    sequence (mirrors ``dedup._token_shingles``)."""
    from sqlgrep_ray.stages.textnorm import arrow_split

    toks = arrow_split(text or "")
    if not toks:
        return np.array([], dtype=np.int64)
    if len(toks) < k:
        spans = [" ".join(toks)]
    else:
        spans = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
    out = np.empty(len(spans), dtype=np.int64)
    for i, s in enumerate(spans):
        out[i] = int.from_bytes(
            hashlib.blake2b(s.encode(), digest_size=8).digest(),
            "little",
            signed=True,  # same bits as the int64 merge keys
        )
    return out


def duplicate_ngram_stats(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 8,
) -> "ray.data.Dataset":
    """(doc_id, dup_grams, total_grams): of the document's ``total_grams``
    k-gram occurrences, ``dup_grams`` belong to grams seen ≥ 2 times in the
    whole corpus. ``dup_grams / total_grams`` is the duplicate-span
    fraction; filter or down-weight above a threshold."""
    from sqlgrep_ray.stages.window import resolve_buckets

    def explode(t: pa.Table) -> pa.Table:
        from sqlgrep_ray.stages.decontam import _doc_grams

        ids = t[id_col].to_numpy(zero_copy_only=False)
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        filled = pc.fill_null(col, "")
        # shared vectorized gram kernel + blake2b once per UNIQUE gram
        # (dictionary-encode) — exact-equivalent to per-row _gram_hashes
        grams, rows, _ntok = _doc_grams(filled, k)
        if not len(grams):
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "gram": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        enc = pc.dictionary_encode(grams)
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
        codes = enc.indices.to_numpy(zero_copy_only=False)
        uh = np.fromiter(
            (
                int.from_bytes(
                    hashlib.blake2b(u.encode(), digest_size=8).digest(),
                    "little",
                )
                for u in enc.dictionary.to_pylist()
            ),
            dtype=np.uint64,
            count=len(enc.dictionary),
        ).view(np.int64)  # same bits as signed=True in _gram_hashes
        tbl = pa.table(
            {
                id_col: pa.array(ids[rows]),
                "gram": pa.array(uh[codes]),
            }
        )
        # per-block combine: one row per (gram, doc) with its occurrence count
        return (
            pa.TableGroupBy(tbl, ["gram", id_col])
            .aggregate([([], "count_all")])
            .rename_columns(["gram", id_col, "cnt"])
        )

    pairs = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )
    per_doc = exchange.merge(pairs, ["gram", id_col], [("cnt", "sum")])

    # a gram's rows are all in one table (the driver's, or one bucket), so
    # the per-gram totals and the flags finish there (no totals join)
    def flag(g: pa.Table) -> pa.Table:
        totals_t = pa.TableGroupBy(
            g.select(["gram", "cnt"]), ["gram"]
        ).aggregate([("cnt", "sum")])
        pos = pc.index_in(g["gram"], value_set=totals_t["gram"])
        total = totals_t["cnt_sum"].take(pos)
        dup = pc.if_else(
            pc.greater_equal(total, 2), g["cnt"], pa.scalar(0, pa.int64())
        )
        return pa.table({id_col: g[id_col], "cnt": g["cnt"], "dup": dup})

    if isinstance(per_doc, pa.Table):
        flagged = flag(per_doc)
    else:
        per_doc = per_doc.materialize()  # the bucket count reads its rows
        flagged = exchange.bucketed(
            per_doc, "gram", resolve_buckets(None, per_doc), flag
        )
    out = exchange.merge(flagged, [id_col], [("dup", "sum"), ("cnt", "sum")])
    return exchange.as_dataset(
        exchange.apply(
            out,
            lambda t: t.select([id_col, "dup", "cnt"]).rename_columns(
                [id_col, "dup_grams", "total_grams"]
            ),
        )
    )
