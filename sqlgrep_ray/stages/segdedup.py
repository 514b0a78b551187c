"""Segment-level corpus dedup — boilerplate removal inside documents.

RefinedWeb / CCNet-style pipelines dedup at SUB-document granularity:
a line, paragraph, or sentence that repeats across the corpus (nav bars,
license headers, log boilerplate) is removed from every document while the
unique remainder is kept. The reference engine has nothing below
whole-row DISTINCT (``execution/helpers.rs:5-25``); this stage generalizes
it to any separator.

Dataflow (two passes, payload never shuffles):

1. count pass — split each text on ``sep`` (regex), hash each segment
   (blake2b-64 once per UNIQUE segment per block via dictionary-encode),
   per-block combine to (seg_hash, count), then the engine's one merge
   (``exchange.merge``: on the driver when the partials are few, else
   bucketed);
2. scrub pass — the "hot" hash set (count ≥ ``min_count``) broadcasts via
   ``ray.put`` (it is bounded by the number of DISTINCT repeated segments,
   not the corpus; gated by ``SEG_BROADCAST_MAX``), and one ``map_batches``
   re-splits, drops hot segments, and rejoins with ``join_str``.

Output: (id, text column replaced by the cleaned text, n_segments,
n_removed) — counts are exact ints and the cleaned text is a pure string
function of the input, so a DuckDB unnest/string_agg oracle matches
hash-exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from sqlgrep_ray.stages import exchange

# refuse to broadcast a hot-segment hash set above this many entries —
# 8 bytes each, 128 MB; corpora with more distinct boilerplate than this
# need the join-based variant (raise min_count or pre-bucket)
SEG_BROADCAST_MAX = 16_000_000


def _seg_lists(filled: "pa.Array", sep: str):
    """Split a null-free string column on the separator regex, keeping
    empty pieces (SQL ``regexp_split_to_array`` parity, so the oracle can
    reproduce positions exactly)."""
    out = pc.split_pattern_regex(filled, pattern=sep)
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    return out


def _hash_segments(flat: "pa.Array") -> np.ndarray:
    """blake2b-64 per segment occurrence, hashed once per unique segment."""
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if len(flat) == 0:
        return np.array([], dtype=np.int64)
    enc = pc.dictionary_encode(flat)
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    uh = np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(u.encode(), digest_size=8).digest(), "little"
            )
            for u in enc.dictionary.to_pylist()
        ),
        dtype=np.uint64,
        count=len(enc.dictionary),
    ).view(np.int64)
    return uh[codes]


def segment_dedup(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    sep: str = r"\n",
    join_str: str = "\n",
    min_count: int = 2,
) -> "ray.data.Dataset":
    """Remove corpus-repeated segments from every document.

    A segment occurring ≥ ``min_count`` times across the corpus (counting
    multiplicity, including within one document) is dropped from all
    documents. Returns ``(id_col, text_col` = cleaned text,
    ``n_segments``, ``n_removed)`` — one row per input document (a fully
    boilerplate document keeps an empty string).
    """

    def count_partials(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = _seg_lists(pc.fill_null(col, ""), sep)
        h = _hash_segments(lists.flatten())
        if not len(h):
            return pa.table(
                {"seg": pa.array([], pa.int64()),
                 "cnt": pa.array([], pa.int64())}
            )
        seg, cnt = np.unique(h, return_counts=True)
        return pa.table(
            {"seg": pa.array(seg), "cnt": pa.array(cnt.astype(np.int64))}
        )

    partials = ds.select_columns([text_col]).map_batches(
        count_partials, batch_format="pyarrow", zero_copy_batch=True
    )

    def hot_segs(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["cnt"], min_count)).select(["seg"])

    merged = exchange.merge(partials, ["seg"], [("cnt", "sum")])
    hot = exchange.to_table(exchange.apply(merged, hot_segs))
    hot_arr = (
        hot["seg"].combine_chunks() if hot is not None else pa.array([], pa.int64())
    )
    if len(hot_arr) > SEG_BROADCAST_MAX:
        raise ValueError(
            f"segment_dedup: {len(hot_arr)} distinct repeated segments exceed "
            f"the broadcast budget ({SEG_BROADCAST_MAX}); raise "
            "min_count or pre-partition the corpus"
        )
    hot_ref = ray.put(hot_arr)

    def scrub(t: pa.Table, hot_ref=None) -> pa.Table:
        hot = ray.get(hot_ref) if isinstance(hot_ref, ray.ObjectRef) else hot_ref
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = _seg_lists(pc.fill_null(col, ""), sep)
        flat = lists.flatten()
        offsets = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        h = _hash_segments(flat)
        keep = ~np.isin(h, hot.to_numpy(zero_copy_only=False))
        n = t.num_rows
        nseg = offsets[1:] - offsets[:-1]
        # per-row removed count: total minus kept, via cumsum of the keep
        # mask at row boundaries
        kept_cum = np.concatenate([[0], np.cumsum(keep, dtype=np.int64)])
        kept_per_row = kept_cum[offsets[1:]] - kept_cum[offsets[:-1]]
        removed = nseg - kept_per_row
        # rebuild: filter the flat segments, rebuild offsets, join
        kept_flat = flat.filter(pa.array(keep))
        new_off = kept_cum[offsets]
        kept_lists = pa.ListArray.from_arrays(
            pa.array(new_off, pa.int32()), kept_flat
        )
        cleaned = pc.binary_join(kept_lists, join_str)
        # carry every other column through (the stage slots mid-pipeline:
        # downstream filters/partition columns must survive)
        t = t.set_column(t.schema.get_field_index(text_col), text_col, cleaned)
        t = t.append_column("n_segments", pa.array(nseg, pa.int64()))
        return t.append_column("n_removed", pa.array(removed, pa.int64()))

    return ds.map_batches(
        scrub, fn_kwargs=dict(hot_ref=hot_ref),
        batch_format="pyarrow", zero_copy_batch=True,
    )
