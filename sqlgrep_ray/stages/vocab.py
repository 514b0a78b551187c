"""Corpus vocabulary statistics — token frequencies and top-k tokens.

The "what is in this corpus" primitive every training-data run starts with
(tokenizer training, stopword discovery, boilerplate detection). Not in the
reference (aggregation there is per-group scalar state,
``aggregate_execution.rs:131-247``); Ray-Data-first and combiner-first:

1. per-block combine: ONE ``pc.utf8_split_whitespace`` + ``value_counts``
   per batch turns a text block into its local (token, count) table — the
   shuffle then carries at most the block's distinct-token set, never the
   token stream;
2. one merge of the (token, count) partials (``exchange.merge``: on the
   driver when they are few, else bucketed), bounded by vocabulary size;
3. top-k: per-block local top-k (sort by count desc, token asc) before a
   one-block final merge — candidates ≤ k per block, the grouped-topk
   pattern (``stages/topk.py``) with a constant key.

Counts are integers → the DuckDB ``unnest(regexp_split_to_array(...))``
oracle matches hash-exactly.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages import exchange
from sqlgrep_ray.stages.textnorm import split_whitespace


def token_frequencies(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    lower: bool = True,
    min_count: int = 1,
) -> "ray.data.Dataset":
    """(token, count) over the whitespace-tokenized corpus (python
    ``str.split()`` parity: unicode whitespace, empty pieces dropped)."""

    def block_counts(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        filled = pc.fill_null(col, "")
        if lower:
            filled = pc.utf8_lower(filled)
        flat = pc.list_flatten(split_whitespace(filled))
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        return pa.table(
            {
                "token": vc.field("values"),
                "count": vc.field("counts"),
            }
        )

    partials = ds.select_columns([text_col]).map_batches(
        block_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    counts = exchange.as_dataset(
        exchange.merge(partials, ["token"], [("count", "sum")])
    )
    if min_count > 1:
        counts = counts.map_batches(
            lambda t: t.filter(pc.greater_equal(t["count"], min_count)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    return counts


def top_tokens(
    ds: "ray.data.Dataset",
    n: int,
    text_col: str = "text",
    lower: bool = True,
) -> "ray.data.Dataset":
    """Global top-``n`` tokens by count (ties broken by token ascending —
    deterministic, oracle-comparable). Combiner-first: each vocabulary
    block surrenders only its local top-n, the one-block final merge sees
    ≤ n × blocks candidate rows, never the vocabulary."""

    def local_topn(t: pa.Table) -> pa.Table:
        if t.num_rows <= n:
            return t
        idx = pc.sort_indices(
            t, [("count", "descending"), ("token", "ascending")]
        )
        return t.take(idx.slice(0, n))

    return exchange.one_block(
        token_frequencies(ds, text_col=text_col, lower=lower).map_batches(
            local_topn, batch_format="pyarrow", zero_copy_batch=True
        ),
        local_topn,
    )
