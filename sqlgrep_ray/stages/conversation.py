"""Conversation-level operators over transcript turn tables.

The input shape is the north-rule transcript table (conv_id:string,
turn_idx:int32, role:string, text:string, tool:string, ts:timestamp).
These operators bridge the TURN world (one row per turn, the flagship
parse/route/aggregate unit) and the DOCUMENT world (one row per
conversation — the unit the curation suite dedups, scores and packs):

* ``reassemble_conversations`` — turns → documents: per conversation, the
  ``"{role}: {text}"`` lines joined in turn order plus ``n_turns``. The
  output feeds directly into text_stats / dedup / curate, so a user can run
  the whole training-data suite at conversation granularity.

Execution is the key-hash bucket pattern shared with
``stages/window.py`` (sessionize / lag_shift): hash conv_id into
``num_buckets`` buckets, one shuffle, then ONE vectorized sort +
segment-join per bucket — no per-conversation Python, and the text payload
moves through the exchange exactly once. Partitioning assumption
(documented): one conversation's turns fit one worker — same contract as
sessionize; at 10^12 turns a single conversation is still tiny.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data


def reassemble_conversations(
    ds: "ray.data.Dataset",
    key: str = "conv_id",
    order_col: str = "turn_idx",
    text_col: str = "text",
    role_col: str | None = "role",
    sep: str = "\n",
    out_col: str = "doc",
    num_buckets: "int | None" = None,  # None → window.auto_buckets(n_rows)
) -> "ray.data.Dataset":
    """Collapse a turn table into one document row per conversation.

    Output schema: (key, n_turns:int64, out_col:string) where out_col is
    ``sep``-joined ``"{role}: {text}"`` (or bare text when ``role_col`` is
    None) in ``order_col`` order. SQL-comparable:
    ``string_agg(role || ': ' || text, sep ORDER BY order_col)``.
    Determinism contract: (key, order_col) unique per row; text/role
    non-null (transcript generator guarantees both).
    """
    from sqlgrep_ray.stages.exchange import bucketed
    from sqlgrep_ray.stages.window import resolve_buckets

    num_buckets = resolve_buckets(num_buckets, ds)
    cols = [key, order_col, text_col] + ([role_col] if role_col else [])

    def join_bucket(g: pa.Table) -> pa.Table:
        n = g.num_rows
        key_type = g.schema.field(key).type
        if n == 0:
            return pa.table(
                {
                    key: pa.array([], key_type),
                    "n_turns": pa.array([], pa.int64()),
                    out_col: pa.array([], pa.string()),
                }
            )
        g = g.drop_columns(["__b"])
        order = pc.sort_indices(
            g, [(key, "ascending"), (order_col, "ascending")]
        )
        g = g.take(order)
        karr = g[key].combine_chunks()
        if role_col:
            lines = pc.binary_join_element_wise(
                pc.cast(g[role_col].combine_chunks(), pa.string()),
                pc.cast(g[text_col].combine_chunks(), pa.string()),
                ": ",
            )
        else:
            lines = pc.cast(g[text_col].combine_chunks(), pa.string())
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        from sqlgrep_ray.stages.window import _key_change_mask

        key_change = _key_change_mask(karr, n)
        starts = np.flatnonzero(key_change)
        offsets = np.r_[starts, n]
        lists = pa.ListArray.from_arrays(
            pa.array(offsets, pa.int32()), lines
        )
        docs = pc.binary_join(lists, sep)
        return pa.table(
            {
                key: karr.take(pa.array(starts)),
                "n_turns": pa.array(np.diff(offsets).astype(np.int64)),
                out_col: docs,
            }
        )

    return bucketed(ds, key, num_buckets, join_bucket, cols=cols)
