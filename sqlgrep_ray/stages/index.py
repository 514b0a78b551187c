"""Inverted text index — build posting lists, search them distributed.

"grep at corpus scale": the reference greps line-by-line per query
(`executor.rs:75-121`); at 100 TB you pay the scan ONCE to build an
inverted index (token → sorted doc-id posting list) and answer membership
queries from it. Composes existing engine pieces:

* **build** — per-block (token, doc) pairs deduped per doc (one
  ``value_counts``-style combine, only int/string pairs shuffle), then the
  skew-safe two-phase ``salted_array_agg`` collects each token's posting
  list: a stopword-grade hot token is merged from ≤ ``salt`` sorted
  sublists, never from raw rows.
* **search** — terms are a SMALL set: filter the index to them (pushed to
  the read when the index is parquet), explode postings back to
  (doc, term) pairs, and one merge of per-block match counts per doc
  (``exchange.merge``) keeps docs matching ALL terms (AND) or ANY (OR).

``df`` (document frequency) rides along for IDF-style ranking and lets
callers drop stopword tokens (``max_df``) before search.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages import exchange
from sqlgrep_ray.stages.textnorm import split_whitespace


def build_inverted_index(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    lower: bool = True,
    salt: int = 16,
) -> "ray.data.Dataset":
    """(token, postings list<int64> ascending, df int64) per distinct
    token. Whitespace tokens (python ``str.split()`` parity)."""
    from sqlgrep_ray.stages.skew import salted_array_agg

    def pairs(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        filled = pc.fill_null(col, "")
        if lower:
            filled = pc.utf8_lower(filled)
        splits = split_whitespace(filled)
        if isinstance(splits, pa.ChunkedArray):
            splits = splits.combine_chunks()
        flat = splits.flatten()
        offsets = splits.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        row_of = np.repeat(
            np.arange(t.num_rows, dtype=np.int64), offsets[1:] - offsets[:-1]
        )
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        out = pa.table(
            {
                "token": flat.filter(pa.array(mask)),
                id_col: pa.array(ids[row_of[mask]]),
            }
        )
        # per-block combine: one posting per (token, doc) with its term
        # frequency (occurrences inside the document)
        return (
            pa.TableGroupBy(out, ["token", id_col])
            .aggregate([([], "count_all")])
            .rename_columns(["token", id_col, "tf"])
        )

    tok_doc = ds.select_columns([id_col, text_col]).map_batches(
        pairs, batch_format="pyarrow", zero_copy_batch=True
    )
    agg = salted_array_agg(
        tok_doc.select_columns(["token", id_col]),
        keys=["token"],
        col=id_col,
        alias="postings",
        salt=salt,
    )

    def add_df(t: pa.Table) -> pa.Table:
        return t.append_column(
            "df", pc.list_value_length(t["postings"]).cast(pa.int64())
        )

    return agg.map_batches(add_df, batch_format="pyarrow", zero_copy_batch=True)


def token_doc_tf(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    lower: bool = True,
) -> "ray.data.Dataset":
    """(token, doc, tf) triples — the searchable form of the index (each
    doc lives in one block, so the per-block combine IS the global term
    frequency; no shuffle)."""
    # reuse build_inverted_index's pairs stage without the posting-list
    # packing: same tokenization, one combine per block
    from sqlgrep_ray.stages.textnorm import split_whitespace as _sw  # noqa: F401

    def pairs(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        filled = pc.fill_null(col, "")
        if lower:
            filled = pc.utf8_lower(filled)
        splits = split_whitespace(filled)
        flat = splits.flatten()
        offsets = splits.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        row_of = np.repeat(
            np.arange(t.num_rows, dtype=np.int64), offsets[1:] - offsets[:-1]
        )
        mask = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        out = pa.table(
            {
                "token": flat.filter(pa.array(mask)),
                id_col: pa.array(ids[row_of[mask]]),
            }
        )
        return (
            pa.TableGroupBy(out, ["token", id_col])
            .aggregate([([], "count_all")])
            .rename_columns(["token", id_col, "tf"])
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        pairs, batch_format="pyarrow", zero_copy_batch=True
    )


def ranked_search(
    tok_tf: "ray.data.Dataset",
    terms: Sequence[str],
    k: int = 10,
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Top-``k`` docs for the term set, ranked by (matched terms desc,
    summed term frequency desc, doc id asc) — an integer-only ranking
    (deterministic and oracle-comparable, unlike float tf-idf scores).
    Combiner-first: filter to the term rows and count them per doc in
    each block, one merge per doc (``exchange.merge``), sort + limit."""
    term_set = pa.array(sorted(set(terms)))

    def hit(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["token"], value_set=term_set))
        return (
            pa.TableGroupBy(t, [id_col])
            .aggregate([([], "count_all"), ("tf", "sum")])
            .rename_columns([id_col, "n_matched", "sum_tf"])
        )

    per_doc = exchange.as_dataset(
        exchange.merge(
            tok_tf.map_batches(hit, batch_format="pyarrow", zero_copy_batch=True),
            [id_col],
            [("n_matched", "sum"), ("sum_tf", "sum")],
        )
    )
    return per_doc.sort(
        ["n_matched", "sum_tf", id_col], descending=[True, True, False]
    ).limit(k)


def search_index(
    index: "ray.data.Dataset",
    terms: Sequence[str],
    mode: str = "and",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Doc ids matching the term set: ``mode="and"`` requires every term,
    ``"or"`` any. Postings explode back to (doc, term) pairs, counted per
    doc in each block, and one merge (``exchange.merge``) sums the counts."""
    if mode not in ("and", "or"):
        raise ValueError("mode must be 'and' or 'or'")
    term_set = pa.array(sorted(set(terms)))
    n_terms = len(term_set)

    def explode(t: pa.Table) -> pa.Table:
        hit = t.filter(pc.is_in(t["token"], value_set=term_set))
        postings = hit["postings"]
        if isinstance(postings, pa.ChunkedArray):
            postings = postings.combine_chunks()
        flat = pa.table({id_col: postings.flatten()})
        return pa.TableGroupBy(flat, [id_col]).aggregate([([], "count_all")])

    pairs = index.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    counts = exchange.merge(pairs, [id_col], [("count_all", "sum")])
    need = n_terms if mode == "and" else 1

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["count_all"], need)).select([id_col])

    return exchange.as_dataset(exchange.apply(counts, keep))
