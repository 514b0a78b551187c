"""Character n-gram LM quality scoring — the CCNet-style perplexity filter.

Web-corpus curation scores each document under a language model trained on
a trusted reference corpus and drops the high-perplexity tail (CCNet,
Wenzek et al. 2020 — there with KenLM; no pretrained models exist in this
environment, so the model here is a byte-trigram unigram LM with add-one
smoothing, trained ON the data by the same engine). No reference analogue.

Ray-Data shape:

* **train** is the vocab pattern (``stages/vocab.py``): per-block trigram
  ``value_counts`` combine → one vocabulary-bounded ``exchange.merge`` → the
  model (sorted code + count arrays, ≤ 2^24 entries, practically ~10⁴) is
  collected once and broadcast via ``ray.put``;
* **score** is one stateless ``map_batches``: byte-trigram codes per
  position (the same sliding-window trick as the language-ID matcher),
  ``searchsorted`` into the broadcast model, per-doc segment sums. Only
  (id, counters, score) columns come out.

Byte-level on whitespace-normalized lowercased text; for ASCII corpora
byte trigrams coincide with character trigrams (what the DuckDB oracle
computes). Integer outputs (``n_trigrams``, ``n_oov``) are hash-exact;
``bits_per_char`` is float and pinned by pytest instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from sqlgrep_ray.stages import exchange

_V = 1 << 24  # smoothing vocabulary: all byte trigrams


def _norm(filled: pa.Array) -> pa.Array:
    wsn = pc.replace_substring_regex(filled, r"\s+", " ")
    wsn = pc.utf8_trim_whitespace(wsn)
    return pc.utf8_lower(wsn)


def _tri_codes(norm: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(codes, row_id) per byte-trigram position of the normalized docs."""
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    n = len(norm)
    raw_off = np.frombuffer(norm.buffers()[1], dtype=np.int32)
    boff = raw_off[norm.offset : norm.offset + n + 1].astype(np.int64)
    data = np.frombuffer(norm.buffers()[2], dtype=np.uint8)[boff[0] : boff[-1]]
    boff = boff - boff[0]
    m = len(data)
    if m < 3:
        return np.array([], dtype=np.int32), np.array([], dtype=np.int64)
    d = data.astype(np.int32)
    codes = (d[: m - 2] << 16) | (d[1 : m - 1] << 8) | d[2:]
    lens = boff[1:] - boff[:-1]
    ntri = np.maximum(lens - 2, 0)
    starts = boff[:-1]
    # window starts that stay inside one doc: [start, start + ntri) per doc
    pos = np.flatnonzero(ntri > 0)
    if not len(pos):
        return np.array([], dtype=np.int32), np.array([], dtype=np.int64)
    cnt = ntri[pos]
    cum0 = np.concatenate([[0], np.cumsum(cnt)])
    tot = int(cum0[-1])
    idx = np.repeat(starts[pos] - cum0[:-1], cnt) + np.arange(tot)
    rows = np.repeat(pos, cnt)
    return codes[idx], rows


def train_char_lm(
    ds: "ray.data.Dataset", text_col: str = "text"
) -> "tuple[np.ndarray, np.ndarray, int]":
    """Byte-trigram counts over the reference corpus: ``(sorted codes,
    counts, total)``. Distributed combiner-first; the collected model is
    vocabulary-bounded (≤ 2^24 rows, in practice far smaller)."""
    def block(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes, _rows = _tri_codes(_norm(pc.fill_null(col, "")))
        if not len(codes):
            return pa.table(
                {"code": pa.array([], pa.int32()), "count": pa.array([], pa.int64())}
            )
        uniq, cnt = np.unique(codes, return_counts=True)
        return pa.table({"code": pa.array(uniq), "count": pa.array(cnt)})

    partials = ds.select_columns([text_col]).map_batches(
        block, batch_format="pyarrow", zero_copy_batch=True
    )
    t = exchange.to_table(exchange.merge(partials, ["code"], [("count", "sum")]))
    if t is None:
        return np.array([], dtype=np.int32), np.array([], dtype=np.int64), 0
    codes = t["code"].to_numpy(zero_copy_only=False)
    counts = t["count"].to_numpy(zero_copy_only=False)
    order = np.argsort(codes)
    codes, counts = codes[order], counts[order]
    return codes, counts, int(counts.sum())


def lm_score(
    ds: "ray.data.Dataset",
    model: "tuple[np.ndarray, np.ndarray, int]",
    id_col: str = "doc_id",
    text_col: str = "text",
) -> "ray.data.Dataset":
    """(id, n_trigrams, n_oov, bits_per_char) per document with ≥ 3
    normalized bytes. ``bits_per_char`` = mean −log2 P(trigram) under the
    add-one-smoothed model — the drop-the-tail quality signal; ``n_oov``
    counts trigrams unseen in the reference."""
    codes_ref, counts_ref, total = model
    mref = ray.put((codes_ref, counts_ref))
    denom = float(total + _V)

    def score(t: pa.Table) -> pa.Table:
        rc, rcnt = ray.get(mref)
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        codes, rows = _tri_codes(_norm(pc.fill_null(col, "")))
        n = t.num_rows
        ntri = np.zeros(n, dtype=np.int64)
        oov = np.zeros(n, dtype=np.int64)
        bits = np.zeros(n, dtype=np.float64)
        if len(codes):
            if len(rc):
                idx = np.searchsorted(rc, codes)
                idx_c = np.minimum(idx, len(rc) - 1)
                found = rc[idx_c] == codes
                cnt = np.where(found, rcnt[idx_c], 0)
            else:
                cnt = np.zeros(len(codes), dtype=np.int64)
            logp = np.log2((cnt + 1.0) / denom)
            np.add.at(ntri, rows, 1)
            np.add.at(oov, rows, (cnt == 0).astype(np.int64))
            np.add.at(bits, rows, -logp)
        keep = ntri > 0
        bpc = np.zeros(n, dtype=np.float64)
        bpc[keep] = bits[keep] / ntri[keep]
        return pa.table(
            {
                id_col: t[id_col].filter(pa.array(keep)),
                "n_trigrams": pa.array(ntri[keep]),
                "n_oov": pa.array(oov[keep]),
                "bits_per_char": pa.array(bpc[keep]),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", zero_copy_batch=True
    )
