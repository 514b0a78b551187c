"""Winnowing document fingerprints — rolling-hash local fingerprinting.

The north-star asks for "document fingerprinting (rolling hash)";
``textstats.fingerprint64`` is a whole-document hash (exact dedup key),
while this module implements LOCAL fingerprints via the classic winnowing
scheme (Schleimer/Wilkerson/Aiken, SIGMOD 2003 — the MOSS algorithm):

1. Karp-Rabin rolling hash over every ``k``-character window of the
   whitespace-normalized document (position ``i`` drops out of the hash in
   O(1) as ``i+k`` enters — the "rolling" property);
2. winnowing: within every window of ``w`` consecutive hashes keep the
   minimum (rightmost on ties); consecutive duplicate selections collapse.
   Guarantee: any shared substring of length ≥ ``w + k - 1`` yields at
   least one shared fingerprint — partial-copy detection, not just
   whole-document equality.

``winnow_fingerprints`` emits one row per (doc, selected fingerprint) —
the exploded layout feeds ``groupby(fp)`` collision analysis exactly like
the LSH bucket tables; ``shared_fingerprint_pairs`` composes it into
"documents sharing ≥ m fingerprints" via one pair merge
(``exchange.merge``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from sqlgrep_ray.stages import exchange
from sqlgrep_ray.stages.textnorm import split_whitespace

_B = np.uint64(1_000_003)  # polynomial base
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)

# Fingerprints-per-document estimate used to size the pair-generation
# bucket shuffle from the DOCUMENT count (free from parquet metadata)
# instead of re-running fingerprinting just to count its output rows.
# Winnowing selects ~2/(w+1) fingerprints per character (~0.12/char at
# the default w=16), so 256 corresponds to a ~2 KB document — deliberately
# on the high side so the resolved bucket count errs toward more, smaller
# tasks.
FP_PER_DOC_EST = 256


def _estimate_fp_rows(ds: "ray.data.Dataset") -> int:
    """Estimated (doc_id, fp) row count for bucket sizing — document count
    (metadata-free on a fresh parquet read) × :data:`FP_PER_DOC_EST`."""
    from sqlgrep_ray.stages.window import _estimate_rows

    return _estimate_rows(ds) * FP_PER_DOC_EST


def _rolling_hashes(data: bytes, k: int) -> np.ndarray:
    """Karp-Rabin hashes of every k-byte window (mod 2^64)."""
    b = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
    n = len(b)
    if n < k:
        return np.array([], dtype=np.uint64)
    # h[i] = sum b[i+j] * B^(k-1-j); computed with k vectorized passes
    h = np.zeros(n - k + 1, dtype=np.uint64)
    for j in range(k):
        h = (h * _B + b[j : n - k + 1 + j]) & _MASK
    return h


def winnow_doc(text: str, k: int = 25, w: int = 16) -> np.ndarray:
    """Selected fingerprints (sorted unique int64) of one document."""
    import pandas as pd

    from sqlgrep_ray.stages.textnorm import arrow_lower, arrow_split

    # utf8proc normalization — bit-identical to the batch path (textnorm.py)
    norm = arrow_lower(" ".join(arrow_split(text or ""))).encode()
    h = _rolling_hashes(norm, k)
    if len(h) == 0:
        # short document: one whole-content fingerprint keeps it matchable
        if not norm:
            return np.array([], dtype=np.int64)
        pad = norm + b"\x00" * (k - len(norm))
        h = _rolling_hashes(pad, k)
    # 53-bit fingerprints: the vectorized sliding-min runs in float64
    # (pandas rolling, C impl), which is exact only up to 2^53 — truncate
    # the hash FIRST so no value is ever rounded
    h53 = (h >> np.uint64(11)).astype(np.float64)
    if len(h53) <= w:
        sel = np.array([h53.min()])
    else:
        sel = np.unique(pd.Series(h53).rolling(w).min().to_numpy()[w - 1 :])
    return np.unique(sel.astype(np.int64))


def _sliding_min(x: np.ndarray, w: int) -> np.ndarray:
    """Trailing-window minimum (pandas ``rolling(w).min()`` alignment:
    ``out[i] = min(x[i-w+1 : i+1])`` for ``i ≥ w-1``; earlier entries are
    undefined and never read by the caller). Van Herk/Gil-Werman two-pass
    block minima — O(n) integer ops, no float conversion."""
    n = len(x)
    nb = -(-n // w)
    pad = nb * w - n
    xp = np.concatenate([x, np.full(pad, np.iinfo(x.dtype).max, dtype=x.dtype)])
    blocks = xp.reshape(nb, w)
    pref = np.minimum.accumulate(blocks, axis=1).ravel()
    suff = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    out = np.empty(n, dtype=x.dtype)
    i = np.arange(w - 1, n)
    out[w - 1 :] = np.minimum(suff[i - w + 1], pref[i])
    return out


def _winnow_batch(
    filled: pa.Array, k: int, w: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized :func:`winnow_doc` over a null-free string array.

    Returns ``(rows, fps)`` — one entry per (doc, unique selected
    fingerprint). One Karp-Rabin pass and ONE integer sliding-min run over
    the whole concatenated normalized buffer; windows crossing a document
    boundary are simply never selected (their positions fall outside the
    per-doc valid ranges), so results are exact-equivalent per doc.
    """
    import pyarrow.compute as pc

    n = len(filled)
    # normalization parity with `" ".join(text.split()).lower()`: unicode
    # whitespace split, empty pieces dropped, single-space join, lower
    splits = split_whitespace(filled)
    if isinstance(splits, pa.ChunkedArray):
        splits = splits.combine_chunks()
    flat = splits.flatten()
    offsets = splits.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    flat = flat.filter(pa.array(nonempty))
    cumne = np.concatenate([[0], np.cumsum(nonempty, dtype=np.int64)])
    offs = cumne[offsets]
    lst = pa.ListArray.from_arrays(pa.array(offs, pa.int32()), flat)
    norm = pc.utf8_lower(pc.binary_join(lst, pa.scalar(" ")))
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    raw_off = np.frombuffer(norm.buffers()[1], dtype=np.int32)
    boff = raw_off[norm.offset : norm.offset + n + 1].astype(np.int64)
    data = np.frombuffer(norm.buffers()[2], dtype=np.uint8)[boff[0] : boff[-1]]
    boff = boff - boff[0]
    lens = boff[1:] - boff[:-1]
    total = len(data)

    rows_out: list[np.ndarray] = []
    fps_out: list[np.ndarray] = []

    nh = np.maximum(lens - k + 1, 0)  # valid hash count per doc
    hs = boff[:-1]
    he = hs + nh
    if total >= k and nh.any():
        b = data.astype(np.uint64)
        h = np.zeros(total - k + 1, dtype=np.uint64)
        for j in range(k):
            # in-place, no temporaries; uint64 arithmetic wraps mod 2^64 by
            # itself, so the explicit mask of the scalar path is redundant
            np.multiply(h, _B, out=h)
            np.add(h, b[j : total - k + 1 + j], out=h)
        # 53-bit fingerprints, kept in uint64: winnow_doc's float64 rolling
        # min selects exactly the same VALUES (53-bit ints are float-exact),
        # so an integer sliding-min is equivalence-preserving and skips two
        # 240 MB float conversions
        np.right_shift(h, np.uint64(11), out=h)
        h53 = h
        # docs with 1..w hashes: plain min over their hash segment,
        # computed in ≤ w vectorized passes
        small = np.flatnonzero((nh >= 1) & (nh <= w))
        if len(small):
            s_hs, s_he = hs[small], he[small]
            m = h53[s_hs].copy()
            for j in range(1, w):
                np.minimum(m, h53[np.minimum(s_hs + j, s_he - 1)], out=m)
            rows_out.append(small.astype(np.int64))
            fps_out.append(m.astype(np.int64))
        # docs with > w hashes: one global rolling-min, positions clipped
        # to each doc's in-bounds windows
        big = np.flatnonzero(nh > w)
        if len(big):
            roll = _sliding_min(h53, w)
            starts2 = hs[big] + w - 1
            counts = he[big] - starts2
            cum0 = np.concatenate([[0], np.cumsum(counts)])
            tot = int(cum0[-1])
            idx = np.repeat(starts2 - cum0[:-1], counts) + np.arange(tot)
            rows_out.append(np.repeat(big.astype(np.int64), counts))
            fps_out.append(roll[idx].astype(np.int64))
    # short non-empty docs (< k normalized bytes): zero-padded single hash,
    # rare — per-doc loop over just those
    short = np.flatnonzero((lens > 0) & (nh == 0))
    for i in short:
        seg = bytes(data[boff[i] : boff[i + 1]])
        pad = seg + b"\x00" * (k - len(seg))
        hv = _rolling_hashes(pad, k)
        fp = int((hv[0] >> np.uint64(11)).astype(np.float64))
        rows_out.append(np.array([i], dtype=np.int64))
        fps_out.append(np.array([fp], dtype=np.int64))
    if not rows_out:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    rows = np.concatenate(rows_out)
    fps = np.concatenate(fps_out)
    # unique fingerprints per doc
    order = np.lexsort((fps, rows))
    rows, fps = rows[order], fps[order]
    keep = np.concatenate(
        [[True], (rows[1:] != rows[:-1]) | (fps[1:] != fps[:-1])]
    )
    return rows[keep], fps[keep]


def winnow_fingerprints(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 25,
    w: int = 16,
) -> "ray.data.Dataset":
    """Exploded (doc_id, fp) rows — fixed-width int pairs, text never leaves
    the fingerprinting stage."""

    def fp_batch(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = t[id_col].to_numpy(zero_copy_only=False)
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        rows, fps = _winnow_batch(pc.fill_null(col, ""), k, w)
        return pa.table(
            {
                id_col: pa.array(ids[rows] if len(rows) else [], pa.int64()),
                "fp": pa.array(fps, pa.int64()),
            }
        )

    return ds.select_columns([id_col, text_col]).map_batches(
        fp_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def shared_fingerprint_pairs(
    ds: "ray.data.Dataset",
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 25,
    w: int = 16,
    min_shared: int = 2,
    max_bucket: int = 256,
    metrics=None,
    num_buckets: "int | None" = None,
) -> "ray.data.Dataset":
    """Document pairs sharing ≥ ``min_shared`` winnowing fingerprints —
    partial-copy candidates (a shared span of ≥ w+k−1 normalized chars
    guarantees ≥ 1 shared fingerprint). Pair counting runs per fingerprint
    bucket and merges with ONE pair merge (``exchange.merge``).

    HOT-FINGERPRINT CAP (deliberate, counted, NOT silent): a fingerprint
    shared by more than ``max_bucket`` documents contributes m(m−1)/2
    pairs — quadratic output that no downstream consumer of a
    "partial-copy candidates" list can use (such a fingerprint is
    boilerplate, the winnowing analogue of a stopword; df-capping it is
    the standard treatment). Unlike the dedup verifiers, sub-splitting
    cannot preserve semantics here — the OUTPUT is the pair list itself,
    so any split elides cross-chunk pairs — hence runs over the cap are
    skipped entirely and counted into ``metrics``
    (``winnow.capped_fingerprints`` / ``winnow.capped_docs``). Pass a
    larger ``max_bucket`` (or ``metrics`` to observe the tail) when
    exhaustive pairs matter; pairs among ≤ ``max_bucket``-df fingerprints
    are exhaustive and exact (oracle-checked)."""
    from sqlgrep_ray.stages.window import resolve_buckets

    actor = metrics.actor if metrics is not None else None

    fps = winnow_fingerprints(ds, id_col, text_col, k, w)
    # Bucket count auto-sizes like every other bucket-shuffle op
    # (resolve_buckets, window.py). Sizing input: the fp table is
    # ~FP_PER_DOC_EST narrow int rows per document (winnowing density is
    # 2/(w+1) fps/char ⇒ ~0.12/char at w=16; 256 ≈ a 2 KB doc), estimated
    # from the DOCUMENT count so the resolve stays metadata-free on a
    # fresh parquet read instead of re-running fingerprinting to count.
    n_buckets = (
        num_buckets
        if num_buckets is not None
        else resolve_buckets(None, n_rows=_estimate_fp_rows(ds))
    )

    def bucket_pairs(g: pa.Table) -> pa.Table:
        # one task per fp-hash BUCKET, not per fingerprint: sort by fp,
        # detect runs vectorized, and only loop over the (rare) fps shared
        # by ≥ 2 docs — singleton fps (the vast majority) never touch
        # Python
        n = g.num_rows
        a_out, b_out = [], []
        if n:
            order = pc.sort_indices(
                g, [("fp", "ascending"), (id_col, "ascending")]
            )
            g = g.take(order)
            fp = g["fp"].to_numpy(zero_copy_only=False)
            ids = g[id_col].to_numpy(zero_copy_only=False)
            change = np.r_[True, fp[1:] != fp[:-1]]
            starts = np.flatnonzero(change)
            lens = np.diff(np.r_[starts, n])
            for s, ln in zip(starts[lens >= 2], lens[lens >= 2]):
                run = np.unique(ids[s:s + ln])
                m = len(run)
                if 2 <= m <= max_bucket:
                    x, y = np.triu_indices(m, 1)
                    a_out.append(run[x])
                    b_out.append(run[y])
                elif m > max_bucket and actor is not None:
                    # df-capped hot fingerprint — see docstring
                    actor.incr.remote("winnow.capped_fingerprints", 1)
                    actor.incr.remote("winnow.capped_docs", m)
        a = np.concatenate(a_out) if a_out else np.array([], dtype=np.int64)
        b = np.concatenate(b_out) if b_out else np.array([], dtype=np.int64)
        return pa.table(
            {
                "id_a": pa.array(a.astype(np.int64)),
                "id_b": pa.array(b.astype(np.int64)),
                "shared": pa.array(np.ones(len(a), dtype=np.int64)),
            }
        )

    pairs = exchange.bucketed(fps, "fp", n_buckets, bucket_pairs)
    merged = exchange.merge(pairs, ["id_a", "id_b"], [("shared", "sum")])

    def keep(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["shared"], min_shared))

    return exchange.as_dataset(exchange.apply(merged, keep))
